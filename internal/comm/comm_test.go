package comm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tricomm/internal/transport"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// ack is a conventional 1-bit acknowledgement message.
func ack() Msg {
	var w wire.Writer
	w.WriteBit(1)
	return FromWriter(&w)
}

func TestMsgRoundTrip(t *testing.T) {
	var w wire.Writer
	w.WriteUvarint(777)
	m := FromWriter(&w)
	if m.Bits() != w.BitLen() {
		t.Fatalf("Bits = %d, want %d", m.Bits(), w.BitLen())
	}
	v, err := m.Reader().ReadUvarint()
	if err != nil || v != 777 {
		t.Fatalf("decode = %d, %v", v, err)
	}
	// Reader is fresh each time.
	v2, err := m.Reader().ReadUvarint()
	if err != nil || v2 != 777 {
		t.Fatal("second Reader not independent")
	}
	// The message is immune to writer reuse.
	w.Reset()
	w.WriteUvarint(1)
	if v3, _ := m.Reader().ReadUvarint(); v3 != 777 {
		t.Fatal("message aliased the writer buffer")
	}
}

func TestEmptyAndAck(t *testing.T) {
	var m Msg
	if m.Bits() != 0 || m.Reader().Remaining() != 0 {
		t.Fatal("zero Msg not empty")
	}
	if ack().Bits() != 1 {
		t.Fatalf("ack bits = %d", ack().Bits())
	}
}

func TestRunRequestReply(t *testing.T) {
	top := testTopology(t, 6, 4)
	var reported []int64
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			// Ask every player how many edges it holds.
			replies, err := c.AskAll(ctx, ack())
			if err != nil {
				return err
			}
			for _, m := range replies {
				v, err := m.Reader().ReadUvarint()
				if err != nil {
					return err
				}
				reported = append(reported, int64(v))
			}
			return nil
		},
		ServeLoop(func(p *Player, _ Msg) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(uint64(len(p.Edges)))
			return FromWriter(&w), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range reported {
		total += v
	}
	if total != 15 { // K6 has 15 edges
		t.Fatalf("players reported %d edges total, want 15", total)
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", stats.Rounds)
	}
	if stats.Messages != 8 { // 4 down + 4 up
		t.Fatalf("messages = %d, want 8", stats.Messages)
	}
	wantDown := int64(4 * 1) // four 1-bit acks
	if stats.DownBits != wantDown {
		t.Fatalf("down bits = %d, want %d", stats.DownBits, wantDown)
	}
	if stats.UpBits != 4*8 { // four 8-bit uvarints
		t.Fatalf("up bits = %d, want 32", stats.UpBits)
	}
	if stats.TotalBits != stats.UpBits+stats.DownBits {
		t.Fatal("TotalBits inconsistent")
	}
}

func TestRunPlayerViews(t *testing.T) {
	top := testTopology(t, 6, 3)
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			_, err := c.AskAll(ctx, ack())
			return err
		},
		ServeLoop(func(p *Player, _ Msg) (Msg, error) {
			if p.View.M() != len(p.Edges) {
				return Msg{}, fmt.Errorf("view edges %d != input %d", p.View.M(), len(p.Edges))
			}
			for _, e := range p.Edges {
				if !p.View.HasEdge(e.U, e.V) {
					return Msg{}, fmt.Errorf("view missing %v", e)
				}
			}
			return ack(), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	// Players blocked in Recv must exit when the coordinator returns.
	top := testTopology(t, 6, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				return nil // immediately finish without talking to anyone
			},
			func(ctx context.Context, p *Player) error {
				_, err := p.Recv(ctx)
				if !errors.Is(err, ErrShutdown) {
					return fmt.Errorf("expected shutdown, got %v", err)
				}
				return nil
			})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster did not shut down")
	}
}

func TestRunPlayerBlockedInSendShutsDown(t *testing.T) {
	top := testTopology(t, 6, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				return nil
			},
			func(ctx context.Context, p *Player) error {
				// Send unsolicited; the coordinator never receives. The first
				// send may land in the channel buffer; keep sending until the
				// buffer is full and the send truly blocks — shutdown must
				// still unblock it.
				for {
					err := p.Send(ctx, ack())
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrShutdown) {
						return fmt.Errorf("expected shutdown, got %v", err)
					}
					return nil
				}
			})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster did not shut down")
	}
}

func TestRunContextCancellation(t *testing.T) {
	top := testTopology(t, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(ctx, top,
			func(ctx context.Context, c *Coordinator) error {
				// Wait for a message that never comes; must unblock on cancel.
				_, err := c.Recv(ctx, 0)
				return err
			},
			func(ctx context.Context, p *Player) error {
				_, err := p.Recv(ctx)
				if errors.Is(err, ErrShutdown) || errors.Is(err, ErrCanceled) {
					return nil
				}
				return err
			})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the cluster")
	}
}

// closedFirst is a link whose Recv reports the closed peer and never the
// context: the order in which a transport can observe a player that
// returned on cancel before the coordinator's Recv saw the cancellation.
type closedFirst struct{ transport.Conn }

func (closedFirst) Recv(context.Context) (transport.Frame, error) {
	return transport.Frame{}, transport.ErrClosed
}

// TestCanceledRunAfterPlayerExit pins the error a canceled run reports when
// the player exits first: ErrCanceled from both Send's up-front exit check
// and Recv's closed link, never ErrPlayerDone.
func TestCanceledRunAfterPlayerExit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunOn(ctx, testTopology(t, 6, 2),
		func(ctx context.Context, c *Coordinator) error {
			<-c.pdone[0]
			if err := c.Send(ctx, 0, ack()); !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("Send after player exit: %v", err)
			}
			c.links[0] = closedFirst{c.links[0]}
			_, err := c.Recv(ctx, 0)
			return err
		},
		func(ctx context.Context, p *Player) error {
			<-ctx.Done()
			return nil
		})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunPlayerErrorPropagates(t *testing.T) {
	top := testTopology(t, 6, 3)
	wantErr := errors.New("player exploded")
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			_, err := c.AskAll(ctx, ack())
			return err
		},
		func(ctx context.Context, p *Player) error {
			if _, err := p.Recv(ctx); err != nil {
				if errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			if p.ID == 1 {
				// Reply first so the coordinator is not left hanging.
				if err := p.Send(ctx, ack()); err != nil {
					return err
				}
				return wantErr
			}
			return p.Send(ctx, ack())
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunCoordinatorErrorPropagates(t *testing.T) {
	top := testTopology(t, 6, 2)
	wantErr := errors.New("coordinator exploded")
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error { return wantErr },
		ServeLoop(func(p *Player, _ Msg) (Msg, error) { return ack(), nil }))
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestNewTopologyValidation(t *testing.T) {
	inputs := [][]wire.Edge{{{U: 0, V: 1}}, nil}
	shared := xrand.New(1)
	for _, tc := range []struct {
		name   string
		n      int
		inputs [][]wire.Edge
		shared *xrand.Shared
		want   string
	}{
		{"empty", 0, nil, nil, "comm: no players"},
		{"negative n", -1, inputs, shared, "comm: negative vertex count -1"},
		{"no players", 6, nil, shared, "comm: no players"},
		{"nil shared", 6, inputs, nil, "comm: nil shared randomness"},
	} {
		top, err := NewTopology(tc.n, tc.inputs, tc.shared)
		if err == nil || err.Error() != tc.want || top != nil {
			t.Errorf("%s: NewTopology = %v, %v; want error %q", tc.name, top, err, tc.want)
		}
	}
	if _, err := NewTopology(6, inputs, shared); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestMultiRoundProtocol(t *testing.T) {
	// A 3-round ping protocol: verifies per-round accounting and that
	// ServeLoop players survive multiple requests.
	top := testTopology(t, 6, 3)
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			for round := 0; round < 3; round++ {
				if _, err := c.AskAll(ctx, ack()); err != nil {
					return err
				}
			}
			return nil
		},
		ServeLoop(func(p *Player, _ Msg) (Msg, error) { return ack(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.TotalBits != 3*3*2 { // 3 rounds × 3 players × (1 down + 1 up)
		t.Fatalf("total bits = %d, want 18", stats.TotalBits)
	}
}

func TestPerPlayerAccounting(t *testing.T) {
	top := testTopology(t, 6, 2)
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			// Talk only to player 0.
			var w wire.Writer
			w.WriteUint(0, 10)
			if err := c.Send(ctx, 0, FromWriter(&w)); err != nil {
				return err
			}
			_, err := c.Recv(ctx, 0)
			return err
		},
		ServeLoop(func(p *Player, _ Msg) (Msg, error) {
			var w wire.Writer
			w.WriteUint(0, 6)
			return FromWriter(&w), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerPlayer[0] != 16 || stats.PerPlayer[1] != 0 {
		t.Fatalf("per-player = %v, want [16 0]", stats.PerPlayer)
	}
	if stats.MaxPlayerBits() != 16 {
		t.Fatalf("MaxPlayerBits = %d", stats.MaxPlayerBits())
	}
}
