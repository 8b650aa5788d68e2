package blocks

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// handlePlayer is a standalone player holding all of g, built without a
// session so Handle can be driven directly.
func handlePlayer(g *graph.Graph) *comm.Player {
	edges := g.Edges()
	return &comm.Player{SimPlayer: comm.SimPlayer{ID: 0, K: 2, N: g.N(), Edges: edges,
		View: graph.FromEdges(g.N(), edges), Shared: xrand.New(1), Workers: 1}}
}

// sampleTestRequest encodes an opSampleTest request the way sampleRound
// does.
func sampleTestRequest(mode countMode, v, m uint64) comm.Msg {
	w := reqWriter(opSampleTest)
	w.WriteUvarint(uint64(mode))
	w.WriteUvarint(v)
	w.WriteUvarint(0) // round
	w.WriteUvarint(m)
	w.WriteUint(math.Float64bits(2), 64)
	w.WriteBytes([]byte("t"))
	return comm.FromWriter(w)
}

// candidateRequest encodes an opCandidateMinRank request the way
// SampleUniformCandidate does.
func candidateRequest(bucketIdx uint64) comm.Msg {
	w := reqWriter(opCandidateMinRank)
	w.WriteUvarint(bucketIdx)
	w.WriteBytes([]byte("t"))
	return comm.FromWriter(w)
}

// crafted are requests whose fields pass the wire decoder but name work
// no coordinator can ask for: an experiment count that overflows the
// reply allocation, a vertex outside the universe, and a bucket index
// whose degree bounds take 2⁴⁰ multiplications to compute.
var crafted = []struct {
	name string
	req  comm.Msg
}{
	{"sample-test-huge-m", sampleTestRequest(modeDegree, 0, 1<<62)},
	{"sample-test-vertex-out-of-range", sampleTestRequest(modeDegree, 1<<40, 16)},
	{"candidate-bucket-out-of-range", candidateRequest(1 << 40)},
}

func TestHandleRejectsOutOfRangeRequests(t *testing.T) {
	p := handlePlayer(graph.Complete(8))
	for _, tc := range crafted {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := Handle(p, tc.req)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("err = %v, want ErrBadRequest", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Handle did not return within 5s")
			}
		})
	}
}

// TestExperimentsBounded pins maxExperiments: no rounds value the
// estimator can compute, under any Tau, asks for more experiments than a
// player accepts.
func TestExperimentsBounded(t *testing.T) {
	rounds := []int{math.MinInt, -1, 0, 1, 2, 3, math.MaxInt}
	for r := 4; r > 0 && r < math.MaxInt/2; r *= 2 {
		rounds = append(rounds, r)
	}
	for _, tau := range []float64{math.NaN(), math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1e-300, minTau, 0.02, 0.05, 0.5, 1, 2} {
		prm := ApproxParams{Alpha: 4, Tau: tau, Tag: "t"}
		for _, r := range rounds {
			if m := prm.experiments(r); m < 16 || m > maxExperiments {
				t.Fatalf("experiments(%d) at tau=%v = %d, want in [16, %d]", r, tau, m, maxExperiments)
			}
		}
	}
}

// recordedRequests runs every surviving coordinator-side block once
// against Handle and returns the requests the players received, one or
// more per opcode.
func recordedRequests(tb testing.TB, g *graph.Graph) []comm.Msg {
	tb.Helper()
	shared := xrand.New(2)
	pt := partition.Disjoint{}.Split(g, 2, shared)
	var mu sync.Mutex
	var reqs []comm.Msg
	record := func(p *comm.Player, req comm.Msg) (comm.Msg, error) {
		if p.ID == 0 {
			mu.Lock()
			reqs = append(reqs, req)
			mu.Unlock()
		}
		return Handle(p, req)
	}
	top, err := comm.NewTopology(g.N(), pt.Inputs, shared)
	if err != nil {
		tb.Fatal(err)
	}
	_, err = comm.RunOn(context.Background(), top,
		func(ctx context.Context, c *comm.Coordinator) error {
			if _, err := EdgeQuery(ctx, c, wire.Edge{U: 0, V: 1}); err != nil {
				return err
			}
			if _, _, err := RandIncidentEdge(ctx, c, 0, "i"); err != nil {
				return err
			}
			if _, err := ApproxDegree(ctx, c, 0, DefaultApprox("d")); err != nil {
				return err
			}
			if _, err := ApproxDegreeNoDup(ctx, c, 0, 2); err != nil {
				return err
			}
			arms, err := CollectIncidentSample(ctx, c, 0, 0.5, 0, "s")
			if err != nil {
				return err
			}
			if _, _, err := CloseStar(ctx, c, 0, arms); err != nil {
				return err
			}
			if _, _, err := SampleUniformCandidate(ctx, c, bucket.Index(g.Degree(0)), "c"); err != nil {
				return err
			}
			if _, err := Neighbors(ctx, c, 0); err != nil {
				return err
			}
			_, err = ExactDegree(ctx, c, 0)
			return err
		}, comm.ServeLoop(record))
	if err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// msgBits unpacks m into bytes plus a trim count, the fuzz corpus form.
func msgBits(m comm.Msg) ([]byte, uint8) {
	r := m.Reader()
	var w wire.Writer
	for r.Remaining() > 0 {
		b, _ := r.ReadBit()
		w.WriteBit(b)
	}
	return w.Bytes(), uint8((8 - m.Bits()%8) % 8)
}

// FuzzHandle feeds arbitrary bit strings to the player-side dispatcher:
// it must never panic, and every error must be a rejected request or a
// wire decode error.
func FuzzHandle(f *testing.F) {
	g := graph.Complete(8)
	seeds := recordedRequests(f, g)
	for _, tc := range crafted {
		seeds = append(seeds, tc.req)
	}
	for _, req := range seeds {
		data, trim := msgBits(req)
		f.Add(data, trim)
	}
	p := handlePlayer(g)
	f.Fuzz(func(t *testing.T, data []byte, trim uint8) {
		nbits := 8*len(data) - int(trim%8)
		if nbits < 0 {
			nbits = 0
		}
		r := wire.NewReader(data, nbits)
		var w wire.Writer
		for r.Remaining() > 0 {
			b, _ := r.ReadBit()
			w.WriteBit(b)
		}
		_, err := Handle(p, comm.FromWriter(&w))
		if err == nil {
			return
		}
		for _, want := range []error{ErrBadRequest, wire.ErrShortMessage, wire.ErrVertexRange, wire.ErrOverflow, wire.ErrWidth} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("Handle error %v is neither ErrBadRequest nor a wire decode error", err)
	})
}

// TestCountTopBitsWideRequest pins that a topBits field too wide for an
// int is clamped to the local count's bit length like any other
// oversized width, instead of reaching the writer as a negative width.
func TestCountTopBitsWideRequest(t *testing.T) {
	p := handlePlayer(graph.Complete(8))
	reply := func(topBits uint64) comm.Msg {
		w := reqWriter(opCountTopBits)
		w.WriteUvarint(uint64(modeDegree))
		w.WriteUvarint(0)
		w.WriteUvarint(topBits)
		m, err := Handle(p, comm.FromWriter(w))
		if err != nil {
			t.Fatalf("topBits=%d: %v", topBits, err)
		}
		return m
	}
	wide, exact := reply(1<<63), reply(64)
	wideBytes, _ := msgBits(wide)
	exactBytes, _ := msgBits(exact)
	if wide.Bits() != exact.Bits() || !bytes.Equal(wideBytes, exactBytes) {
		t.Fatalf("topBits=2^63 reply %x differs from topBits=64 reply %x", wideBytes, exactBytes)
	}
}
