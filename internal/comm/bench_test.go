package comm

import (
	"context"
	"testing"

	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

func BenchmarkAskAllRoundTrip(b *testing.B) {
	inputs := make([][]wire.Edge, 8)
	shared := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := NewTopology(1024, inputs, shared)
		if err != nil {
			b.Fatal(err)
		}
		_, err = RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				for r := 0; r < 10; r++ {
					if _, err := c.AskAll(ctx, ack()); err != nil {
						return err
					}
				}
				return nil
			},
			ServeLoop(func(p *Player, _ Msg) (Msg, error) { return ack(), nil }))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimultaneousRound(b *testing.B) {
	inputs := make([][]wire.Edge, 8)
	shared := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := NewTopology(1024, inputs, shared)
		if err != nil {
			b.Fatal(err)
		}
		_, err = RunSimultaneousOn(context.Background(), top,
			func(p *SimPlayer) (Msg, error) { return ack(), nil },
			func(_ *xrand.Shared, msgs []Msg) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
