package comm

import (
	"context"
	"testing"

	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

func BenchmarkAskAllRoundTrip(b *testing.B) {
	cfg := Config{
		N:      1024,
		Inputs: make([][]wire.Edge, 8),
		Shared: xrand.New(1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(context.Background(), cfg,
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
	cfg := Config{
		N:      1024,
		Inputs: make([][]wire.Edge, 8),
		Shared: xrand.New(1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunSimultaneous(context.Background(), cfg,
			func(p *SimPlayer) (Msg, error) { return ack(), nil },
			func(_ *xrand.Shared, msgs []Msg) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
