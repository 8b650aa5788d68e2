package scenario

import (
	"math/rand"
	"testing"
)

// BenchmarkBuild measures every registry family's generation hot path at
// its default parameters, with allocation reporting — the scenario
// layer's entry in the BENCH_N.json perf trajectory, one
// internal/scenario/Build/<family> row per family.
func BenchmarkBuild(b *testing.B) {
	for _, f := range Families() {
		b.Run(f.Name, func(b *testing.B) {
			sp, err := Canonical(Spec{Family: f.Name})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i))
				if _, err := Build(sp, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParse measures spec parsing/canonicalization (the per-job
// validation cost in the service).
func BenchmarkParse(b *testing.B) {
	const spec = `{"family":"dup-adversary","n":4096,"d":8,"eps":0.2,"k":8,"dup":0.9}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(spec); err != nil {
			b.Fatal(err)
		}
	}
}
