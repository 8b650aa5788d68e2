package parwork

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("explicit 3: got %d", got)
	}
	for _, n := range []int{0, -2} {
		if got := Workers(n); got != 1 {
			t.Fatalf("default for %d: got %d", n, got)
		}
	}
}

func TestFoldInt64MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]int64, 100_000)
	for i := range data {
		data[i] = rng.Int63n(1000) - 500
	}
	body := func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		return s
	}
	want := body(0, len(data))
	for _, w := range []int{1, 2, 3, 8, 16, 100} {
		for _, items := range []int{0, 1, 2, 7, 1000, len(data)} {
			got := FoldInt64(w, items, body)
			if got != body(0, items) {
				t.Fatalf("workers=%d items=%d: got %d want %d", w, items, got, body(0, items))
			}
		}
		if got := FoldInt64(w, len(data), body); got != want {
			t.Fatalf("workers=%d: got %d want %d", w, got, want)
		}
	}
}

func TestForEachCoversDisjointly(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, items := range []int{1, 2, 63, 64, 1000} {
			seen := make([]atomic.Int32, items)
			ForEach(w, items, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d items=%d: index %d covered %d times", w, items, i, got)
				}
			}
		}
	}
}

func TestForEachChunkIndexMatchesNumChunks(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, items := range []int{1, 5, 100, 4096} {
			nc := NumChunks(w, items)
			hit := make([]atomic.Int32, nc)
			ForEach(w, items, func(c, lo, hi int) {
				if c < 0 || c >= nc {
					t.Errorf("chunk %d out of [0,%d)", c, nc)
					return
				}
				hit[c].Add(1)
			})
			for c := range hit {
				if hit[c].Load() != 1 {
					t.Fatalf("workers=%d items=%d: chunk %d ran %d times", w, items, c, hit[c].Load())
				}
			}
		}
	}
}

func TestFirstMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 50_000
	data := make([]bool, n)
	// Sparse hits so most chunks miss.
	for i := 0; i < 20; i++ {
		data[rng.Intn(n)] = true
	}
	probe := func(lo, hi int) (int64, bool) {
		for i := lo; i < hi; i++ {
			if data[i] {
				return int64(i), true
			}
		}
		return 0, false
	}
	want, wantOK := probe(0, n)
	for _, w := range []int{1, 2, 4, 8, 32} {
		got, ok := First(w, n, probe)
		if ok != wantOK || got != want {
			t.Fatalf("workers=%d: got (%d,%v) want (%d,%v)", w, got, ok, want, wantOK)
		}
	}
	// No hits at all.
	clear(data)
	for _, w := range []int{1, 8} {
		if _, ok := First(w, n, probe); ok {
			t.Fatalf("workers=%d: hit on empty data", w)
		}
	}
}

func TestFilterMatchesSerialAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 10, filterSerialBelow - 1, filterSerialBelow, 10_000} {
		src := make([]int, n)
		for i := range src {
			src[i] = rng.Intn(1000)
		}
		keep := func(_ int, v int) bool { return v%3 == 0 }
		var want []int
		for i, v := range src {
			if keep(i, v) {
				want = append(want, v)
			}
		}
		for _, w := range []int{1, 2, 8} {
			got := Filter(w, src, keep)
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: len %d want %d", n, w, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: [%d] = %d want %d", n, w, i, got[i], want[i])
				}
			}
			if want == nil && got != nil {
				t.Fatalf("n=%d workers=%d: got non-nil for empty result", n, w)
			}
		}
	}
}

// TestNestedFoldCompletes pins the no-deadlock property: helpers are
// optional, so a fold inside a fold body always completes on its calling
// goroutine even when every helper is busy.
func TestNestedFoldCompletes(t *testing.T) {
	got := FoldInt64(8, 64, func(lo, hi int) int64 {
		return FoldInt64(8, 1000, func(l, h int) int64 { return int64(h - l) }) * int64(hi-lo)
	})
	if got != 64_000 {
		t.Fatalf("nested fold: got %d want 64000", got)
	}
}

var foldBody = func(lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i & 7)
	}
	return s
}

func BenchmarkFoldInt64(b *testing.B) {
	const items = 1 << 16
	want := foldBody(0, items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := FoldInt64(8, items, foldBody); got != want {
			b.Fatal("wrong sum")
		}
	}
}

func BenchmarkFoldInt64Serial(b *testing.B) {
	const items = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldInt64(1, items, foldBody)
	}
}
