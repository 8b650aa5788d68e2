// Package bucket implements the degree-bucketing analysis of paper §3.2.
//
// Vertices are partitioned by degree into buckets of geometrically growing
// width: B₀ holds isolated vertices and, for i ≥ 1,
// Bᵢ = {v : 3^{i-1} ≤ deg(v) < 3^i}. The unrestricted protocol iterates
// over buckets searching for a *full* bucket — one whose vertices source
// many pairwise-disjoint triangle-vees — and inside it for *full* vertices,
// whose incident edges are rich in disjoint vees (Definitions 4 and 5).
//
// The package provides both the exact analysis view (used by the protocol's
// correctness tests and by experiment reports) and the player-local
// candidate sets B̃ᵢʲ = {v : d⁻(Bᵢ)/k ≤ d_j(v) ≤ d⁺(Bᵢ)} that the protocol
// actually samples from (§3.3), since no single player knows true degrees.
package bucket

import (
	"math"

	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/xrand"
)

// Index returns the bucket index of a vertex of the given degree: 0 for
// isolated vertices, otherwise the unique i ≥ 1 with 3^{i-1} ≤ deg < 3^i.
func Index(deg int) int {
	if deg <= 0 {
		return 0
	}
	i := 1
	for bound := 3; deg >= bound; bound *= 3 {
		i++
	}
	return i
}

// DegMin returns d⁻(Bᵢ), the minimal degree of bucket i (0 for B₀).
func DegMin(i int) int {
	if i <= 0 {
		return 0
	}
	return pow3(i - 1)
}

// DegMax returns d⁺(Bᵢ), the exclusive upper degree bound of bucket i
// (1 for B₀, i.e. only degree 0).
func DegMax(i int) int {
	if i <= 0 {
		return 1
	}
	return pow3(i)
}

// NumBuckets returns the number of buckets needed for an n-vertex graph
// (every possible degree < n falls below this index).
func NumBuckets(n int) int {
	if n <= 1 {
		return 1
	}
	return Index(n-1) + 1
}

func pow3(i int) int {
	v := 1
	for ; i > 0; i-- {
		v *= 3
	}
	return v
}

// Partition groups the vertices of g by bucket index. The returned slice
// has NumBuckets(g.N()) entries; entry i lists the vertices of Bᵢ in
// ascending order.
func Partition(g *graph.Graph) [][]int {
	out := make([][]int, NumBuckets(g.N()))
	for v := 0; v < g.N(); v++ {
		i := Index(g.Degree(v))
		out[i] = append(out[i], v)
	}
	return out
}

// logN returns log₂ n clamped below at 1, the paper's "log n" normalizer.
func logN(n int) float64 {
	l := math.Log2(float64(n))
	if l < 1 {
		return 1
	}
	return l
}

// IsFullVertex reports whether v is full in g for farness parameter eps
// (Definition 5): at least an eps/(12·log n) fraction of its incident
// edges form a set of disjoint triangle-vees. The disjoint-vee family is
// the greedy maximal matching counted by graph.DisjointVeeCountAt; each vee
// accounts for two incident edges.
func IsFullVertex(g *graph.Graph, v int, eps float64) bool {
	d := g.Degree(v)
	if d == 0 {
		return false
	}
	vees := g.DisjointVeeCountAt(v)
	return float64(2*vees) >= eps/(12*logN(g.N()))*float64(d)
}

// FullVertices returns the set of full vertices of g (Definition 5).
func FullVertices(g *graph.Graph, eps float64) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if IsFullVertex(g, v, eps) {
			out = append(out, v)
		}
	}
	return out
}

// VeeMass returns, per bucket, the total number of disjoint triangle-vees
// sourced at the bucket's vertices (the quantity Definition 4 thresholds).
func VeeMass(g *graph.Graph) []float64 {
	counts := g.DisjointVeeCount()
	out := make([]float64, NumBuckets(g.N()))
	for v, c := range counts {
		out[Index(g.Degree(v))] += float64(c)
	}
	return out
}

// FullBuckets returns the indices of the full buckets of g (Definition 4):
// buckets whose vertices source at least eps·n·d/(2·log n) disjoint
// triangle-vees, where d is the average degree.
func FullBuckets(g *graph.Graph, eps float64) []int {
	threshold := eps * float64(g.N()) * g.AvgDegree() / (2 * logN(g.N()))
	var out []int
	for i, mass := range VeeMass(g) {
		if mass >= threshold && mass > 0 {
			out = append(out, i)
		}
	}
	return out
}

// DegreeWindow returns the degree range [dl, dh] the unrestricted protocol
// iterates over (Definitions 7–8): dl = eps·d/(2·log n) and
// dh = sqrt(n·d/eps), where d is the average degree of g. Buckets entirely
// outside this window can be skipped (Lemma 3.12 places Bmin inside it).
func DegreeWindow(n int, avgDegree, eps float64) (dl, dh float64) {
	dl = eps * avgDegree / (2 * logN(n))
	dh = math.Sqrt(float64(n) * avgDegree / eps)
	return dl, dh
}

// BucketRange returns the bucket indices [lo, hi] that intersect the
// degree window [dl, dh].
func BucketRange(n int, dl, dh float64) (lo, hi int) {
	lo = Index(int(math.Ceil(dl)))
	hi = Index(int(math.Floor(dh)))
	if max := NumBuckets(n) - 1; hi > max {
		hi = max
	}
	if lo < 1 {
		lo = 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Candidates returns B̃ᵢʲ, the vertices player j can "reasonably suspect"
// belong to bucket i given only its local view (§3.3): vertices whose
// local degree d_j(v) satisfies d⁻(Bᵢ)/k ≤ d_j(v) ≤ d⁺(Bᵢ). By the
// pigeonhole argument, Bᵢ ⊆ ⋃_j B̃ᵢʲ, and each B̃ᵢʲ ⊆ N_k(Bᵢ) (vertices
// whose true degree is at least d⁻(Bᵢ)/k).
func Candidates(view *graph.Graph, i, k int) []int {
	if k < 1 {
		panic("bucket: Candidates requires k >= 1")
	}
	lo := float64(DegMin(i)) / float64(k)
	hi := DegMax(i) // d⁺ is exclusive in bucket terms; the candidate test is ≤ 3^i per the paper
	var out []int
	for v := 0; v < view.N(); v++ {
		dj := view.Degree(v)
		if dj > 0 && float64(dj) >= lo && dj <= hi {
			out = append(out, v)
		}
	}
	return out
}

// minRankSerialBelow keeps MinRankCandidate serial for small universes,
// where a fan-out costs more than the scan.
const minRankSerialBelow = 1024

// MinRankCandidate returns the element of Candidates(view, i, k) that
// comes first under key.Before, without materializing the candidate
// slice: one fused scan over the vertex range, fanned across up to
// workers goroutines. Before is a strict total order (hash rank with id
// tie-break), so taking chunk-local minima and folding them in chunk
// order yields exactly the serial scan's minimum at any worker count.
func MinRankCandidate(view *graph.Graph, i, k int, key xrand.Key, workers int) (int, bool) {
	if k < 1 {
		panic("bucket: MinRankCandidate requires k >= 1")
	}
	lo := float64(DegMin(i)) / float64(k)
	hi := DegMax(i)
	n := view.N()
	scan := func(vlo, vhi int) (int64, bool) {
		best, found := -1, false
		for v := vlo; v < vhi; v++ {
			dj := view.Degree(v)
			if dj > 0 && float64(dj) >= lo && dj <= hi {
				if !found || key.Before(uint64(v), uint64(best)) {
					best, found = v, true
				}
			}
		}
		return int64(best), found
	}
	if workers <= 1 || n < minRankSerialBelow {
		b, ok := scan(0, n)
		return int(b), ok
	}
	nc := parwork.NumChunks(workers, n)
	bests := make([]int64, nc)
	founds := make([]bool, nc)
	parwork.ForEach(workers, n, func(c, vlo, vhi int) {
		bests[c], founds[c] = scan(vlo, vhi)
	})
	best, found := -1, false
	for c := 0; c < nc; c++ {
		if !founds[c] {
			continue
		}
		if !found || key.Before(uint64(bests[c]), uint64(best)) {
			best, found = int(bests[c]), true
		}
	}
	return best, found
}
