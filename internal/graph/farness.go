package graph

import (
	"sync"

	"tricomm/internal/bitset"
)

// This file implements ε-farness machinery. A graph is ε-far from
// triangle-free if at least ε·|E| edges must be removed to destroy every
// triangle. Computing the exact distance is NP-hard in general (it is
// minimum triangle edge-cover), but the paper's analyses only ever use a
// family of edge-disjoint triangles / triangle-vees as a *certificate*:
// any family of t edge-disjoint triangles forces ≥ t edge removals.

// PackTriangles returns a maximal family of pairwise edge-disjoint
// triangles, computed greedily over the canonical triangle enumeration.
// Its size is a lower bound on the distance to triangle-freeness (each
// packed triangle needs a private removed edge) and at least 1/3 of the
// maximum packing.
// Edge usage is tracked on a pooled epoch-marked slice indexed by the
// edge's arc position in the CSR neighbor array — no hashing, no per-call
// map — and the growable output scratch recycles through a pool, so the
// only steady-state allocation is the exact-size result copy.
func (g *Graph) PackTriangles() []Triangle {
	buf := triBufPool.Get().(*triBuf)
	buf.tris = g.packInto(buf.tris[:0])
	out := make([]Triangle, len(buf.tris))
	copy(out, buf.tris)
	triBufPool.Put(buf)
	return out
}

// PackTriangleCount reports len(PackTriangles()) without materializing
// the packing — zero allocations at steady state, for callers that only
// need the certificate's size (farness bounds, reports).
func (g *Graph) PackTriangleCount() int {
	buf := triBufPool.Get().(*triBuf)
	buf.tris = g.packInto(buf.tris[:0])
	n := len(buf.tris)
	triBufPool.Put(buf)
	return n
}

// triBuf carries the growable packing scratch between PackTriangles
// calls.
type triBuf struct{ tris []Triangle }

var triBufPool = sync.Pool{New: func() any { return new(triBuf) }}

// packInto appends the greedy packing to out and returns it.
//
// This is the greedy over the canonical triangle enumeration (ascending
// (u,v,w), u<v<w: take a triangle iff all three arcs are unused), but
// driven pair-first rather than through the generic visitor, which the
// greedy's own structure makes much cheaper:
//
//   - arc (u,v) is the position of v in u's row, known for free while
//     iterating the row — no binary search for the first edge;
//   - if (u,v) is already used when the pair is reached, every triangle
//     (u,v,·) would be rejected on that arc, so the whole intersection
//     is skipped;
//   - taking (u,v,w) marks (u,v), which rejects every later (u,v,w'),
//     so the w-scan stops at the first take.
//
// The merge strategy also reads the (u,w) and (v,w) arc indexes straight
// off the merge cursors; only the shadow strategies fall back to
// arcIndex, and only until the pair's first take. None of this changes
// which triangles are taken — the checks are pure, so skipping work that
// could only reject reproduces the visitor-driven greedy exactly (the
// equivalence is pinned by TestShadowPathEquivalence against
// Triangles()-order replay).
func (g *Graph) packInto(out []Triangle) []Triangle {
	used := bitset.Get(len(g.nbr))
	for u := 0; u < g.n; u++ {
		au := g.row(u)
		base := int(g.off[u])
		su := g.shadowRow(u)
		for i := upperBound(au, int32(u)); i < len(au); i++ {
			v32 := au[i]
			v := int(v32)
			ab := base + i
			if used.Has(ab) {
				continue
			}
			// Find the smallest w > v adjacent to both u and v whose arcs
			// (u,w) and (v,w) are still free; take that triangle and move on
			// to the next pair.
			take := func(w, ac, bc int) bool {
				if ac < 0 {
					ac = g.arcIndex(u, w)
				}
				if used.Has(ac) {
					return false
				}
				if bc < 0 {
					bc = g.arcIndex(v, w)
				}
				if used.Has(bc) {
					return false
				}
				used.Add(ab)
				used.Add(ac)
				used.Add(bc)
				out = append(out, Triangle{A: u, B: v, C: w})
				return true
			}
			sv := g.shadowRow(v)
			switch {
			case su != nil && sv != nil:
				bitset.IntersectVisitAbove(su, sv, v, func(w int) bool {
					return !take(w, -1, -1)
				})
			case sv != nil:
				for j := i + 1; j < len(au); j++ {
					if w := int(au[j]); bitset.Test(sv, w) && take(w, base+j, -1) {
						break
					}
				}
			case su != nil:
				av := g.row(v)
				basev := int(g.off[v])
				for j := upperBound(av, v32); j < len(av); j++ {
					if w := int(av[j]); bitset.Test(su, w) && take(w, -1, basev+j) {
						break
					}
				}
			default:
				av := g.row(v)
				basev := int(g.off[v])
				p, q := i+1, upperBound(av, v32)
				for p < len(au) && q < len(av) {
					switch {
					case au[p] < av[q]:
						p++
					case au[p] > av[q]:
						q++
					default:
						if take(int(au[p]), base+p, basev+q) {
							p = len(au)
							break
						}
						p++
						q++
					}
				}
			}
		}
	}
	bitset.Put(used)
	return out
}

// FarnessLowerBound returns a certified lower bound on the distance ε such
// that g is ε-far from triangle-free: (size of an edge-disjoint triangle
// packing) / |E|. Returns 0 for an empty or triangle-free graph.
func (g *Graph) FarnessLowerBound() float64 {
	if g.m == 0 {
		return 0
	}
	return float64(g.PackTriangleCount()) / float64(g.m)
}

// IsTriangleFree reports whether g contains no triangle.
func (g *Graph) IsTriangleFree() bool {
	_, ok := g.FindTriangle()
	return !ok
}
