// Package protocol implements the paper's triangle-freeness protocols:
//
//   - Unrestricted (§3.3, Algorithms 1–6): the interactive coordinator-model
//     tester, Õ(k·(nd)^{1/4} + k²) bits, with a blackboard variant and a
//     degree-oblivious mode (Corollary 3.22).
//   - SimHigh (§3.4.1, Algorithm 7/9): simultaneous, d = Ω(√n),
//     Õ(k·(nd)^{1/3}) bits.
//   - SimLow (§3.4.2, Algorithm 8/10): simultaneous, d = O(√n), Õ(k·√n)
//     bits.
//   - SimOblivious (§3.4.3, Algorithm 11): simultaneous without knowing d.
//   - ExactBaseline: deterministic exact detection by full exchange — the
//     Woodruff–Zhang-style Θ(k·nd·log n) comparison point (§5).
//
// All testers are one-sided: a triangle is reported only when its three
// edges were actually observed in players' inputs, so a triangle-free
// graph is never rejected. Completeness (finding a triangle when the graph
// is ε-far) holds with high probability and is validated empirically by
// the test suite and the experiment harness.
//
// The paper's constants are proof artifacts (e.g. q = ln(6/δ)·108·log²n·k/ε²
// candidate samples); running them verbatim would swamp any feasible n.
// Each protocol therefore exposes the constants as Tunables with defaults
// that preserve the asymptotic structure while keeping simulations
// tractable; the experiment harness measures the resulting scaling.
package protocol

import (
	"context"
	"fmt"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
)

// Verdict is a tester's output.
type Verdict int

// Verdict values. Testers have one-sided error: FoundTriangle is always
// correct; TriangleFree may be wrong with probability ≤ δ when the input
// is ε-far.
const (
	// TriangleFree means no triangle was detected.
	TriangleFree Verdict = iota + 1
	// FoundTriangle means a concrete triangle was exhibited.
	FoundTriangle
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case TriangleFree:
		return "triangle-free"
	case FoundTriangle:
		return "found-triangle"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result carries a protocol run's verdict and cost.
type Result struct {
	// Verdict is the tester output.
	Verdict Verdict
	// Triangle is the witness when Verdict == FoundTriangle.
	Triangle graph.Triangle
	// Stats is the communication cost of the run.
	Stats comm.Stats
	// Phases optionally attributes bits to named protocol phases (e.g.
	// "candidates" vs "edges" in the unrestricted protocol). It is an
	// inline fixed-slot table; the zero value is empty.
	Phases Phases
}

// Found reports whether the run exhibited a triangle.
func (r Result) Found() bool { return r.Verdict == FoundTriangle }

// Tester is a protocol bound to its tunables, runnable over a reusable
// topology: the shape every tester in this package satisfies.
type Tester interface {
	Name() string
	RunOn(ctx context.Context, top *comm.Topology) (Result, error)
}
