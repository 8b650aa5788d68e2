package main

import (
	"fmt"
	"maps"

	"tricomm"
)

// fact is what the check learned about one member of the fixed op set.
type fact struct {
	ref     *result // the first good result; every other must match it
	certFar bool    // the instance is certified eps-far for the tester's eps
}

// verify regenerates each op's instance from its seed with
// tricomm.GenerateScenario and checks every result against it: no error,
// the reported seed, a witness that is a triangle of the union graph, no
// triangle reported on a triangle-free instance, and the same output as
// every other run of the same op. It returns the failures, one line each,
// and the facts per op-set index.
func verify(ops []op, results []result) (failures []string, facts []fact) {
	byIdx := make([][]int, len(ops))
	for i, r := range results {
		byIdx[r.idx] = append(byIdx[r.idx], i)
	}
	facts = make([]fact, len(ops))
	for idx, rs := range byIdx {
		if len(rs) == 0 {
			continue
		}
		o := ops[idx]
		si, err := tricomm.GenerateScenario(o.spec, int64(o.seed))
		if err != nil {
			failures = append(failures, fmt.Sprintf("op %d: regenerate: %v", idx, err))
			continue
		}
		union := si.Graph
		if si.Players != nil {
			b := tricomm.NewBuilder(si.Graph.N())
			for _, in := range si.Players {
				for _, e := range in {
					b.AddEdge(e.U, e.V)
				}
			}
			union = b.Build()
		}
		eps := o.opts.Eps
		if eps <= 0 {
			eps = 0.1 // the facade's default
		}
		facts[idx].certFar = si.CertEps >= eps
		for _, i := range rs {
			r := &results[i]
			if msg := checkOne(r, o, union, si.TriangleFree); msg != "" {
				failures = append(failures, fmt.Sprintf("op %d (seed %d): %s", idx, o.seed, msg))
				continue
			}
			if ref := facts[idx].ref; ref == nil {
				facts[idx].ref = r
			} else if ref.free != r.free || ref.witness != r.witness || ref.bits != r.bits ||
				ref.rounds != r.rounds || !maps.Equal(ref.phaseBits, r.phaseBits) {
				failures = append(failures, fmt.Sprintf("op %d (seed %d): output differs between runs of the same op", idx, o.seed))
			}
		}
	}
	return failures, facts
}

func checkOne(r *result, o op, union *tricomm.Graph, triangleFree bool) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.seed != o.seed:
		return fmt.Sprintf("ran seed %d", r.seed)
	case r.bits <= 0 || r.rounds <= 0:
		return fmt.Sprintf("no communication metered (bits %d, rounds %d)", r.bits, r.rounds)
	case r.free:
		return ""
	case triangleFree:
		return "triangle reported on a triangle-free instance"
	}
	a, b, c := r.witness[0], r.witness[1], r.witness[2]
	n := union.N()
	if a < 0 || b < 0 || c < 0 || a >= n || b >= n || c >= n || a == b || b == c || a == c ||
		!union.HasEdge(a, b) || !union.HasEdge(b, c) || !union.HasEdge(a, c) {
		return fmt.Sprintf("witness %v is not a triangle of the union graph", r.witness)
	}
	return ""
}
