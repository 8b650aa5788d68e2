package service

import (
	"context"
	"math/rand"

	"tricomm"
	"tricomm/internal/scenario"
)

// Generate draws a generator-spec instance from rng — seeded with the
// trial seed — via the scenario registry. The constructions match the
// tricomm facade exactly (GenerateScenario seeds a fresh rand.Source; a
// runner arena reseeds in place, which produces the identical sequence),
// so clients can regenerate any trial's instance with the public API and
// audit the verdict.
func (g GraphSpec) Generate(rng *rand.Rand) (scenario.Instance, error) {
	sp, err := g.scenarioSpec()
	if err != nil {
		return scenario.Instance{}, err
	}
	return scenario.Build(sp, rng)
}

// RunTrial runs the job's tester once on inst: it builds the cluster —
// the instance's prescribed per-player assignment, else the job's split
// of inst.G among K players — seeded with seed, maps the job's knobs onto
// tester options, and calls Cluster.Test. It is the one place a JobSpec
// becomes a session; the daemon, the experiment harness, and tritest all
// run their trials through it. The caller picks the trial seed (the
// daemon and harness derive runner.TrialSeed from the job seed) and
// intraWorkers, which widens the session's hot loops without changing its
// report (≤ 0: TRICOMM_INTRA_WORKERS, then 1).
func (s JobSpec) RunTrial(ctx context.Context, inst scenario.Instance, seed uint64, intraWorkers int) (tricomm.Report, error) {
	scheme, err := tricomm.ParseSplitScheme(s.Partition)
	if err != nil {
		return tricomm.Report{}, err
	}
	proto, err := tricomm.ParseProtocol(s.Protocol)
	if err != nil {
		return tricomm.Report{}, err
	}
	tr, err := tricomm.ParseTransport(s.Transport)
	if err != nil {
		return tricomm.Report{}, err
	}
	cl, err := tricomm.ScenarioInstance{Graph: inst.G, Players: inst.Players}.Cluster(s.K, scheme, seed)
	if err != nil {
		return tricomm.Report{}, err
	}
	opts := tricomm.Options{Protocol: proto, Eps: s.Eps, Transport: tr, Faults: s.Faults,
		IntraWorkers: intraWorkers}
	if s.KnownDegree {
		opts.AvgDegree = inst.G.AvgDegree()
	}
	return cl.Test(ctx, opts)
}

// GroundTruth audits a report against the graph it ran on: has reports
// whether g contains any triangle (searched at intraWorkers, identical at
// every width), and witnessOK whether the report's witness is a genuine
// triangle of g (vacuously true for a triangle-free verdict). What a
// disagreement means is the caller's policy.
func GroundTruth(g *tricomm.Graph, rep tricomm.Report, intraWorkers int) (has, witnessOK bool) {
	_, has = g.FindTriangleN(intraWorkers)
	w := rep.Witness
	return has, rep.TriangleFree || g.IsTriangle(w.A, w.B, w.C)
}
