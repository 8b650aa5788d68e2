package harness

import (
	"context"
	"fmt"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/scenario"
	"tricomm/internal/service"
)

// This file is the harness's bridge to the scenario layer
// (internal/scenario): a per-trial runner for any job spec (behind
// benchtable -scenario), and the E14 sweep over the registered families.

// ScenarioTrial is one trial's outcome of a scenario run — the typed
// form behind ScenarioTable, and what the cross-surface parity golden
// test compares against the facade and the service.
type ScenarioTrial struct {
	// Trial is the trial index; Seed its derived TrialSeed.
	Trial int
	Seed  uint64
	// TriangleFree, Witness, Bits, WireBytes, and Rounds mirror the
	// facade Report.
	TriangleFree bool
	Witness      tricomm.Triangle
	Bits         int64
	WireBytes    int64
	Rounds       int64
	// CertEps is the instance's certified farness (0 without a
	// certificate).
	CertEps float64
	// N, M are the generated instance's sizes.
	N, M int
	// Checked and HasTriangle report the ground-truth audit (only when
	// the job sets Check): whether the instance contains any triangle at
	// all.
	Checked     bool
	HasTriangle bool
}

// RunScenarioTrials executes js.Trials trials of the job over the shared
// worker pool; js.Graph names a generator family (see
// service.ParseGraphSpec). Trial i draws its instance and split from
// TrialSeed(js.Seed, i) and runs through service.JobSpec.RunTrial — the
// daemon's own trial path — so every outcome here is bit-identical to
// the same trial submitted as a tricommd job. Unlike a submitted job, js
// is taken as is: no defaults are filled in, so base seed 0 stays 0.
//
// With js.Check, every trial is audited against ground truth: a "found"
// verdict's witness must be a genuine triangle of the instance (an
// unsound witness fails the run), and each trial records whether the
// instance actually contains a triangle, so misses are visible. The
// audit uses the deterministic parallel kernel at cfg.IntraWorkers, which
// cannot change any result.
func RunScenarioTrials(ctx context.Context, cfg RunConfig, js service.JobSpec) ([]ScenarioTrial, error) {
	intra := cfg.intraWorkers()
	return runner.MapArena(ctx, cfg.jobs(), js.Trials, func(ctx context.Context, a *runner.Arena, trial int) (ScenarioTrial, error) {
		seed := runner.TrialSeed(js.Seed, trial)
		inst, err := js.Graph.Generate(a.Rand(int64(seed)))
		if err != nil {
			return ScenarioTrial{}, err
		}
		rep, err := js.RunTrial(ctx, inst, seed, intra)
		if err != nil {
			return ScenarioTrial{}, fmt.Errorf("trial %d (seed %d): %w", trial, seed, err)
		}
		row := ScenarioTrial{
			Trial:        trial,
			Seed:         seed,
			TriangleFree: rep.TriangleFree,
			Witness:      rep.Witness,
			Bits:         rep.Bits,
			WireBytes:    rep.WireBytes,
			Rounds:       rep.Rounds,
			CertEps:      inst.CertEps,
			N:            inst.G.N(),
			M:            inst.G.M(),
		}
		if js.Check {
			has, witnessOK := service.GroundTruth(inst.G, rep, intra)
			if !witnessOK {
				return ScenarioTrial{}, fmt.Errorf(
					"trial %d (seed %d): UNSOUND witness %v is not a triangle of the instance",
					trial, seed, rep.Witness)
			}
			row.Checked, row.HasTriangle = true, has
		}
		return row, nil
	})
}

// ScenarioTable renders a scenario run as a benchtable-style table: one
// row per trial plus the canonical spec as a note.
func ScenarioTable(ctx context.Context, cfg RunConfig, js service.JobSpec) (*Table, error) {
	rows, err := RunScenarioTrials(ctx, cfg, js)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "scenario",
		Title: fmt.Sprintf("%s × %s", js.Graph.Family, js.Protocol),
		Columns: []string{"trial", "seed", "n", "m", "verdict", "witness",
			"bits", "wire_bytes", "rounds", "cert_eps"},
	}
	for _, r := range rows {
		verdict, witness := "triangle-free", "-"
		if !r.TriangleFree {
			verdict, witness = "found", r.Witness.String()
		}
		t.AddRow(r.Trial, fmt.Sprintf("%d", r.Seed), r.N, r.M, verdict, witness,
			r.Bits, r.WireBytes, r.Rounds, r.CertEps)
	}
	t.AddNote("spec: %s", js.Graph.JSON())
	t.AddNote("k=%d scheme=%s transport=%s (seed-exact with tricommd jobs and GenerateScenario → Cluster → Test)",
		js.K, js.Partition, js.Transport)
	// The audit note is deterministic in (spec, seed, trials) only — never
	// in the worker counts — so checked output stays byte-identical at any
	// -jobs or intra-trial width.
	if js.Check {
		misses, withTri := 0, 0
		for _, r := range rows {
			if r.HasTriangle {
				withTri++
				if r.TriangleFree {
					misses++
				}
			}
		}
		t.AddNote("check: audited %d trials against ground truth: %d with triangles, %d missed, 0 unsound",
			len(rows), withTri, misses)
	}
	return t, nil
}

// e14ScenarioSweep sweeps the scenario registry's headline families —
// including every family added with the scenario layer — through one
// tester and reports verdicts, communication, and certificates side by
// side. It is the "as many scenarios as you can imagine" axis of the
// roadmap made into a reproducible table.
func e14ScenarioSweep() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Scenario sweep: one tester across the instance-family registry",
		PaperClaim: "§3.4.2 dense cores, §4 Behrend constructions, §3.1 duplication regime — " +
			"each as a named, declarative scenario",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"family", "n", "m", "d", "trials", "found",
				"mean_bits", "cert_eps", "tfree"}}
			families := []string{
				"chung-lu", "sbm", "behrend-blowup", "dup-adversary",
				"dense-core", "hidden-block", "behrend", "far", "bipartite",
			}
			if cfg.Quick {
				families = []string{"chung-lu", "sbm", "behrend-blowup", "dup-adversary"}
			}
			trials := cfg.trials(3)
			for _, fam := range families {
				g, err := service.ParseGraphSpec(fam)
				if err != nil {
					return nil, err
				}
				rows, err := RunScenarioTrials(ctx, cfg, service.JobSpec{
					Graph: g, K: 4, Protocol: "sim-oblivious", Eps: 0.2,
					Trials: trials, Seed: cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				found := 0
				var bits float64
				for _, r := range rows {
					if !r.TriangleFree {
						found++
					}
					bits += float64(r.Bits)
				}
				last := rows[len(rows)-1]
				f, _ := scenario.Lookup(g.Family)
				t.AddRow(fam, last.N, last.M, 2*float64(last.M)/float64(last.N), trials,
					found, bits/float64(trials), last.CertEps, f.TriangleFree)
			}
			t.AddNote("sim-oblivious tester, k=4, disjoint split (dup-adversary prescribes its own assignment)")
			t.AddNote("certified-far families must be found w.h.p.; triangle-free families must never be")
			return t, nil
		},
	}
}
