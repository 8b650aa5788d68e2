// Command tritest generates a graph, splits it among k players, runs one
// of the triangle-freeness protocols, and prints the verdict and exact
// communication cost. With -check (the default) it also compares the
// verdict against the instance's ground truth and exits non-zero, printing
// the failing seed, on disagreement — which makes it a scripted health
// check. With -server it submits the same job to a running tricommd daemon
// and audits the daemon's verdicts instead, regenerating each trial's
// instance locally from the reported per-trial seed. Either way the flags
// bind one service.JobSpec, and a local run goes through the daemon's own
// trial path (JobSpec.RunTrial) with the -seed value as its trial seed.
//
// Instances come from the scenario registry: -scenario accepts any
// registered family name or a JSON spec (-list-scenarios prints the
// catalog), while the legacy -kind/-n/-d/-eps flags keep working and are
// routed through the same registry.
//
// Examples:
//
//	tritest -n 2048 -d 8 -eps 0.2 -k 8 -protocol sim-oblivious
//	tritest -scenario chung-lu -protocol interactive -partition duplicate
//	tritest -scenario '{"family":"behrend-blowup","m":16,"blowup":4}' -protocol exact
//	tritest -server http://127.0.0.1:7341 -scenario dup-adversary -trials 5
//
// Health-check semantics: a witness that is not a real triangle of the
// instance is always a hard failure (soundness is unconditional). A missed
// triangle is a failure too — for certified-far scenarios the construction
// guarantees ε-farness, where the protocols succeed with high probability,
// so use a certified family (or -protocol exact, which never misses) for
// scripted checks; on instances close to triangle-free a miss can be a
// legitimate tester outcome rather than a daemon fault.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/scenario"
	"tricomm/internal/service"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tritest: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run returns the process exit code: 0 for healthy, 2 for a ground-truth
// disagreement, 1 (with an error) for operational failures.
func run() (int, error) {
	job := service.BindJobFlags(flag.CommandLine, service.JobSpec{
		Graph:       service.GraphSpec{Kind: "far", Spec: scenario.Spec{N: 1024, D: 8}},
		K:           4,
		Partition:   "disjoint",
		Protocol:    "sim-oblivious",
		Eps:         0.2,
		KnownDegree: true,
		Trials:      1,
		Transport:   "chan",
		Seed:        1,
		Check:       true,
	})
	// -check and -trials act differently here than in tricli.
	flag.Lookup("check").Usage = "compare the verdict against ground truth; exit 2 with the failing seed on disagreement"
	flag.Lookup("trials").Usage = "trials (server mode)"
	var (
		listScen = flag.Bool("list-scenarios", false, "print the scenario catalog and exit")
		server   = flag.String("server", "", "audit a running tricommd at this base URL instead of running locally")
		intraW   = flag.Int("intra-workers", 0, "goroutines for the session's per-player hot loops and the ground-truth triangle search (<= 0: $TRICOMM_INTRA_WORKERS, then 1); reports are identical at any value")
	)
	flag.Parse()
	intraWorkers = tricomm.IntraWorkers(*intraW)

	if *listScen {
		fmt.Print(tricomm.ScenarioUsage())
		return 0, nil
	}
	js, err := job()
	if err != nil {
		return 1, err
	}
	if *server != "" {
		return runServer(*server, js)
	}
	return runLocal(js)
}

// intraWorkers is the resolved -intra-workers value: goroutines for the
// session and the ground-truth triangle search (deterministic at any
// width).
var intraWorkers = 1

// generate regenerates the instance a trial with this seed runs on.
func generate(js service.JobSpec, seed uint64) (scenario.Instance, error) {
	return js.Graph.Generate(rand.New(rand.NewSource(int64(seed))))
}

// audit compares one verdict against the instance's ground truth. It
// returns a non-empty failure description on disagreement.
func audit(g *tricomm.Graph, rep tricomm.Report, seed int64) string {
	has, witnessOK := service.GroundTruth(g, rep, intraWorkers)
	switch {
	case !witnessOK:
		return fmt.Sprintf("UNSOUND: witness %v is not a triangle of the instance (seed=%d)", rep.Witness, seed)
	case rep.TriangleFree && has:
		return fmt.Sprintf("MISS: verdict triangle-free but the instance has a triangle (seed=%d)", seed)
	case !rep.TriangleFree && !has:
		// Unreachable given the soundness check above, but state it.
		return fmt.Sprintf("UNSOUND: triangle reported on a triangle-free instance (seed=%d)", seed)
	}
	return ""
}

// runLocal runs the job's single trial in process, with the -seed value
// itself as the trial seed.
func runLocal(js service.JobSpec) (int, error) {
	inst, err := generate(js, js.Seed)
	if err != nil {
		return 1, err
	}
	rep, err := js.RunTrial(context.Background(), inst, js.Seed, intraWorkers)
	if err != nil {
		return 1, err
	}
	g := inst.G
	fmt.Printf("graph: n=%d m=%d avg-degree=%.2f scenario=%s", g.N(), g.M(), g.AvgDegree(), inst.Spec.Family)
	if inst.CertEps > 0 {
		fmt.Printf(" certified-eps=%.3f", inst.CertEps)
	}
	if inst.TriangleFree {
		fmt.Printf(" triangle-free-by-construction")
	}
	if inst.Players != nil {
		fmt.Printf("\nplayers: k=%d assignment=scenario-prescribed transport=%s\n", len(inst.Players), js.Transport)
	} else {
		fmt.Printf("\nplayers: k=%d partition=%s transport=%s\n", js.K, js.Partition, js.Transport)
	}
	fmt.Printf("protocol: %s\n", rep.Protocol)
	if rep.TriangleFree {
		fmt.Println("verdict: triangle-free (one-sided; may err only on ε-far inputs)")
	} else {
		fmt.Printf("verdict: found triangle %v\n", rep.Witness)
	}
	fmt.Printf("communication: %d bits total, %d rounds", rep.Bits, rep.Rounds)
	if rep.WireBytes > 0 {
		fmt.Printf(", %d wire bytes", rep.WireBytes)
	}
	if rep.Retransmits > 0 || rep.FramesLost > 0 {
		fmt.Printf(" (faults: %d frames lost, %d retransmits)", rep.FramesLost, rep.Retransmits)
	}
	fmt.Println()
	for j, b := range rep.PerPlayerBits {
		fmt.Printf("  player %d: %d bits\n", j, b)
	}
	if js.Check {
		if msg := audit(g, rep, int64(js.Seed)); msg != "" {
			fmt.Fprintf(os.Stderr, "tritest: FAIL %s\n", msg)
			return 2, nil
		}
		fmt.Println("check: verdict agrees with ground truth")
	}
	return 0, nil
}

// runServer submits the job to a tricommd daemon and audits every trial
// outcome against a locally regenerated instance.
func runServer(base string, js service.JobSpec) (int, error) {
	ctx := context.Background()
	cl := &service.Client{Base: base}
	if err := cl.Health(ctx); err != nil {
		return 1, fmt.Errorf("daemon unhealthy: %w", err)
	}
	sub := js
	sub.Check = false // the audit below recomputes ground truth locally
	ji, err := cl.Submit(ctx, sub)
	if err != nil {
		return 1, err
	}
	fmt.Printf("daemon %s: job %s (%s, %d trials)\n", base, ji.ID, js.Protocol, js.Trials)

	// The daemon echoes the spec with defaults filled in; derive expected
	// trial seeds from that echo so defaulting (e.g. seed 0 → 1) cannot be
	// mistaken for drift.
	baseSeed := ji.Spec.Seed

	failures, aborted := 0, 0
	fin, err := cl.Stream(ctx, ji.ID, func(o service.TrialOutcome) error {
		if o.Aborted {
			// An aborted trial carries no verdict to audit; the session
			// failed typed instead of returning anything unsound.
			aborted++
			fmt.Printf("trial %d seed=%d: aborted after %d retries: %s\n",
				o.Trial, o.Seed, o.Retries, o.Error)
			return nil
		}
		verdict := "triangle-free"
		if !o.TriangleFree {
			if o.Witness != nil {
				verdict = fmt.Sprintf("found-triangle %v", *o.Witness)
			} else {
				verdict = "found-triangle (no witness!)"
			}
		}
		fmt.Printf("trial %d seed=%d: %s  bits=%d rounds=%d\n", o.Trial, o.Seed, verdict, o.Bits, o.Rounds)
		if !js.Check {
			return nil
		}
		if o.Seed != runner.TrialSeed(baseSeed, o.Trial) {
			failures++
			fmt.Fprintf(os.Stderr, "tritest: FAIL trial %d reports seed %d, expected %d — daemon seed derivation drifted\n",
				o.Trial, o.Seed, runner.TrialSeed(baseSeed, o.Trial))
			return nil
		}
		if !o.TriangleFree && o.Witness == nil {
			failures++
			fmt.Fprintf(os.Stderr, "tritest: FAIL trial %d UNSOUND: triangle reported without a witness (seed=%d)\n",
				o.Trial, int64(o.Seed))
			return nil
		}
		inst, err := generate(js, o.Seed)
		if err != nil {
			return err
		}
		rep := tricomm.Report{TriangleFree: o.TriangleFree}
		if o.Witness != nil {
			rep.Witness = tricomm.Triangle{A: o.Witness[0], B: o.Witness[1], C: o.Witness[2]}
		}
		if msg := audit(inst.G, rep, int64(o.Seed)); msg != "" {
			failures++
			fmt.Fprintf(os.Stderr, "tritest: FAIL trial %d %s\n", o.Trial, msg)
		}
		return nil
	})
	if err != nil {
		return 1, err
	}
	switch fin.State {
	case service.StateDone:
	case service.StatePartial:
		// Within the job's aborted-trial budget: the completed trials'
		// verdicts are valid (and audited above); say what's missing.
		fmt.Printf("note: job %s partial — %d of %d trials aborted under faults\n",
			fin.ID, aborted, js.Trials)
	default:
		return 1, fmt.Errorf("job %s finished %s: %s", fin.ID, fin.State, fin.Error)
	}
	if failures > 0 {
		return 2, fmt.Errorf("%d of %d trials disagree with ground truth", failures, js.Trials)
	}
	if js.Check {
		fmt.Printf("check: all %d completed trials agree with ground truth\n", js.Trials-aborted)
	}
	return 0, nil
}
