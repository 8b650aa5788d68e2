package tricomm_test

// Cross-surface scenario parity: every scenario family must be reachable
// through the Go API (GenerateScenario → si.Cluster → Cluster.Test), the
// harness/benchtable path (harness.RunScenarioTrials), and the tricommd
// service — with seed-exact
// verdict, witness, bits, and WireBytes across all three. The pinned
// literal values below additionally freeze the chung-lu case against the
// current construction, so silent generator drift fails loudly.

import (
	"context"
	"testing"
	"time"

	"tricomm"
	"tricomm/internal/harness"
	"tricomm/internal/harness/runner"
	"tricomm/internal/service"
)

type parityCase struct {
	name     string
	spec     string
	protocol string
	k        int
	scheme   string
	eps      float64
}

var parityCases = []parityCase{
	{name: "chung-lu/sim-oblivious", spec: "chung-lu", protocol: "sim-oblivious", k: 4, scheme: "disjoint", eps: 0.2},
	{name: "sbm/sim-oblivious", spec: `{"family":"sbm","n":512,"blocks":8,"p_in":0.1,"p_out":0.004}`,
		protocol: "sim-oblivious", k: 4, scheme: "disjoint", eps: 0.2},
	{name: "behrend-blowup/exact", spec: `{"family":"behrend-blowup","m":8,"blowup":2}`,
		protocol: "exact", k: 3, scheme: "byvertex", eps: 0.2},
	{name: "dup-adversary/interactive", spec: `{"family":"dup-adversary","n":512,"d":8,"eps":0.2,"k":4,"dup":0.75}`,
		protocol: "interactive", k: 4, scheme: "disjoint", eps: 0.2},
	{name: "far/duplicate-split", spec: `{"family":"far","n":256,"d":8,"eps":0.25}`,
		protocol: "sim-oblivious", k: 5, scheme: "duplicate", eps: 0.25},
}

const (
	parityBaseSeed = 5
	parityTrials   = 2
)

// facadeTrial runs one trial through the Go API path GenerateScenario →
// si.Cluster → Cluster.Test with the same derivation the harness and
// service use.
func facadeTrial(t *testing.T, pc parityCase, trial int) tricomm.Report {
	t.Helper()
	proto, err := tricomm.ParseProtocol(pc.protocol)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := tricomm.ParseSplitScheme(pc.scheme)
	if err != nil {
		t.Fatal(err)
	}
	seed := runner.TrialSeed(parityBaseSeed, trial)
	si, err := tricomm.GenerateScenario(pc.spec, int64(seed))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := si.Cluster(pc.k, scheme, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Test(context.Background(), tricomm.Options{Protocol: proto, Eps: pc.eps})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// parityJob is the case as one job spec, shared by the harness and
// service surfaces.
func parityJob(t *testing.T, pc parityCase) service.JobSpec {
	t.Helper()
	return service.JobSpec{
		Graph:     graphSpecFromScenario(t, pc.spec),
		K:         pc.k,
		Partition: pc.scheme,
		Protocol:  pc.protocol,
		Eps:       pc.eps,
		Trials:    parityTrials,
		Seed:      parityBaseSeed,
	}
}

func TestScenarioParityAcrossSurfaces(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	defer srv.Close()
	ctx := context.Background()

	for _, pc := range parityCases {
		t.Run(pc.name, func(t *testing.T) {
			// Surface 1: the harness/benchtable path.
			hTrials, err := harness.RunScenarioTrials(ctx, harness.RunConfig{Jobs: 2}, parityJob(t, pc))
			if err != nil {
				t.Fatal(err)
			}

			// Surface 2: a tricommd service job.
			ji, err := srv.Submit(parityJob(t, pc))
			if err != nil {
				t.Fatal(err)
			}
			fin := waitJob(t, srv, ji.ID)

			// Surface 3: the facade, one call per trial.
			for trial := 0; trial < parityTrials; trial++ {
				rep := facadeTrial(t, pc, trial)
				h := hTrials[trial]
				s := fin.Results[trial]

				if h.Seed != runner.TrialSeed(parityBaseSeed, trial) || s.Seed != h.Seed {
					t.Fatalf("trial %d: seed drift (harness %d, service %d)", trial, h.Seed, s.Seed)
				}
				if rep.TriangleFree != h.TriangleFree || rep.TriangleFree != s.TriangleFree {
					t.Fatalf("trial %d: verdict mismatch: facade %v harness %v service %v",
						trial, rep.TriangleFree, h.TriangleFree, s.TriangleFree)
				}
				if !rep.TriangleFree {
					if rep.Witness != h.Witness {
						t.Fatalf("trial %d: witness mismatch: facade %v harness %v", trial, rep.Witness, h.Witness)
					}
					if s.Witness == nil || *s.Witness != [3]int{rep.Witness.A, rep.Witness.B, rep.Witness.C} {
						t.Fatalf("trial %d: service witness %v != %v", trial, s.Witness, rep.Witness)
					}
				}
				if rep.Bits != h.Bits || rep.Bits != s.Bits {
					t.Fatalf("trial %d: bits mismatch: facade %d harness %d service %d",
						trial, rep.Bits, h.Bits, s.Bits)
				}
				if rep.WireBytes != h.WireBytes || rep.WireBytes != s.WireBytes {
					t.Fatalf("trial %d: wire bytes mismatch: facade %d harness %d service %d",
						trial, rep.WireBytes, h.WireBytes, s.WireBytes)
				}
				if rep.Rounds != h.Rounds || rep.Rounds != s.Rounds {
					t.Fatalf("trial %d: rounds mismatch: facade %d harness %d service %d",
						trial, rep.Rounds, h.Rounds, s.Rounds)
				}
			}
		})
	}
}

// graphSpecFromScenario converts a scenario argument into the service's
// GraphSpec through the public parse path.
func graphSpecFromScenario(t *testing.T, spec string) service.GraphSpec {
	t.Helper()
	gs, err := service.ParseGraphSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func waitJob(t *testing.T, srv *service.Server, id string) service.JobInfo {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		ji, err := srv.Job(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if ji.State == service.StateDone {
			return ji
		}
		if ji.State == service.StateFailed {
			t.Fatalf("job failed: %s", ji.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScenarioGoldenValues freezes one scenario end to end: if the
// chung-lu construction, the split, or the tester's transcript drifts,
// these literals catch it. Captured from the current implementation via
// the facade path (which the parity test above ties to the other two
// surfaces).
func TestScenarioGoldenValues(t *testing.T) {
	rep := facadeTrial(t, parityCases[0], 0) // chung-lu / sim-oblivious
	const (
		wantFree = false
		wantBits = int64(101854)
	)
	wantWitness := tricomm.Triangle{A: 0, B: 1, C: 2}
	if rep.TriangleFree != wantFree || rep.Bits != wantBits || rep.Witness != wantWitness {
		t.Fatalf("golden drift: got free=%v bits=%d witness=%v, want free=%v bits=%d witness=%v",
			rep.TriangleFree, rep.Bits, rep.Witness, wantFree, wantBits, wantWitness)
	}
}
