// Package service is the triangle-freeness testing service behind
// cmd/tricommd: a bounded worker pool that runs protocol sessions for jobs
// submitted over a JSON/HTTP API and streams per-trial results.
//
// A job names a graph (a generator spec or an uploaded edge list), a
// partition scheme, a protocol, a transport, and a trial count. Trials are
// executed through the harness runner (internal/harness/runner), so the
// service inherits its determinism contract: every trial's seed is
// TrialSeed(job seed, trial index), making each outcome independently
// reproducible — the API reports the per-trial seed so a client (or
// cmd/tritest) can regenerate the instance locally and audit the verdict.
package service

import (
	"errors"
	"fmt"

	"tricomm"
	"tricomm/internal/scenario"
	"tricomm/internal/transport"
)

// Limits keep one malformed or hostile job from starving the pool. The
// instance-size caps are the scenario registry's, referenced rather than
// duplicated so the two validation layers cannot drift apart.
const (
	// MaxN is the largest vertex universe a job may request.
	MaxN = scenario.MaxN
	// MaxEdges is the largest uploaded edge list.
	MaxEdges = 1 << 22
	// MaxTrials is the largest per-job trial count.
	MaxTrials = 10_000
	// MaxK is the largest player count.
	MaxK = scenario.MaxK
)

// GraphSpec names the graph a job tests: a declarative scenario (any
// family registered in internal/scenario, drawn per trial from the trial
// seed) or an explicit edge list shared by every trial. It is a thin
// alias over scenario.Spec — parsing and validation delegate to the
// scenario registry — plus the legacy "kind" selector: payloads that
// predate the scenario layer ({"kind": "far", "n": ..., "d": ..., "eps":
// ...} and friends) decode unchanged, because "kind" doubles as the
// family name when "family" is absent. One semantic caveat rides along
// with the registry's zero-means-default convention: a legacy payload
// that explicitly passed 0 for a parameter (e.g. d=0 for an empty random
// graph) now selects the family default instead, and out-of-range values
// the old path silently clamped (a negative construction eps) are
// rejected with an error.
type GraphSpec struct {
	scenario.Spec
	// Kind is the legacy family selector ("far", "random", "bipartite")
	// or "edges" for an uploaded edge list. When both Kind and Family are
	// set they must agree.
	Kind string `json:"kind,omitempty"`
	// Edges is the explicit edge list for kind "edges".
	Edges [][2]int `json:"edges,omitempty"`
}

// scenarioSpec resolves the legacy Kind selector into the scenario spec.
func (g GraphSpec) scenarioSpec() (scenario.Spec, error) {
	sp := g.Spec
	if sp.Family == "" {
		sp.Family = g.Kind
	} else if g.Kind != "" && g.Kind != sp.Family {
		return scenario.Spec{}, fmt.Errorf("graph kind %q conflicts with family %q", g.Kind, sp.Family)
	}
	return sp, nil
}

// canonical returns the registry-canonicalized view of the spec
// (generator families only; kind "edges" passes through unchanged).
func (g GraphSpec) canonical() (GraphSpec, error) {
	if g.Kind == "edges" {
		return g, nil
	}
	sp, err := g.scenarioSpec()
	if err != nil {
		return GraphSpec{}, err
	}
	canon, err := scenario.Canonical(sp)
	if err != nil {
		return GraphSpec{}, err
	}
	return GraphSpec{Spec: canon, Kind: g.Kind}, nil
}

// Validate checks the spec's structural invariants. Generator specs
// delegate to the scenario registry; edge lists are checked here.
func (g GraphSpec) Validate() error {
	if g.Kind == "edges" {
		if g.N < 1 || g.N > MaxN {
			return fmt.Errorf("graph n %d out of range [1, %d]", g.N, MaxN)
		}
		if len(g.Edges) > MaxEdges {
			return fmt.Errorf("edge list %d exceeds %d", len(g.Edges), MaxEdges)
		}
		for i, e := range g.Edges {
			if e[0] < 0 || e[1] < 0 || e[0] >= g.N || e[1] >= g.N {
				return fmt.Errorf("edge %d (%d,%d) out of range [0,%d)", i, e[0], e[1], g.N)
			}
			if e[0] == e[1] {
				return fmt.Errorf("edge %d (%d,%d) is a self-loop; the graph model is simple", i, e[0], e[1])
			}
		}
		return nil
	}
	_, err := g.canonical()
	return err
}

// ScenarioInfo is one catalog entry of the GET /v1/scenarios endpoint,
// generated from the scenario registry — any listed family is a valid
// job graph with no service-side code.
type ScenarioInfo struct {
	// Family is the registry name (usable as graph "family" or "kind").
	Family string `json:"family"`
	// Doc is the one-line description.
	Doc string `json:"doc"`
	// Params summarizes the accepted parameters and defaults.
	Params string `json:"params"`
	// TriangleFree, Certified, and PrescribesPlayers echo the family's
	// certificate contract.
	TriangleFree      bool `json:"triangle_free,omitempty"`
	Certified         bool `json:"certified,omitempty"`
	PrescribesPlayers bool `json:"prescribes_players,omitempty"`
	// Example is the canonical JSON spec of the family's defaults.
	Example string `json:"example"`
}

// Scenarios renders the registry catalog.
func Scenarios() []ScenarioInfo {
	fams := scenario.Families()
	out := make([]ScenarioInfo, 0, len(fams))
	for _, f := range fams {
		canon, err := scenario.Canonical(scenario.Spec{Family: f.Name})
		if err != nil {
			// Every family's defaults canonicalize; a failure here is a
			// registry bug, not a runtime condition.
			panic(fmt.Sprintf("service: family %s defaults invalid: %v", f.Name, err))
		}
		out = append(out, ScenarioInfo{
			Family:            f.Name,
			Doc:               f.Doc,
			Params:            f.Params,
			TriangleFree:      f.TriangleFree,
			Certified:         f.Certified,
			PrescribesPlayers: f.Prescribes,
			Example:           canon.JSON(),
		})
	}
	return out
}

// ParseGraphSpec turns a scenario argument — a registry family name or a
// JSON spec — into a job GraphSpec (the conversion behind tricli's
// -scenario flag).
func ParseGraphSpec(s string) (GraphSpec, error) {
	sp, err := scenario.Parse(s)
	if err != nil {
		return GraphSpec{}, err
	}
	return GraphSpec{Spec: sp}, nil
}

// JobSpec is one submitted job.
type JobSpec struct {
	// Graph is the instance under test.
	Graph GraphSpec `json:"graph"`
	// K is the number of players (default 4).
	K int `json:"k,omitempty"`
	// Partition names the split scheme (default "disjoint").
	Partition string `json:"partition,omitempty"`
	// Protocol names the tester (default "sim-oblivious").
	Protocol string `json:"protocol,omitempty"`
	// Eps is the farness parameter the tester targets (default 0.1).
	Eps float64 `json:"eps,omitempty"`
	// KnownDegree tells the tester the union graph's true average degree.
	KnownDegree bool `json:"known_degree,omitempty"`
	// Trials is the repetition count (default 1). Trial i runs with seed
	// TrialSeed(Seed, i) for both instance generation and the split.
	Trials int `json:"trials,omitempty"`
	// Transport names the session transport: "chan" (default), "pipe",
	// "tcp", or "wan".
	Transport string `json:"transport,omitempty"`
	// Seed is the job's base seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Check additionally computes each trial instance's ground truth
	// (whether the union graph actually contains a triangle), for health
	// checks.
	Check bool `json:"check,omitempty"`
	// Faults injects deterministic link faults into every trial session:
	// "" / "off" (none), a preset ("lossy", "chaos"), or a JSON
	// transport.FaultSpec. The schedule is seeded per trial from the trial
	// seed (unless the spec pins a seed), so faulted trials replay exactly.
	Faults string `json:"faults,omitempty"`
	// TrialTimeoutMS bounds one trial's wall clock in milliseconds; a
	// trial that exceeds it is retried and eventually recorded aborted.
	// 0 means no per-trial timeout.
	TrialTimeoutMS int64 `json:"trial_timeout_ms,omitempty"`
	// MaxFailedTrials is the per-job budget of aborted trials: a job that
	// finishes with 1..MaxFailedTrials aborted trials degrades to state
	// "partial" instead of "failed". 0 means any aborted trial fails the
	// job (but completed trials are still reported).
	MaxFailedTrials int `json:"max_failed_trials,omitempty"`
}

// withDefaults fills the defaulted fields in, canonicalizing the graph
// spec through the scenario registry (so the echoed spec names every
// parameter explicitly). A spec the registry rejects is left as-is for
// Validate to diagnose. When the scenario family prescribes the
// per-player assignment, the job-level K is superseded by the family's —
// the echo then reports the player count the trials actually run with.
func (s JobSpec) withDefaults() JobSpec {
	if s.K == 0 {
		s.K = 4
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if g, err := s.Graph.canonical(); err == nil {
		s.Graph = g
		if f, ok := scenario.Lookup(g.Family); ok && f.Prescribes && g.K > 0 {
			s.K = g.K
		}
	}
	return s
}

// Validate checks the job's structural invariants and name fields.
func (s JobSpec) Validate() error {
	if err := s.Graph.Validate(); err != nil {
		return err
	}
	if s.K < 1 || s.K > MaxK {
		return fmt.Errorf("k %d out of range [1, %d]", s.K, MaxK)
	}
	if s.Trials < 0 || s.Trials > MaxTrials {
		return fmt.Errorf("trials %d out of range [0, %d]", s.Trials, MaxTrials)
	}
	if s.Eps < 0 || s.Eps > 1 {
		return fmt.Errorf("eps %v out of range [0, 1]", s.Eps)
	}
	if _, err := tricomm.ParseSplitScheme(s.Partition); err != nil {
		return err
	}
	if _, err := tricomm.ParseProtocol(s.Protocol); err != nil {
		return err
	}
	if _, err := tricomm.ParseTransport(s.Transport); err != nil {
		return err
	}
	if _, err := transport.ParseFaultSpec(s.Faults); err != nil {
		return err
	}
	if s.TrialTimeoutMS < 0 {
		return fmt.Errorf("trial_timeout_ms %d negative", s.TrialTimeoutMS)
	}
	if s.MaxFailedTrials < 0 || s.MaxFailedTrials > MaxTrials {
		return fmt.Errorf("max_failed_trials %d out of range [0, %d]", s.MaxFailedTrials, MaxTrials)
	}
	return nil
}

// TrialOutcome is one trial's result, streamed to watchers as it lands.
type TrialOutcome struct {
	// Trial is the trial index in [0, Trials).
	Trial int `json:"trial"`
	// Seed is the trial's derived seed; regenerating the instance from it
	// reproduces this outcome exactly.
	Seed uint64 `json:"seed"`
	// TriangleFree is the verdict.
	TriangleFree bool `json:"triangle_free"`
	// Witness is the exhibited triangle when the verdict is "found".
	Witness *[3]int `json:"witness,omitempty"`
	// Bits is the total communication of the run.
	Bits int64 `json:"bits"`
	// WireBytes is the framed transport traffic of the run's
	// coordinator-model sessions (0 for transportless models).
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// Rounds is the protocol round count.
	Rounds int64 `json:"rounds"`
	// PhaseBits attributes bits to protocol phases.
	PhaseBits map[string]int64 `json:"phase_bits,omitempty"`
	// HasTriangle is the instance's ground truth, present when the job
	// asked for Check.
	HasTriangle *bool `json:"has_triangle,omitempty"`
	// Retransmits and FramesLost are the session's resilience counters,
	// nonzero only for trials run with fault injection.
	Retransmits int64 `json:"retransmits,omitempty"`
	FramesLost  int64 `json:"frames_lost,omitempty"`
	// Aborted marks a trial that exhausted its retries without completing
	// (session aborted by faults or trial timeout); Error carries the
	// cause. Aborted trials have no verdict.
	Aborted bool   `json:"aborted,omitempty"`
	Error   string `json:"error,omitempty"`
	// Retries counts re-runs this trial consumed before completing or
	// being recorded aborted.
	Retries int `json:"retries,omitempty"`
}

// JobState is a job's lifecycle position.
type JobState string

// Job states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StatePartial is a job that finished with some trials aborted, within
	// its max_failed_trials budget: every completed trial's result is
	// valid and present, only the aborted ones are missing verdicts.
	StatePartial JobState = "partial"
)

// Finished reports whether the state is terminal (done, partial, or
// failed) — the condition watchers and GC key on.
func (s JobState) Finished() bool {
	return s == StateDone || s == StateFailed || s == StatePartial
}

// Summary aggregates a finished job.
type Summary struct {
	// Trials is the executed trial count.
	Trials int `json:"trials"`
	// Found is the number of trials that exhibited a triangle.
	Found int `json:"found"`
	// MeanBits is the mean total communication per trial.
	MeanBits float64 `json:"mean_bits"`
	// MaxBits is the largest per-trial communication.
	MaxBits int64 `json:"max_bits"`
	// WireBytes is the summed transport traffic.
	WireBytes int64 `json:"wire_bytes"`
	// ElapsedMS is the job's wall-clock run time in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
	// FailedTrials counts trials recorded aborted (state "partial" when
	// within the job's budget). Aborted trials are excluded from Found,
	// MeanBits, and MaxBits.
	FailedTrials int `json:"failed_trials,omitempty"`
	// Retries counts trial re-runs across the job (including those that
	// eventually succeeded).
	Retries int `json:"retries,omitempty"`
}

// JobInfo is the API view of a job.
type JobInfo struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Error is the failure cause when State is "failed".
	Error string `json:"error,omitempty"`
	// Spec echoes the submitted job (with defaults filled in).
	Spec JobSpec `json:"spec"`
	// TrialsDone counts completed trials.
	TrialsDone int `json:"trials_done"`
	// Results are the per-trial outcomes, in trial order, populated as the
	// job runs. A paged request (offset/limit) returns a window of the
	// contiguous result prefix; ResultsOffset and ResultsTotal locate it.
	Results []TrialOutcome `json:"results,omitempty"`
	// ResultsOffset is the trial index of Results[0] (after clamping).
	ResultsOffset int `json:"results_offset,omitempty"`
	// ResultsTotal is the length of the available result prefix,
	// regardless of the window requested.
	ResultsTotal int `json:"results_total,omitempty"`
	// Summary is present once the job is done.
	Summary *Summary `json:"summary,omitempty"`
}

// ErrInvalid wraps client-fault rejections (malformed payloads, specs
// failing validation); the HTTP layer maps it to 400 where unrecognized
// errors are 500.
var ErrInvalid = errors.New("service: invalid job")

// ErrBusy is returned by Submit when the queue is full.
var ErrBusy = errors.New("service: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: server closed")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("service: no such job")
