// Command benchtable regenerates the paper-reproduction experiments
// (DESIGN.md §4 maps each experiment id to a row of the paper's Table 1
// or an in-text claim) and prints the measured tables.
//
// Trials fan out over a worker pool (-jobs, default GOMAXPROCS) and
// independent experiments can run concurrently (-parallel); tables are
// bit-identical at every -jobs/-parallel value because every trial's
// randomness is a pure function of (seed, trial index) and results are
// folded in trial order (see internal/harness/runner). Timings go to
// stderr so stdout stays byte-deterministic. SIGINT cancels the worker
// pools and exits after they drain.
//
// Examples:
//
//	benchtable                  # full sweep, all cores
//	benchtable -quick           # reduced sweep
//	benchtable -jobs 1          # sequential trials (same bytes, slower)
//	benchtable -only E3,E4      # just the probe experiments
//	benchtable -csv results/    # also dump CSVs
//	benchtable -json            # JSON array of tables on stdout
//
// Scenario mode runs a single declarative instance spec instead of the
// registered experiments — any family from the scenario registry
// (-list-scenarios prints the catalog), run as a tricommd job spec through
// the daemon's own trial path, so per-trial rows are seed-exact with
// tricommd jobs and with the Go API path GenerateScenario → si.Cluster →
// Cluster.Test:
//
//	benchtable -scenario chung-lu -trials 5
//	benchtable -scenario '{"family":"sbm","n":2048,"blocks":16}' -protocol interactive
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"tricomm"
	"tricomm/internal/harness"
	"tricomm/internal/obs"
	"tricomm/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		quick    = flag.Bool("quick", false, "reduced sweeps")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		only     = flag.String("only", "", "comma-separated experiment ids (default: all)")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSVs")
		trials   = flag.Int("trials", 0, "override per-point trial count")
		jobs     = flag.Int("jobs", 0, "trial worker count (<= 0: GOMAXPROCS); tables are identical at any value")
		intraW   = flag.Int("intra-workers", 0, "goroutines per trial for the parallel graph kernels (<= 0: $TRICOMM_INTRA_WORKERS, then 1); tables are identical at any value")
		parallel = flag.Int("parallel", 1, "experiments to run concurrently (output order is preserved; each carries its own -jobs pool, so in-flight trials ≈ jobs×parallel)")
		jsonOut  = flag.Bool("json", false, "emit a JSON array of tables on stdout instead of text")
		scen     = flag.String("scenario", "", "run one scenario (a registry family name or JSON spec) instead of the experiments")
		listScen = flag.Bool("list-scenarios", false, "print the scenario catalog and exit")
		k        = flag.Int("k", 4, "players (scenario mode)")
		eps      = flag.Float64("eps", 0.2, "tester farness target (scenario mode)")
		part     = flag.String("partition", "disjoint", "partition (scenario mode): "+strings.Join(tricomm.SplitSchemeNames(), " | "))
		proto    = flag.String("protocol", "sim-oblivious", "protocol (scenario mode): "+strings.Join(tricomm.ProtocolNames(), " | "))
		transp   = flag.String("transport", "chan", "session transport (scenario mode): "+strings.Join(tricomm.TransportNames(), " | "))
		check    = flag.Bool("check", false, "audit every trial against ground truth (scenario mode): witnesses must be genuine triangles, misses are reported in a note")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		metrics  = flag.String("metrics", "", "write the run's metrics (Prometheus text exposition) to this file at exit; tables on stdout are unaffected")
	)
	flag.Parse()

	if *listScen {
		fmt.Print(tricomm.ScenarioUsage())
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *metrics != "" {
		// Metrics are observed effects only — the tables on stdout are
		// byte-identical with or without this flag (CI pins that).
		obs.RegisterRuntime()
		defer func() {
			if err := writeMetrics(*metrics); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: metrics: %v\n", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-object stats before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: memprofile: %v\n", err)
			}
		}()
	}

	cfg := harness.RunConfig{Seed: *seed, Quick: *quick, Trials: *trials, Jobs: *jobs,
		IntraWorkers: *intraW}

	if *scen != "" {
		trials := cfg.Trials
		if trials <= 0 {
			trials = 3
		}
		g, err := service.ParseGraphSpec(*scen)
		if err != nil {
			return err
		}
		table, err := harness.ScenarioTable(ctx, cfg, service.JobSpec{
			Graph: g, K: *k, Partition: *part, Protocol: *proto, Transport: *transp,
			Eps: *eps, KnownDegree: true, Check: *check, Trials: trials, Seed: *seed,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode([]*harness.Table{table})
		}
		return table.Render(os.Stdout)
	}

	var selected []harness.Experiment
	if *only == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			exp, ok := harness.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, exp)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// Experiment-level concurrency: up to -parallel experiments run at
	// once, each fanning its trials over -jobs workers. Results are
	// collected and emitted in selection order regardless of completion
	// order. A genuine failure cancels everything still in flight from
	// the worker that saw it (not from the in-order collector, which may
	// be blocked on an earlier slow experiment for minutes).
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	width := *parallel
	if width < 1 {
		width = 1
	}
	type outcome struct {
		table *harness.Table
		took  time.Duration
		err   error
	}
	results := make([]chan outcome, len(selected))
	for i := range selected {
		results[i] = make(chan outcome, 1)
	}
	var (
		errOnce  sync.Once
		firstErr error // the first genuine (non-cancellation) failure
	)
	fail := func(id string, err error) {
		errOnce.Do(func() {
			firstErr = fmt.Errorf("%s: %w", id, err)
			cancel()
		})
	}
	// Workers pull indices from a queue fed in selection order, so with
	// -parallel 1 experiments start (and stream) strictly in order rather
	// than racing for a semaphore.
	queue := make(chan int)
	go func() {
		defer close(queue)
		for i := range selected {
			queue <- i
		}
	}()
	for w := 0; w < width; w++ {
		go func() {
			for i := range queue {
				if err := ectx.Err(); err != nil {
					results[i] <- outcome{err: err}
					continue
				}
				start := time.Now()
				table, err := selected[i].Run(ectx, cfg)
				// Errors observed after ectx was canceled are unwinding
				// noise (SIGINT or a sibling's failure), not diagnoses.
				if err != nil && ectx.Err() == nil {
					fail(selected[i].ID, err)
				}
				results[i] <- outcome{table: table, took: time.Since(start), err: err}
			}
		}()
	}

	var tables []*harness.Table
	sawErr := false
	for i, exp := range selected {
		o := <-results[i]
		if o.err != nil {
			sawErr = true
			continue
		}
		if sawErr {
			continue // keep the emitted output a clean prefix
		}
		o.table.ID = exp.ID
		o.table.Title = exp.Title
		o.table.PaperClaim = exp.PaperClaim
		if *jsonOut {
			tables = append(tables, o.table)
		} else if err := o.table.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%s took %v)\n", exp.ID, o.took.Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, exp.ID+".csv"), o.table); err != nil {
				return err
			}
		}
	}
	// All results are in, so every fail() call happened-before here.
	if firstErr != nil {
		return firstErr
	}
	if sawErr {
		// Only cancellation-shaped outcomes remain: the run was
		// interrupted (SIGINT/SIGTERM), not broken.
		return fmt.Errorf("interrupted: %w", context.Canceled)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}
	return nil
}

func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(path string, table *harness.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := table.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
