// Command tricli is the client for a running tricommd daemon.
//
//	tricli -server http://127.0.0.1:7341 submit -kind far -n 512 -d 8 -trials 5 -wait
//	tricli -server http://127.0.0.1:7341 submit -scenario chung-lu -trials 5 -wait
//	tricli -server http://127.0.0.1:7341 get -job job-3
//	tricli -server http://127.0.0.1:7341 watch -job job-3
//	tricli -server http://127.0.0.1:7341 load -jobs 200 -c 8 -n 256
//	tricli -server http://127.0.0.1:7341 stats
//	tricli -server http://127.0.0.1:7341 stats -watch 2s
//	tricli list-scenarios
//
// submit prints the job id (and, with -wait, streams per-trial results
// until the verdict summary). load is the throughput generator: it
// submits -jobs jobs from -c concurrent clients and reports jobs/sec and
// the verdict tally. stats prints the service counters once; with
// -watch <interval> it polls /v1/stats and /metrics and reprints a live
// table spanning the service, engine, transport, and runtime layers
// until interrupted. list-scenarios prints the registry-generated
// scenario catalog — every listed family is submittable via -scenario
// (or as {"graph": {"family": ...}} over raw HTTP).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"time"

	"tricomm"
	"tricomm/internal/scenario"
	"tricomm/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tricli: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("tricli", flag.ContinueOnError)
	server := global.String("server", "http://127.0.0.1:7341", "tricommd base URL")
	global.Usage = usage(global)
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		global.Usage()
		return fmt.Errorf("missing subcommand")
	}
	cl := &service.Client{Base: *server}
	ctx := context.Background()
	switch rest[0] {
	case "submit":
		return cmdSubmit(ctx, cl, rest[1:])
	case "get":
		return cmdGet(ctx, cl, rest[1:])
	case "watch":
		return cmdWatch(ctx, cl, rest[1:])
	case "load":
		return cmdLoad(ctx, cl, rest[1:])
	case "stats":
		return cmdStats(ctx, cl, rest[1:])
	case "list-scenarios":
		fmt.Print(tricomm.ScenarioUsage())
		return nil
	default:
		global.Usage()
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(fs.Output(), "usage: tricli [-server URL] <submit|get|watch|load|stats|list-scenarios> [flags]\n")
		fs.PrintDefaults()
	}
}

// jobFlags registers the job-spec flags shared by submit and load: the
// service binder's, at tricli's defaults, plus the daemon-side trial
// budget flags.
func jobFlags(fs *flag.FlagSet) func() (service.JobSpec, error) {
	spec := service.BindJobFlags(fs, service.JobSpec{
		Graph:       service.GraphSpec{Kind: "far", Spec: scenario.Spec{N: 512, D: 8}},
		K:           4,
		Partition:   "disjoint",
		Protocol:    "sim-oblivious",
		Eps:         0.25,
		KnownDegree: true,
		Trials:      1,
		Transport:   "chan",
		Seed:        1,
	})
	trialTO := fs.Duration("trial-timeout", 0, "per-trial wall-clock budget (0: server default)")
	maxFail := fs.Int("max-failed-trials", 0, "aborted-trial budget: within it the job degrades to 'partial' instead of failing")
	return func() (service.JobSpec, error) {
		js, err := spec()
		js.TrialTimeoutMS = trialTO.Milliseconds()
		js.MaxFailedTrials = *maxFail
		return js, err
	}
}

func cmdSubmit(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("tricli submit", flag.ContinueOnError)
	spec := jobFlags(fs)
	wait := fs.Bool("wait", false, "stream results until the job finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	js, err := spec()
	if err != nil {
		return err
	}
	ji, err := cl.Submit(ctx, js)
	if err != nil {
		return err
	}
	fmt.Printf("job: %s (%s)\n", ji.ID, ji.State)
	if !*wait {
		return nil
	}
	fin, err := cl.Stream(ctx, ji.ID, func(o service.TrialOutcome) error {
		printOutcome(o)
		return nil
	})
	if err != nil {
		return err
	}
	return printFinal(fin)
}

func cmdGet(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("tricli get", flag.ContinueOnError)
	job := fs.String("job", "", "job id")
	offset := fs.Int("offset", 0, "first trial result to fetch")
	limit := fs.Int("limit", -1, "max trial results to fetch (-1: all, 0: just the job envelope)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return fmt.Errorf("get: -job required")
	}
	ji, err := cl.JobPage(ctx, *job, *offset, *limit)
	if err != nil {
		return err
	}
	for _, o := range ji.Results {
		printOutcome(o)
	}
	if *offset > 0 || *limit >= 0 {
		fmt.Printf("(results %d..%d of %d available)\n",
			ji.ResultsOffset, ji.ResultsOffset+len(ji.Results), ji.ResultsTotal)
	}
	return printFinal(ji)
}

func cmdWatch(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("tricli watch", flag.ContinueOnError)
	job := fs.String("job", "", "job id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return fmt.Errorf("watch: -job required")
	}
	// Every delivered outcome advances the offset, so when the NDJSON
	// stream drops mid-job the watch reconnects and resumes exactly where
	// it left off (?offset=) instead of re-printing or losing trials.
	// Progress resets the failure budget; a server that is truly gone
	// (or a job that was collected) surfaces after a few attempts.
	seen, fails := 0, 0
	for {
		fin, err := cl.StreamFrom(ctx, *job, seen, func(o service.TrialOutcome) error {
			printOutcome(o)
			seen++
			fails = 0
			return nil
		})
		if err == nil {
			return printFinal(fin)
		}
		if ctx.Err() != nil || errors.Is(err, service.ErrNotFound) {
			return err
		}
		if fails++; fails > 5 {
			return fmt.Errorf("watch %s: stream kept dropping: %w", *job, err)
		}
		fmt.Fprintf(os.Stderr, "tricli: stream dropped (%v), resuming %s at trial %d\n", err, *job, seen)
		select {
		case <-time.After(time.Duration(fails) * 200 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func cmdLoad(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("tricli load", flag.ContinueOnError)
	spec := jobFlags(fs)
	jobs := fs.Int("jobs", 100, "total jobs to submit")
	conc := fs.Int("c", 4, "concurrent clients")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 1 || *conc < 1 {
		return fmt.Errorf("load: -jobs and -c must be positive")
	}
	base, err := spec()
	if err != nil {
		return err
	}
	var (
		next    atomic.Int64
		found   atomic.Int64
		free    atomic.Int64
		partial atomic.Int64
		failed  atomic.Int64
		bits    atomic.Int64
		retried atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, *conc)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= *jobs {
					return
				}
				spec := base
				spec.Seed = base.Seed + uint64(i)
				var ji service.JobInfo
				var err error
				for {
					ji, err = cl.Submit(ctx, spec)
					if err == nil {
						break
					}
					// The daemon sheds load with ErrBusy (503) when the
					// queue is full; back off and retry, fail on anything
					// else.
					if errors.Is(err, service.ErrBusy) {
						retried.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					}
					errCh <- fmt.Errorf("submit %d: %w", i, err)
					return
				}
				fin, err := cl.Wait(ctx, ji.ID, 5*time.Millisecond)
				if err != nil {
					errCh <- fmt.Errorf("wait %d: %w", i, err)
					return
				}
				switch {
				case fin.State == service.StatePartial:
					partial.Add(1)
				case fin.State != service.StateDone:
					failed.Add(1)
				case fin.Summary != nil && fin.Summary.Found > 0:
					found.Add(1)
				default:
					free.Add(1)
				}
				if fin.Summary != nil {
					bits.Add(int64(fin.Summary.MeanBits * float64(fin.Summary.Trials)))
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	elapsed := time.Since(start)
	done := found.Load() + free.Load() + partial.Load() + failed.Load()
	fmt.Printf("load: %d jobs in %v (%.1f jobs/sec, %d clients)\n",
		done, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds(), *conc)
	fmt.Printf("  found-triangle: %d\n  triangle-free:  %d\n  partial:        %d\n  failed:         %d\n",
		found.Load(), free.Load(), partial.Load(), failed.Load())
	fmt.Printf("  total bits: %d, 503-retries: %d\n", bits.Load(), retried.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("%d jobs failed", failed.Load())
	}
	return nil
}

func cmdStats(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Duration("watch", 0, "poll and reprint every interval until interrupted (0: print once)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch <= 0 {
		return printStats(ctx, cl)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	var prevTrials, prevBits float64
	first := true
	for {
		st, err := cl.ServerStats(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		// The metrics scrape enriches the table with the engine, transport,
		// and runtime layers; a daemon without them (older build) still
		// watches fine on the service counters alone.
		e, _ := cl.Metrics(ctx)
		total := func(name string) float64 {
			if e == nil {
				return 0
			}
			return e.Total(name)
		}
		trials := float64(st.TrialsRun)
		bits := total("tricomm_engine_bits_total")
		if !first {
			fmt.Println()
		}
		fmt.Printf("%s  up %v  queued %d/%d  retained %d  workers %d\n",
			time.Now().Format("15:04:05"),
			(time.Duration(st.UptimeMS) * time.Millisecond).Round(time.Second),
			st.Queued, st.QueueDepth, st.Retained, st.Workers)
		fmt.Printf("  jobs       submitted %-8d done %-8d partial %-8d failed %d\n",
			st.Submitted, st.Completed, st.Partial, st.Failed)
		fmt.Printf("  trials     run %-8d retries %-8d aborted %d", st.TrialsRun, st.TrialRetries, st.TrialsAborted)
		if !first {
			fmt.Printf("   (+%.1f trials/s)", (trials-prevTrials)/watch.Seconds())
		}
		fmt.Println()
		if e != nil {
			fmt.Printf("  engine     sessions %-7.0f aborted %-8.0f bits %.0f", total("tricomm_engine_sessions_total"),
				total("tricomm_engine_sessions_aborted_total"), bits)
			if !first {
				fmt.Printf("   (+%.0f bits/s)", (bits-prevBits)/watch.Seconds())
			}
			fmt.Println()
			fmt.Printf("  transport  wire-bytes %-9.0f frames %-8.0f retransmits %.0f\n",
				total("tricomm_transport_wire_bytes_total"), total("tricomm_transport_frames_total"),
				total("tricomm_transport_retransmits_total"))
			if g, ok := e.Value("go_goroutines"); ok {
				heap, _ := e.Value("go_heap_alloc_bytes")
				fmt.Printf("  runtime    goroutines %-9.0f heap %.1fMB\n", g, heap/(1<<20))
			}
		}
		prevTrials, prevBits, first = trials, bits, false
		select {
		case <-time.After(*watch):
		case <-ctx.Done():
			return nil
		}
	}
}

func printStats(ctx context.Context, cl *service.Client) error {
	st, err := cl.ServerStats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("uptime: %v\nworkers: %d (queue %d, %d queued)\nsubmitted: %d\ncompleted: %d\npartial: %d\nfailed: %d\n",
		time.Duration(st.UptimeMS)*time.Millisecond, st.Workers, st.QueueDepth, st.Queued,
		st.Submitted, st.Completed, st.Partial, st.Failed)
	if st.TrialRetries > 0 || st.TrialsAborted > 0 {
		fmt.Printf("trial retries: %d\ntrials aborted: %d\n", st.TrialRetries, st.TrialsAborted)
	}
	return nil
}

func printOutcome(o service.TrialOutcome) {
	if o.Aborted {
		fmt.Printf("trial %d seed=%d: ABORTED after %d retries: %s\n",
			o.Trial, o.Seed, o.Retries, o.Error)
		return
	}
	verdict := "triangle-free"
	if !o.TriangleFree {
		if o.Witness != nil {
			verdict = fmt.Sprintf("found-triangle %v", *o.Witness)
		} else {
			verdict = "found-triangle (no witness!)"
		}
	}
	truth := ""
	if o.HasTriangle != nil {
		truth = fmt.Sprintf(" truth-has-triangle=%v", *o.HasTriangle)
	}
	resil := ""
	if o.Retransmits > 0 || o.FramesLost > 0 {
		resil = fmt.Sprintf(" retransmits=%d frames-lost=%d", o.Retransmits, o.FramesLost)
	}
	fmt.Printf("trial %d seed=%d: %s  bits=%d wire-bytes=%d rounds=%d%s%s\n",
		o.Trial, o.Seed, verdict, o.Bits, o.WireBytes, o.Rounds, resil, truth)
}

func printFinal(ji service.JobInfo) error {
	if ji.State == service.StateFailed {
		return fmt.Errorf("job %s failed: %s", ji.ID, ji.Error)
	}
	if ji.Summary != nil {
		s := ji.Summary
		extra := ""
		if s.FailedTrials > 0 || s.Retries > 0 {
			extra = fmt.Sprintf(", %d aborted, %d retries", s.FailedTrials, s.Retries)
		}
		fmt.Printf("%s %s: %d/%d trials found a triangle, mean %.0f bits, max %d bits, %d wire bytes, %dms%s\n",
			ji.ID, ji.State, s.Found, s.Trials, s.MeanBits, s.MaxBits, s.WireBytes, s.ElapsedMS, extra)
	} else {
		fmt.Printf("%s %s (%d trials done)\n", ji.ID, ji.State, ji.TrialsDone)
	}
	return nil
}
