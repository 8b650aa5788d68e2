// Command tricommd is the triangle-freeness testing daemon: it accepts
// jobs (generator specs or uploaded edge lists) over a JSON/HTTP API, runs
// the protocol sessions on a bounded worker pool, and streams per-trial
// verdict/witness/bit-cost results.
//
//	tricommd -addr 127.0.0.1:7341 -workers 4
//	tricommd -addr 127.0.0.1:7341 -db /var/lib/tricommd/jobs.db
//	tricommd -faults lossy -trial-timeout 30s -trial-retries 2
//	tricommd -log-json -pprof
//
// With -faults the daemon injects deterministic link faults (drops,
// duplication, corruption, stalls, disconnects — seeded per trial, so
// outcomes replay exactly) into every session of jobs that don't carry
// their own "faults" spec. Trials whose session aborts or exceeds the
// trial timeout are re-run up to -trial-retries times and then recorded
// aborted; a job ends "partial" while its aborted trials stay within its
// max_failed_trials budget.
//
// With -db the daemon keeps every job spec, state, and per-trial result
// in an embedded on-disk store (a single append-only log file, no
// external dependencies). A daemon killed mid-job and restarted on the
// same -db resumes unfinished jobs automatically: results that already
// landed are kept verbatim and only the missing trials are re-run from
// their deterministic per-trial seeds, so the final results are
// byte-identical to an uninterrupted run. Finished jobs age out by the
// -keep count bound and, optionally, the -ttl age bound. Without -db
// jobs live in memory only and a restart forgets everything.
//
// Logs are structured (log/slog): human-readable text by default,
// one-JSON-object-per-line with -log-json. Every API request is logged
// with a request ID, method, path, status, and duration; /healthz and
// /metrics probes are exempt so pollers don't flood the log. -quiet
// suppresses access logs entirely (lifecycle events remain).
//
// Observability: GET /metrics serves the Prometheus text exposition of
// every layer's counters (service jobs/trials/store, engine sessions,
// transport wire/faults, Go runtime). With -pprof the net/http/pprof
// handlers are mounted under /debug/pprof/ for CPU, heap, and goroutine
// profiles. Neither endpoint influences job results: metrics are
// write-only observed effects.
//
// API (see internal/service):
//
//	POST /v1/jobs             submit a job
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status + per-trial results
//	GET  /v1/jobs/{id}/stream NDJSON stream of trial results
//	GET  /v1/stats            service counters
//	GET  /healthz             liveness + readiness
//	GET  /metrics             Prometheus text exposition
//
// Submit with curl:
//
//	curl -s -X POST localhost:7341/v1/jobs -d '{
//	  "graph": {"kind": "far", "n": 512, "d": 8, "eps": 0.25},
//	  "k": 4, "protocol": "sim-oblivious", "eps": 0.25,
//	  "known_degree": true, "trials": 5, "seed": 1
//	}'
//
// or use cmd/tricli.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"tricomm/internal/obs"
	"tricomm/internal/service"
	"tricomm/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tricommd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7341", "HTTP listen address")
		workers   = flag.Int("workers", 2, "concurrent jobs")
		queue     = flag.Int("queue", 64, "queued-job bound (503 beyond it)")
		trialJobs = flag.Int("trial-jobs", 1, "per-job trial parallelism")
		intraW    = flag.Int("intra-workers", 0, "goroutines per trial for the parallel graph kernels (<= 0: 1); results are identical at any value")
		keep      = flag.Int("keep", 4096, "finished jobs retained for GET")
		db        = flag.String("db", "", "path to the embedded on-disk job store; jobs survive restarts and unfinished ones resume (empty: in-memory only)")
		ttl       = flag.Duration("ttl", 0, "additionally expire finished jobs this long after completion (0: only the -keep count bound)")
		faults    = flag.String("faults", "", "deterministic fault injection applied to jobs that don't set their own spec: off | lossy | chaos | JSON fault spec")
		trialTO   = flag.Duration("trial-timeout", 0, "default per-trial wall-clock budget for jobs that don't set trial_timeout_ms (0: none)")
		retries   = flag.Int("trial-retries", 2, "re-runs of an aborted or timed-out trial, same seed, before it is recorded aborted (-1: none)")
		logJSON   = flag.Bool("log-json", false, "emit logs as one JSON object per line")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		quiet     = flag.Bool("quiet", false, "suppress per-request access logging")
	)
	flag.Parse()

	if _, err := transport.ParseFaultSpec(*faults); err != nil {
		return fmt.Errorf("-faults: %w", err)
	}

	logger := newLogger(*logJSON)
	obs.RegisterRuntime()

	var store service.Store = service.NewMemStore()
	if *db != "" {
		fs, err := service.OpenFileStore(*db)
		if err != nil {
			return fmt.Errorf("open -db: %w", err)
		}
		store = fs
	}
	defer store.Close()
	svc := service.New(service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		TrialJobs:     *trialJobs,
		IntraWorkers:  *intraW,
		KeepJobs:      *keep,
		JobTTL:        *ttl,
		TrialTimeout:  *trialTO,
		TrialRetries:  *retries,
		DefaultFaults: *faults,
		Logger:        logger,
		Store:         store,
	})
	if st := svc.Stats(); st.Resumed > 0 {
		logger.Info("resumed unfinished jobs", "count", st.Resumed, "db", *db)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	var handler http.Handler = mux
	if !*quiet {
		handler = logRequests(logger, handler)
	}
	srv := &http.Server{Handler: handler}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close() // drain workers before the deferred store.Close
		return err
	}
	logger.Info("listening", "url", "http://"+ln.Addr().String(), "workers", *workers, "queue", *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "error", err.Error())
	}
	svc.Close()
	<-serveErr // Serve has returned ErrServerClosed by now
	return nil
}

// newLogger builds the process logger: slog text to stderr, or JSON lines
// with -log-json.
func newLogger(jsonLines bool) *slog.Logger {
	if jsonLines {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// reqSeq numbers requests for the access log; an ID ties a request's log
// lines together and shows up nowhere else (no header round-trip needed
// for a single-process daemon).
var reqSeq atomic.Int64

// logRequests is the access-log middleware: one structured line per
// request with ID, method, path, status, and duration. Probe endpoints
// (/healthz, /metrics) are exempt — scrapers and load balancers hit them
// every few seconds and would drown the signal.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		id := "req-" + strconv.FormatInt(reqSeq.Add(1), 10)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"req", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur", time.Since(start).Round(time.Microsecond))
	})
}

// statusWriter captures the response status for the access log while
// passing the Flusher capability through — the NDJSON stream endpoint
// needs Flush to deliver trial lines as they land.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
