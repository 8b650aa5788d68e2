package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"time"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/service"
)

// op is one member of a workload's fixed op set: the instance a scenario
// spec and seed declare, split disjointly among k players (unless the
// family prescribes the split), and the tester run on it.
type op struct {
	spec        string
	seed        uint64 // GenerateScenario and split seed (the trial seed on daemon-tiny)
	jobSeed     uint64 // daemon-tiny: the job's base seed; seed = TrialSeed(jobSeed, 0)
	k           int
	opts        tricomm.Options
	knownDegree bool
}

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	why     string
	callers int  // closed-loop callers, each waiting for its op before the next
	setSize int  // ops in the fixed op set the timed window cycles through
	warmup  int  // untimed ops per set-up
	daemon  bool // ops go through an in-process tricommd instead of the facade
	makeOp  func(i int, seed uint64) op
}

var workloads = []workload{
	{
		name:    "interactive-dup",
		why:     "one interactive session at a time on a duplication-heavy instance: protocol compute and chan round trips, intra width 2",
		callers: 1, setSize: 100, warmup: 2,
		makeOp: func(_ int, seed uint64) op {
			return op{spec: `{"family":"dup-adversary","n":512}`, seed: seed, k: 4,
				opts: tricomm.Options{Protocol: tricomm.Interactive, IntraWorkers: 2}}
		},
	},
	{
		name:    "oneround-large",
		why:     "one-round tester on n=16384, far and bipartite alternating: scenario build, split and view build dominate",
		callers: 2, setSize: 64, warmup: 4,
		makeOp: func(i int, seed uint64) op {
			spec := `{"family":"far","n":16384,"d":8}`
			if i%2 == 1 {
				spec = `{"family":"bipartite","n":16384,"d":8}`
			}
			return op{spec: spec, seed: seed, k: 8,
				opts: tricomm.Options{Protocol: tricomm.SimultaneousOblivious, IntraWorkers: 1}}
		},
	},
	{
		name:    "daemon-tiny",
		why:     "tiny jobs through an in-process tricommd over loopback HTTP: the service, queue, runner and NDJSON stream path",
		callers: 2, setSize: 256, warmup: 64, daemon: true,
		makeOp: func(_ int, seed uint64) op {
			return op{spec: `{"family":"far","n":256,"d":6}`, seed: runner.TrialSeed(seed, 0),
				jobSeed: seed, k: 4, opts: tricomm.Options{Protocol: tricomm.SimultaneousOblivious},
				knownDegree: true}
		},
	},
	{
		name:    "interactive-tcp",
		why:     "interactive sessions over TCP loopback, 2 callers: transport framing and kernel sockets on top of the session",
		callers: 2, setSize: 64, warmup: 4,
		makeOp: func(_ int, seed uint64) op {
			return op{spec: `{"family":"far","n":64,"d":6,"eps":0.25}`, seed: seed, k: 4,
				opts: tricomm.Options{Protocol: tricomm.Interactive, IntraWorkers: 1,
					Transport: tricomm.TransportTCP}}
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeed derives the seed of op i of the fixed set from the workload seed
// (splitmix64 finalizer). The result is positive as an int64 and nonzero.
func opSeed(wseed int64, i int) uint64 {
	z := uint64(wseed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z>>1 | 1
}

// result is one op's output, checked against its regenerated instance
// after the timed window.
type result struct {
	idx       int // index into the fixed op set
	opID      int // execution number within its window
	lat       time.Duration
	err       error
	free      bool
	witness   [3]int
	bits      int64
	rounds    int64
	phaseBits map[string]int64
	seed      uint64 // seed the instance was generated from, as reported
	job       string // daemon-tiny: the job ID
}

// target runs ops, either through the tricomm facade or through an
// in-process tricommd.
type target interface {
	do(ctx context.Context, caller int, o op, tr *tracer, opID int, parent int32) result
	close() error
}

// openTarget starts what a workload's ops run against.
func openTarget(w workload, dir string) (target, error) {
	if w.daemon {
		return openDaemon(dir, w.callers, false, nil)
	}
	return facade{}, nil
}

// facade runs ops as library calls: GenerateScenario, the split, Session
// and Test.
type facade struct{}

func (facade) close() error { return nil }

func (facade) do(ctx context.Context, _ int, o op, tr *tracer, opID int, parent int32) result {
	r := result{seed: o.seed}
	sp := tr.begin(opID, parent, "scenario.build")
	si, err := tricomm.GenerateScenario(o.spec, int64(o.seed))
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	sp = tr.begin(opID, parent, "partition.split")
	cl, err := si.Cluster(o.k, tricomm.SplitDisjoint, o.seed)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	opts := o.opts
	if o.knownDegree {
		opts.AvgDegree = si.Graph.AvgDegree()
	}
	sp = tr.begin(opID, parent, "engine.views")
	s, err := cl.Session(opts)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	var m0 runtime.MemStats
	if tr.countingMallocs() {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.begin(opID, parent, "protocol.session")
	rep, err := s.Test(ctx)
	tr.end(sp)
	if tr.countingMallocs() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		tr.addMallocs(m1.Mallocs - m0.Mallocs)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.free = rep.TriangleFree
	r.witness = [3]int{rep.Witness.A, rep.Witness.B, rep.Witness.C}
	r.bits, r.rounds, r.phaseBits = rep.Bits, rep.Rounds, rep.PhaseBits
	return r
}

// daemon is an in-process tricommd — service.New with the default Config —
// served over a loopback httptest server, with one service.Client per
// caller. Its store is the default MemStore; the FileStore's fsyncs, run
// back to back for minutes, slow the whole machine and with it every later
// run, so only the single-caller exact pass of a traced run uses one.
type daemon struct {
	dir     string // FileStore directory; "" for a MemStore
	store   service.Store
	srv     *service.Server
	ts      *httptest.Server
	clients []*service.Client
}

// openDaemon starts a daemon, with a FileStore in a fresh directory under
// root when fileStore is set; tr, when non-nil, times the store's writes.
func openDaemon(root string, callers int, fileStore bool, tr *tracer) (*daemon, error) {
	d := &daemon{store: service.NewMemStore()}
	if fileStore {
		dir, err := os.MkdirTemp(root, "daemon-")
		if err != nil {
			return nil, err
		}
		fs, err := service.OpenFileStore(dir + "/jobs.db")
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		d.dir, d.store = dir, fs
	}
	var store service.Store = d.store
	if tr != nil {
		store = timedStore{Store: d.store, tr: tr}
	}
	d.srv = service.New(service.Config{Store: store})
	d.ts = httptest.NewServer(d.srv.Handler())
	for c := 0; c < callers; c++ {
		// One attempt only: a busy rejection must surface as a failure,
		// not be retried away.
		d.clients = append(d.clients, &service.Client{Base: d.ts.URL, HTTP: d.ts.Client(),
			Retry: service.RetryPolicy{MaxAttempts: 1}})
	}
	return d, nil
}

// close stops the HTTP server and the daemon (which waits for its
// workers, so every store write has landed), then removes the store.
func (d *daemon) close() error {
	d.ts.Close()
	d.srv.Close()
	err := d.store.Close()
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// do submits one 1-trial job, follows its stream to the final line, and
// reads its first result page.
func (d *daemon) do(ctx context.Context, caller int, o op, tr *tracer, opID int, parent int32) result {
	r := result{}
	c := d.clients[caller]
	g, err := service.ParseGraphSpec(o.spec)
	if err != nil {
		r.err = err
		return r
	}
	spec := service.JobSpec{Graph: g, K: o.k, Partition: "disjoint", Protocol: "sim-oblivious",
		KnownDegree: o.knownDegree, Trials: 1, Seed: o.jobSeed}
	sp := tr.begin(opID, parent, "service.submit")
	ji, err := c.Submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.job = ji.ID
	var outs []service.TrialOutcome
	sp = tr.begin(opID, parent, "service.stream")
	final, err := c.Stream(ctx, ji.ID, func(out service.TrialOutcome) error {
		outs = append(outs, out)
		return nil
	})
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("stream %s: %w", ji.ID, err)
		return r
	}
	sp = tr.begin(opID, parent, "service.page")
	page, err := c.JobPage(ctx, ji.ID, 0, 1)
	tr.end(sp)
	switch {
	case err != nil:
		r.err = fmt.Errorf("page %s: %w", ji.ID, err)
	case final.State != service.StateDone:
		r.err = fmt.Errorf("job %s finished %s: %s", ji.ID, final.State, final.Error)
	case len(outs) != 1 || len(page.Results) != 1:
		r.err = fmt.Errorf("job %s: %d streamed and %d paged outcomes, want 1", ji.ID, len(outs), len(page.Results))
	case !reflect.DeepEqual(outs[0], page.Results[0]):
		r.err = fmt.Errorf("job %s: paged outcome differs from the streamed one", ji.ID)
	case outs[0].Aborted:
		r.err = fmt.Errorf("job %s: trial aborted: %s", ji.ID, outs[0].Error)
	}
	if r.err != nil {
		return r
	}
	out := outs[0]
	r.seed, r.free, r.bits, r.rounds, r.phaseBits = out.Seed, out.TriangleFree, out.Bits, out.Rounds, out.PhaseBits
	if out.Witness != nil {
		r.witness = *out.Witness
	} else if !out.TriangleFree {
		r.err = errors.New("triangle found without a witness")
	}
	return r
}

// timedStore records a span around every write to the wrapped store. It
// is used in the exact pass of a traced run only.
type timedStore struct {
	service.Store
	tr *tracer
}

func (s timedStore) PutJob(rec service.JobRecord) error {
	sp := s.tr.beginJob(rec.ID, "service.store_put_job")
	defer s.tr.end(sp)
	return s.Store.PutJob(rec)
}

func (s timedStore) PutTrial(id string, out service.TrialOutcome) error {
	sp := s.tr.beginJob(id, "service.store_put_trial")
	defer s.tr.end(sp)
	return s.Store.PutTrial(id, out)
}
