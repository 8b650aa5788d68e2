package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // op execution number; -1 until resolved for store spans
	ID     int32  `json:"id"`     // index in the recorder
	Parent int32  `json:"parent"` // -1 for an op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"` // daemon job a store span belongs to
}

// tracer is an in-memory span recorder. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts bool   // count mallocs around protocol.session spans
	allocs uint64 // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span of op opID under parent and returns its ID.
func (t *tracer) begin(opID int, parent int32, name string) int32 {
	return t.open(span{Name: name, Op: opID, Parent: parent})
}

// beginJob opens a span for daemon job job, whose op is not known on the
// server side; resolve attaches it to the op that ran the job.
func (t *tracer) beginJob(job, name string) int32 {
	return t.open(span{Name: name, Op: -1, Parent: -1, Job: job})
}

func (t *tracer) open(s span) int32 {
	if t == nil {
		return -1
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) countingMallocs() bool { return t != nil && t.counts }

func (t *tracer) addMallocs(n uint64) {
	t.mu.Lock()
	t.allocs += n
	t.mu.Unlock()
}

// resolve attaches every job-tagged span to the root span of the op that
// ran the job. Call it after all recording has stopped.
func (t *tracer) resolve(results []result) {
	roots := make(map[int]int32)
	for _, s := range t.spans {
		if s.Parent < 0 && s.Job == "" {
			roots[s.Op] = s.ID
		}
	}
	byJob := make(map[string]int, len(results))
	for _, r := range results {
		if r.job != "" {
			byJob[r.job] = r.opID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == "" {
			continue
		}
		if opID, ok := byJob[s.Job]; ok {
			s.Op, s.Parent = opID, roots[opID]
		}
	}
}

// durations returns, per span name, the summed durations of the spans
// that belong to an op (store spans of warm-up jobs do not).
func (t *tracer) durations() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Op >= 0 {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// p50 returns the median duration of the spans named name.
func (t *tracer) p50(name string) time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return quantile(ds, 0.5)
}

// write appends the spans to path as JSON lines, one span each, tagged
// with the phase of the run that recorded them.
func (t *tracer) write(path, phase string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Phase string `json:"phase"`
			span
		}{phase, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
