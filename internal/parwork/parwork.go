// Package parwork is the deterministic intra-phase work-splitting layer:
// range-partitioned folds over a caller-sized worker set, bit-identical
// to the serial loops they replace at any worker count.
//
// The discipline mirrors the intra-trial graph kernels of PR 6
// (internal/graph/parallel.go): the index range [0, items) is split into
// deterministic contiguous chunks, workers claim chunks from an atomic
// cursor, each chunk's result lands in chunk-indexed state, and the
// reduction folds partials in chunk order on the calling goroutine. Which
// goroutine runs a chunk is scheduling-dependent; what the fold returns
// is not, because every exposed reduction is grouping-invariant — exact
// integer sums (FoldInt64), minima under a total order (callers via
// ForEach), the serial scan's first hit (First), and order-preserving
// filters (Filter). Callers must keep floating-point accumulations out of
// parallel sections: float addition is not associative, so only
// chunk-invariant reductions ride on this package.
//
// Helper goroutines are a small persistent pool fed through a buffered
// channel, so the steady-state fold path performs no allocation: jobs and
// partial slices are pooled, chunk spans are computed arithmetically, and
// helpers are optional — the calling goroutine drains the cursor itself,
// so a job always completes even if every helper is busy elsewhere
// (nested calls therefore cannot deadlock; the inner call just runs on
// its caller).
package parwork

import (
	"sync"
	"sync/atomic"
)

// Workers resolves an intra-phase worker-count request: an explicit
// n > 0 wins; otherwise 1. The default is deliberately serial —
// trial-level parallelism owns the cores, and intra-phase fan-out only
// pays when a single large session has the box to itself.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return 1
}

// maxHelpers bounds the persistent helper pool. Requests beyond it still
// complete — the calling goroutine always participates — they just fan
// out less.
const maxHelpers = 64

var (
	// tokens carries job announcements to the persistent helpers. Sends
	// are non-blocking: a full buffer means enough work is already
	// pending and the caller proceeds alone.
	tokens = make(chan *job, 256)
	// helpers counts the live persistent helper goroutines.
	helpers atomic.Int64
)

// helperLoop is a persistent worker: it joins each announced job, drains
// the job's chunk cursor, and drops its reference. It is a top-level
// func so spawning it allocates no closure.
func helperLoop() {
	for j := range tokens {
		j.work()
		j.release()
	}
}

// ensureHelpers lazily grows the persistent pool toward n.
func ensureHelpers(n int) {
	for {
		cur := helpers.Load()
		if cur >= int64(n) || cur >= maxHelpers {
			return
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			go helperLoop()
		}
	}
}

type jobMode uint8

const (
	modeFold jobMode = iota
	modeFirst
	modeEach
)

// job is one fan-out's shared state. Jobs are pooled; a job is retired
// to the pool by whoever drops its last reference — the caller plus one
// reference per helper token posted — so a helper that picks the token
// up after the work is done still finds valid (if exhausted) state.
type job struct {
	next   atomic.Int64 // chunk claim cursor
	refs   atomic.Int64 // caller + posted tokens
	done   sync.WaitGroup
	chunks int
	items  int
	mode   jobMode

	body    func(lo, hi int) int64         // modeFold
	partial []int64                        // modeFold / modeFirst values
	probe   func(lo, hi int) (int64, bool) // modeFirst
	hit     []bool                         // modeFirst
	best    atomic.Int64                   // modeFirst: lowest hit chunk
	each    func(chunk, lo, hi int)        // modeEach
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

var int64Pool = sync.Pool{New: func() any { return new([]int64) }}

var boolPool = sync.Pool{New: func() any { return new([]bool) }}

func getInt64s(n int) *[]int64 {
	p := int64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

func getBools(n int) *[]bool {
	p := boolPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	s := (*p)[:n]
	for i := range s {
		s[i] = false
	}
	*p = s
	return p
}

// span returns chunk i's index range: the even integer split of
// [0, items) into chunks parts, a pure function of (i, items, chunks).
func (j *job) span(i int) (int, int) {
	return i * j.items / j.chunks, (i + 1) * j.items / j.chunks
}

func (j *job) runChunk(i int) {
	switch j.mode {
	case modeFold:
		lo, hi := j.span(i)
		j.partial[i] = j.body(lo, hi)
	case modeFirst:
		// Skip chunks above the lowest hit seen so far: nothing they find
		// can beat it. The check is a pure pruning — the final answer is
		// the lowest-index chunk's hit either way.
		if int64(i) <= j.best.Load() {
			lo, hi := j.span(i)
			if v, ok := j.probe(lo, hi); ok {
				j.partial[i], j.hit[i] = v, true
				for {
					cur := j.best.Load()
					if int64(i) >= cur || j.best.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
		}
	case modeEach:
		lo, hi := j.span(i)
		j.each(i, lo, hi)
	}
}

// work drains the chunk cursor. Every claimed chunk runs exactly once
// and signals done; late joiners see an exhausted cursor and return
// without touching job state.
func (j *job) work() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		j.runChunk(i)
		j.done.Done()
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body, j.probe, j.each = nil, nil, nil
		j.partial, j.hit = nil, nil
		jobPool.Put(j)
	}
}

// start initializes the job, announces it to up to workers-1 helpers,
// drains the cursor on the calling goroutine, and waits for every chunk
// to complete. On return all chunk-indexed state is stable; the caller
// still holds one reference and must release() after reading results.
func (j *job) start(workers int) {
	j.next.Store(0)
	j.refs.Store(1)
	j.best.Store(int64(j.chunks))
	j.done.Add(j.chunks)
	ensureHelpers(workers - 1)
	for w := 1; w < workers; w++ {
		j.refs.Add(1)
		select {
		case tokens <- j:
		default:
			j.refs.Add(-1)
		}
	}
	j.work()
	j.done.Wait()
}

// chunkCount over-partitions by 4× the worker count so an unlucky
// worker's slow chunk is balanced by others claiming more, capped at the
// item count.
func chunkCount(workers, items int) int {
	nc := 4 * workers
	if nc > items {
		nc = items
	}
	if nc < 1 {
		nc = 1
	}
	return nc
}

// FoldInt64 returns the sum of body over the even chunk split of
// [0, items) — exactly body(0, items) for any worker count, since int64
// addition is associative. body must be pure local compute (no shared
// mutable state, no metering); the steady-state parallel path performs
// no allocation.
func FoldInt64(workers, items int, body func(lo, hi int) int64) int64 {
	if items <= 0 {
		return 0
	}
	if workers <= 1 || items < 2 {
		return body(0, items)
	}
	nc := chunkCount(workers, items)
	if nc <= 1 {
		return body(0, items)
	}
	pp := getInt64s(nc)
	j := jobPool.Get().(*job)
	j.chunks, j.items, j.mode = nc, items, modeFold
	j.body, j.partial = body, *pp
	j.start(workers)
	var total int64
	for _, v := range *pp {
		total += v
	}
	j.release()
	int64Pool.Put(pp)
	return total
}

// ForEach runs body once per chunk of the even split of [0, items),
// passing the chunk index and its range. Chunks are claimed from an
// atomic cursor, so body must write only chunk- or index-disjoint state.
// NumChunks reports the chunk count for pre-sizing chunk-indexed arrays.
func ForEach(workers, items int, body func(chunk, lo, hi int)) {
	if items <= 0 {
		return
	}
	if workers <= 1 || items < 2 {
		body(0, 0, items)
		return
	}
	nc := chunkCount(workers, items)
	if nc <= 1 {
		body(0, 0, items)
		return
	}
	j := jobPool.Get().(*job)
	j.chunks, j.items, j.mode = nc, items, modeEach
	j.each = body
	j.start(workers)
	j.release()
}

// Run executes do(i) exactly once for each i in [0, chunks) across up to
// workers goroutines, for callers that bring their own partition (e.g.
// the graph kernels' arc-balanced row chunks). Chunk claim order is the
// ascending cursor; do must write only chunk-indexed state.
func Run(workers, chunks int, do func(chunk int)) {
	if chunks <= 0 {
		return
	}
	if workers <= 1 || chunks < 2 {
		for i := 0; i < chunks; i++ {
			do(i)
		}
		return
	}
	j := jobPool.Get().(*job)
	j.chunks, j.items, j.mode = chunks, chunks, modeEach
	j.each = func(c, _, _ int) { do(c) }
	j.start(workers)
	j.release()
}

// NumChunks reports the chunk count ForEach uses for (workers, items):
// 1 when the work runs serially, chunkCount otherwise.
func NumChunks(workers, items int) int {
	if workers <= 1 || items < 2 {
		return 1
	}
	return chunkCount(workers, items)
}

// First returns the serial scan's first hit over [0, items): probe must
// return the first hit inside its subrange (scanning it in ascending
// order), and First returns the lowest-chunk hit — exactly what
// probe(0, items) would return, at any worker count. Chunks above the
// lowest hit so far are pruned.
func First(workers, items int, probe func(lo, hi int) (int64, bool)) (int64, bool) {
	if items <= 0 {
		return 0, false
	}
	if workers <= 1 || items < 2 {
		return probe(0, items)
	}
	nc := chunkCount(workers, items)
	if nc <= 1 {
		return probe(0, items)
	}
	pp := getInt64s(nc)
	hp := getBools(nc)
	j := jobPool.Get().(*job)
	j.chunks, j.items, j.mode = nc, items, modeFirst
	j.probe, j.partial, j.hit = probe, *pp, *hp
	j.start(workers)
	var val int64
	ok := false
	for i := 0; i < nc; i++ {
		if (*hp)[i] {
			val, ok = (*pp)[i], true
			break
		}
	}
	j.release()
	int64Pool.Put(pp)
	boolPool.Put(hp)
	return val, ok
}

// filterSerialBelow is the input size under which Filter stays serial:
// below it the two-pass bookkeeping costs more than the scan.
const filterSerialBelow = 256

// Filter returns, in input order, the elements of src accepted by keep —
// the exact slice (nil included) the serial append loop would build.
// keep must be a pure function of (index, element); the two-pass scheme
// (count, then write into an exact-size destination) invokes it twice
// per element.
func Filter[T any](workers int, src []T, keep func(i int, v T) bool) []T {
	if workers <= 1 || len(src) < filterSerialBelow {
		var out []T
		for i, v := range src {
			if keep(i, v) {
				out = append(out, v)
			}
		}
		return out
	}
	nc := NumChunks(workers, len(src))
	cp := getInt64s(nc)
	counts := *cp
	ForEach(workers, len(src), func(c, lo, hi int) {
		var n int64
		for i := lo; i < hi; i++ {
			if keep(i, src[i]) {
				n++
			}
		}
		counts[c] = n
	})
	var total int64
	for c := 0; c < nc; c++ {
		counts[c], total = total, total+counts[c]
	}
	if total == 0 {
		int64Pool.Put(cp)
		return nil
	}
	dst := make([]T, total)
	ForEach(workers, len(src), func(c, lo, hi int) {
		o := counts[c]
		for i := lo; i < hi; i++ {
			if keep(i, src[i]) {
				dst[o] = src[i]
				o++
			}
		}
	})
	int64Pool.Put(cp)
	return dst
}
