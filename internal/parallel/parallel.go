// Package parallel provides the bounded worker pool shared by every
// concurrent construction path in this repository: the layer-parallel
// dynamic programs of internal/dp, the advisor's candidate sweep, the
// experiments fan-out, and the engine's batch synopsis builds.
//
// The pool is a process-global budget of extra worker goroutines, capped
// at Workers() (GOMAXPROCS by default, overridable with SetWorkers or the
// RANGEAGG_WORKERS environment variable). Helpers never block waiting for
// a slot: when the budget is exhausted — including when a parallel region
// is nested inside another — the caller simply runs the work inline,
// taking up slots that free while it works. That makes nesting (an
// experiment building a synopsis whose DP parallelizes its own layers)
// safe by construction: no deadlocks, and the total number of running
// workers stays bounded instead of multiplying. A caller waiting for its
// workers lends its slot to the regions nested in them.
//
// All helpers assign work by index, so callers that write results into
// per-index slots get deterministic, scheduling-independent output.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"rangeagg/internal/obs"
)

// Pool fan-out counters: how many parallel regions ran, how many of them
// had to run fully inline (pool exhausted or single-worker), and how many
// extra worker goroutines were spawned in total. Handles are resolved
// once; observing is one atomic add per region, off the per-chunk path.
var (
	poolRegions = obs.Default.Counter("rangeagg_pool_regions_total")
	poolInline  = obs.Default.Counter("rangeagg_pool_inline_total")
	poolWorkers = obs.Default.Counter("rangeagg_pool_workers_total")
)

// maxWorkers is the configured concurrency width (≥ 1).
var maxWorkers atomic.Int64

// inflight counts extra worker goroutines currently running across all
// parallel regions, less the region callers lending their share while
// they wait for their workers; it never exceeds maxWorkers − 1 (the
// caller's own goroutine is the remaining worker). A slot a caller lent
// may still be in use when its wait ends, so for the rest of that
// borrower's region one goroutine more than maxWorkers can be busy.
var inflight atomic.Int64

func init() {
	w := runtime.GOMAXPROCS(0)
	if v := os.Getenv("RANGEAGG_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			w = n
		}
	}
	maxWorkers.Store(int64(w))
}

// Workers returns the current concurrency width.
func Workers() int { return int(maxWorkers.Load()) }

// SetWorkers sets the concurrency width and returns the previous value.
// n ≤ 0 resets to GOMAXPROCS. Safe for concurrent use; regions already
// running keep the width they started with.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(n)))
}

// tryAcquire reserves one extra-worker slot if the global budget allows.
func tryAcquire() bool {
	limit := maxWorkers.Load() - 1
	for {
		cur := inflight.Load()
		if cur >= limit {
			return false
		}
		if inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { inflight.Add(-1) }

// ForEachChunk runs fn over the index range [0, n) split into chunks of
// at most grain consecutive indices, distributing chunks dynamically over
// the pool. fn(lo, hi) must process indices [lo, hi). fn is called
// concurrently from multiple goroutines; distinct calls never overlap in
// index range. ForEachChunk returns when all indices are processed.
func ForEachChunk(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	want := Workers()
	if chunks < want {
		want = chunks
	}
	var next atomic.Int64
	// chunk runs the next unclaimed chunk and reports whether there was
	// one.
	chunk := func() bool {
		lo := int(next.Add(int64(grain))) - grain
		if lo >= n {
			return false
		}
		fn(lo, min(lo+grain, n))
		return true
	}
	poolRegions.Inc()
	if want <= 1 {
		poolInline.Inc()
		for chunk() {
		}
		return
	}
	var wg sync.WaitGroup
	spawned := 0
	// spawn starts one more worker if the region wants one and the
	// budget has a free slot. Only the caller's goroutine spawns.
	spawn := func() bool {
		if spawned >= want-1 || !tryAcquire() {
			return false
		}
		spawned++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			for chunk() {
			}
		}()
		return true
	}
	for spawn() {
	}
	// The caller drains too, and between its chunks takes up slots freed
	// since the region began. Without that, a region started while an
	// enclosing region's workers held the budget (a segmented build
	// inside a snapshot rebuild) would run inline to the end even after
	// those workers finish.
	for chunk() {
		if int(next.Load()) < n {
			spawn()
		}
	}
	if spawned == 0 {
		poolInline.Inc()
		return
	}
	// Lend the caller's share of the budget while it only waits: a
	// worker still running a long chunk (one synopsis build of a
	// snapshot rebuild) can then parallelize the regions nested in it on
	// the CPU the caller leaves idle.
	release()
	wg.Wait()
	inflight.Add(1)
	poolWorkers.Add(int64(spawned))
}

// ForEach runs fn for every index in [0, n), one index per task, over the
// pool. Use for coarse-grained tasks (building a whole synopsis); prefer
// ForEachChunk for fine-grained loops.
func ForEach(n int, fn func(i int)) {
	ForEachChunk(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs heterogeneous tasks concurrently over the pool and returns when
// all have completed — the fork/join form of ForEach for a fixed set of
// different jobs (e.g. rebuilding a serving snapshot's prefix tables and
// synopses together).
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}
