// Command perfbench is the repository's end-to-end and per-layer serving
// benchmark. It builds a workload's real serving stack in process — the
// engine, WAL, serve.Server and cluster router constructors that
// cmd/synserve and cmd/synrouter use, with their default settings, on
// loopback listeners — drives it with at most two client goroutines
// (one connection each), checks every answer against a brute-force
// mirror of the data, and prints every metric with its unit, statistic
// and sample count. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: read-hot (planner and HTTP codec; cached, no writes),
// read-write (WAL, maintenance and publish under an open-loop reader),
// routed (split, fan-out and merge over four nodes).
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures untraced for the first half of the window
// and traced for the second, then replays the recorded inputs through
// the lower layers' public functions; the result carries the per-layer
// metrics, and the spans and the layer self-time table are written
// under --out.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     int64
	window   time.Duration // measured time (after warm-up)
	warmup   time.Duration
	trace    bool
	setups   int    // stack constructions; setup_s is their median
	workdir  string // WAL and scratch data (created, then removed)
	out      string // traced runs: spans and layer tables
	// perturb, when set, wraps every node handler (the self-test uses
	// it to corrupt an answer).
	perturb func(http.Handler) http.Handler
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: read-hot, read-write or routed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the data and the request streams")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds (after a one-second warm-up)")
	flag.IntVar(&trace, "trace", 0, "1: traced run emitting the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for WAL and scratch data")
	flag.StringVar(&o.out, "out", "perfbench/out", "directory for spans and layer tables (traced runs)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.window, o.warmup, o.trace = time.Duration(seconds)*time.Second, time.Second, trace == 1
	o.setups = setups
	out, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	line, err := out.rep.jsonLine(names, out.correct(), out.attempted, out.failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// outcome is one run's report and its operation tally.
type outcome struct {
	rep               report
	attempted, failed int64
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

// run executes one workload run and returns its metrics; progress and
// the metric table go to log.
func run(o options, log io.Writer) (*outcome, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	// At most two client goroutines, one connection each: the load may
	// not outnumber the cores it shares with the stack.
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("needs 2 CPUs for its 2 clients, have %d", runtime.NumCPU())
	}
	counts, err := genCounts(o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var wrap wrapFunc
	if tr != nil || o.perturb != nil {
		wrap = func(role string, nd *node, h http.Handler) http.Handler {
			if o.perturb != nil && role == "serve" {
				h = o.perturb(h)
			}
			if tr != nil {
				h = tr.wrap(role, nd, h)
			}
			return h
		}
	}

	// Set-up, several times: setup_s and heap_mb are medians. Every
	// stack but the last is torn down again. Heap growth is measured from
	// before the first set-up: a torn-down stack can stay reachable from
	// an idle pool worker until the next set-up's work replaces it.
	var setupS, heapMB, walOpenMs []float64
	var st *stack
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < o.setups; i++ {
		var m1 runtime.MemStats
		t := time.Now()
		s, err := buildStack(w, counts, filepath.Join(dir, fmt.Sprintf("setup%d", i)), wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heapMB = append(heapMB, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/(1<<20))
		walOpenMs = append(walOpenMs, ms(s.walOpen))
		if i < o.setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	fmt.Fprintf(log, "# %s seed=%d: set-up %.2fs (median of %d)\n", w.name, o.seed, median(setupS), o.setups)

	snap0 := st.nodes[0].srv.Snapshot()
	orc := newOracle(counts, snap0.Version)
	lr := &loadRun{w: w, st: st, orc: orc, tr: tr}
	if w.nodes > 0 {
		lr.nodeVersions = make(map[string]int64)
		for _, nd := range st.nodes {
			lr.nodeVersions[nd.id] = nd.srv.Snapshot().Version
		}
	}
	begin := time.Now()
	lr.start = begin.Add(o.warmup)
	lr.end = lr.start.Add(o.window)
	mid := lr.start.Add(o.window / 2)
	var c0 counters
	var cwg sync.WaitGroup
	if tr != nil {
		tr.from = mid
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			time.Sleep(time.Until(mid))
			c0 = readCounters(st)
		}()
	}
	loadStart := time.Now()
	runClients(lr, o.seed)
	cwg.Wait()
	c1 := readCounters(st)
	loadEnd := time.Now()
	waitQuiet(st)
	if lr.firstErr != nil {
		fmt.Fprintln(log, "# first failure:", lr.firstErr)
	}

	out := &outcome{}
	rep := &out.rep
	if tr != nil {
		if err := layerMetrics(rep, lr, st, tr, c0, c1, counts, snap0, dir, o, log); err != nil {
			return nil, err
		}
	}
	orc.finish()
	out.attempted = lr.nextOp.Load()
	out.failed = int64(len(orc.failedOps))

	// Generator health: a reader that fell behind its schedule did not
	// offer the load the figures claim.
	var late []float64
	if w.durable {
		for _, s := range lr.batch {
			if lr.measured(s.due) {
				late = append(late, ms(s.late))
			}
		}
		if p := quantile(late, 0.99); p > lateLimitMs {
			return nil, fmt.Errorf("invalid run: the open-loop reader ran %.1f ms late at p99 (limit %d ms)", p, lateLimitMs)
		}
	}
	rep.add("load.late_ms.p99", "ms", "p99", quantile(late, 0.99), len(late))

	// End-to-end metrics, from the untraced window (the first half in a
	// traced run).
	e2eEnd := lr.end
	if tr != nil {
		e2eEnd = mid
	}
	rep.add("setup_s", "s", "median", median(setupS), len(setupS))
	endToEndMetrics(rep, lr, e2eEnd)
	rep.add("err_rel", "ratio", "ratio", orc.errRel(), int(orc.ranges))
	rep.add("failed_frac", "ratio", "ratio", ratio(float64(out.failed), float64(out.attempted)), int(out.attempted))
	rep.add("heap_mb", "MiB", "median", median(heapMB), len(heapMB))
	if tr != nil {
		untraced := latencies(lr.batch, lr.start, mid, orc.failedOps, time.Millisecond)
		traced := latencies(lr.batch, mid, lr.end, orc.failedOps, time.Millisecond)
		rep.add("trace.overhead", "ratio", "p50/p50", quantile(traced, 0.5)/quantile(untraced, 0.5)-1, len(traced))
		rep.add("wal.open_ms", "ms", "median", median(walOpenMs), len(walOpenMs))
	}
	rep.add("check.exact_mismatches", "count", "count", float64(orc.exactMismatches), int(orc.ranges))
	rep.add("check.bound_violations", "count", "count", float64(orc.boundViolations), int(orc.ranges))
	fmt.Fprintf(log, "# load %.1fs, %d ops attempted, %d failed, %d ranges checked\n",
		loadEnd.Sub(loadStart).Seconds(), out.attempted, out.failed, orc.ranges)
	rep.printTable(log)
	return out, nil
}

// latencies are the latencies (in unit) of the samples due in [from,
// to); a failed request counts as infinitely slow, missing every limit.
func latencies(ss []sample, from, to time.Time, failed map[int64]bool, unit time.Duration) []float64 {
	var xs []float64
	for _, s := range ss {
		if !s.due.Before(from) && s.due.Before(to) {
			v := float64(s.lat) / float64(unit)
			if failed[s.op] {
				v = math.Inf(1)
			}
			xs = append(xs, v)
		}
	}
	return xs
}

// endToEndMetrics adds the request-level figures of the window
// [lr.start, to).
func endToEndMetrics(rep *report, lr *loadRun, to time.Time) {
	failed := lr.orc.failedOps
	lat := func(ss []sample, unit time.Duration) []float64 { return latencies(ss, lr.start, to, failed, unit) }
	// batch_p50_ms is the median of equal sub-windows' p50s, so a burst
	// of interference on the shared machine moves one sub-window, not
	// the figure.
	batch := lat(lr.batch, time.Millisecond)
	var p50s []float64
	part := to.Sub(lr.start) / subWindowCount
	for i := 0; i < subWindowCount; i++ {
		from := lr.start.Add(time.Duration(i) * part)
		p50s = append(p50s, quantile(latencies(lr.batch, from, from.Add(part), failed, time.Millisecond), 0.5))
	}
	rep.add("batch_p50_ms", "ms", fmt.Sprintf("median of %d sub-window p50s", subWindowCount), median(p50s), len(batch))
	rep.add("batch_p99_ms", "ms", "p99", quantile(batch, 0.99), len(batch))
	if single := lat(lr.single, time.Microsecond); len(single) > 0 {
		rep.add("single_p50_us", "us", "p50", quantile(single, 0.5), len(single))
		rep.add("single_p99_us", "us", "p99", quantile(single, 0.99), len(single))
	}
	// Throughput: ranges of the requests due in the window over the time
	// until the last of them was answered.
	var ranges int
	last := lr.start
	for _, s := range append(append([]sample(nil), lr.batch...), lr.single...) {
		if !s.due.Before(lr.start) && s.due.Before(to) && !failed[s.op] {
			ranges += s.ranges
			if done := s.due.Add(s.lat); done.After(last) {
				last = done
			}
		}
	}
	rep.add("ranges_per_s", "ranges/s", "rate", ratio(float64(ranges), last.Sub(lr.start).Seconds()), ranges)
	if len(lr.writes) == 0 {
		return
	}
	wr := lat(lr.writes, time.Millisecond)
	pub := lat(lr.publishes, time.Millisecond)
	// A writer publishes ~10 times a second: its p99 rests on too few
	// samples in one run, so p90 rides along.
	rep.add("write_p50_ms", "ms", "p50", quantile(wr, 0.5), len(wr))
	rep.add("write_p90_ms", "ms", "p90", quantile(wr, 0.9), len(wr))
	rep.add("write_p99_ms", "ms", "p99", quantile(wr, 0.99), len(wr))
	rep.add("publish_p50_ms", "ms", "p50", quantile(pub, 0.5), len(pub))
	rep.add("publish_p90_ms", "ms", "p90", quantile(pub, 0.9), len(pub))
	rep.add("publish_p99_ms", "ms", "p99", quantile(pub, 0.99), len(pub))
	var muts int
	for _, s := range lr.publishes {
		if !s.due.Before(lr.start) && s.due.Before(to) && !failed[s.op] {
			muts += s.ranges
		}
	}
	rep.add("writes_per_s", "mutations/s", "rate", float64(muts)/to.Sub(lr.start).Seconds(), muts)
}

// runClients starts the workload's clients and waits for them, one
// connection each. The routed workload uses one client alternating
// batch and single requests: node spans then nest unambiguously under
// their router span, and two clients competing for the two cores made
// its figures swing from run to run.
func runClients(lr *loadRun, seed int64) {
	w := lr.w
	var wg sync.WaitGroup
	goClient := func(f func(c *client)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(lr.st.url, lr.tr)
			defer c.close()
			f(c)
		}()
	}
	names := make([]string, len(w.syns))
	for i, d := range w.syns {
		names[i] = d.name
	}
	switch {
	case w.name == "read-hot":
		pool := newHotPool()
		bg, sg := newHotGen(pool, names, seed+1), newHotGen(pool, names, seed+2)
		goClient(func(c *client) { lr.closedLoop(c, func() *query { return bg.next(false) }) })
		goClient(func(c *client) { lr.closedLoop(c, func() *query { return sg.next(true) }) })
	case w.durable:
		rg := &uniformGen{rng: rand.New(rand.NewSource(seed + 1)), syns: names}
		wrng := rand.New(rand.NewSource(seed + 2))
		goClient(func(c *client) { lr.writer(c, wrng) })
		goClient(func(c *client) {
			lr.openLoop(c, readRate, time.Now(), func() *query { return rg.next(false) })
		})
	case w.nodes > 0:
		g := &uniformGen{rng: rand.New(rand.NewSource(seed + 1)), syns: names, exactShare: 0.25}
		turn := 0
		goClient(func(c *client) {
			lr.closedLoop(c, func() *query { turn++; return g.next(turn%2 == 0) })
		})
	}
	wg.Wait()
}

// waitQuiet lets a pending debounced rebuild finish, so replays and
// final counters see a settled stack.
func waitQuiet(st *stack) {
	for i := 0; i < 100; i++ {
		before := st.rebuilds()
		time.Sleep(2 * debounce)
		if st.rebuilds() == before {
			return
		}
	}
}

func (st *stack) rebuilds() int64 {
	var n int64
	for _, nd := range st.nodes {
		n += nd.srv.Rebuilds()
	}
	return n
}
