package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// counters are the layers' exported counters at one instant.
type counters struct {
	cache                        plan.CacheStats
	probes                       int64
	paths                        [4]int64 // cache, probe, escalate, exact
	ing                          serve.IngestStats
	seg                          serve.SegmentStats
	rebuilds                     int64
	walBytes, walCkpts           int64
	retries, failovers, degraded int64
	alloc                        uint64
	gcCPU, cpu                   float64
}

var pathNames = [4]string{"cache", "probe", "escalate", "exact"}

func readCounters(st *stack) counters {
	var c counters
	for _, nd := range st.nodes {
		cs := nd.srv.CacheStats()
		c.cache.Hits += cs.Hits
		c.cache.Misses += cs.Misses
		is := nd.srv.IngestStats()
		c.ing.Absorbed += is.Absorbed
		c.ing.Reoptimized += is.Reoptimized
		c.ing.Repaired += is.Repaired
		c.ing.Escalated += is.Escalated
		c.ing.RebuildsAvoided += is.RebuildsAvoided
		ss := nd.srv.SegmentStats()
		c.seg.Rebuilt += ss.Rebuilt
		c.seg.Reused += ss.Reused
		c.rebuilds += nd.srv.Rebuilds()
		if nd.db != nil {
			ws := nd.db.Stats()
			c.walBytes += ws.Bytes
			c.walCkpts += ws.Checkpoints
		}
	}
	c.probes = obs.Default.Counter("rangeagg_plan_probes_total").Value()
	for i, p := range pathNames {
		c.paths[i] = obs.Default.Counter("rangeagg_plan_answers_total", obs.L("path", p)...).Value()
	}
	c.retries = obs.Default.Counter("rangeagg_router_retries_total").Value()
	c.failovers = obs.Default.Counter("rangeagg_router_failovers_total").Value()
	c.degraded = obs.Default.Counter("rangeagg_router_degraded_total").Value()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.alloc = m.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// batchBody is the /query/batch request shape.
type batchBody struct {
	Synopsis string   `json:"synopsis"`
	Metric   string   `json:"metric"`
	Ranges   [][2]int `json:"ranges"`
	MaxErr   *float64 `json:"maxerr"`
}

func decodeBatch(body []byte) ([]serve.Query, error) {
	var b batchBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	m, err := engine.ParseMetric(b.Metric)
	if err != nil {
		return nil, err
	}
	qs := make([]serve.Query, len(b.Ranges))
	for i, r := range b.Ranges {
		qs[i] = serve.Query{Synopsis: b.Synopsis, Metric: m, A: r[0], B: r[1], MaxErr: b.MaxErr}
	}
	return qs, nil
}

func decodeSingle(raw string) (serve.Query, error) {
	v, err := url.ParseQuery(raw)
	if err != nil {
		return serve.Query{}, err
	}
	q := serve.Query{Synopsis: v.Get("syn")}
	if q.A, err = strconv.Atoi(v.Get("a")); err != nil {
		return q, err
	}
	if q.B, err = strconv.Atoi(v.Get("b")); err != nil {
		return q, err
	}
	if me := v.Get("maxerr"); me != "" {
		f, err := strconv.ParseFloat(me, 64)
		if err != nil {
			return q, err
		}
		q.MaxErr = &f
	}
	return q, nil
}

// timeEach runs f once per call and returns the per-call time in unit.
func timeEach(n int, unit time.Duration, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		f(i)
		out[i] = float64(time.Since(t)) / float64(unit)
	}
	return out
}

// timeChunks times f over chunks of 64 calls and returns the mean
// per-call time of each chunk in ns: calls too short to time alone.
func timeChunks(n int, f func(i int)) []float64 {
	var out []float64
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		t := time.Now()
		for i := lo; i < hi; i++ {
			f(i)
		}
		out = append(out, float64(time.Since(t).Nanoseconds())/float64(hi-lo))
	}
	return out
}

var sink float64

// layerRun is one traced run's material for the per-layer metrics: its
// linked spans, the counters at the start (c0) and end (c1) of the
// traced phase, and the replays' shared results.
type layerRun struct {
	rep    *report
	lr     *loadRun
	st     *stack
	tr     *tracer
	c0, c1 counters
	counts []int64         // the set-up data
	snap0  *serve.Snapshot // node 0's snapshot right after set-up
	nd0    *node
	view   *plan.View // node 0's live COUNT view

	kids   map[int64][]*span
	byID   map[int64]*span
	byName map[string][]*span

	reps          []replayed
	ranges        [][2]int             // node 0's recorded ranges (≤ 8192)
	planUs        map[*span][2]float64 // per replayed body: planner µs, probes
	estNs, bndNs  []float64
	live          []int64 // node 0's data after the load
	tableMs       []float64
	errModelMs    float64
	maintMs       []float64
	waveMs        []float64
	appendUs      []float64
	mutsPerWrite  float64
	routedColumns [3][]float64 // client+transport, router self, node handlers
}

// replayed is one recorded batch request replayed through
// Server.QueryBatch.
type replayed struct {
	s       *span
	qs      []serve.Query
	batchUs float64
}

// layerMetrics computes the per-layer metrics of a traced run from its
// spans, the counters c0 (traced phase start) and c1 (end), and replays
// of the recorded inputs through each lower layer's public functions,
// then writes the spans and the layer self-time table under o.out.
func layerMetrics(rep *report, lr *loadRun, st *stack, tr *tracer, c0, c1 counters,
	counts []int64, snap0 *serve.Snapshot, scratch string, o options, log io.Writer) error {
	tr.link()
	l := &layerRun{rep: rep, lr: lr, st: st, tr: tr, c0: c0, c1: c1, counts: counts, snap0: snap0,
		nd0: st.nodes[0], kids: tr.children(), byID: make(map[int64]*span, len(tr.spans)),
		byName: make(map[string][]*span), planUs: make(map[*span][2]float64)}
	for i := range tr.spans {
		s := &tr.spans[i]
		l.byID[s.ID] = s
		l.byName[s.Name] = append(l.byName[s.Name], s)
	}
	l.view = l.nd0.srv.Snapshot().View(engine.Count)
	l.live = l.nd0.eng.Counts()
	for _, step := range []func() error{l.serveLayer, l.planLayer, l.methodLayer, l.prefixLayer,
		l.ingestLayer, l.buildLayer, func() error { return l.walLayer(scratch) }, l.clusterLayer, l.runtimeLayer} {
		if err := step(); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(o.out, "spans-"+lr.w.name+".jsonl")); err != nil {
		return err
	}
	text := l.table()
	fmt.Fprint(log, text)
	return os.WriteFile(filepath.Join(o.out, "layers-"+lr.w.name+".md"), []byte(text), 0o644)
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// durs are the durations of every span with the name, in unit.
func (l *layerRun) durs(name string, unit time.Duration) []float64 {
	var xs []float64
	for _, s := range l.byName[name] {
		xs = append(xs, float64(s.dur())/float64(unit))
	}
	return xs
}

// serveLayer: handler spans, and Server.QueryBatch / QueryOne replays of
// the recorded requests.
func (l *layerRun) serveLayer() error {
	rep := l.rep
	hb := l.durs("serve.batch", time.Microsecond)
	rep.add("serve.handler_us.p50", "us", "p50", p50(hb), len(hb))
	rep.add("serve.handler_us.p99", "us", "p99", p99(hb), len(hb))
	hs := l.durs("serve.single", time.Microsecond)
	rep.add("serve.single_handler_us.p50", "us", "p50", p50(hs), len(hs))
	var transport []float64
	for _, s := range l.byName["client.single"] {
		for _, k := range l.kids[s.ID] {
			transport = append(transport, us(s.dur()-k.dur()))
		}
	}
	rep.add("serve.transport_us.p50", "us", "p50", p50(transport), len(transport))

	nodeByID := make(map[string]*node)
	for _, nd := range l.st.nodes {
		nodeByID[nd.id] = nd
	}
	var codec, qbatch []float64
	var respBytes, respRanges float64
	for _, s := range l.byName["serve.batch"] {
		if s.Body == nil {
			continue
		}
		qs, err := decodeBatch(s.Body)
		if err != nil {
			return fmt.Errorf("replaying a batch body: %w", err)
		}
		t := time.Now()
		nodeByID[s.Node].srv.QueryBatch(qs)
		d := us(time.Since(t))
		l.reps = append(l.reps, replayed{s, qs, d})
		qbatch = append(qbatch, d)
		codec = append(codec, us(s.dur())-d)
		respBytes += float64(s.Bytes)
		respRanges += float64(len(qs))
	}
	rep.add("serve.codec_us.p50", "us", "p50", p50(codec), len(codec))
	rep.add("serve.query_batch_us.p50", "us", "p50", p50(qbatch), len(qbatch))
	rep.add("serve.resp_bytes_per_range", "B/range", "mean", ratio(respBytes, respRanges), int(respRanges))
	allocNode, allocBodies := savedBodies(l.byName["serve.batch"], 200)
	allocs, nAlloc := handlerAllocs(l.st, allocNode, allocBodies)
	rep.add("serve.handler_allocs", "allocs/request", "mean", allocs, nAlloc)

	var singles []serve.Query
	for _, s := range l.byName["serve.single"] {
		if s.Node != l.nd0.id {
			continue
		}
		q, err := decodeSingle(s.Query)
		if err != nil {
			return fmt.Errorf("replaying a single query: %w", err)
		}
		singles = append(singles, q)
	}
	one := timeEach(len(singles), time.Nanosecond, func(i int) { l.nd0.srv.QueryOne(singles[i]) })
	rep.add("serve.query_one_ns.p50", "ns", "p50", p50(one), len(one))

	rb := l.durs("serve.rebuild", time.Millisecond)
	rep.add("serve.rebuild_ms.p50", "ms", "p50", p50(rb), len(rb))
	rep.add("serve.rebuild_ms.p99", "ms", "p99", p99(rb), len(rb))
	writes := len(l.byName["client.ingest"])
	rep.add("serve.rebuilds_per_write", "rebuilds/write", "ratio", ratio(float64(l.c1.rebuilds-l.c0.rebuilds), float64(writes)), writes)
	ih := l.durs("serve.ingest", time.Microsecond)
	rep.add("serve.ingest_handler_us.p50", "us", "p50", p50(ih), len(ih))
	return nil
}

// planLayer: the planner's counters, and a Planner.Query replay of node
// 0's recorded requests on its live view.
func (l *layerRun) planLayer() error {
	rep, c0, c1 := l.rep, l.c0, l.c1
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	rep.add("plan.cache_hit_ratio", "ratio", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	var answered int64
	for i := range pathNames {
		answered += c1.paths[i] - c0.paths[i]
	}
	rep.add("plan.probes_per_range", "probes/range", "ratio", ratio(float64(c1.probes-c0.probes), float64(answered)), int(answered))
	for i, p := range pathNames {
		rep.add("plan.path."+p, "ratio", "share", ratio(float64(c1.paths[i]-c0.paths[i]), float64(answered)), int(answered))
	}
	planner := plan.New(4096)
	snap := l.nd0.srv.Snapshot()
	var planNs []float64
	for _, r := range l.reps {
		if r.s.Node != l.nd0.id {
			continue
		}
		p0 := planner.Probes()
		t := time.Now()
		for _, q := range r.qs {
			if q.Synopsis == "" && q.MaxErr == nil {
				sink += float64(snap.ExactCount(q.A, q.B)) // the server's exact path skips the planner
				continue
			}
			maxErr := math.NaN()
			if q.MaxErr != nil {
				maxErr = *q.MaxErr
			}
			a, _ := planner.Query(l.view, q.Synopsis, q.A, q.B, maxErr)
			sink += a.Value
		}
		d := time.Since(t)
		l.planUs[r.s] = [2]float64{us(d), float64(planner.Probes() - p0)}
		planNs = append(planNs, float64(d.Nanoseconds())/float64(len(r.qs)))
		for _, q := range r.qs {
			if len(l.ranges) < 8192 {
				l.ranges = append(l.ranges, [2]int{q.A, q.B})
			}
		}
	}
	rep.add("plan.query_ns.p50", "ns", "p50", p50(planNs), len(planNs))
	return nil
}

// methodLayer: every live source's Estimate and Bound over the recorded
// ranges, and each synopsis's error-model construction.
func (l *layerRun) methodLayer() error {
	rep, rs := l.rep, l.ranges
	for _, src := range l.view.Sources {
		l.estNs = append(l.estNs, timeChunks(len(rs), func(i int) { sink += src.Estimate(rs[i][0], rs[i][1]) })...)
		l.bndNs = append(l.bndNs, timeChunks(len(rs), func(i int) { b, _, _ := src.Bound(rs[i][0], rs[i][1]); sink += b })...)
	}
	rep.add("method.estimate_ns.p50", "ns", "p50", p50(l.estNs), len(l.estNs))
	rep.add("method.bound_ns.p50", "ns", "p50", p50(l.bndNs), len(l.bndNs))
	tab := prefix.NewTable(l.live)
	snap := l.nd0.srv.Snapshot()
	for _, name := range synNames {
		var xs []float64
		if syn, err := snap.Synopsis(name); err == nil {
			if d, err := method.Lookup(syn.Options.Method); err == nil && d.ErrorBound != nil {
				xs = timeEach(3, time.Millisecond, func(int) { _, _ = d.ErrorBound(tab, syn.Est) })
			}
		}
		rep.add("method.error_model_ms."+name, "ms", "median", median(xs), len(xs))
		l.errModelMs += median(xs)
	}
	return nil
}

// synNames are the synopsis names the workloads use, in the order the
// per-synopsis metrics list them.
var synNames = []string{"coarse", "fine", "seg", "avg", "wave"}

// prefixLayer: the O(n) table a publish builds per metric, and its O(1)
// range sum.
func (l *layerRun) prefixLayer() error {
	var tab *prefix.Table
	l.tableMs = timeEach(21, time.Millisecond, func(int) { tab = prefix.NewTable(l.live) })
	l.rep.add("prefix.table_ms.p50", "ms", "p50", p50(l.tableMs), len(l.tableMs))
	rs := l.ranges
	sums := timeChunks(len(rs), func(i int) { sink += float64(tab.Sum(rs[i][0], rs[i][1])) })
	l.rep.add("prefix.sum_ns.p50", "ns", "p50", p50(sums), len(sums))
	return nil
}

// ingestLayer: Maintain replayed over the writer's batches from the
// set-up snapshot, and the live ladder's and segment counters.
func (l *layerRun) ingestLayer() error {
	rep, c0, c1 := l.rep, l.c0, l.c1
	var err error
	if l.maintMs, err = replayMaintain(l.lr.w, l.snap0, l.counts, l.lr.writeBatches); err != nil {
		return err
	}
	rep.add("ingest.maintain_ms.p50", "ms", "p50", p50(l.maintMs), len(l.maintMs))
	rep.add("ingest.maintain_ms.p99", "ms", "p99", p99(l.maintMs), len(l.maintMs))
	dAbs, dReopt := c1.ing.Absorbed-c0.ing.Absorbed, c1.ing.Reoptimized-c0.ing.Reoptimized
	dRep, dEsc := c1.ing.Repaired-c0.ing.Repaired, c1.ing.Escalated-c0.ing.Escalated
	dAvoid := c1.ing.RebuildsAvoided - c0.ing.RebuildsAvoided
	maintained := float64(dAbs + dReopt + dRep + dEsc)
	rep.add("ingest.absorbed", "ratio", "share", ratio(float64(dAbs), maintained), int(maintained))
	rep.add("ingest.reoptimized", "ratio", "share", ratio(float64(dReopt), maintained), int(maintained))
	rep.add("ingest.repaired", "ratio", "share", ratio(float64(dRep), maintained), int(maintained))
	rep.add("ingest.escalated", "ratio", "share", ratio(float64(dEsc), maintained), int(maintained))
	rep.add("ingest.avoided_ratio", "ratio", "ratio", ratio(float64(dAvoid), float64(dAvoid+dEsc)), int(dAvoid+dEsc))
	pubs := float64(c1.rebuilds - c0.rebuilds)
	rep.add("segment.rebuilt_per_publish", "segments/publish", "ratio", ratio(float64(c1.seg.Rebuilt-c0.seg.Rebuilt), pubs), int(pubs))
	rep.add("segment.reused_per_publish", "segments/publish", "ratio", ratio(float64(c1.seg.Reused-c0.seg.Reused), pubs), int(pubs))
	return nil
}

// buildLayer: from-scratch builds of every spec on node 0's set-up data,
// and the wave rebuild every publish pays.
func (l *layerRun) buildLayer() error {
	specs, err := l.lr.w.specs()
	if err != nil {
		return err
	}
	owned := l.counts
	if lo, hi := l.nd0.window[0], l.nd0.window[1]; l.lr.w.nodes > 0 {
		owned = make([]int64, len(l.counts))
		copy(owned[lo:hi+1], l.counts[lo:hi+1])
	}
	built := make(map[string][]float64)
	for _, sp := range specs {
		opt := build.WithApprox(sp.Options, len(owned), build.DefaultApproxCutover)
		t := time.Now()
		if _, err := build.Build(owned, opt); err != nil {
			return fmt.Errorf("replaying the %s build: %w", sp.Name, err)
		}
		built[sp.Name] = []float64{ms(time.Since(t))}
		if sp.Name == "wave" {
			l.waveMs = timeEach(5, time.Millisecond, func(int) { _, _ = build.Build(l.live, opt) })
		}
	}
	l.rep.add("build.rebuild_ms.wave", "ms", "median", median(l.waveMs), len(l.waveMs))
	for _, name := range synNames {
		l.rep.add("engine.build_ms."+name, "ms", "once", median(built[name]), len(built[name]))
	}
	return nil
}

// walLayer: Insert/Delete and Checkpoint replayed in a scratch log under
// the same fsync policy; the live log's byte and checkpoint counters.
func (l *layerRun) walLayer(scratch string) error {
	rep := l.rep
	var muts []mutation
	for _, b := range l.lr.writeBatches {
		muts = append(muts, b...)
	}
	l.mutsPerWrite = ratio(float64(len(muts)), float64(len(l.lr.writeBatches)))
	var ckptMs []float64
	var err error
	if l.appendUs, ckptMs, err = replayWAL(l.lr.w, scratch, l.counts, muts); err != nil {
		return err
	}
	rep.add("wal.append_us.p50", "us", "p50", p50(l.appendUs), len(l.appendUs))
	rep.add("wal.append_us.p99", "us", "p99", p99(l.appendUs), len(l.appendUs))
	var tracedMuts int
	for _, s := range l.lr.writes {
		if !s.due.Before(l.tr.from) {
			tracedMuts += s.ranges
		}
	}
	rep.add("wal.bytes_per_write", "B/mutation", "ratio", ratio(float64(l.c1.walBytes-l.c0.walBytes), float64(tracedMuts)), tracedMuts)
	rep.add("wal.checkpoints", "count", "count", float64(l.c1.walCkpts-l.c0.walCkpts), tracedMuts)
	rep.add("wal.checkpoint_ms.p50", "ms", "p50", p50(ckptMs), len(ckptMs))
	return nil
}

// clusterLayer: router spans and the node spans nested under them.
func (l *layerRun) clusterLayer() error {
	rep, c0, c1 := l.rep, l.c0, l.c1
	var nodeUs, slowest, self, subs []float64
	for _, r := range l.byName["cluster.batch"] {
		var nk []*span
		slow := time.Duration(0)
		for _, k := range l.kids[r.ID] {
			if k.Name == "serve.batch" {
				nk = append(nk, k)
				nodeUs = append(nodeUs, us(k.dur()))
				slow = max(slow, k.dur())
			}
		}
		cov := covered(r, nk)
		subs = append(subs, float64(len(nk)))
		slowest = append(slowest, us(slow))
		self = append(self, us(r.dur()-cov))
		if c, ok := l.byID[r.Parent]; ok {
			l.routedColumns[0] = append(l.routedColumns[0], us(c.dur()-r.dur()))
			l.routedColumns[1] = append(l.routedColumns[1], us(r.dur()-cov))
			l.routedColumns[2] = append(l.routedColumns[2], us(cov))
		}
	}
	ch := l.durs("cluster.batch", time.Microsecond)
	rep.add("cluster.handler_us.p50", "us", "p50", p50(ch), len(ch))
	rep.add("cluster.handler_us.p99", "us", "p99", p99(ch), len(ch))
	rep.add("cluster.subrequests_per_request", "subreq/request", "mean", mean(subs), len(subs))
	rep.add("cluster.node_us.p50", "us", "p50", p50(nodeUs), len(nodeUs))
	rep.add("cluster.slowest_node_us.p50", "us", "p50", p50(slowest), len(slowest))
	rep.add("cluster.slowest_node_us.p99", "us", "p99", p99(slowest), len(slowest))
	rep.add("cluster.router_self_us.p50", "us", "p50", p50(self), len(self))
	rep.add("cluster.retries", "count", "count", float64(c1.retries-c0.retries), len(ch))
	rep.add("cluster.failovers", "count", "count", float64(c1.failovers-c0.failovers), len(ch))
	rep.add("cluster.degraded", "count", "count", float64(c1.degraded-c0.degraded), len(ch))
	return nil
}

// runtimeLayer: allocation and GC over the traced phase.
func (l *layerRun) runtimeLayer() error {
	rep, c0, c1 := l.rep, l.c0, l.c1
	var allocPub []float64
	for _, s := range l.byName["serve.rebuild"] {
		allocPub = append(allocPub, float64(s.Alloc)/(1<<20))
	}
	rep.add("go.alloc_mb_per_publish", "MiB/publish", "mean", mean(allocPub), len(allocPub))
	var clientReqs int
	for name, ss := range l.byName {
		if strings.HasPrefix(name, "client.") {
			clientReqs += len(ss)
		}
	}
	rep.add("go.alloc_kb_per_request", "KiB/request", "ratio", ratio(float64(c1.alloc-c0.alloc)/(1<<10), float64(clientReqs)), clientReqs)
	rep.add("go.gc_cpu_frac", "ratio", "ratio", ratio(c1.gcCPU-c0.gcCPU, c1.cpu-c0.cpu), 1)
	return nil
}

// table renders the layer self-time table for the paths this workload
// drives.
func (l *layerRun) table() string {
	tl := &layerTable{workload: l.lr.w.name}
	if l.lr.w.nodes > 0 {
		tl.routed(l.routedColumns)
		return tl.String()
	}
	probeNs := p50(l.estNs) + p50(l.bndNs)
	var cols [5][]float64
	for _, r := range l.reps {
		c, ok := l.byID[r.s.Parent]
		pu, ok2 := l.planUs[r.s]
		if !ok || !ok2 {
			continue
		}
		probe := pu[1] * probeNs / 1e3
		cols[0] = append(cols[0], us(c.dur()-r.s.dur()))
		cols[1] = append(cols[1], us(r.s.dur())-r.batchUs)
		cols[2] = append(cols[2], r.batchUs-pu[0])
		cols[3] = append(cols[3], pu[0]-probe)
		cols[4] = append(cols[4], probe)
	}
	tl.query(cols)
	if l.lr.w.durable {
		tl.publish(l.byName, l.byID, l.mutsPerWrite, p50(l.appendUs),
			mean(l.maintMs)*float64(len(maintainedSpecs(l.lr.w, l.snap0))),
			2*p50(l.tableMs), l.errModelMs, median(l.waveMs))
	}
	return tl.String()
}

// savedBodies returns up to k saved batch bodies of the first node that
// has any.
func savedBodies(spans []*span, k int) (string, [][]byte) {
	var node string
	var out [][]byte
	for _, s := range spans {
		if s.Body == nil || (node != "" && s.Node != node) {
			continue
		}
		node = s.Node
		out = append(out, s.Body)
		if len(out) == k {
			break
		}
	}
	return node, out
}

// handlerAllocs replays batch bodies through a node's unwrapped handler
// in process and returns heap allocations per request, net of the
// recorder and request the replay itself allocates.
func handlerAllocs(st *stack, node string, bodies [][]byte) (float64, int) {
	var h http.Handler
	for _, nd := range st.nodes {
		if nd.id == node {
			h = nd.handler
		}
	}
	if h == nil || len(bodies) == 0 {
		return 0, 0
	}
	mallocs := func(serveIt bool) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range bodies {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(b))
			if serveIt {
				h.ServeHTTP(rec, req)
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	base := mallocs(false)
	total := mallocs(true)
	return float64(total-base) / float64(len(bodies)), len(bodies)
}

// maintainedSpecs are the workload's synopses the ingest ladder keeps.
func maintainedSpecs(w *workload, snap *serve.Snapshot) []engine.SynopsisSpec {
	if !w.incremental {
		return nil
	}
	specs, _ := w.specs()
	var out []engine.SynopsisSpec
	for _, sp := range specs {
		if syn, err := snap.Synopsis(sp.Name); err == nil && ingest.CanMaintain(syn.Est) {
			out = append(out, sp)
		}
	}
	return out
}

// replayMaintain replays ingest.Maintain for every maintained synopsis
// over the writer's batches, starting from the set-up snapshot, and
// returns the time of each call. An escalation is followed by the
// rebuild the server would do (untimed here).
func replayMaintain(w *workload, snap0 *serve.Snapshot, counts []int64, batches [][]mutation) ([]float64, error) {
	specs := maintainedSpecs(w, snap0)
	if len(specs) == 0 {
		return nil, nil
	}
	if len(batches) > 300 {
		batches = batches[:300]
	}
	series := append([]int64(nil), counts...)
	prev := make([]method.Estimator, len(specs))
	states := make([]*ingest.State, len(specs))
	for i, sp := range specs {
		syn, _ := snap0.Synopsis(sp.Name)
		prev[i], states[i] = syn.Est, ingest.NewState(ingest.Config{Mode: ingest.ModeIncremental})
	}
	var out []float64
	for _, b := range batches {
		lo, hi := b[0].value, b[0].value
		for _, m := range b {
			series[m.value] += m.delta
			lo, hi = min(lo, m.value), max(hi, m.value)
		}
		for i, sp := range specs {
			t := time.Now()
			est, res, err := ingest.Maintain(series, prev[i], lo, hi, states[i])
			out = append(out, ms(time.Since(t)))
			if err != nil {
				return nil, fmt.Errorf("replaying maintenance of %s: %w", sp.Name, err)
			}
			if res.Action == ingest.Escalate {
				if est, err = build.Build(series, build.WithApprox(sp.Options, len(series), build.DefaultApproxCutover)); err != nil {
					return nil, err
				}
				states[i].Reset()
			}
			prev[i] = est
		}
	}
	return out, nil
}

// replayWAL appends the writer's mutations to a scratch log (same fsync
// policy and checkpoint cadence as the live one) and then checkpoints
// it a few times; it returns per-append µs and per-checkpoint ms.
func replayWAL(w *workload, scratch string, counts []int64, muts []mutation) ([]float64, []float64, error) {
	if !w.durable {
		return nil, nil, nil
	}
	if len(muts) > 2000 {
		muts = muts[:2000]
	}
	dir := filepath.Join(scratch, "wal-replay")
	db, _, err := wal.Open(dir, wal.Options{Name: "synserve", Domain: len(counts), Fsync: wal.FsyncAlways, CheckpointEvery: ckptEvery})
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	defer db.Close()
	if specs, err := w.specs(); err == nil {
		db.SetDeclaredSpecs(specs)
	}
	if err := db.Load(counts); err != nil {
		return nil, nil, err
	}
	var appendErr error
	appendUs := timeEach(len(muts), time.Microsecond, func(i int) {
		m := muts[i]
		var err error
		if m.delta > 0 {
			err = db.Insert(m.value, m.delta)
		} else {
			err = db.Delete(m.value, -m.delta)
		}
		if err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return nil, nil, fmt.Errorf("replaying WAL appends: %w", appendErr)
	}
	ckptMs := timeEach(21, time.Millisecond, func(int) {
		if err := db.Checkpoint(); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	return appendUs, ckptMs, appendErr
}

// layerTable renders the self-time share of each layer along the path a
// workload drives, as mean µs per request over the traced requests.
type layerTable struct {
	workload string
	b        strings.Builder
}

func (t *layerTable) String() string { return t.b.String() }

// rows writes one path's table from each layer's mean µs per request,
// n being the requests the means cover.
func (t *layerTable) rows(title, note string, names []string, means []float64, n int) {
	fmt.Fprintf(&t.b, "\n### %s — %s\n\n%s\n\n| layer | mean µs/request | share |\n|---|---:|---:|\n", title, t.workload, note)
	total := 0.0
	for _, m := range means {
		total += m
	}
	for i, name := range names {
		fmt.Fprintf(&t.b, "| %s | %.1f | %.1f%% |\n", name, means[i], 100*ratio(means[i], total))
	}
	fmt.Fprintf(&t.b, "| **total** | %.1f | 100%% |\n\n(%d requests)\n", total, n)
}

// columns reduces per-request columns to their means.
func columns(cols [][]float64) ([]float64, int) {
	means := make([]float64, len(cols))
	for i, c := range cols {
		means[i] = mean(c)
	}
	if len(cols) == 0 {
		return means, 0
	}
	return means, len(cols[0])
}

func (t *layerTable) query(cols [5][]float64) {
	means, n := columns(cols[:])
	t.rows("HTTP query: POST /query/batch of 64 ranges",
		"Client and handler spans are measured; the layers inside the handler come from replaying each "+
			"request's queries through Server.QueryBatch, a Planner on the live view, and the sources' "+
			"Estimate+Bound (probes × median cost).",
		[]string{"client + transport (client − handler)", "HTTP decode/encode (handler − QueryBatch)",
			"serve.QueryBatch (QueryBatch − planner)", "planner: cache, budget walk (planner − probes)",
			"synopsis probes: estimate + bound"}, means, n)
}

func (t *layerTable) routed(cols [3][]float64) {
	means, n := columns(cols[:])
	t.rows("Routed query: POST /query/batch of 64 ranges through the router",
		"All spans measured: node handler spans nest by time under the router span (one client).",
		[]string{"client + transport (client − router)", "router self: split, fan-out, merge (router − node union)",
			"node handlers (union of node spans)"}, means, n)
}

// publish renders the insert→publish path, one POST /ingest plus one
// POST /rebuild, as wall time per write; the WAL row is a replayed
// cost. The rebuild's tasks run concurrently on the worker pool, so its
// layers follow as a second table of replayed CPU work, which can
// exceed the handler's wall time.
func (t *layerTable) publish(byName map[string][]*span, byID map[int64]*span,
	mutsPerWrite, appendUs, maintainMs, prefixMs, errModelMs, waveMs float64) {
	var client, ingestH, rebuildH []float64
	for _, s := range byName["serve.ingest"] {
		if c, ok := byID[s.Parent]; ok {
			client = append(client, us(c.dur()-s.dur()))
			ingestH = append(ingestH, us(s.dur()))
		}
	}
	for _, s := range byName["serve.rebuild"] {
		if c, ok := byID[s.Parent]; ok {
			client = append(client, us(c.dur()-s.dur()))
			rebuildH = append(rebuildH, us(s.dur()))
		}
	}
	wal := appendUs * mutsPerWrite
	t.rows(fmt.Sprintf("Insert→publish: POST /ingest (%.1f mutations) + POST /rebuild", mutsPerWrite),
		"Client and handler spans are measured; the WAL row is wal.DB.Insert/Delete replayed under fsync always.",
		[]string{"client + transport (both requests)", "WAL append (fsync always)", "engine apply + ingest codec",
			"rebuild handler (maintain, tables, models, swap)"},
		[]float64{mean(client) * 2, wal, mean(ingestH) - wal, mean(rebuildH)}, len(rebuildH))
	t.rows("Publish work inside POST /rebuild",
		"Replayed CPU work per publish (the handler runs these tasks concurrently on the worker pool).",
		[]string{"ingest.Maintain (seg, avg)", "prefix tables (COUNT, SUM)", "error models (seg, avg, wave)", "wave rebuild"},
		[]float64{maintainMs * 1e3, prefixMs * 1e3, errModelMs * 1e3, waveMs * 1e3}, len(rebuildH))
}
