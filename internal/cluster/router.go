package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
	"rangeagg/internal/serve"
)

// Router metrics (process-wide): fan-out latency per routed query,
// per-attempt sub-query latency, and the degradation counters the
// cluster dashboards alarm on.
var (
	fanoutSeconds   = obs.Default.Histogram("rangeagg_router_fanout_seconds")
	subquerySeconds = obs.Default.Histogram("rangeagg_router_subquery_seconds")
	subqueriesTotal = obs.Default.Counter("rangeagg_router_subqueries_total")
	retriesTotal    = obs.Default.Counter("rangeagg_router_retries_total")
	failoversTotal  = obs.Default.Counter("rangeagg_router_failovers_total")
	degradedTotal   = obs.Default.Counter("rangeagg_router_degraded_total")
)

// RouterConfig tunes the router; zero values select the defaults.
type RouterConfig struct {
	// Timeout bounds each sub-query attempt (default 2s).
	Timeout time.Duration
	// Attempts caps the attempts per window — the first try plus
	// failover retries across the owner's endpoints (default: one per
	// endpoint plus one, so a flapping primary gets a second chance).
	Attempts int
	// Backoff is the base retry delay; it doubles per attempt with up to
	// 50% jitter (default 25ms).
	Backoff time.Duration
	// HealthEvery is the health-poll interval (default 1s); negative
	// disables the background poller (observations then come only from
	// explicit CheckHealth calls, as in tests).
	HealthEvery time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = time.Second
	}
	return c
}

// Query is one routed request, mirroring serve.Query with the metric as
// its wire name.
type Query struct {
	Synopsis string
	Metric   string
	A, B     int
	MaxErr   *float64
}

// WindowReport says how one window of a routed query was served; the
// partial-answer contract is the list of these. Status is "exact"
// (served with a zero bound), "approx" (served with a nonzero or
// unknown bound), or "failed" (no owner endpoint answered — the merged
// value is missing this window's contribution).
type WindowReport struct {
	Window   Window `json:"range"`
	Node     string `json:"node"`
	Endpoint string `json:"endpoint,omitempty"`
	Status   string `json:"status"`
	// Replica is true when a failover replica (not the primary) served
	// the window.
	Replica  bool   `json:"replica,omitempty"`
	Attempts int    `json:"attempts"`
	Path     string `json:"path,omitempty"`
	Err      string `json:"err,omitempty"`
}

// RouteResult is one merged answer plus the per-window account of how
// it was assembled. When Partial is true some windows failed: Answer
// covers only the served windows and its bound certifies nothing about
// the missing ones — the caller sees exactly which ranges those are.
type RouteResult struct {
	Answer   plan.Answer
	Partial  bool
	Windows  []WindowReport
	Versions map[string]int64
}

// BatchResult is the routed batch answer: per-range values and bounds
// (nil bound = unbounded), Served flags (false when a failed window
// truncates that range's value), and the shared window reports.
type BatchResult struct {
	Values   []float64
	Errs     []*float64
	Served   []bool
	Partial  bool
	Windows  []WindowReport
	Versions map[string]int64
}

// Router fans queries out across a topology's segment owners and merges
// the answers. It is stateless apart from health observations: any
// number of routers can front the same topology. Safe for concurrent
// use; Close stops the health poller.
type Router struct {
	topo   *Topology
	cfg    RouterConfig
	client *http.Client
	health *healthTracker

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewRouter builds a router over a validated topology and starts its
// health poller (unless disabled).
func NewRouter(topo *Topology, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}
	r := &Router{
		topo:   topo,
		cfg:    cfg,
		client: client,
		health: newHealthTracker(topo, client),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.healthLoop()
	return r
}

// Topology returns the router's validated topology.
func (r *Router) Topology() *Topology { return r.topo }

// Close stops the health poller.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	<-r.done
}

// CheckHealth sweeps every endpoint's /healthz once, synchronously.
func (r *Router) CheckHealth() { r.health.checkAll() }

// NodeHealths reports the latest health observation per endpoint.
func (r *Router) NodeHealths() []NodeHealth { return r.health.snapshot() }

// Ready reports whether every window has at least one endpoint not
// known to be dead — the router's own /healthz readiness.
func (r *Router) Ready() bool {
	for i := range r.topo.Nodes {
		anyUsable := false
		for _, ep := range r.topo.Nodes[i].Endpoints() {
			if nh, ok := r.health.get(ep); !ok || nh.Live {
				anyUsable = true
				break
			}
		}
		if !anyUsable {
			return false
		}
	}
	return true
}

func (r *Router) healthLoop() {
	defer close(r.done)
	if r.cfg.HealthEvery < 0 {
		<-r.stop
		return
	}
	r.health.checkAll()
	tick := time.NewTicker(r.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.health.checkAll()
		}
	}
}

// maxAttempts resolves the per-window attempt cap for a node.
func (r *Router) maxAttempts(n *Node) int {
	if r.cfg.Attempts > 0 {
		return r.cfg.Attempts
	}
	return len(n.Endpoints()) + 1
}

// backoff sleeps before retry attempt (1-based), exponential with up to
// 50% jitter, honoring cancellation.
func (r *Router) backoff(ctx context.Context, attempt int) {
	d := r.cfg.Backoff << (attempt - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// permanentError marks a sub-query failure retries cannot fix (the node
// rejected the request itself, e.g. an unknown synopsis name).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// Route answers one query across the cluster. The merged value is the
// sum of the per-window answers (exact by cum-diff composition over the
// disjoint windows); the merged bound is the sum of the per-window
// bounds. A finite MaxErr is divided across the windows proportionally
// to their widths, so the merged bound meets it whenever every window's
// owner does. Windows whose owner (and replicas) cannot be reached
// within the attempt budget are reported failed and the result is
// Partial — never silently wrong.
//
// An error is returned only when no window was served at all; a partial
// answer is a result, not an error.
func (r *Router) Route(ctx context.Context, q Query) (RouteResult, error) {
	start := time.Now()
	defer func() { fanoutSeconds.Since(start) }()

	res := RouteResult{Versions: make(map[string]int64)}
	a, b, ok := r.topo.Clamp(q.A, q.B)
	if !ok {
		// Fully outside the domain: the exact zero, served by no node.
		res.Answer = plan.MergeAnswers()
		return res, nil
	}
	parts := r.topo.Split(a, b)
	weights := make([]int, len(parts))
	for i, p := range parts {
		weights[i] = p.Window.Width()
	}
	budgets := r.splitBudget(q.MaxErr, weights)

	answers := make([]plan.Answer, len(parts))
	reports := make([]WindowReport, len(parts))
	versions := make([]int64, len(parts))
	served := make([]bool, len(parts))
	fanOut(len(parts), func(i int) {
		answers[i], versions[i], reports[i], served[i] =
			r.subQuery(ctx, q, parts[i], budgets[i])
	})

	var ok0 []plan.Answer
	var firstErr string
	for i := range parts {
		res.Windows = append(res.Windows, reports[i])
		if served[i] {
			ok0 = append(ok0, answers[i])
			res.Versions[r.topo.Nodes[parts[i].Node].ID] = versions[i]
		} else {
			res.Partial = true
			if firstErr == "" {
				firstErr = reports[i].Err
			}
		}
	}
	res.Answer = plan.MergeAnswers(ok0...)
	if res.Partial {
		degradedTotal.Inc()
		if len(ok0) == 0 {
			return res, fmt.Errorf("cluster: no window served: %s", firstErr)
		}
	}
	return res, nil
}

// splitBudget turns the optional MaxErr into per-window budgets (NaN =
// no budget, matching the planner convention).
func (r *Router) splitBudget(maxErr *float64, weights []int) []float64 {
	budget := math.NaN()
	if maxErr != nil {
		budget = *maxErr
	}
	return plan.SplitBudget(budget, weights)
}

// subQuery serves one window from its owner, failing over through the
// health-ordered endpoints with backoff between attempts.
func (r *Router) subQuery(ctx context.Context, q Query, p Part, budget float64) (plan.Answer, int64, WindowReport, bool) {
	node := &r.topo.Nodes[p.Node]
	rep := WindowReport{Window: p.Window, Node: node.ID}
	var ans plan.Answer
	var version int64
	if !r.failover(ctx, node, &rep, func(ep string) (err error) {
		ans, version, err = r.queryEndpoint(ctx, ep, q, p.Window, budget)
		return err
	}) {
		return plan.Answer{}, 0, rep, false
	}
	rep.Path = ans.Path.String()
	if ans.Bound == 0 && ans.Rigorous {
		rep.Status = "exact"
	} else {
		rep.Status = "approx"
	}
	return ans, version, rep, true
}

// failover runs one sub-request against a node, trying its endpoints in
// health order: at most maxAttempts attempts with exponential backoff
// between them, stopping early on a permanent error or cancellation. It
// records the attempts in rep — Endpoint and Replica on success, Err
// and the "failed" status otherwise — and reports whether an attempt
// succeeded; the caller sets the served status.
func (r *Router) failover(ctx context.Context, node *Node, rep *WindowReport, try func(endpoint string) error) bool {
	endpoints := r.health.order(node.Endpoints())
	maxAttempts := r.maxAttempts(node)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			retriesTotal.Inc()
			r.backoff(ctx, attempt)
			if ctx.Err() != nil {
				rep.Status, rep.Err = "failed", ctx.Err().Error()
				return false
			}
		}
		ep := endpoints[attempt%len(endpoints)]
		rep.Attempts = attempt + 1
		err := try(ep)
		if err == nil {
			rep.Endpoint = ep
			rep.Replica = ep != node.Addr
			if rep.Replica {
				failoversTotal.Inc()
			}
			return true
		}
		rep.Err = err.Error()
		var pe *permanentError
		if errors.As(err, &pe) {
			break
		}
	}
	rep.Status = "failed"
	return false
}

// queryEndpoint performs one GET /query attempt against one endpoint.
func (r *Router) queryEndpoint(ctx context.Context, endpoint string, q Query, w Window, budget float64) (plan.Answer, int64, error) {
	start := time.Now()
	subqueriesTotal.Inc()
	defer func() { subquerySeconds.Since(start) }()

	v := url.Values{}
	v.Set("a", strconv.Itoa(w.Lo))
	v.Set("b", strconv.Itoa(w.Hi))
	if q.Metric != "" {
		v.Set("metric", q.Metric)
	}
	if q.Synopsis != "" {
		v.Set("syn", q.Synopsis)
	}
	if !math.IsNaN(budget) {
		v.Set("maxerr", strconv.FormatFloat(budget, 'g', -1, 64))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint+"/query?"+v.Encode(), nil)
	if err != nil {
		return plan.Answer{}, 0, err
	}
	var body serve.QueryReply
	if err := r.fetch(req, "answer", endpoint, body.Decode); err != nil {
		return plan.Answer{}, 0, err
	}
	ans := plan.Answer{Value: body.Value, Bound: body.Err, Source: body.Source}
	if !math.IsInf(body.Err, 1) {
		ans.Rigorous = body.Rigorous
	}
	if path, ok := plan.ParsePath(body.Path); ok {
		ans.Path = path
	} else {
		ans.Path = plan.PathProbe
	}
	return ans, body.Version, nil
}

// maxPooledBytes bounds the buffers the router's pools keep.
const maxPooledBytes = 64 << 10

// replyBufs recycles node reply bodies between sub-requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// fetch performs one sub-request and decodes a 200 reply's whole body
// (reading to EOF also lets the transport reuse the connection).
// Transport errors and non-200 replies (classified by httpError) come
// back as they are; read and decode failures are wrapped with what and
// the endpoint.
func (r *Router) fetch(req *http.Request, what, endpoint string, decode func([]byte) error) error {
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	bp := replyBufs.Get().(*[]byte)
	data, err := serve.ReadBody((*bp)[:0], resp.Body)
	if err == nil {
		err = decode(data)
	}
	if cap(data) <= maxPooledBytes {
		*bp = data
		replyBufs.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("decoding %s from %s: %w", what, endpoint, err)
	}
	return nil
}

// httpError classifies a non-200 response: 4xx are permanent (the
// request itself is bad — retrying another endpoint cannot help), 5xx
// and everything else are transient.
func httpError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if data, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		if json.Unmarshal(data, &body) == nil && body.Error != "" {
			msg = fmt.Sprintf("%s: %s", resp.Status, body.Error)
		}
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		return &permanentError{msg: msg}
	}
	return fmt.Errorf("%s", msg)
}

// RouteBatch answers a batch of ranges (sharing one synopsis, metric,
// and budget, like the node batch API) across the cluster with one
// batched sub-request per owning node: R ranges over K nodes cost at
// most K·(1+retries) HTTP round-trips, not R·K. Each range's budget is
// split across its windows by width; a node receives the minimum of its
// sub-range budgets (batch sub-requests carry one budget), which is
// conservative — every sub-range bound then fits its own share, so each
// merged range bound meets the whole budget.
func (r *Router) RouteBatch(ctx context.Context, synopsis, metric string, ranges [][2]int, maxErr *float64) (BatchResult, error) {
	start := time.Now()
	defer func() { fanoutSeconds.Since(start) }()

	res := BatchResult{
		Values:   make([]float64, len(ranges)),
		Errs:     make([]*float64, len(ranges)),
		Served:   make([]bool, len(ranges)),
		Versions: make(map[string]int64),
	}
	bounds := make([]float64, len(ranges)) // accumulating per-range bound
	rigorous := make([]bool, len(ranges))
	for i := range ranges {
		res.Served[i], rigorous[i] = true, true
	}

	// Split every range and group the parts per owning node.
	type subRange struct {
		rangeIdx int
		w        Window
		budget   float64
	}
	perNode := make([][]subRange, len(r.topo.Nodes))
	for i, rg := range ranges {
		a, b, ok := r.topo.Clamp(rg[0], rg[1])
		if !ok {
			continue // exact zero, no node involved
		}
		parts := r.topo.Split(a, b)
		weights := make([]int, len(parts))
		for j, p := range parts {
			weights[j] = p.Window.Width()
		}
		budgets := r.splitBudget(maxErr, weights)
		for j, p := range parts {
			perNode[p.Node] = append(perNode[p.Node], subRange{rangeIdx: i, w: p.Window, budget: budgets[j]})
		}
	}

	type nodeResult struct {
		reply  serve.BatchReply
		report WindowReport
		ok     bool
	}
	results := make([]nodeResult, len(r.topo.Nodes))
	var active []int
	for ni := range r.topo.Nodes {
		if len(perNode[ni]) > 0 {
			active = append(active, ni)
		}
	}
	fanOut(len(active), func(k int) {
		ni := active[k]
		subs := perNode[ni]
		subRanges := make([][2]int, len(subs))
		budget := math.NaN()
		for j, s := range subs {
			subRanges[j] = [2]int{s.w.Lo, s.w.Hi}
			if !math.IsNaN(s.budget) && (math.IsNaN(budget) || s.budget < budget) {
				budget = s.budget
			}
		}
		nr := &results[ni]
		nr.report, nr.ok = r.batchNode(ctx, ni, synopsis, metric, subRanges, budget, &nr.reply)
	})

	var firstErr string
	anyServed := false
	for ni := range r.topo.Nodes {
		subs := perNode[ni]
		if len(subs) == 0 {
			continue
		}
		nr := &results[ni]
		res.Windows = append(res.Windows, nr.report)
		if !nr.ok {
			res.Partial = true
			if firstErr == "" {
				firstErr = nr.report.Err
			}
			for _, s := range subs {
				res.Served[s.rangeIdx] = false
			}
			continue
		}
		anyServed = true
		res.Versions[r.topo.Nodes[ni].ID] = nr.reply.Version
		for j, s := range subs {
			res.Values[s.rangeIdx] += nr.reply.Values[j]
			if e := nr.reply.Errs[j]; math.IsInf(e, 1) {
				bounds[s.rangeIdx] = math.Inf(1)
				rigorous[s.rangeIdx] = false
			} else {
				bounds[s.rangeIdx] += e
			}
		}
	}
	for i := range ranges {
		if res.Served[i] && !math.IsInf(bounds[i], 1) && rigorous[i] {
			res.Errs[i] = &bounds[i]
		}
	}
	if res.Partial {
		degradedTotal.Inc()
		if !anyServed {
			return res, fmt.Errorf("cluster: no window served: %s", firstErr)
		}
	}
	return res, nil
}

// batchNode sends one node its batched sub-ranges, failing over through
// its endpoints like subQuery, and decodes the serving endpoint's answer
// into reply. The report covers the node's whole owned window (its
// sub-ranges all lie inside it).
func (r *Router) batchNode(ctx context.Context, ni int, synopsis, metric string, subRanges [][2]int, budget float64, reply *serve.BatchReply) (WindowReport, bool) {
	node := &r.topo.Nodes[ni]
	rep := WindowReport{Window: node.Window, Node: node.ID}
	// The body is encoded once and never pooled: the transport may still
	// be reading a request body after Do returns.
	var enc serve.Encoder
	enc.Grow(32 + 24*len(subRanges))
	serve.AppendBatchRequest(&enc, synopsis, metric, subRanges, budget)
	body, err := enc.Bytes()
	if err != nil {
		rep.Status, rep.Err = "failed", err.Error()
		return rep, false
	}
	if !r.failover(ctx, node, &rep, func(ep string) error {
		return r.batchEndpoint(ctx, ep, body, len(subRanges), reply)
	}) {
		return rep, false
	}
	rep.Status = "exact"
	for _, e := range reply.Errs {
		if e != 0 {
			rep.Status = "approx"
			break
		}
	}
	return rep, true
}

// batchEndpoint performs one POST /query/batch attempt with an encoded
// request for n ranges, decoding the reply into reply; on success
// reply.Errs holds one bound per range (+Inf for unbounded).
func (r *Router) batchEndpoint(ctx context.Context, endpoint string, body []byte, n int, reply *serve.BatchReply) error {
	start := time.Now()
	subqueriesTotal.Inc()
	defer func() { subquerySeconds.Since(start) }()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+"/query/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := r.fetch(req, "batch", endpoint, reply.Decode); err != nil {
		return err
	}
	if len(reply.Values) != n {
		return &permanentError{msg: fmt.Sprintf("%s returned %d values for %d ranges", endpoint, len(reply.Values), n)}
	}
	if reply.NoErrs {
		reply.Errs = reply.Errs[:0]
		for range n {
			reply.Errs = append(reply.Errs, math.Inf(1))
		}
	}
	if len(reply.Errs) < n {
		return &permanentError{msg: fmt.Sprintf("%s returned %d bounds for %d ranges", endpoint, len(reply.Errs), n)}
	}
	return nil
}

// fanOut runs fn(0), …, fn(n-1) concurrently, one goroutine per target,
// and waits for all of them. Network fan-out stays off the bounded CPU
// pool (parallel.Do): that pool's width is tied to GOMAXPROCS and shared
// with query and build work, so on a small or busy machine sub-requests
// would queue behind each other and a fan-out would cost the sum of the
// node latencies instead of the max.
func fanOut(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}
