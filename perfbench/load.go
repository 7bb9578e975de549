package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// query is one client request: a single GET /query (one range) or a
// POST /query/batch.
type query struct {
	syn    string
	maxErr float64 // NaN: no budget
	ranges [][2]int
	single bool
}

func (q *query) exact() bool  { return q.syn == "" && math.IsNaN(q.maxErr) }
func (q *query) pinned() bool { return q.syn != "" && math.IsNaN(q.maxErr) }

func (q *query) url() string {
	u := fmt.Sprintf("/query?a=%d&b=%d", q.ranges[0][0], q.ranges[0][1])
	if q.syn != "" {
		u += "&syn=" + q.syn
	}
	if !math.IsNaN(q.maxErr) {
		u += "&maxerr=" + strconv.FormatFloat(q.maxErr, 'g', -1, 64)
	}
	return u
}

func (q *query) body() []byte {
	b := []byte(`{"synopsis":`)
	b = strconv.AppendQuote(b, q.syn)
	if !math.IsNaN(q.maxErr) {
		b = append(b, `,"maxerr":`...)
		b = strconv.AppendFloat(b, q.maxErr, 'g', -1, 64)
	}
	b = append(b, `,"ranges":[`...)
	for i, r := range q.ranges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(r[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// reply is the union of the node and router response shapes.
type reply struct {
	Value    *float64         `json:"value"`
	Err      *float64         `json:"err"`
	Values   []float64        `json:"values"`
	Errs     []*float64       `json:"errs"`
	Version  *int64           `json:"version"`
	Versions map[string]int64 `json:"versions"`
	Partial  bool             `json:"partial"`
	Served   []bool           `json:"served"`
}

// client is one load-generating goroutine's connection: its transport
// holds at most one connection, so clients cap connections too.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: writeTimeout}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. kind names the
// client span when tracing.
func (c *client) do(kind, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var reqID int64
	traced := c.tr.active()
	if traced {
		reqID = c.tr.newRequest()
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		c.tr.add(span{Name: "client." + kind, Req: reqID, Start: start, End: time.Now()})
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// sample is one timed operation. due is when the request was due (open
// loop) or sent (closed loop); lat runs from due to the response.
type sample struct {
	op     int64
	due    time.Time
	lat    time.Duration
	ranges int
	late   time.Duration // open loop: how late the generator sent it
}

// loadRun is the shared state of one measured load phase.
type loadRun struct {
	w      *workload
	st     *stack
	orc    *oracle
	tr     *tracer
	start  time.Time // measurement window (after warm-up)
	end    time.Time
	nextOp atomic.Int64
	// nodeVersions are the versions a routed response must report: the
	// routed workload never writes.
	nodeVersions map[string]int64

	mu                sync.Mutex
	batch, single     []sample
	writes, publishes []sample
	firstErr          error
	// writeBatches are the writer's mutation batches in order, for the
	// traced run's replays.
	writeBatches [][]mutation
}

func (lr *loadRun) op() int64 { return lr.nextOp.Add(1) }

func (lr *loadRun) measured(t time.Time) bool { return !t.Before(lr.start) && t.Before(lr.end) }

func (lr *loadRun) failure(op int64, err error) {
	lr.orc.fail(op)
	lr.mu.Lock()
	if lr.firstErr == nil {
		lr.firstErr = err
	}
	lr.mu.Unlock()
}

// query sends q and checks every answer it carries against the oracle.
func (lr *loadRun) query(c *client, q *query, due time.Time) sample {
	op := lr.op()
	var out []byte
	var err error
	if q.single {
		out, err = c.do("single", http.MethodGet, q.url(), nil)
	} else {
		out, err = c.do("batch", http.MethodPost, "/query/batch", q.body())
	}
	s := sample{op: op, due: due, lat: time.Since(due), ranges: len(q.ranges)}
	if err != nil {
		lr.failure(op, err)
		return s
	}
	if err := lr.verify(op, q, out); err != nil {
		lr.failure(op, err)
	}
	return s
}

func (lr *loadRun) verify(op int64, q *query, out []byte) error {
	var rep reply
	if err := json.Unmarshal(out, &rep); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	values, bounds := rep.Values, rep.Errs
	if q.single {
		if rep.Value == nil {
			return fmt.Errorf("reply without a value: %s", out)
		}
		values, bounds = []float64{*rep.Value}, []*float64{rep.Err}
	}
	if len(values) != len(q.ranges) || len(bounds) != len(q.ranges) {
		return fmt.Errorf("reply carries %d values for %d ranges", len(values), len(q.ranges))
	}
	var version int64
	if lr.nodeVersions != nil {
		if rep.Partial || len(rep.Versions) == 0 {
			return fmt.Errorf("partial routed reply: %s", out)
		}
		for id, v := range rep.Versions {
			if want, ok := lr.nodeVersions[id]; !ok || v != want {
				return fmt.Errorf("node %s reports version %d, want %d", id, v, want)
			}
		}
		version = lr.orc.v0
	} else {
		if rep.Version == nil {
			return fmt.Errorf("reply without a version: %s", out)
		}
		version = *rep.Version
	}
	for i, r := range q.ranges {
		bound := math.NaN()
		if bounds[i] != nil {
			bound = *bounds[i]
		}
		lr.orc.check(answer{op: op, version: version, a: r[0], b: r[1], value: values[i],
			bound: bound, maxErr: q.maxErr, exact: q.exact(), pinned: q.pinned()})
	}
	return nil
}

func (lr *loadRun) record(dst *[]sample, s sample) {
	lr.mu.Lock()
	*dst = append(*dst, s)
	lr.mu.Unlock()
}

// closedLoop sends next()'s requests back to back until the window ends.
func (lr *loadRun) closedLoop(c *client, next func() *query) {
	for time.Now().Before(lr.end) {
		q := next()
		s := lr.query(c, q, time.Now())
		if q.single {
			lr.record(&lr.single, s)
		} else {
			lr.record(&lr.batch, s)
		}
	}
}

// openLoop sends next()'s requests on a fixed schedule of rate per
// second, timing each from when it was due, so a stall also charges the
// requests queued behind it. With one connection a request cannot go
// out before the previous answer is in; the generator's own lateness is
// how long after both it actually sent.
func (lr *loadRun) openLoop(c *client, rate float64, from time.Time, next func() *query) {
	interval := time.Duration(float64(time.Second) / rate)
	var free time.Time // when the previous response arrived
	for k := 0; ; k++ {
		due := from.Add(time.Duration(k) * interval)
		if !due.Before(lr.end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		late := time.Since(ready)
		s := lr.query(c, next(), due)
		free = s.due.Add(s.lat)
		s.late = late
		lr.record(&lr.batch, s)
	}
}

// writer is the read-write workload's closed-loop writer: a POST /ingest
// of a few Zipf-placed inserts (plus, half the time, the delete of one
// value it inserted earlier), then a POST /rebuild to publish it.
func (lr *loadRun) writer(c *client, rng *rand.Rand) {
	zipf := rand.NewZipf(rng, zipfAlpha, 1, uint64(domainN-1))
	var inserted []int
	for time.Now().Before(lr.end) {
		var muts []mutation
		var ins, del []map[string]int64
		for i := 0; i < writeInserts; i++ {
			v := int(zipf.Uint64())
			muts = append(muts, mutation{v, 1})
			ins = append(ins, map[string]int64{"value": int64(v), "count": 1})
		}
		if len(inserted) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(inserted))
			v := inserted[j]
			inserted[j] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			muts = append(muts, mutation{v, -1})
			del = append(del, map[string]int64{"value": int64(v), "count": 1})
		}
		for _, m := range muts[:writeInserts] {
			inserted = append(inserted, m.value)
		}
		body, err := json.Marshal(map[string]any{"inserts": ins, "deletes": del})
		if err != nil {
			lr.failure(lr.op(), err)
			return
		}
		lr.orc.log(muts)
		wop, due := lr.op(), time.Now()
		if _, err := c.do("ingest", http.MethodPost, "/ingest", body); err != nil {
			// The mirror now holds a write the node refused: every later
			// check would be wrong, so the writer stops here.
			lr.failure(wop, err)
			return
		}
		lr.record(&lr.writes, sample{op: wop, due: due, lat: time.Since(due), ranges: len(muts)})
		pop, pdue := lr.op(), time.Now()
		out, err := c.do("rebuild", http.MethodPost, "/rebuild", nil)
		if err == nil {
			var rep reply
			if err = json.Unmarshal(out, &rep); err == nil && (rep.Version == nil || *rep.Version != lr.orc.head()) {
				err = fmt.Errorf("publish reports version %v, the mirror is at %d", rep.Version, lr.orc.head())
			}
		}
		if err != nil {
			lr.failure(pop, err)
		}
		lr.record(&lr.publishes, sample{op: pop, due: pdue, lat: time.Since(pdue), ranges: len(muts)})
		lr.mu.Lock()
		lr.writeBatches = append(lr.writeBatches, muts)
		lr.mu.Unlock()
	}
}
