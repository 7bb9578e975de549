package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rangeagg/internal/obs"
	"rangeagg/internal/serve"
)

// NewHandler exposes a Router over HTTP/JSON with the same query
// surface as a single node, so clients (synquery among them) can point
// at a router instead of a node without changing shape:
//
//	GET  /healthz       router readiness (every window reachable) plus
//	                    the latest health observation per node endpoint
//	GET  /topology      the validated topology descriptor
//	GET  /query         one routed query: ?a=&b=[&syn=][&metric=][&maxerr=]
//	POST /query/batch   {"synopsis","metric","ranges":[[a,b],...],"maxerr"}
//	                    (bodies over serve.MaxBatchBytes: 413)
//	POST /ingest        {"inserts":[{"value","count"}],"deletes":[...]}
//	                    — mutations forwarded to each value's owner
//	                    (bodies over serve.MaxBatchBytes: 413)
//	POST /load          {"counts":[...]} — a full-domain load split into
//	                    per-owner slices (bodies over serve.MaxLoadBytes: 413)
//	GET  /metrics       per-endpoint request/error/latency stats (JSON)
//	GET  /metrics.prom  the same plus the process-wide obs series
//
// Routed answers add the partial-answer contract to the node response:
// "partial" plus a "windows" list reporting, for every owned window the
// range touched, whether it was served exactly, approximately, or not
// at all. The two query endpoints speak through the serving layer's wire
// codec; a non-finite answer fails them with a 500.
func NewHandler(r *Router, m *serve.Metrics) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, method string, fn func(w http.ResponseWriter, req *http.Request) (int, error)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
			start := time.Now()
			status, err := 0, error(nil)
			if req.Method != method {
				status = http.StatusMethodNotAllowed
				err = fmt.Errorf("method %s not allowed", req.Method)
			} else {
				status, err = fn(w, req)
			}
			if err != nil {
				routerWriteJSON(w, status, map[string]string{"error": err.Error()})
			}
			m.Observe(strings.TrimPrefix(pattern, "/"), time.Since(start), err != nil)
		})
	}

	handle("/healthz", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		ready := r.Ready()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		body := map[string]any{
			"status": map[bool]string{true: "ok", false: "degraded"}[ready],
			"ready":  ready,
			"role":   "router",
			"nodes":  r.NodeHealths(),
		}
		routerWriteJSON(w, status, body)
		return 0, nil
	})

	handle("/topology", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		routerWriteJSON(w, http.StatusOK, r.Topology())
		return 0, nil
	})

	handle("/query", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		q, err := queryFromURL(req)
		if err != nil {
			return http.StatusBadRequest, err
		}
		res, err := r.Route(req.Context(), q)
		if err != nil {
			return http.StatusBadGateway, err
		}
		st := batchStates.Get().(*batchState)
		defer st.put()
		st.enc.Reset()
		appendRouteResult(&st.enc, &res)
		return serve.WriteEncoded(w, &st.enc)
	})

	handle("/query/batch", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		st := batchStates.Get().(*batchState)
		defer st.put()
		var status int
		var err error
		if st.body, status, err = serve.ReadBatchBody(st.body[:0], w, req); err != nil {
			return status, err
		}
		body := &st.req
		if err := body.Decode(st.body); err != nil {
			return http.StatusBadRequest, fmt.Errorf("decoding batch request: %w", err)
		}
		if body.MaxErr != nil && (*body.MaxErr < 0 || math.IsNaN(*body.MaxErr)) {
			return http.StatusBadRequest, fmt.Errorf("maxerr must be a non-negative number, got %g", *body.MaxErr)
		}
		res, err := r.RouteBatch(req.Context(), body.Synopsis, body.Metric, body.Ranges, body.MaxErr)
		if err != nil {
			return http.StatusBadGateway, err
		}
		st.enc.Reset()
		appendBatchResult(&st.enc, &res)
		return serve.WriteEncoded(w, &st.enc)
	})

	handle("/ingest", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		var body struct {
			Inserts []mutation `json:"inserts"`
			Deletes []mutation `json:"deletes"`
		}
		if status, err := serve.DecodeJSONBody(w, req, serve.MaxBatchBytes, &body, "ingest"); err != nil {
			return status, err
		}
		applied, err := r.forwardIngest(req, body.Inserts, body.Deletes)
		if err != nil {
			return http.StatusBadGateway, err
		}
		routerWriteJSON(w, http.StatusOK, map[string]any{"ok": true, "nodes": applied})
		return 0, nil
	})

	handle("/load", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		var body struct {
			Counts []int64 `json:"counts"`
		}
		if status, err := serve.DecodeJSONBody(w, req, serve.MaxLoadBytes(r.topo.Domain), &body, "load"); err != nil {
			return status, err
		}
		if len(body.Counts) != r.topo.Domain {
			return http.StatusBadRequest, fmt.Errorf("load carries %d counts, topology domain is %d",
				len(body.Counts), r.topo.Domain)
		}
		applied, err := r.forwardLoad(req, body.Counts)
		if err != nil {
			return http.StatusBadGateway, err
		}
		routerWriteJSON(w, http.StatusOK, map[string]any{"ok": true, "nodes": applied})
		return 0, nil
	})

	handle("/metrics", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		routerWriteJSON(w, http.StatusOK, map[string]any{"endpoints": m.Snapshot()})
		return 0, nil
	})

	handle("/metrics.prom", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteText(w, m.Registry(), obs.Default); err != nil {
			return http.StatusInternalServerError, err
		}
		return 0, nil
	})

	return mux
}

// mutation is one ingest entry, routed to its value's owner.
type mutation struct {
	Value int   `json:"value"`
	Count int64 `json:"count"`
}

// queryFromURL parses the router query parameters (the node's surface;
// the metric stays a wire name — owning nodes validate it).
func queryFromURL(req *http.Request) (Query, error) {
	var q Query
	v := req.URL.Query()
	a, err := strconv.Atoi(v.Get("a"))
	if err != nil {
		return q, fmt.Errorf("parameter a: %w", err)
	}
	b, err := strconv.Atoi(v.Get("b"))
	if err != nil {
		return q, fmt.Errorf("parameter b: %w", err)
	}
	q.A, q.B = a, b
	q.Synopsis = v.Get("syn")
	q.Metric = v.Get("metric")
	if s := v.Get("maxerr"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, fmt.Errorf("parameter maxerr: %w", err)
		}
		if f < 0 || math.IsNaN(f) {
			return q, fmt.Errorf("maxerr must be a non-negative number, got %g", f)
		}
		q.MaxErr = &f
	}
	return q, nil
}

// forwardIngest splits the mutations by owning node and forwards each
// node's share to its primary (writes do not fail over: the primary is
// the write authority, replicas converge through replication).
func (r *Router) forwardIngest(req *http.Request, inserts, deletes []mutation) ([]string, error) {
	ins := make([][]mutation, len(r.topo.Nodes))
	dels := make([][]mutation, len(r.topo.Nodes))
	owner := func(value int) (int, error) {
		for i := range r.topo.Nodes {
			if w := r.topo.Nodes[i].Window; value >= w.Lo && value <= w.Hi {
				return i, nil
			}
		}
		return 0, fmt.Errorf("value %d is outside the domain [0,%d)", value, r.topo.Domain)
	}
	for _, mu := range inserts {
		i, err := owner(mu.Value)
		if err != nil {
			return nil, err
		}
		ins[i] = append(ins[i], mu)
	}
	for _, mu := range deletes {
		i, err := owner(mu.Value)
		if err != nil {
			return nil, err
		}
		dels[i] = append(dels[i], mu)
	}
	return r.forwardToPrimaries(req, func(i int) (any, bool) {
		if len(ins[i]) == 0 && len(dels[i]) == 0 {
			return nil, false
		}
		return map[string]any{"inserts": ins[i], "deletes": dels[i]}, true
	}, "/ingest")
}

// forwardLoad splits a full-domain load into one full-domain slice per
// node, zero outside its window (each node's engine spans the whole
// domain; only its owned window carries data).
func (r *Router) forwardLoad(req *http.Request, counts []int64) ([]string, error) {
	return r.forwardToPrimaries(req, func(i int) (any, bool) {
		w := r.topo.Nodes[i].Window
		slice := make([]int64, len(counts))
		copy(slice[w.Lo:w.Hi+1], counts[w.Lo:w.Hi+1])
		return map[string]any{"counts": slice}, true
	}, "/load")
}

// forwardToPrimaries POSTs each node's body to its primary, one
// goroutine per node; any failure fails the whole request (writes have no
// partial-answer mode — the caller retries).
func (r *Router) forwardToPrimaries(req *http.Request, body func(i int) (any, bool), path string) ([]string, error) {
	type result struct {
		node string
		err  error
	}
	results := make([]result, len(r.topo.Nodes))
	var targets []int
	var bodies []any
	for i := range r.topo.Nodes {
		if b, ok := body(i); ok {
			targets = append(targets, i)
			bodies = append(bodies, b)
		}
	}
	fanOut(len(targets), func(k int) {
		i := targets[k]
		n := &r.topo.Nodes[i]
		results[i].node = n.ID
		data, err := json.Marshal(bodies[k])
		if err != nil {
			results[i].err = err
			return
		}
		post, err := http.NewRequestWithContext(req.Context(), http.MethodPost, n.Addr+path, bytes.NewReader(data))
		if err != nil {
			results[i].err = err
			return
		}
		post.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(post)
		if err != nil {
			results[i].err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			results[i].err = httpError(resp)
		}
	})
	var applied []string
	for _, res := range results {
		if res.node == "" {
			continue
		}
		if res.err != nil {
			return nil, fmt.Errorf("forwarding to %s: %w", res.node, res.err)
		}
		applied = append(applied, res.node)
	}
	return applied, nil
}

// batchState is one routed query request's reusable buffers.
type batchState struct {
	body []byte
	req  serve.BatchRequest
	enc  serve.Encoder
}

var batchStates = sync.Pool{New: func() any { return new(batchState) }}

// put recycles the state unless one large request grew its buffers.
func (st *batchState) put() {
	out, _ := st.enc.Bytes()
	if cap(st.body) <= maxPooledBytes && cap(out) <= maxPooledBytes && cap(st.req.Ranges) <= maxPooledBytes/16 {
		batchStates.Put(st)
	}
}

// appendRouteResult encodes a routed /query answer with the keys, order
// and omissions of the map encoding/json used to write.
func appendRouteResult(e *serve.Encoder, res *RouteResult) {
	bounded := !math.IsInf(res.Answer.Bound, 1)
	e.Raw("{")
	if bounded {
		e.Raw(`"err":`)
		e.Float(res.Answer.Bound)
		e.Raw(",")
	}
	e.Raw(`"partial":`)
	e.Bool(res.Partial)
	e.Raw(`,"path":`)
	e.String(res.Answer.Path.String())
	if bounded {
		e.Raw(`,"rigorous":`)
		e.Bool(res.Answer.Rigorous)
	}
	e.Raw(`,"source":`)
	e.String(res.Answer.Source)
	e.Raw(`,"value":`)
	e.Float(res.Answer.Value)
	e.Raw(`,"versions":`)
	appendVersions(e, res.Versions)
	e.Raw(`,"windows":`)
	appendWindows(e, res.Windows)
	e.Raw("}")
}

// appendBatchResult encodes a routed /query/batch answer.
func appendBatchResult(e *serve.Encoder, res *BatchResult) {
	e.Raw(`{"errs":`)
	if res.Errs == nil {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i, b := range res.Errs {
			if i > 0 {
				e.Raw(",")
			}
			if b == nil {
				e.Raw("null")
			} else {
				e.Float(*b)
			}
		}
		e.Raw("]")
	}
	e.Raw(`,"partial":`)
	e.Bool(res.Partial)
	e.Raw(`,"served":`)
	if res.Served == nil {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i, ok := range res.Served {
			if i > 0 {
				e.Raw(",")
			}
			e.Bool(ok)
		}
		e.Raw("]")
	}
	e.Raw(`,"values":`)
	if res.Values == nil {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i, v := range res.Values {
			if i > 0 {
				e.Raw(",")
			}
			e.Float(v)
		}
		e.Raw("]")
	}
	e.Raw(`,"versions":`)
	appendVersions(e, res.Versions)
	e.Raw(`,"windows":`)
	appendWindows(e, res.Windows)
	e.Raw("}")
}

// appendVersions encodes node versions as encoding/json encodes a map:
// keys in sorted order.
func appendVersions(e *serve.Encoder, versions map[string]int64) {
	if versions == nil {
		e.Raw("null")
		return
	}
	ids := make([]string, 0, len(versions))
	for id := range versions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.Raw("{")
	for i, id := range ids {
		if i > 0 {
			e.Raw(",")
		}
		e.String(id)
		e.Raw(":")
		e.Int(versions[id])
	}
	e.Raw("}")
}

// appendWindows encodes the window reports in WindowReport's field order
// with its omitempty rules.
func appendWindows(e *serve.Encoder, windows []WindowReport) {
	if windows == nil {
		e.Raw("null")
		return
	}
	e.Raw("[")
	for i := range windows {
		w := &windows[i]
		if i > 0 {
			e.Raw(",")
		}
		e.Raw(`{"range":[`)
		e.Int(int64(w.Window.Lo))
		e.Raw(",")
		e.Int(int64(w.Window.Hi))
		e.Raw(`],"node":`)
		e.String(w.Node)
		if w.Endpoint != "" {
			e.Raw(`,"endpoint":`)
			e.String(w.Endpoint)
		}
		e.Raw(`,"status":`)
		e.String(w.Status)
		if w.Replica {
			e.Raw(`,"replica":true`)
		}
		e.Raw(`,"attempts":`)
		e.Int(int64(w.Attempts))
		if w.Path != "" {
			e.Raw(`,"path":`)
			e.String(w.Path)
		}
		if w.Err != "" {
			e.Raw(`,"err":`)
			e.String(w.Err)
		}
		e.Raw("}")
	}
	e.Raw("]")
}

func routerWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
