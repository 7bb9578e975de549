package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rangeagg/internal/parallel"
	"rangeagg/internal/plan"
	"rangeagg/internal/serve"
)

// TestFanOutOffCPUPool: with the CPU pool squeezed to one worker, a
// routed batch over four slow nodes still costs one node latency, not
// four — sub-requests fan out one goroutine per node.
func TestFanOutOffCPUPool(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const delay = 50 * time.Millisecond
	windows := evenWindows(400, 4)
	nodes := make([]Node, len(windows))
	for i, w := range windows {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			time.Sleep(delay)
			n := 1
			if req.URL.Path == "/query/batch" {
				var body struct {
					Ranges [][2]int `json:"ranges"`
				}
				if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
					http.Error(rw, err.Error(), http.StatusBadRequest)
					return
				}
				n = len(body.Ranges)
				values := make([]float64, n)
				errs := make([]float64, n)
				_ = json.NewEncoder(rw).Encode(map[string]any{"values": values, "errs": errs, "version": 1})
				return
			}
			_ = json.NewEncoder(rw).Encode(map[string]any{"value": 0, "err": 0, "rigorous": true, "path": "exact", "version": 1})
		}))
		t.Cleanup(ts.Close)
		nodes[i] = Node{ID: fmt.Sprintf("n%d", i), Addr: ts.URL, Window: w}
	}
	topo := &Topology{Domain: 400, Nodes: nodes}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, RouterConfig{HealthEvery: -1})
	t.Cleanup(r.Close)

	// Warm the connections so the timed calls measure fan-out only.
	if _, err := r.RouteBatch(context.Background(), "", "", [][2]int{{0, 399}}, nil); err != nil {
		t.Fatal(err)
	}
	bound := 3 * delay // four serial sub-requests would take 4×delay
	start := time.Now()
	res, err := r.RouteBatch(context.Background(), "", "", [][2]int{{0, 399}, {50, 350}}, nil)
	if elapsed := time.Since(start); err != nil || res.Partial || elapsed >= bound {
		t.Fatalf("RouteBatch over 4 nodes: %v (err %v, partial %v), want under %v", elapsed, err, res.Partial, bound)
	}
	start = time.Now()
	one, err := r.Route(context.Background(), Query{A: 0, B: 399})
	if elapsed := time.Since(start); err != nil || one.Partial || elapsed >= bound {
		t.Fatalf("Route over 4 nodes: %v (err %v, partial %v), want under %v", elapsed, err, one.Partial, bound)
	}
}

// TestRouterWireBytes holds the routed response encoders to the maps
// the router used to hand encoding/json: same bytes, same failures.
func TestRouterWireBytes(t *testing.T) {
	jsonEncode := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(v)
		return buf.Bytes(), err
	}
	compare := func(what string, e *serve.Encoder, old any) {
		t.Helper()
		_, wantErr := jsonEncode(old)
		e.Raw("\n")
		got, err := e.Bytes()
		want, _ := jsonEncode(old)
		if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s:\ncodec         %q (%v)\nencoding/json %q (%v)", what, got, err, want, wantErr)
		}
	}
	reports := []WindowReport{
		{Window: Window{0, 31}, Node: "n0", Endpoint: "http://127.0.0.1:1", Status: "exact", Attempts: 1, Path: "exact"},
		{Window: Window{32, 63}, Node: "n<1>&\u2028", Endpoint: "http://r", Status: "approx", Replica: true, Attempts: 2, Path: "probe"},
		{Window: Window{64, 95}, Node: "n2", Status: "failed", Attempts: 3, Err: "502 Bad Gateway: \"boom\"\n\xff"},
	}
	b0, b1 := 0.0, 1e-7
	for _, tc := range []struct {
		ans      plan.Answer
		partial  bool
		windows  []WindowReport
		versions map[string]int64
	}{
		{plan.Answer{Value: 1234, Bound: 0, Rigorous: true, Path: plan.PathExact, Source: "merged"}, false, reports[:1], map[string]int64{"n0": 3}},
		{plan.Answer{Value: 1e21, Bound: math.Inf(1), Path: plan.PathProbe, Source: "merged"}, true, reports, map[string]int64{"n1": 1, "n0": 2, "<n2>": 5}},
		{plan.Answer{Value: math.Copysign(0, -1), Bound: 5e-324, Path: plan.PathEscalate, Source: "merged"}, false, nil, map[string]int64{}},
		{plan.Answer{Value: math.NaN(), Bound: 0, Path: plan.PathExact, Source: "merged"}, false, nil, nil},
	} {
		res := RouteResult{Answer: tc.ans, Partial: tc.partial, Windows: tc.windows, Versions: tc.versions}
		old := map[string]any{
			"value": res.Answer.Value, "path": res.Answer.Path.String(), "source": res.Answer.Source,
			"partial": res.Partial, "windows": res.Windows, "versions": res.Versions,
		}
		if !math.IsInf(res.Answer.Bound, 1) {
			old["err"] = res.Answer.Bound
			old["rigorous"] = res.Answer.Rigorous
		}
		var e serve.Encoder
		appendRouteResult(&e, &res)
		compare(fmt.Sprintf("route %+v", tc.ans), &e, old)

		batch := BatchResult{
			Values: []float64{tc.ans.Value, 2.5, 1e-6}, Errs: []*float64{&b0, nil, &b1},
			Served: []bool{true, false, true}, Partial: tc.partial, Windows: tc.windows, Versions: tc.versions,
		}
		e.Reset()
		appendBatchResult(&e, &batch)
		compare(fmt.Sprintf("batch %+v", tc.ans), &e, map[string]any{
			"values": batch.Values, "errs": batch.Errs, "served": batch.Served,
			"partial": batch.Partial, "windows": batch.Windows, "versions": batch.Versions,
		})
	}
	var e serve.Encoder
	appendBatchResult(&e, &BatchResult{})
	compare("empty batch", &e, map[string]any{
		"values": []float64(nil), "errs": []*float64(nil), "served": []bool(nil),
		"partial": false, "windows": []WindowReport(nil), "versions": map[string]int64(nil),
	})
}

// TestRouterBatchBodyLimit: the router refuses an oversized batch body
// with a 413 before fanning anything out.
func TestRouterBatchBodyLimit(t *testing.T) {
	r := startCluster(t, make([]int64, 64), 2, RouterConfig{})
	ts := httptest.NewServer(NewHandler(r, serve.NewMetrics()))
	t.Cleanup(ts.Close)
	body := bytes.Repeat([]byte(" "), serve.MaxBatchBytes+1)
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || out["error"] == "" {
		t.Fatalf("status %d, body %v; want 413 with an error", resp.StatusCode, out)
	}
}
