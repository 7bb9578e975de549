package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rangeagg/internal/serve"
)

// startRouterHandler fronts a healthy 2-node cluster with the router's
// HTTP surface.
func startRouterHandler(t *testing.T, counts []int64) (*Router, *httptest.Server) {
	t.Helper()
	router := startCluster(t, counts, 2, RouterConfig{})
	ts := httptest.NewServer(NewHandler(router, serve.NewMetrics()))
	t.Cleanup(ts.Close)
	return router, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHandlerQueryAndTopology(t *testing.T) {
	counts := make([]int64, 64)
	var exact float64
	for i := range counts {
		counts[i] = int64(i % 5)
		if i >= 10 && i <= 50 {
			exact += float64(i % 5)
		}
	}
	_, ts := startRouterHandler(t, counts)

	got := getJSON(t, ts.URL+"/query?a=10&b=50&maxerr=0", http.StatusOK)
	if got["value"].(float64) != exact {
		t.Fatalf("routed value %v, want %v", got["value"], exact)
	}
	if got["partial"].(bool) {
		t.Fatalf("healthy cluster answered partial: %v", got)
	}
	if got["err"].(float64) != 0 || got["rigorous"].(bool) != true {
		t.Fatalf("exact answer bound: %v ± %v", got["err"], got["rigorous"])
	}
	if n := len(got["windows"].([]any)); n != 2 {
		t.Fatalf("want 2 window reports, got %d", n)
	}

	// Bad parameters are 400s.
	for _, q := range []string{"/query?a=x&b=5", "/query?a=1", "/query?a=1&b=5&maxerr=-1"} {
		if resp, err := http.Get(ts.URL + q); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s: status %d, want 400", q, resp.StatusCode)
			}
		}
	}

	topo := getJSON(t, ts.URL+"/topology", http.StatusOK)
	if int(topo["domain"].(float64)) != 64 {
		t.Fatalf("topology domain %v", topo["domain"])
	}

	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["ready"].(bool) != true || health["role"].(string) != "router" {
		t.Fatalf("router healthz: %v", health)
	}

	batch := postJSON(t, ts.URL+"/query/batch", map[string]any{
		"ranges": [][2]int{{0, 63}, {30, 40}}, "maxerr": 0.0,
	}, http.StatusOK)
	values := batch["values"].([]any)
	if len(values) != 2 {
		t.Fatalf("batch values: %v", values)
	}
	served := batch["served"].([]any)
	if served[0].(bool) != true || served[1].(bool) != true {
		t.Fatalf("batch served flags: %v", served)
	}

	// Metrics endpoints respond.
	getJSON(t, ts.URL+"/metrics", http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rangeagg_router_subqueries_total") {
		t.Fatal("prometheus exposition misses the router series")
	}
}

func TestHandlerIngestAndLoadForwarding(t *testing.T) {
	counts := make([]int64, 64)
	router, ts := startRouterHandler(t, counts)

	// A full-domain load splits across the two owners.
	load := make([]int64, 64)
	for i := range load {
		load[i] = int64(i)
	}
	res := postJSON(t, ts.URL+"/load", map[string]any{"counts": load}, http.StatusOK)
	if nodes := res["nodes"].([]any); len(nodes) != 2 {
		t.Fatalf("load should reach both owners, got %v", nodes)
	}

	// Ingest routes each mutation to its value's owner (value 5 → n0,
	// value 60 → n1).
	res = postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 5, "count": 3}, {"value": 60, "count": 7}},
	}, http.StatusOK)
	if nodes := res["nodes"].([]any); len(nodes) != 2 {
		t.Fatalf("ingest should reach both owners, got %v", nodes)
	}
	// A single-owner ingest only touches that owner.
	res = postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 5, "count": 1}},
	}, http.StatusOK)
	if nodes := res["nodes"].([]any); len(nodes) != 1 || nodes[0].(string) != "n0" {
		t.Fatalf("single-owner ingest reached %v", nodes)
	}

	// The routed data is queryable once the owners republish; poll since
	// node rebuilds are debounced.
	wantTotal := 0.0
	for i := range load {
		wantTotal += float64(i)
	}
	wantTotal += 3 + 7 + 1
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := getJSON(t, ts.URL+"/query?a=0&b=63&maxerr=0", http.StatusOK)
		if got["value"].(float64) == wantTotal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("routed total %v never reached %v", got["value"], wantTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Validation errors.
	resp, err := http.Post(ts.URL+"/load", "application/json",
		bytes.NewReader([]byte(`{"counts":[1,2,3]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short load: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"inserts":[{"value":%d,"count":1}]}`, 999))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-domain ingest: status %d", resp.StatusCode)
	}

	_ = router
}

// TestHandlerWriteBodyLimits: the router refuses oversized /ingest and
// /load bodies with a 413 before forwarding anything; /ingest is capped
// at serve.MaxBatchBytes and /load at serve.MaxLoadBytes of the domain.
func TestHandlerWriteBodyLimits(t *testing.T) {
	_, ts := startRouterHandler(t, make([]int64, 64))
	loadCap := int(serve.MaxLoadBytes(64))
	for _, tc := range []struct{ path, body string }{
		{"/ingest", strings.Repeat(" ", serve.MaxBatchBytes) + `{"inserts":[{"value":1,"count":1}]}`},
		{"/load", `{"counts":[` + strings.Repeat("0,", loadCap/2) + `0]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out["error"], "exceeds") {
			t.Fatalf("%s: status %d, body %v; want 413 with an error", tc.path, resp.StatusCode, out)
		}
	}
	// Bodies inside the caps are forwarded.
	postJSON(t, ts.URL+"/ingest", map[string]any{"inserts": []map[string]int{{"value": 1, "count": 1}}}, http.StatusOK)
	postJSON(t, ts.URL+"/load", map[string]any{"counts": make([]int64, 64)}, http.StatusOK)
}

func TestHandlerDegradedHealthz(t *testing.T) {
	counts := make([]int64, 64)
	windows := evenWindows(64, 2)
	live := startNode(t, counts, windows[0])
	dead := httptest.NewServer(nil)
	dead.Close()
	topo := &Topology{Domain: 64, Nodes: []Node{
		{ID: "n0", Addr: live.URL, Window: windows[0]},
		{ID: "n1", Addr: dead.URL, Window: windows[1]},
	}}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Attempts: 2, Timeout: time.Second})
	t.Cleanup(router.Close)
	router.CheckHealth()

	ts := httptest.NewServer(NewHandler(router, serve.NewMetrics()))
	t.Cleanup(ts.Close)
	body := getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable)
	if body["ready"].(bool) {
		t.Fatalf("router with an unreachable window must be unready: %v", body)
	}
	if nodes := body["nodes"].([]any); len(nodes) != 2 {
		t.Fatalf("want both endpoints reported, got %v", nodes)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := startRouterHandler(t, make([]int64, 64))
	resp, err := http.Post(ts.URL+"/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /query: status %d, want 405", resp.StatusCode)
	}
}
