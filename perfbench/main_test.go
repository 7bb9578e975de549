package main

import (
	"bytes"
	"encoding/json"

	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shortRun runs a workload briefly with one set-up.
func shortRun(t *testing.T, name string, trace bool, perturb func(http.Handler) http.Handler) *outcome {
	t.Helper()
	dir := t.TempDir()
	var log bytes.Buffer
	out, err := run(options{workload: name, seed: 7, window: 2 * time.Second, warmup: 500 * time.Millisecond,
		trace: trace, setups: 1, workdir: dir, out: dir, perturb: perturb}, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	return out
}

// TestEveryMetricEmitted runs each workload traced (which also measures
// the untraced end-to-end figures) and checks that every metric
// BENCHMARK.json names is emitted and every answer checked out.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stacks")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := shortRun(t, w.name, true, nil)
			if !out.correct() {
				t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
			}
			for _, list := range [][]metricSpec{endToEnd, perLayer} {
				if _, err := out.rep.jsonLine(list, true, 1, 0); err != nil {
					t.Error(err)
				}
			}
			for _, name := range []string{"check.exact_mismatches", "check.bound_violations", "failed_frac"} {
				if m, _ := out.rep.get(name); m.Value != 0 {
					t.Errorf("%s = %g, want 0", name, m.Value)
				}
			}
		})
	}
}

// TestPerturbedAnswerFails corrupts one value of one /query/batch
// response on the node and expects the oracle to count the failure.
func TestPerturbedAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stacks")
	}
	var done atomic.Bool
	perturb := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/query/batch" || done.Load() {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err == nil {
				if vs, ok := body["values"].([]any); ok && len(vs) > 0 && done.CompareAndSwap(false, true) {
					vs[0] = vs[0].(float64) + 1000
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(body)
		})
	}
	out := shortRun(t, "read-hot", false, perturb)
	if !done.Load() {
		t.Fatal("no batch answer was perturbed")
	}
	m, _ := out.rep.get("failed_frac")
	if out.failed == 0 || m.Value <= 0 || out.correct() {
		t.Fatalf("perturbed run: failed=%d failed_frac=%g correct=%v", out.failed, m.Value, out.correct())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// program emits and the parameters it runs with.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	rw := b.Workloads[1].Why
	for _, want := range []string{"200 batch/s", "50 ms"} {
		if !strings.Contains(rw, want) {
			t.Errorf("read-write why %q does not record %q", rw, want)
		}
	}
	if readRate != 200 || lateLimitMs != 50 {
		t.Errorf("read-write rate %d/s and lateness limit %d ms differ from BENCHMARK.json", readRate, lateLimitMs)
	}
}
