package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/plan"
)

// TestPlannerQueryPaths exercises the serving layer's budget routing:
// pinned-synopsis probes, escalation to the exact tables on a tight
// budget, and cache hits on repeats — with the bound covering the true
// residual throughout.
func TestPlannerQueryPaths(t *testing.T) {
	eng, s := newTestServer(t, 64, Config{})
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 9)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	exact := float64(s.Snapshot().ExactCount(5, 40))

	// Pinned synopsis, no budget: probe path with a rigorous bound
	// covering the residual.
	res, _ := s.QueryOne(Query{Synopsis: "h", A: 5, B: 40})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Path != plan.PathProbe || res.Source != "h" || !res.Rigorous {
		t.Fatalf("pinned query: %+v", res)
	}
	if resid := res.Value - exact; resid > res.Bound || -resid > res.Bound {
		t.Fatalf("bound %g does not cover residual %g", res.Bound, res.Value-exact)
	}

	// Repeat: same answer.
	if res2, _ := s.QueryOne(Query{Synopsis: "h", A: 5, B: 40}); res2 != res {
		t.Fatalf("repeat query: %+v (first %+v)", res2, res)
	}

	// Budget 0: must escalate to the exact tables.
	zero := 0.0
	res3, _ := s.QueryOne(Query{Synopsis: "h", A: 5, B: 40, MaxErr: &zero})
	if res3.Err != nil {
		t.Fatal(res3.Err)
	}
	if res3.Path != plan.PathExact || res3.Value != exact || res3.Bound != 0 {
		t.Fatalf("zero-budget query: %+v, want exact %g", res3, exact)
	}

	// Budget query without a pinned synopsis: the planner picks a path
	// for the metric and respects the budget.
	budget := 5.0
	res4, _ := s.QueryOne(Query{Metric: engine.Count, A: 5, B: 40, MaxErr: &budget})
	if res4.Err != nil {
		t.Fatal(res4.Err)
	}
	if res4.Bound > budget {
		t.Fatalf("bound %g exceeds budget %g", res4.Bound, budget)
	}
}

// TestRebuildStormNoStaleAnswers hammers the server with bulk loads
// (each bumping the data version) while queriers spam the same ranges
// through the caching planner. Every load adds one record per value, so
// after v loads each count is exactly v, and the NAIVE synopsis answers
// width·v exactly — so any cached answer leaking across snapshots shows
// up as a value disagreeing with the batch's own version. Run with
// -race this also shakes out cache/rebuild data races.
func TestRebuildStormNoStaleAnswers(t *testing.T) {
	eng, err := engine.New("storm", 64)
	if err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "n", Metric: engine.Count, Options: build.Options{Method: method.Naive, BudgetWords: 4}},
	}
	s, err := New(eng, specs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		iters    = 150
		queriers = 4
	)
	ranges := [][2]int{{0, 63}, {5, 40}, {10, 10}, {0, 31}, {32, 63}}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, queriers)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := make([]Query, len(ranges))
			for i, r := range ranges {
				qs[i] = Query{Synopsis: "n", A: r[0], B: r[1]}
			}
			for !stop.Load() {
				results, version := s.QueryBatch(qs)
				for i, res := range results {
					if res.Err != nil {
						errCh <- res.Err
						return
					}
					width := float64(ranges[i][1] - ranges[i][0] + 1)
					if want := width * float64(version); res.Value != want {
						errCh <- &staleAnswer{got: res.Value, want: want, version: version}
						return
					}
				}
			}
		}()
	}
	ones := make([]int64, 64)
	for i := range ones {
		ones[i] = 1
	}
	for k := 1; k <= iters; k++ {
		if err := eng.Load(ones); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

type staleAnswer struct {
	got, want float64
	version   int64
}

func (e *staleAnswer) Error() string {
	return fmt.Sprintf("stale answer: got %g, want %g at version %d", e.got, e.want, e.version)
}

// TestServeTypedErrors checks the serving layer fails unknown-name
// lookups with the engine's typed error on every path.
func TestServeTypedErrors(t *testing.T) {
	eng, s := newTestServer(t, 64, Config{})
	if err := eng.Load(make([]int64, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	var use *engine.UnknownSynopsisError
	for name, err := range map[string]error{
		"Snapshot.Approx":   func() error { _, err := snap.Approx("ghost", 0, 1); return err }(),
		"Snapshot.Synopsis": func() error { _, err := snap.Synopsis("ghost"); return err }(),
		"Server.Query":      func() error { _, err := s.Query(Query{Synopsis: "ghost", A: 0, B: 1}); return err }(),
		"MergeSynopsis":     s.MergeSynopsis("ghost", nil),
	} {
		if !errors.As(err, &use) {
			t.Errorf("%s: error %v (%T) is not *engine.UnknownSynopsisError", name, err, err)
		} else if use.Name != "ghost" || use.Scope != "serve" {
			t.Errorf("%s: error fields %+v", name, use)
		}
	}
}

// TestQueryMaxErrJSON pins the /query?maxerr= JSON contract: the
// response carries value, err, rigorous, path, source and version; a
// model-less or invalid budget is rejected with a 400.
func TestQueryMaxErrJSON(t *testing.T) {
	_, _, ts := newTestHandler(t)

	// Generous budget: the pinned synopsis answers (probe) with a bound.
	resp := getJSON(t, ts.URL+"/query?syn=h&a=3&b=40&maxerr=100", http.StatusOK)
	for _, key := range []string{"value", "err", "rigorous", "path", "source", "version"} {
		if _, ok := resp[key]; !ok {
			t.Fatalf("response missing %q: %v", key, resp)
		}
	}
	if resp["path"] != "probe" || resp["source"] != "h" || resp["rigorous"] != true {
		t.Fatalf("budget-100 response: %v", resp)
	}
	if resp["err"].(float64) > 100 {
		t.Fatalf("bound %v exceeds budget", resp["err"])
	}

	// Zero budget: exact path, zero bound.
	resp = getJSON(t, ts.URL+"/query?syn=h&a=3&b=40&maxerr=0", http.StatusOK)
	if resp["path"] != "exact" || resp["err"].(float64) != 0 || resp["source"] != "exact" {
		t.Fatalf("zero-budget response: %v", resp)
	}

	// Negative and malformed budgets: 400.
	getJSON(t, ts.URL+"/query?syn=h&a=3&b=40&maxerr=-1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/query?syn=h&a=3&b=40&maxerr=bogus", http.StatusBadRequest)

	// Batch with a budget: every answer carries its bound within it.
	raw := postJSONRaw(t, ts.URL+"/query/batch",
		`{"synopsis":"h","metric":"COUNT","ranges":[[0,10],[3,40],[60,63]],"maxerr":100}`, http.StatusOK)
	var batch struct {
		Values  []float64  `json:"values"`
		Errs    []*float64 `json:"errs"`
		Version int64      `json:"version"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Values) != 3 || len(batch.Errs) != 3 {
		t.Fatalf("batch response: %s", raw)
	}
	for i, e := range batch.Errs {
		if e == nil {
			t.Fatalf("errs[%d] missing: %s", i, raw)
		}
		if *e > 100 {
			t.Fatalf("errs[%d] = %g exceeds budget", i, *e)
		}
	}

	// Batch with a bad budget: 400.
	postJSONRaw(t, ts.URL+"/query/batch",
		`{"synopsis":"h","metric":"COUNT","ranges":[[0,10]],"maxerr":-3}`, http.StatusBadRequest)
}

func postJSONRaw(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}
