package rangeagg

// The benchmark harness: one benchmark per experiment table/figure of
// DESIGN.md §6 (regenerating the table body each iteration), plus
// construction-cost and query-latency ablations (E8). Run with
//
//	go test -bench=. -benchmem
//
// cmd/synbench prints the same tables with their values for inspection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"rangeagg/internal/advisor"
	"rangeagg/internal/build"
	"rangeagg/internal/cluster"
	"rangeagg/internal/core"
	"rangeagg/internal/dataset"
	"rangeagg/internal/dp"
	"rangeagg/internal/engine"
	"rangeagg/internal/experiments"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/parallel"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/serve"
)

// benchCfg keeps per-iteration work bounded: the paper's dataset with two
// representative budgets.
func benchCfg(b *testing.B) experiments.Config {
	b.Helper()
	d, err := dataset.Zipf(dataset.DefaultPaper())
	if err != nil {
		b.Fatal(err)
	}
	return experiments.Config{Data: d, Budgets: []int{16, 32}, Seed: 1}
}

func benchTable(b *testing.B, run func(experiments.Config) (*experiments.Table, error)) {
	cfg := benchCfg(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Fig1 regenerates Figure 1 (all nine series).
func BenchmarkE1Fig1(b *testing.B) { benchTable(b, experiments.Fig1) }

// BenchmarkE2PointOptRatio regenerates the POINT-OPT/OPT-A ratio table.
func BenchmarkE2PointOptRatio(b *testing.B) { benchTable(b, experiments.PointOptRatio) }

// BenchmarkE3Sap1Ratio regenerates the SAP1/OPT-A ratio table.
func BenchmarkE3Sap1Ratio(b *testing.B) { benchTable(b, experiments.Sap1Ratio) }

// BenchmarkE4Sap0Rank regenerates the SAP0 ranking table.
func BenchmarkE4Sap0Rank(b *testing.B) { benchTable(b, experiments.Sap0Rank) }

// BenchmarkE5Reopt regenerates the A-reopt improvement table.
func BenchmarkE5Reopt(b *testing.B) { benchTable(b, experiments.ReoptGain) }

// BenchmarkE6Wavelet regenerates the wavelet comparison table.
func BenchmarkE6Wavelet(b *testing.B) { benchTable(b, experiments.WaveletStudy) }

// BenchmarkE7Rounded regenerates the OPT-A-ROUNDED sweep.
func BenchmarkE7Rounded(b *testing.B) {
	cfg := benchCfg(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RoundedSweep(cfg, 16, []int64{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstruct measures per-method construction cost on the paper's
// dataset at 32 words (E8a).
func BenchmarkConstruct(b *testing.B) {
	counts := PaperCounts()
	for _, m := range Methods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Epsilon feeds the approximate families (required) and
				// OPT-A-ROUNDED's quality target; exact methods ignore it.
				if _, err := Build(counts, Options{Method: m, BudgetWords: 32, Seed: 1, Epsilon: 0.25}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstructScaling measures how the polynomial constructions
// scale with the domain size (E8b). OPT-A is excluded here — its
// pseudo-polynomial cost is studied separately in E7/BenchmarkOptAExact.
func BenchmarkConstructScaling(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		counts, err := ZipfCounts(n, 1.8, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []Method{A0, SAP0, SAP1, PointOpt, WaveRangeOpt} {
			b.Run(fmt.Sprintf("%s/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(counts, Options{Method: m, BudgetWords: 32, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The near-linear approximate families extend the grid three orders of
	// magnitude past where the exact O(n²B) DPs stop — the exact series
	// above is untouched so the regression baseline stays comparable.
	for _, n := range []int{8192, 65536, 1048576} {
		counts, err := ZipfCounts(n, 1.8, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []Method{A0Approx, SAP0Approx, PointOptApprox} {
			b.Run(fmt.Sprintf("%s/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(counts, Options{Method: m, BudgetWords: 32, Seed: 1, Epsilon: 0.1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConstructSerialVsParallel pins the DP worker pool's effect on
// the heavy constructions: the same build at pool width 1 (the serial
// rolling-row kernels) and at the machine's width. Output is identical at
// both widths; only wall-clock should differ (on multi-core hosts).
func BenchmarkConstructSerialVsParallel(b *testing.B) {
	for _, n := range []int{1024, 2048} {
		counts, err := ZipfCounts(n, 1.8, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []Method{SAP0, SAP1} {
			for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
				name := fmt.Sprintf("%s/n=%d/workers=max", m, n)
				if workers == 1 {
					name = fmt.Sprintf("%s/n=%d/workers=1", m, n)
				}
				b.Run(name, func(b *testing.B) {
					prev := parallel.SetWorkers(workers)
					defer parallel.SetWorkers(prev)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := Build(counts, Options{Method: m, BudgetWords: 32, Seed: 1}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDPKernel isolates the DP layer itself: the seed's 2-D
// closure-dispatch implementation (dp.SolveReference) against the
// rewritten rolling-row driver with the inlined SAP0 kernel — the
// before/after pair recorded in BENCH_dp.json.
func BenchmarkDPKernel(b *testing.B) {
	for _, n := range []int{512, 1024, 2048} {
		counts, err := ZipfCounts(n, 1.8, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		tab := prefix.NewTable(counts)
		const buckets = 10 // SAP0 units of a 32-word budget
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			cost := dp.SAP0Cost(tab)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := dp.SolveReference(tab.N(), buckets, cost); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("closure/n=%d", n), func(b *testing.B) {
			cost := dp.SAP0Cost(tab)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := dp.Solve(tab.N(), buckets, cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdvisorSweep measures the advisor's concurrent candidate sweep
// (the polynomial methods at one budget).
func BenchmarkAdvisorSweep(b *testing.B) {
	counts := PaperCounts()
	cfg := advisor.Config{BudgetWords: 32, Methods: []method.ID{
		method.EquiWidth, method.EquiDepth, method.MaxDiff, method.PointOpt,
		method.A0, method.SAP0, method.SAP1, method.WaveTopBB,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := advisor.Recommend(counts, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptAExact measures the exact pseudo-polynomial DP on the
// paper's dataset across bucket budgets (E8c).
func BenchmarkOptAExact(b *testing.B) {
	counts := PaperCounts()
	for _, words := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(counts, Options{Method: OptA, BudgetWords: words, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuery measures per-query answering latency of each synopsis
// type (E8d).
func BenchmarkQuery(b *testing.B) {
	counts := PaperCounts()
	n := len(counts)
	queries := RandomRanges(n, 1024, 7)
	for _, m := range []Method{A0, SAP0, SAP1, WaveTopBB, WaveRangeOpt, WaveAA2D} {
		syn, err := Build(counts, Options{Method: m, BudgetWords: 32, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				sink += syn.Estimate(q.A, q.B)
			}
			_ = sink
		})
	}
}

// BenchmarkSSEEvaluation compares the O(n) prefix-identity SSE evaluator
// against the O(n²) definition (E8e) — the evaluation substrate itself.
func BenchmarkSSEEvaluation(b *testing.B) {
	counts := PaperCounts()
	syn, err := Build(counts, Options{Method: A0, BudgetWords: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SSE(counts, syn)
		}
	})
	b.Run("workload-4k", func(b *testing.B) {
		qs := RandomRanges(len(counts), 4096, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Evaluate(counts, syn, qs)
		}
	})
}

// BenchmarkE10TwoDim regenerates the 2-D extension table.
func BenchmarkE10TwoDim(b *testing.B) {
	cfg := benchCfg(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.TwoDim(cfg, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9PrefixStudy regenerates the restricted-class comparison.
func BenchmarkE9PrefixStudy(b *testing.B) { benchTable(b, experiments.PrefixStudy) }

// BenchmarkQuery2D measures rectangle-query latency of the 2-D synopses.
func BenchmarkQuery2D(b *testing.B) {
	counts := make([][]int64, 64)
	for r := range counts {
		counts[r] = make([]int64, 64)
		for c := range counts[r] {
			counts[r][c] = int64((r*c)%17 + 1)
		}
	}
	queries := RandomRects(64, 64, 1024, 3)
	for _, m := range Methods2D() {
		syn, err := Build2D(counts, m, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += syn.Estimate(queries[i%len(queries)])
			}
			_ = sink
		})
	}
}

// BenchmarkE11Heuristics regenerates the heuristic-improvement study.
func BenchmarkE11Heuristics(b *testing.B) { benchTable(b, experiments.HeuristicStudy) }

// BenchmarkWarmupVsImproved contrasts the paper's §2.1.1 warm-up DP with
// the §2.1.2 improved DP on a small instance (E8f): same optimum, far
// fewer states for the improved algorithm.
func BenchmarkWarmupVsImproved(b *testing.B) {
	counts, err := ZipfCounts(24, 1.8, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	tab := prefix.NewTable(counts)
	b.Run("warmup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.OptAWarmup(tab, 4, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("improved", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.OptA(tab, 4, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serveBench builds a serving stack on a Zipf domain with one SAP1
// synopsis, plus a fixed workload of 256 synopsis queries.
func serveBench(b *testing.B) (*serve.Server, []serve.Query) {
	b.Helper()
	const n = 2048
	counts, err := ZipfCounts(n, 1.8, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New("bench", n)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		b.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: method.SAP1, BudgetWords: 64}},
	}
	srv, err := serve.New(eng, specs, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	rng := rand.New(rand.NewSource(9))
	qs := make([]serve.Query, 256)
	for i := range qs {
		a := rng.Intn(n)
		qs[i] = serve.Query{Synopsis: "h", A: a, B: a + rng.Intn(n-a)}
	}
	return srv, qs
}

// BenchmarkServeQuery contrasts 256 single Query calls with one
// QueryBatch over the same 256 ranges — one snapshot load and one
// synopsis lookup amortized over the batch. Each op answers 256 queries
// in both cases, so ns/op compares directly.
func BenchmarkServeQuery(b *testing.B) {
	srv, qs := serveBench(b)
	b.Run("single-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := srv.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, _ := srv.QueryBatch(qs)
			if results[0].Err != nil {
				b.Fatal(results[0].Err)
			}
		}
	})
}

// BenchmarkServeHTTP measures the served throughput the issue targets:
// answering 256 queries as 256 single /query requests versus one
// /query/batch request. Batching amortizes the per-request HTTP and
// JSON overhead, which dominates single-query serving cost.
func BenchmarkServeHTTP(b *testing.B) {
	srv, qs := serveBench(b)
	ts := httptest.NewServer(serve.NewHandler(srv, serve.NewMetrics()))
	b.Cleanup(ts.Close)
	client := ts.Client()

	urls := make([]string, len(qs))
	for i, q := range qs {
		urls[i] = fmt.Sprintf("%s/query?syn=h&a=%d&b=%d", ts.URL, q.A, q.B)
	}
	ranges := make([][2]int, len(qs))
	for i, q := range qs {
		ranges[i] = [2]int{q.A, q.B}
	}
	body, err := json.Marshal(map[string]any{"synopsis": "h", "ranges": ranges})
	if err != nil {
		b.Fatal(err)
	}

	do := func(b *testing.B, req *http.Request) {
		b.Helper()
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("single-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range urls {
				req, err := http.NewRequest(http.MethodGet, u, nil)
				if err != nil {
					b.Fatal(err)
				}
				do(b, req)
			}
		}
	})
	b.Run("batch-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/query/batch", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			do(b, req)
		}
	})
}

// plannerBench builds a serving stack for the error-budget planner: two
// Count synopses — a coarse histogram probed first (cheapest by storage
// words) and a finer one escalation reaches — plus a zipf-skewed
// workload of 256 budget queries. Each query's budget is the fine
// synopsis's own bound on its range, so the fine synopsis exactly
// satisfies it while the coarse one fails: every query pays both
// synopses' estimate+bound (the wavelet's is O(log n)).
func plannerBench(b testing.TB) (*serve.Server, []serve.Query) {
	b.Helper()
	const n = 2048
	counts, err := ZipfCounts(n, 1.8, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New("planner-bench", n)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		b.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "coarse", Metric: engine.Count, Options: build.Options{Method: method.EquiWidth, BudgetWords: 16}},
		{Name: "fine", Metric: engine.Count, Options: build.Options{Method: method.WaveTopBB, BudgetWords: 256}},
	}
	srv, err := serve.New(eng, specs, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)

	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.4, 4, 63)
	// Every pool range starts in the zipf head, where the coarse
	// histogram's buckets average wildly varying counts and its bound is
	// large; the wavelet keeps the head coefficients and bounds tightly.
	pool := make([][2]int, 64)
	for i := range pool {
		a := rng.Intn(48)
		pool[i] = [2]int{a, a + n/4 + rng.Intn(n/2)}
	}
	view := srv.Snapshot().View(engine.Count)
	fine := view.SourceIndex("fine")
	if fine < 0 {
		b.Fatal("fine synopsis missing from view")
	}
	budgets := make([]float64, len(pool))
	for j, r := range pool {
		bound, _, ok := view.Sources[fine].Bound(r[0], r[1])
		if !ok {
			b.Fatalf("fine synopsis has no bound on [%d,%d]", r[0], r[1])
		}
		budgets[j] = bound
	}
	qs := make([]serve.Query, 256)
	for i := range qs {
		j := zipf.Uint64()
		r := pool[j]
		qs[i] = serve.Query{Metric: engine.Count, A: r[0], B: r[1], MaxErr: &budgets[j]}
	}
	return srv, qs
}

// BenchmarkPlannerPaths measures the per-answer cost of each planner
// path in isolation (probe, escalation to the exact tables) and then the
// headline workload: a zipf-skewed batch of 256 budget queries. The
// per-batch p99 is reported as p99-ns/batch.
func BenchmarkPlannerPaths(b *testing.B) {
	b.Run("probe", func(b *testing.B) {
		srv, qs := plannerBench(b)
		q := qs[0]
		q.MaxErr = nil
		q.Synopsis = "coarse"
		q.Metric = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _ := srv.QueryOne(q)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Path != plan.PathProbe {
				b.Fatalf("path %s, want probe", res.Path)
			}
		}
	})
	b.Run("escalate-to-exact", func(b *testing.B) {
		srv, qs := plannerBench(b)
		q := qs[0]
		zero := 0.0
		q.MaxErr = &zero // no synopsis meets a zero budget
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _ := srv.QueryOne(q)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Path != plan.PathExact {
				b.Fatalf("path %s, want exact", res.Path)
			}
		}
	})
	b.Run("zipf-batch-256", func(b *testing.B) {
		srv, qs := plannerBench(b)
		if results, _ := srv.QueryBatch(qs); results[0].Err != nil { // warm
			b.Fatal(results[0].Err)
		}
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			results, _ := srv.QueryBatch(qs)
			lat = append(lat, time.Since(start))
			if results[0].Err != nil {
				b.Fatal(results[0].Err)
			}
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/batch")
	})
}

// BenchmarkSegmentedRebuild measures the tentpole claim of the segmented
// architecture: after a point mutation, refreshing a K=8 segmented
// synopsis (one dirty segment rebuilt, seven carried over) versus the
// full monolithic rebuild it replaces, both through the engine at
// n=65536 with the same word budget and including the per-range error
// model. The dirty path must stay well ahead (≥3× in CI's gate).
// full-segmented drops the synopsis before each build, so every op is a
// from-scratch SEGMENTED build — the set-up path.
func BenchmarkSegmentedRebuild(b *testing.B) {
	const n = 65536
	d, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: 1.2, MaxCount: 1000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opt build.Options, full bool) {
		eng, err := engine.New("bench", n)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Load(d.Counts); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.BuildSynopsis("s", engine.Count, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The O(1) insert rides inside the timed region: it is noise-level
			// next to the rebuild, and stopping the timer around it costs
			// more jitter than it removes.
			if err := eng.Insert(100+i%64, 1); err != nil {
				b.Fatal(err)
			}
			if full {
				eng.DropSynopsis("s")
			}
			if _, err := eng.BuildSynopsis("s", engine.Count, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dirty-1-of-8", func(b *testing.B) {
		run(b, build.Options{Method: method.Segmented, BudgetWords: 256, Segments: 8}, false)
	})
	b.Run("full-segmented", func(b *testing.B) {
		run(b, build.Options{Method: method.Segmented, BudgetWords: 256, Segments: 8}, true)
	})
	b.Run("full-monolithic", func(b *testing.B) {
		run(b, build.Options{Method: method.A0Approx, BudgetWords: 256, Epsilon: 0.1}, false)
	})
}

// ingestBench builds the streaming-ingest serving stack: a segmented
// synopsis over a zipf domain at n=65536, explicit-rebuild debounce (the
// benchmark drives publishes itself), and the requested maintenance
// mode. Returned queries are a zipf-skewed 256-range batch pinned to the
// synopsis — the concurrent read workload.
func ingestBench(b *testing.B, mode ingest.Mode) (*serve.Server, []serve.Query) {
	b.Helper()
	const n = 65536
	counts, err := ZipfCounts(n, 1.2, 1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New("ingest-bench", n)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		b.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "seg", Metric: engine.Count, Options: build.Options{Method: method.Segmented, BudgetWords: 256, Segments: 8}},
	}
	srv, err := serve.New(eng, specs, serve.Config{
		Debounce: time.Hour,
		Ingest:   ingest.Config{Mode: mode},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	if err := srv.Rebuild(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.3, 8, n/4)
	qs := make([]serve.Query, 256)
	for i := range qs {
		a := int(zipf.Uint64())
		qs[i] = serve.Query{Synopsis: "seg", A: a, B: a + n/8 + rng.Intn(n/4)}
	}
	return srv, qs
}

// p99Of reports the 99th-percentile batch latency as p99-ns/batch.
func p99Of(b *testing.B, lat []time.Duration) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/batch")
}

// BenchmarkIngestSustained measures the tentpole claim of the streaming
// maintenance layer: sustained insert→publish throughput with a
// concurrent batch-read workload, incremental maintenance versus the
// rebuild-per-mutation pattern it replaces, both at n=65536 on the same
// segmented spec. Each op is one zipf insert plus one publish, so ns/op
// is the sustained per-mutation cost (inserts/sec is also reported); the
// concurrent reader's p99 batch latency rides along as p99-ns/batch,
// with a read-only run as its reference. The incremental path must stay
// a decimal order ahead of rebuild-per-mutation, and its reader p99
// within 2x of read-only — benchdiff gates both ns/op entries against
// the committed baseline.
func BenchmarkIngestSustained(b *testing.B) {
	writes := func(b *testing.B, mode ingest.Mode) {
		srv, qs := ingestBench(b, mode)
		rng := rand.New(rand.NewSource(11))
		zipf := rand.NewZipf(rng, 1.3, 8, 65535)
		stop := make(chan struct{})
		latC := make(chan []time.Duration, 1)
		go func() {
			var lat []time.Duration
			for {
				select {
				case <-stop:
					latC <- lat
					return
				default:
				}
				start := time.Now()
				results, _ := srv.QueryBatch(qs)
				lat = append(lat, time.Since(start))
				if results[0].Err != nil {
					lat = nil // surfaces as a missing p99 metric
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := srv.Insert(int(zipf.Uint64()), 1); err != nil {
				b.Fatal(err)
			}
			if err := srv.Rebuild(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		p99Of(b, <-latC)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inserts/sec")
	}
	b.Run("incremental", func(b *testing.B) { writes(b, ingest.ModeIncremental) })
	b.Run("rebuild-per-mutation", func(b *testing.B) { writes(b, ingest.ModeRebuild) })
	b.Run("read-only", func(b *testing.B) {
		srv, qs := ingestBench(b, ingest.ModeIncremental)
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			results, _ := srv.QueryBatch(qs)
			lat = append(lat, time.Since(start))
			if results[0].Err != nil {
				b.Fatal(results[0].Err)
			}
		}
		b.StopTimer()
		p99Of(b, lat)
	})
}

// routerBench fronts a k-node cluster with a fan-out router: each node
// runs a full-domain engine holding only its owned slice of the zipf
// counts, behind a real HTTP server. Returned ranges mirror serveBench's
// 256-query workload so RouterFanout is comparable to ServeHTTP.
func routerBench(b *testing.B, k int) (*cluster.Router, [][2]int) {
	b.Helper()
	const n = 2048
	counts, err := ZipfCounts(n, 1.8, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: method.SAP1, BudgetWords: 64}},
	}
	type nodeJSON struct {
		ID     string `json:"id"`
		Addr   string `json:"addr"`
		Window [2]int `json:"window"`
	}
	nodes := make([]nodeJSON, k)
	width := n / k
	for i := 0; i < k; i++ {
		lo, hi := i*width, (i+1)*width-1
		if i == k-1 {
			hi = n - 1
		}
		owned := make([]int64, n)
		copy(owned[lo:hi+1], counts[lo:hi+1])
		eng, err := engine.New(fmt.Sprintf("bn%d", i), n)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Load(owned); err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(eng, specs, serve.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(serve.NewHandler(srv, serve.NewMetrics()))
		b.Cleanup(ts.Close)
		nodes[i] = nodeJSON{ID: fmt.Sprintf("bn%d", i), Addr: ts.URL, Window: [2]int{lo, hi}}
	}
	raw, err := json.Marshal(map[string]any{"domain": n, "nodes": nodes})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cluster.Parse(raw)
	if err != nil {
		b.Fatal(err)
	}
	router := cluster.NewRouter(topo, cluster.RouterConfig{HealthEvery: -1})
	b.Cleanup(router.Close)

	rng := rand.New(rand.NewSource(9))
	ranges := make([][2]int, 256)
	for i := range ranges {
		a := rng.Intn(n)
		ranges[i] = [2]int{a, a + rng.Intn(n-a)}
	}
	return router, ranges
}

// BenchmarkRouterFanout measures the routed query path over a 4-node
// cluster: 256 single fan-out/merge round trips versus one routed batch
// (which groups sub-ranges per node into one /query/batch each). The
// batch form amortizes both the HTTP overhead and the fan-out, so it is
// the served configuration the cluster quickstart recommends.
func BenchmarkRouterFanout(b *testing.B) {
	router, ranges := routerBench(b, 4)
	ctx := context.Background()
	b.Run("route-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rg := range ranges {
				if _, err := router.Route(ctx, cluster.Query{Synopsis: "h", A: rg[0], B: rg[1]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := router.RouteBatch(ctx, "h", "", ranges, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
