package advisor

import (
	"math"
	"testing"

	"rangeagg/internal/dataset"
	"rangeagg/internal/method"
	"rangeagg/internal/parallel"
	"rangeagg/internal/sse"
)

func paperCounts(t *testing.T) []int64 {
	t.Helper()
	d, err := dataset.Zipf(dataset.ZipfConfig{N: 63, Alpha: 1.8, MaxCount: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d.Counts
}

func TestRecommendRanksByWorkloadError(t *testing.T) {
	counts := paperCounts(t)
	cands, err := Recommend(counts, nil, Config{BudgetWords: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].SSE > cands[i].SSE {
			t.Fatalf("not sorted: %g before %g", cands[i-1].SSE, cands[i].SSE)
		}
	}
	best, err := Best(cands)
	if err != nil {
		t.Fatal(err)
	}
	// On the all-ranges metric, the winner must be one of the range-aware
	// methods; NAIVE must rank last among successful candidates.
	if best.Method == method.Naive {
		t.Errorf("NAIVE won: %+v", best)
	}
	last := cands[len(cands)-1]
	if last.Err == nil && last.Method != method.Naive {
		// SAP1 at 24 words has only 4 buckets; either it or NAIVE ends last.
		if last.Method != method.SAP1 && last.Method != method.WaveAA2D && last.Method != method.SAP0 {
			t.Logf("unexpected last place: %+v (informational)", last)
		}
	}
}

func TestRecommendWithWorkload(t *testing.T) {
	counts := paperCounts(t)
	workload := sse.ShortRanges(len(counts), 300, 5, 7)
	cands, err := Recommend(counts, workload, Config{BudgetWords: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Err != nil {
			t.Errorf("%s failed: %v", c.Method, c.Err)
			continue
		}
		if math.IsNaN(c.RMS) || c.RMS < 0 {
			t.Errorf("%s: bad RMS %g", c.Method, c.RMS)
		}
		if c.StorageWords > 24 && c.Method != method.Naive {
			t.Errorf("%s: %d words over budget", c.Method, c.StorageWords)
		}
	}
}

func TestRecommendRestrictedMethods(t *testing.T) {
	counts := paperCounts(t)
	cands, err := Recommend(counts, nil, Config{
		BudgetWords: 16,
		Methods:     []method.ID{method.A0, method.Naive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].Method != method.A0 {
		t.Errorf("winner = %s, want A0", cands[0].Method)
	}
}

// TestRecommendSweepsEpsilon pins the approximate families' ε expansion:
// each Approximate-capability method contributes one candidate per swept
// ε (with per-candidate build time and SSE, so the ranking reports the
// build-time-vs-quality trade-off), exact methods exactly one with ε = 0,
// and Require-capability filtering composes with the sweep.
func TestRecommendSweepsEpsilon(t *testing.T) {
	counts := paperCounts(t)
	cands, err := Recommend(counts, nil, Config{BudgetWords: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perMethod := map[method.ID]map[float64]int{}
	for _, c := range cands {
		if perMethod[c.Method] == nil {
			perMethod[c.Method] = map[float64]int{}
		}
		perMethod[c.Method][c.Epsilon]++
		if c.Err == nil && c.BuildTime <= 0 {
			t.Errorf("%s(ε=%g): no build time measured", c.Method, c.Epsilon)
		}
	}
	for m, eps := range perMethod {
		d, err := method.Lookup(m)
		if err != nil {
			t.Fatal(err)
		}
		if d.Caps.Has(method.Approximate) {
			for _, want := range []float64{0.05, 0.1, 0.25} {
				if eps[want] != 1 {
					t.Errorf("%s: ε=%g appears %d times, want 1", m, want, eps[want])
				}
			}
		} else if len(eps) != 1 || eps[0] != 1 {
			t.Errorf("%s: ε set %v, want exactly {0}", m, eps)
		}
	}
	// A custom sweep replaces the default.
	cands, err = Recommend(counts, nil, Config{
		BudgetWords: 24, Seed: 1,
		Methods:  []method.ID{method.SAP0Approx},
		Epsilons: []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Epsilon != 0.5 {
		t.Fatalf("custom sweep: %+v", cands)
	}
	// Require filtering still composes: only the approximate families carry
	// the Approximate capability.
	cands, err = Recommend(counts, nil, Config{
		BudgetWords: 24, Seed: 1, Require: method.Approximate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 9 { // 3 approx methods × 3 default ε
		t.Fatalf("Require(approximate): %d candidates, want 9", len(cands))
	}
	for _, c := range cands {
		if c.Err != nil {
			t.Errorf("%s(ε=%g): %v", c.Method, c.Epsilon, c.Err)
		}
	}
}

func TestRecommendSkipsExactOnLargeDomains(t *testing.T) {
	counts := make([]int64, 600)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	cands, err := Recommend(counts, sse.RandomRanges(600, 50, 1), Config{BudgetWords: 16, ExactLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Method == method.OptA || c.Method == method.OptARounded {
			t.Errorf("exact family not skipped: %s", c.Method)
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	if _, err := Recommend(nil, nil, Config{BudgetWords: 8}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := Recommend([]int64{1}, nil, Config{}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestBestSkipsFailures(t *testing.T) {
	if _, err := Best(nil); err == nil {
		t.Error("empty candidate list accepted")
	}
	cands := []Candidate{
		{Method: method.OptA, Err: errFake{}},
		{Method: method.A0, SSE: 5},
	}
	best, err := Best(cands)
	if err != nil {
		t.Fatal(err)
	}
	if best.Method != method.A0 {
		t.Errorf("best = %s", best.Method)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

// TestRecommendDeterministicAcrossPoolWidths pins the concurrent sweep's
// reproducibility: the full ranking (methods, SSEs, storage) must be
// identical at any worker-pool width.
func TestRecommendDeterministicAcrossPoolWidths(t *testing.T) {
	counts := make([]int64, 40)
	for i := range counts {
		counts[i] = int64(500 / (i + 1))
	}
	cfg := Config{BudgetWords: 16, Seed: 1}
	prev := parallel.SetWorkers(1)
	serial, err := Recommend(counts, nil, cfg)
	parallel.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		prev := parallel.SetWorkers(workers)
		got, err := Recommend(counts, nil, cfg)
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("w=%d: %d candidates, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Method != serial[i].Method || got[i].SSE != serial[i].SSE ||
				got[i].StorageWords != serial[i].StorageWords {
				t.Errorf("w=%d: rank %d = %s (SSE %v), serial has %s (SSE %v)",
					workers, i, got[i].Method, got[i].SSE, serial[i].Method, serial[i].SSE)
			}
		}
	}
}
