package rangeagg

import (
	"math"
	"testing"
)

func TestRecommendFacade(t *testing.T) {
	counts := PaperCounts()
	recs, err := Recommend(counts, ShortRanges(len(counts), 200, 8, 3), 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].Failed && !recs[i].Failed && recs[i-1].SSE > recs[i].SSE {
			t.Fatalf("not ranked: %g before %g", recs[i-1].SSE, recs[i].SSE)
		}
	}
	if recs[0].Failed {
		t.Fatalf("winner failed: %+v", recs[0])
	}
	if recs[0].Method == Naive {
		t.Error("NAIVE won a range workload")
	}
}

func TestRecommendSynopsisRegistersWinner(t *testing.T) {
	counts := PaperCounts()
	eng, err := NewEngine("col", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	win, err := eng.RecommendSynopsis("auto", Count, RandomRanges(len(counts), 100, 2), 24)
	if err != nil {
		t.Fatal(err)
	}
	info, err := eng.Describe("auto")
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != win.Method.String() {
		t.Errorf("registered %q, winner %q", info.Method, win.Method)
	}
}

func TestDynamicSynopsis(t *testing.T) {
	counts := PaperCounts()
	d, err := NewDynamic(counts, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 127 || d.Name() == "" {
		t.Fatalf("metadata: n=%d name=%q", d.N(), d.Name())
	}
	if d.StorageWords() > 32 {
		t.Errorf("storage %d over budget", d.StorageWords())
	}
	before := d.Estimate(0, 126)
	if err := d.Update(0, 500); err != nil {
		t.Fatal(err)
	}
	after := d.Estimate(0, 126)
	// The full-domain estimate must track the added mass closely (the
	// prefix-domain synopsis answers the full range via P̂[n]−P̂[0]).
	if after-before < 250 {
		t.Fatalf("update not reflected: %g → %g", before, after)
	}
	if d.Total() != int64(before)+500 && d.Total() <= 0 {
		t.Errorf("total tracking broken: %d", d.Total())
	}
	// Validation.
	if err := d.Update(500, 1); err == nil {
		t.Error("out-of-domain update accepted")
	}
	// A delta that would drive one value's count negative is refused even
	// though the total stays positive, and leaves the state untouched.
	total, est := d.Total(), d.Estimate(3, 40)
	if err := d.Update(5, -(counts[5] + 1)); err == nil {
		t.Errorf("update driving counts[5]=%d negative accepted", counts[5])
	}
	if d.Total() != total || d.Estimate(3, 40) != est {
		t.Errorf("refused update changed the state: total %d→%d, estimate %g→%g", total, d.Total(), est, d.Estimate(3, 40))
	}
	if err := d.Update(5, -counts[5]); err != nil {
		t.Errorf("update to exactly zero refused: %v", err)
	}
	if _, err := NewDynamic(counts, 1); err == nil {
		t.Error("budget 1 accepted")
	}
	if _, err := NewDynamic([]int64{-1}, 8); err == nil {
		t.Error("negative counts accepted")
	}
}

// TestDynamicMatchesStaticAfterUpdates: after updates the dynamic
// synopsis answers every range bit-identically to the static
// construction on the final data.
func TestDynamicMatchesStaticAfterUpdates(t *testing.T) {
	counts := append([]int64(nil), PaperCounts()...)
	d, err := NewDynamic(counts, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := (i * 13) % len(counts)
		if err := d.Update(v, 7); err != nil {
			t.Fatal(err)
		}
		counts[v] += 7
	}
	static, err := Build(counts, Options{Method: WaveRangeOpt, BudgetWords: 24})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(counts); a++ {
		for b := a; b < len(counts); b++ {
			if got, want := d.Estimate(a, b), static.Estimate(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("[%d,%d]: dynamic %v != static %v", a, b, got, want)
			}
		}
	}
	if d.StorageWords() != static.StorageWords() {
		t.Fatalf("dynamic publishes %d words, static %d", d.StorageWords(), static.StorageWords())
	}
}
