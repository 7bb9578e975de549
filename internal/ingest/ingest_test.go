package ingest

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rangeagg/internal/dp"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
	"rangeagg/internal/reopt"
	"rangeagg/internal/segment"
	"rangeagg/internal/sse"
)

// mutate applies k random point mutations to counts and returns the
// inclusive window containing all of them.
func mutate(rng *rand.Rand, counts []int64, k int) (int, int) {
	lo, hi := len(counts), -1
	for j := 0; j < k; j++ {
		v := rng.Intn(len(counts))
		d := int64(1 + rng.Intn(9))
		if rng.Intn(3) == 0 && counts[v] >= d {
			counts[v] -= d
		} else {
			counts[v] += d
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// wantAvg is the from-scratch comparator for the absorb contract: the
// values a build over the same boundaries stores for the current data.
func wantAvg(t *testing.T, counts []int64, bk *histogram.Bucketing) *histogram.Avg {
	t.Helper()
	want, err := histogram.NewAvgFromBounds(prefix.NewTable(counts), bk, histogram.RoundNone, "want")
	if err != nil {
		t.Fatalf("comparator build: %v", err)
	}
	return want
}

func sameValues(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value[%d] = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

// TestMaintainAvgBitExact pins the absorb contract: after any
// interleaving of inserts and deletes, the maintained flat histogram
// equals, bit for bit, a from-scratch build over the same boundaries.
func TestMaintainAvgBitExact(t *testing.T) {
	const n, buckets = 512, 16
	rng := rand.New(rand.NewSource(1))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(rng.Intn(20))
	}
	h, err := dp.A0(prefix.NewTable(counts), buckets, histogram.RoundNone)
	if err != nil {
		t.Fatalf("A0: %v", err)
	}
	st := NewState(Config{Mode: ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18})
	cur := method.Estimator(h)
	for batch := 0; batch < 40; batch++ {
		lo, hi := mutate(rng, counts, 1+rng.Intn(8))
		next, out, err := Maintain(counts, cur, lo, hi, st)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if out.Action != Absorb {
			t.Fatalf("batch %d: action %v, want absorb", batch, out.Action)
		}
		if out.Buckets < 1 {
			t.Fatalf("batch %d: no buckets recomputed", batch)
		}
		got := next.(*histogram.Avg)
		want := wantAvg(t, counts, h.Buckets)
		sameValues(t, got.Values, want.Values, "maintained")
		if got.Label != h.Label {
			t.Fatalf("label drifted to %q", got.Label)
		}
		// prev must be untouched: it still matches the data before this
		// batch only, but its structure (values slice) is not shared.
		if &got.Values[0] == &cur.(*histogram.Avg).Values[0] {
			t.Fatal("maintained histogram shares its value slice with prev")
		}
		cur = next
	}
}

// TestMaintainReoptBitExact pins the reopt contract: a maintenance
// batch that re-optimizes equals reopt.Reopt applied to a from-scratch
// build of the same boundaries, bit for bit.
func TestMaintainReoptBitExact(t *testing.T) {
	const n, buckets = 256, 8
	rng := rand.New(rand.NewSource(2))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(rng.Intn(30))
	}
	h, err := dp.A0(prefix.NewTable(counts), buckets, histogram.RoundNone)
	if err != nil {
		t.Fatalf("A0: %v", err)
	}
	st := NewState(Config{Mode: ModeIncremental, ReoptEvery: 1, DriftThreshold: 1e18})
	cur := method.Estimator(h)
	for batch := 0; batch < 10; batch++ {
		lo, hi := mutate(rng, counts, 1+rng.Intn(4))
		next, out, err := Maintain(counts, cur, lo, hi, st)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if out.Action != Reopt {
			t.Fatalf("batch %d: action %v, want reopt", batch, out.Action)
		}
		tab := prefix.NewTable(counts)
		want, err := reopt.Reopt(tab, wantAvg(t, counts, h.Buckets))
		if err != nil {
			t.Fatalf("comparator reopt: %v", err)
		}
		sameValues(t, next.(*histogram.Avg).Values, want.Values, "reoptimized")
		cur = next
	}
}

// TestMaintainSegmentedBitExact pins the absorb contract for the
// segmented composition: touched segments' inner values equal a
// from-scratch build over the segment's sub-table, untouched segments
// are carried over verbatim (same inner histogram).
func TestMaintainSegmentedBitExact(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(rng.Intn(25))
	}
	tab := prefix.NewTable(counts)
	seg, err := segment.Build(tab, counts, segment.BuildOpts{K: 4, BudgetWords: 72})
	if err != nil {
		t.Fatalf("segment build: %v", err)
	}
	st := NewState(Config{Mode: ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18})
	cur := method.Estimator(seg)
	for batch := 0; batch < 20; batch++ {
		// Confine the batch to one segment so reuse is observable.
		si := rng.Intn(seg.SegmentCount())
		sLo, sHi := seg.SegmentBounds(si)
		v := sLo + rng.Intn(sHi-sLo+1)
		counts[v] += int64(1 + rng.Intn(50))
		next, out, err := Maintain(counts, cur, v, v, st)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if out.Action != Absorb || out.Segments != 1 {
			t.Fatalf("batch %d: action %v over %d segments, want absorb over 1", batch, out.Action, out.Segments)
		}
		got := next.(*segment.Segmented)
		prev := cur.(*segment.Segmented)
		for i := 0; i < got.SegmentCount(); i++ {
			lo, hi := got.SegmentBounds(i)
			if i != si {
				if got.Segs[i] != prev.Segs[i] {
					t.Fatalf("batch %d: untouched segment %d was rebuilt", batch, i)
				}
				continue
			}
			sub := prefix.NewTable(counts[lo : hi+1])
			want, err := histogram.NewAvgFromBounds(sub, got.Segs[i].Buckets, histogram.RoundNone, "want")
			if err != nil {
				t.Fatalf("comparator: %v", err)
			}
			sameValues(t, got.Segs[i].Values, want.Values, "touched segment")
		}
		// The composition answers like the comparator everywhere,
		// including ranges spanning the maintained segment's edges.
		for trial := 0; trial < 16; trial++ {
			a := rng.Intn(n)
			b := a + rng.Intn(n-a)
			if e := got.Estimate(a, b); math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("estimate [%d,%d] not finite: %v", a, b, e)
			}
		}
		cur = next
	}
}

// TestDriftLadder drives the repair→escalate arm: uniform data makes the
// baseline tiny, then growing spikes trip the trigger — the first trip
// repairs boundaries (never increasing the SSE), the next escalates.
func TestDriftLadder(t *testing.T) {
	const n, buckets = 256, 8
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = 10
	}
	h, err := dp.A0(prefix.NewTable(counts), buckets, histogram.RoundNone)
	if err != nil {
		t.Fatalf("A0: %v", err)
	}
	st := NewState(Config{Mode: ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.5})
	cur := method.Estimator(h)

	// A benign batch captures the (near-zero) baseline.
	counts[3]++
	next, out, err := Maintain(counts, cur, 3, 3, st)
	if err != nil {
		t.Fatalf("benign batch: %v", err)
	}
	cur = next

	sawRepair := false
	mag := int64(1000)
	rng := rand.New(rand.NewSource(4))
	for batch := 0; batch < 50; batch++ {
		v := rng.Intn(n)
		counts[v] += mag
		mag *= 4
		next, out, err = Maintain(counts, cur, v, v, st)
		if err != nil {
			t.Fatalf("spike batch %d: %v", batch, err)
		}
		if out.Action == Repair {
			sawRepair = true
			tab := prefix.NewTable(counts)
			// Repair must not have made the synopsis worse than plain
			// absorption would be on the same data.
			absorbed, _, err := absorbAvg(tab, cur.(*histogram.Avg), v, v)
			if err != nil {
				t.Fatalf("absorb reference: %v", err)
			}
			if got, ref := sse.FromCumulative(tab, next.(*histogram.Avg)), sse.FromCumulative(tab, absorbed); got > ref*(1+1e-9) {
				t.Fatalf("repair raised SSE: %g > %g", got, ref)
			}
		}
		if out.Action == Escalate {
			if !sawRepair {
				t.Fatal("escalated before ever repairing")
			}
			if next != nil {
				t.Fatal("escalate returned an estimator")
			}
			// The caller's contract: rebuild, then Reset restarts the ladder.
			reb, err := dp.A0(prefix.NewTable(counts), buckets, histogram.RoundNone)
			if err != nil {
				t.Fatalf("escalation rebuild: %v", err)
			}
			st.Reset()
			counts[7]++
			after, out2, err := Maintain(counts, reb, 7, 7, st)
			if err != nil || out2.Action != Absorb || after == nil {
				t.Fatalf("post-escalation maintain: action %v err %v", out2.Action, err)
			}
			return
		}
		cur = next
	}
	t.Fatalf("ladder never escalated (sawRepair=%v)", sawRepair)
}

// TestObserveFeedsTrigger checks the observed-query ring replaces the
// synthetic grid: queries confined to a quiet region keep drift at bay
// even while an unobserved region degrades.
func TestObserveFeedsTrigger(t *testing.T) {
	const n, buckets = 256, 8
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = 10
	}
	// Equal-width boundaries, pinned explicitly: the DP would tie-break
	// arbitrarily on uniform data, and this test needs the tail bucket
	// disjoint from the observed region.
	starts := make([]int, buckets)
	for i := range starts {
		starts[i] = i * n / buckets
	}
	bk, err := histogram.NewBucketing(n, starts)
	if err != nil {
		t.Fatalf("bucketing: %v", err)
	}
	h, err := histogram.NewAvgFromBounds(prefix.NewTable(counts), bk, histogram.RoundNone, "equi")
	if err != nil {
		t.Fatalf("from bounds: %v", err)
	}
	st := NewState(Config{Mode: ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.5})
	// The observed workload only ever touches the first quarter, plus a
	// couple of out-of-domain ranges that must be clamped, not crash.
	for i := 0; i < 64; i++ {
		st.Observe(i%32, i%32+16)
	}
	st.Observe(-10, 5)
	st.Observe(n-5, n+100)
	cur := method.Estimator(h)
	counts[0]++
	if cur, _, err = Maintain(counts, cur, 0, 0, st); err != nil {
		t.Fatalf("baseline batch: %v", err)
	}
	// Hammer the unobserved tail: the trigger must not fire, because the
	// workload it guards never reads there.
	for batch := 0; batch < 10; batch++ {
		v := n - 1 - batch
		counts[v] += 1 << (10 + batch)
		next, out, err := Maintain(counts, cur, v, v, st)
		if err != nil {
			t.Fatalf("tail batch %d: %v", batch, err)
		}
		if out.Action != Absorb {
			t.Fatalf("tail batch %d: action %v, want absorb (workload never reads the tail)", batch, out.Action)
		}
		cur = next
	}
}

func TestMaintainValidation(t *testing.T) {
	counts := []int64{1, 2, 3, 4}
	h, err := dp.A0(prefix.NewTable(counts), 2, histogram.RoundNone)
	if err != nil {
		t.Fatalf("A0: %v", err)
	}
	st := NewState(Config{})
	if _, _, err := Maintain(counts, nil, 0, 0, st); err == nil {
		t.Fatal("nil estimator accepted")
	}
	if _, _, err := Maintain(counts[:3], h, 0, 0, st); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := Maintain(counts, h, 3, 1, st); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := Maintain(counts, unmaintainable{}, 0, 0, st); err == nil {
		t.Fatal("unmaintainable estimator accepted")
	}
	// Out-of-domain windows clamp.
	if _, out, err := Maintain(counts, h, -5, 99, st); err != nil || out.Buckets != 2 {
		t.Fatalf("clamped window: buckets=%d err=%v", out.Buckets, err)
	}
}

type unmaintainable struct{}

func (unmaintainable) Estimate(a, b int) float64 { return 0 }
func (unmaintainable) N() int                    { return 4 }
func (unmaintainable) Name() string              { return "unmaintainable" }
func (unmaintainable) StorageWords() int         { return 0 }

func TestCanMaintain(t *testing.T) {
	counts := []int64{1, 2, 3, 4}
	h, _ := dp.A0(prefix.NewTable(counts), 2, histogram.RoundNone)
	if !CanMaintain(h) {
		t.Fatal("flat Avg not maintainable")
	}
	if CanMaintain(unmaintainable{}) {
		t.Fatal("arbitrary estimator claimed maintainable")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeRebuild}, {"rebuild", ModeRebuild}, {"incremental", ModeIncremental}, {"Incremental", ModeIncremental}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if ModeRebuild.String() != "rebuild" || ModeIncremental.String() != "incremental" {
		t.Fatal("mode names drifted")
	}
	if !(&Config{Mode: ModeIncremental}).Enabled() || (&Config{}).Enabled() {
		t.Fatal("Enabled gate wrong")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{Absorb: "absorb", Reopt: "reopt", Repair: "repair", Escalate: "escalate"} {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

// TestObserveDoesNotWaitOnMaintain holds the ladder lock, as a running
// maintenance batch does, and requires Observe to return anyway and to
// record its range for the next batch.
func TestObserveDoesNotWaitOnMaintain(t *testing.T) {
	st := NewState(Config{Mode: ModeIncremental})
	st.mu.Lock()
	done := make(chan struct{})
	go func() {
		st.Observe(3, 9)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe blocked while the ladder lock was held")
	}
	st.mu.Unlock()
	if w := st.workload(16); len(w) != 1 || w[0] != (sse.Range{A: 3, B: 9}) {
		t.Fatalf("workload after Observe = %v, want [{3 9}]", w)
	}

	// Observers racing real maintenance batches (run under -race).
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(1 + i%5)
	}
	bk, err := histogram.NewBucketing(64, []int{0, 16, 32, 48})
	if err != nil {
		t.Fatal(err)
	}
	var prev method.Estimator = wantAvg(t, counts, bk)
	stop := make(chan struct{})
	observers := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { observers <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					st.Observe(i%64, (i+g*7)%64)
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		lo, hi := mutate(rng, counts, 2)
		next, res, err := Maintain(counts, prev, lo, hi, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Action == Escalate {
			st.Reset()
			continue
		}
		prev = next
	}
	close(stop)
	<-observers
	<-observers
}
