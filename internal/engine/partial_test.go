package engine

import (
	"math"
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/method"
	"rangeagg/internal/segment"
)

func newSegEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := New("seg", n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64((i*29)%13) * 7
	}
	if err := e.Load(counts); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSegmentedPartialRebuild checks the dirty-segment path end to end: a
// point mutation after a segmented build makes the next build of the same
// spec reconstruct only the owning segment, carrying every clean
// segment's histogram over by pointer.
func TestSegmentedPartialRebuild(t *testing.T) {
	e := newSegEngine(t, 512)
	opt := build.Options{Method: method.Segmented, BudgetWords: 40, Segments: 8}
	prev, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	next, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if next == prev {
		t.Fatal("mutated engine returned the previous synopsis unchanged")
	}
	ps, ns := prev.Est.(*segment.Segmented), next.Est.(*segment.Segmented)
	dirty := ps.Find(100)
	for i := range ns.Segs {
		if i == dirty {
			if ns.Segs[i] == ps.Segs[i] {
				t.Errorf("dirty segment %d was not rebuilt", i)
			}
		} else if ns.Segs[i] != ps.Segs[i] {
			t.Errorf("clean segment %d was rebuilt instead of reused", i)
		}
	}
	// The refreshed synopsis serves the new data within its own bound.
	ans, err := e.ApproxWithError("s", 90, 110)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(e.ExactCount(90, 110))
	if d := ans.Value - exact; d > ans.ErrBound || -d > ans.ErrBound {
		t.Errorf("post-rebuild answer %g off exact %g beyond bound %g", ans.Value, exact, ans.ErrBound)
	}
}

// TestSegmentedSynopsisReuse checks the clean fast path: rebuilding an
// unchanged spec on unchanged data returns the existing synopsis.
func TestSegmentedSynopsisReuse(t *testing.T) {
	e := newSegEngine(t, 256)
	opt := build.Options{Method: method.Segmented, BudgetWords: 30, Segments: 4}
	first, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("clean rebuild did not reuse the existing synopsis")
	}
	// A bulk load with mass across the whole domain dirties everything:
	// the next build is a fresh synopsis, not the reused pointer. (A load
	// of all zeros is a no-op and would keep the reuse fast path.)
	bulk := make([]int64, 256)
	for i := range bulk {
		bulk[i] = 1
	}
	if err := e.Load(bulk); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == first {
		t.Error("bulk load did not force a rebuild")
	}
}

// TestApproxCutoverSubstitution checks the engine builds through the
// (1+ε)-approximate construction at or above build.DefaultApproxCutover
// while the registered options keep the exact method. The cutover's
// own cases (default, disabled, CoarsenTo) are pinned by
// build.TestWithApprox.
func TestApproxCutoverSubstitution(t *testing.T) {
	opt := build.Options{Method: method.A0, BudgetWords: 12}

	// Domain 64 is under the cutover; the exact DP builds.
	s, err := newSegEngine(t, 64).BuildSynopsis("exact", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.Est.Name(), "APPROX") {
		t.Errorf("domain under cutover built %q, want the exact construction", s.Est.Name())
	}

	// At the cutover construction switches to the approximate
	// counterpart; the synopsis still registers as A0.
	s, err = newSegEngine(t, build.DefaultApproxCutover).BuildSynopsis("approx", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Est.Name(), "A0-APPROX") {
		t.Errorf("domain at cutover built %q, want the approximate construction", s.Est.Name())
	}
	if s.Options.Method != method.A0 {
		t.Errorf("registered method changed to %v; substitution must not leak into options", s.Options.Method)
	}
}

// TestLoadMarksPreciseWindow pins the precise bulk-load window: a Load
// whose non-zero mass is confined to a narrow value window must leave
// the dirty window partial, so the next build of a SEGMENTED synopsis
// reconstructs only the segments under the loaded mass and carries
// every other segment over by pointer; an all-zero load mutates nothing
// and keeps the synopsis current.
func TestLoadMarksPreciseWindow(t *testing.T) {
	const n = 256
	e := newSegEngine(t, n)
	opt := build.Options{Method: method.Segmented, BudgetWords: 40, Segments: 8}
	prev, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Additional mass confined to [30,45]: marking the whole domain dirty
	// would rebuild every segment.
	batch := make([]int64, n)
	for v := 30; v <= 45; v++ {
		batch[v] = 100
	}
	if err := e.Load(batch); err != nil {
		t.Fatal(err)
	}
	syn, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, ns := prev.Est.(*segment.Segmented), syn.Est.(*segment.Segmented)
	first, last := ps.Find(30), ps.Find(45)
	if last-first+1 == len(ps.Segs) {
		t.Fatalf("window [30,45] spans all %d segments; the test needs untouched ones", len(ps.Segs))
	}
	for i := range ns.Segs {
		touched := i >= first && i <= last
		if touched && ns.Segs[i] == ps.Segs[i] {
			t.Errorf("segment %d under the loaded mass was not rebuilt", i)
		}
		if !touched && ns.Segs[i] != ps.Segs[i] {
			t.Errorf("segment %d outside the loaded mass was rebuilt instead of reused", i)
		}
	}
	if got, want := syn.Est.Estimate(0, n-1), float64(e.ExactCount(0, n-1)); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("partial rebuild lost loaded mass: total %g, exact %g", got, want)
	}

	// An all-zero load mutates nothing and must not dirty the window.
	if err := e.Load(make([]int64, n)); err != nil {
		t.Fatal(err)
	}
	again, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != syn {
		t.Fatal("no-op load invalidated the synopsis")
	}
}
