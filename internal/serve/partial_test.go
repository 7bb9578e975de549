package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/segment"
)

func newSegServer(t *testing.T, domain int, cfg Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("seg", domain)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, domain)
	for i := range counts {
		counts[i] = int64((i*31)%11) * 5
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{{
		Name: "seg", Metric: engine.Count,
		Options: build.Options{Method: method.Segmented, BudgetWords: 40, Segments: 8},
	}}
	s, err := New(eng, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return eng, s
}

// TestServePartialRebuild checks the server's dirty-window path: a point
// insert followed by a rebuild reconstructs only the owning segment of
// the segmented synopsis and bumps the rebuilt/reused counters.
func TestServePartialRebuild(t *testing.T) {
	_, s := newSegServer(t, 512, Config{Debounce: time.Hour})
	prev, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	before := s.SegmentStats()

	if err := s.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	next, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
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
	st := s.SegmentStats()
	if st.Rebuilt-before.Rebuilt != 1 || st.Reused-before.Reused != int64(len(ns.Segs)-1) {
		t.Errorf("stats delta = %+v − %+v, want 1 rebuilt / %d reused", st, before, len(ns.Segs)-1)
	}
	// The refreshed snapshot answers the mutated range within its bound.
	res, _ := s.QueryOne(Query{Synopsis: "seg", A: 90, B: 110})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	exact := float64(s.Snapshot().ExactCount(90, 110))
	if d := math.Abs(res.Value - exact); d > res.Bound {
		t.Errorf("answer %g off exact %g beyond bound %g", res.Value, exact, res.Bound)
	}
}

// TestServeSynopsisReuse checks the clean fast path: a rebuild with no
// mutations since the last one carries the synopsis (estimator and error
// model) into the new snapshot verbatim.
func TestServeSynopsisReuse(t *testing.T) {
	_, s := newSegServer(t, 256, Config{Debounce: time.Hour})
	prev, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	before := s.SegmentStats().SynopsesReused
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	next, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	if next.Est != prev.Est || next.ErrModel != prev.ErrModel {
		t.Error("clean rebuild did not carry the synopsis over verbatim")
	}
	if got := s.SegmentStats().SynopsesReused - before; got != 1 {
		t.Errorf("SynopsesReused delta = %d, want 1", got)
	}
	// MarkDirty (an untracked external mutation) forces a full rebuild
	// even though the engine data is unchanged.
	s.markAll()
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	full, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	if full.Est == next.Est {
		t.Error("MarkDirty did not force a rebuild")
	}
}

// TestServeApproxCutover pins the serve-layer cutover: full rebuilds on
// a domain of build.DefaultApproxCutover construct through the
// approximate counterpart while registered options keep the exact
// method, and a small domain stays on the exact path.
func TestServeApproxCutover(t *testing.T) {
	specs := []engine.SynopsisSpec{{
		Name: "a", Metric: engine.Count,
		Options: build.Options{Method: method.A0, BudgetWords: 12},
	}}
	for _, tc := range []struct {
		domain int
		approx bool
	}{{build.DefaultApproxCutover, true}, {64, false}} {
		eng, err := engine.New("cutover", tc.domain)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, tc.domain)
		for i := range counts {
			counts[i] = int64(i % 7)
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		s, err := New(eng, specs, Config{Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		syn, err := s.Snapshot().Synopsis("a")
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(syn.Est.Name(), "A0-APPROX"); got != tc.approx {
			t.Errorf("domain %d built %q, want approximate construction %v", tc.domain, syn.Est.Name(), tc.approx)
		}
		if syn.Options.Method != method.A0 {
			t.Errorf("registered method changed to %v", syn.Options.Method)
		}
	}
}
