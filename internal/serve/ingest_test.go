package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/histogram"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

func incrementalCfg() Config {
	return Config{
		Debounce: time.Hour, // rebuilds only when the tests call Rebuild
		Ingest:   ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18},
	}
}

func newIngestServer(t *testing.T, domain int, cfg Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("test", domain)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, domain)
	for i := range counts {
		counts[i] = int64(i%11 + 1)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "flat", Metric: engine.Count, Options: build.Options{Method: method.A0, BudgetWords: 24}},
		{Name: "seg", Metric: engine.Count, Options: build.Options{Method: method.Segmented, BudgetWords: 48, Segments: 4}},
	}
	s, err := New(eng, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return eng, s
}

// TestServeIncrementalMaintains pins the serving-layer ladder: confined
// inserts are absorbed (not rebuilt), the maintenance counters advance,
// and every published answer stays inside its rigorous bound.
func TestServeIncrementalMaintains(t *testing.T) {
	_, s := newIngestServer(t, 256, incrementalCfg())
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 8; batch++ {
		v := 10 + batch*7
		if err := s.Insert(v, 50); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap := s.Snapshot()
		for _, name := range []string{"flat", "seg"} {
			syn, err := snap.Synopsis(name)
			if err != nil {
				t.Fatal(err)
			}
			if syn.ErrModel == nil {
				t.Fatalf("batch %d %s: maintained publish lost its error model", batch, name)
			}
			exact := float64(snap.ExactCount(0, 255))
			resid := math.Abs(syn.Est.Estimate(0, 255) - exact)
			if bound := syn.ErrModel.Bound(0, 255); resid > bound+1e-6 {
				t.Fatalf("batch %d %s: residual %g exceeds bound %g", batch, name, resid, bound)
			}
		}
	}
	st := s.IngestStats()
	// Two maintained synopses, eight confined batches each.
	if st.Absorbed != 16 || st.RebuildsAvoided != 16 || st.Escalated != 0 {
		t.Fatalf("ingest stats = %+v, want 16 absorbed, 16 avoided", st)
	}
}

// TestServeMaintainedPublishFresh pins answer freshness across
// maintained publishes: a server that answered queries before an
// absorbed write must, after the publish, answer exactly (==) what a
// fresh server that saw the same data and writes but never served a
// query answers — no answer outlives the snapshot it came from.
func TestServeMaintainedPublishFresh(t *testing.T) {
	_, s := newIngestServer(t, 256, incrementalCfg())
	_, fresh := newIngestServer(t, 256, incrementalCfg())
	ranges := [][2]int{{20, 120}, {0, 255}, {55, 65}, {130, 250}}
	queries := func(srv *Server) []Result {
		var out []Result
		for _, name := range []string{"flat", "seg"} {
			for _, r := range ranges {
				res, _ := srv.QueryOne(Query{Synopsis: name, A: r[0], B: r[1]})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	before := queries(s)

	// Mass lands inside the queried ranges; the publish is a maintained
	// absorb, not a rebuild.
	for _, srv := range []*Server{s, fresh} {
		if err := srv.Insert(60, 10_000); err != nil {
			t.Fatal(err)
		}
		if err := srv.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if st := srv.IngestStats(); st.Absorbed == 0 || st.Escalated != 0 {
			t.Fatalf("publish did not maintain: %+v", st)
		}
	}
	after, want := queries(s), queries(fresh)
	for i := range after {
		if after[i] != want[i] {
			t.Fatalf("query %d after a maintained publish: got %+v, a fresh server answers %+v", i, after[i], want[i])
		}
	}
	if after[0].Value == before[0].Value {
		t.Fatalf("maintained publish not visible: %g both before and after 10k inserts in range", after[0].Value)
	}
	// And the exact path agrees with the engine post-publish.
	zero := 0.0
	exact, _ := s.QueryOne(Query{Synopsis: "flat", A: 20, B: 120, MaxErr: &zero})
	if exact.Value != float64(s.Snapshot().ExactCount(20, 120)) {
		t.Fatalf("exact path stale: %g", exact.Value)
	}
}

// TestServeLoadPartialWindow pins the satellite fix at the serving
// layer: a bulk /load whose mass is confined to a narrow window keeps
// the rebuild partial, so untouched segments are reused instead of
// re-run through the DP.
func TestServeLoadPartialWindow(t *testing.T) {
	// Rebuild-mode config: the segmented spec exercises the dirty-segment
	// path, which reports reuse through SegmentStats.
	eng, s := newIngestServer(t, 512, Config{Debounce: time.Hour})
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	before := s.SegmentStats()

	batch := make([]int64, 512)
	for v := 40; v <= 70; v++ {
		batch[v] = 25
	}
	if err := s.Load(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after := s.SegmentStats()
	if after.Reused <= before.Reused {
		t.Fatalf("confined bulk load reused no segments: before %+v after %+v", before, after)
	}
	if got, want := s.Snapshot().ExactCount(40, 70), eng.ExactCount(40, 70); got != want {
		t.Fatalf("post-load snapshot stale: %d vs %d", got, want)
	}

	// A load spanning the whole domain still goes full.
	wide := make([]int64, 512)
	wide[0], wide[511] = 1, 1
	if err := s.Load(wide); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

// TestServeEscalationRebuilds drives drift through the serving layer:
// when maintenance escalates, Rebuild falls back to the rebuild paths,
// counts the escalation, and keeps publishing covered answers.
func TestServeEscalationRebuilds(t *testing.T) {
	cfg := Config{
		Debounce: time.Hour,
		Ingest:   ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.1},
	}
	_, s := newIngestServer(t, 256, cfg)
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	mag := int64(1 << 8)
	var prior IngestStats
	escalated, resumed := false, false
	for batch := 0; batch < 30; batch++ {
		if err := s.Insert((batch*53)%256, mag); err != nil {
			t.Fatal(err)
		}
		mag *= 2
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		// Maintenance resumes after an escalation: some later publish
		// absorbs the confined batch into both synopses again.
		st := s.IngestStats()
		if escalated && st.Absorbed-prior.Absorbed == 2 {
			resumed = true
		}
		escalated = escalated || st.Escalated > 0
		prior = st
		snap := s.Snapshot()
		syn, err := snap.Synopsis("seg")
		if err != nil {
			t.Fatal(err)
		}
		exact := float64(snap.ExactCount(0, 255))
		resid := math.Abs(syn.Est.Estimate(0, 255) - exact)
		if bound := syn.ErrModel.Bound(0, 255); resid > bound+1e-6 {
			t.Fatalf("batch %d: residual %g exceeds bound %g", batch, resid, bound)
		}
	}
	st := s.IngestStats()
	if st.Escalated == 0 {
		t.Fatalf("drift ladder never escalated under exploding inserts: %+v", st)
	}
	if st.Repaired == 0 {
		t.Fatalf("ladder escalated without ever repairing: %+v", st)
	}
	if st.Absorbed+st.Reoptimized+st.Repaired != st.RebuildsAvoided {
		t.Fatalf("avoided-rebuild accounting off: %+v", st)
	}
	if !resumed {
		t.Fatalf("no confined batch was absorbed by both synopses after the first escalation: %+v", st)
	}
}

// TestServeRebuildModeUnchanged pins that the default mode keeps the
// pre-ingest behaviour: no maintenance state, no counters.
func TestServeRebuildModeUnchanged(t *testing.T) {
	_, s := newIngestServer(t, 128, Config{Debounce: time.Hour})
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(5, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st := s.IngestStats(); st != (IngestStats{}) {
		t.Fatalf("rebuild mode accrued ingest stats: %+v", st)
	}
}

// TestServeFullRebuildResetsDrift pins the reset rule: a maintained
// spec that is built rather than maintained (here: a full rebuild after
// MarkDirty) restarts maintenance from the rebuilt synopsis. Otherwise
// the next confined batch is measured against the drift baseline of the
// synopsis before the rebuild — on 1000× the mass, a spurious trip that
// moves boundaries for no drift at all.
func TestServeFullRebuildResetsDrift(t *testing.T) {
	cfg := Config{
		Debounce: time.Hour,
		Ingest:   ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.5},
	}
	eng, s := newIngestServer(t, 256, cfg)
	// One maintained publish gives both synopses a drift baseline.
	if err := s.Insert(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st := s.IngestStats(); st.Absorbed != 2 {
		t.Fatalf("first confined batch not absorbed: %+v", st)
	}

	// A direct engine load the server cannot locate: MarkDirty makes the
	// next publish a full rebuild of both synopses.
	mass := make([]int64, 256)
	for i := range mass {
		mass[i] = 1000 * int64(i%11+1)
	}
	if err := eng.Load(mass); err != nil {
		t.Fatal(err)
	}
	s.MarkDirty()
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// One record is no drift: the batch is absorbed against the rebuilt
	// synopses' own baselines.
	if err := s.Insert(20, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st := s.IngestStats(); st.Absorbed != 4 || st.Repaired != 0 || st.Escalated != 0 {
		t.Fatalf("confined batch after a full rebuild: %+v, want 4 absorbed, none repaired", st)
	}
}

// TestServeIngestOracleDifferential pins maintained == rebuilt on the
// production path: after every publish of random inserts and deletes,
// each maintained synopsis (flat A0 and SEGMENTED) equals, bit for bit,
// a from-scratch average histogram over the same boundaries — per
// segment against the segment's own sub-table — and its rigorous error
// bound covers the oracle residual on a grid of ranges. The untrippable
// drift threshold and disabled reopt keep every batch on the absorb
// rung, so boundaries never move.
func TestServeIngestOracleDifferential(t *testing.T) {
	const n = 128
	eng, s := newIngestServer(t, n, incrementalCfg())
	snap := s.Snapshot()
	flat0, err := snap.Synopsis("flat")
	if err != nil {
		t.Fatal(err)
	}
	seg0, err := snap.Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	flatBk := flat0.Est.(*histogram.Avg).Buckets
	seg0Est := seg0.Est.(*segment.Segmented)

	rng := rand.New(rand.NewSource(11))
	const publishes = 25
	for pub := 0; pub < publishes; pub++ {
		for j := 0; j < 1+rng.Intn(6); j++ {
			v := rng.Intn(n)
			if rng.Intn(3) == 0 {
				if cur := eng.Counts()[v]; cur > 0 {
					if err := s.Delete(v, 1+rng.Int63n(cur)); err != nil {
						t.Fatalf("delete: %v", err)
					}
				}
			} else if err := s.Insert(v, 1+rng.Int63n(9)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		if err := s.Rebuild(); err != nil {
			t.Fatalf("publish %d: %v", pub, err)
		}
		snap := s.Snapshot()
		counts := eng.Counts()
		tab := prefix.NewTable(counts)

		flat, err := snap.Synopsis("flat")
		if err != nil {
			t.Fatal(err)
		}
		got := flat.Est.(*histogram.Avg)
		if !got.Buckets.Equal(flatBk) {
			t.Fatalf("publish %d: flat boundaries moved on the absorb rung", pub)
		}
		want, err := histogram.NewAvgFromBounds(tab, flatBk, histogram.RoundNone, "want")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("publish %d flat bucket %d: maintained %v, from-scratch %v (bit-exact required)",
					pub, i, got.Values[i], want.Values[i])
			}
		}

		seg, err := snap.Synopsis("seg")
		if err != nil {
			t.Fatal(err)
		}
		gs := seg.Est.(*segment.Segmented)
		if len(gs.Segs) != len(seg0Est.Segs) {
			t.Fatalf("publish %d: segment count %d, want %d", pub, len(gs.Segs), len(seg0Est.Segs))
		}
		for i, h := range gs.Segs {
			if gs.Starts[i] != seg0Est.Starts[i] || !h.Buckets.Equal(seg0Est.Segs[i].Buckets) {
				t.Fatalf("publish %d: segment %d layout moved on the absorb rung", pub, i)
			}
			lo, hi := gs.SegmentBounds(i)
			want, err := histogram.NewAvgFromBounds(prefix.NewTable(counts[lo:hi+1]), h.Buckets, histogram.RoundNone, "want")
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Values {
				if h.Values[k] != want.Values[k] {
					t.Fatalf("publish %d segment %d bucket %d: maintained %v, from-scratch %v (bit-exact required)",
						pub, i, k, h.Values[k], want.Values[k])
				}
			}
		}

		for _, syn := range []*Synopsis{flat, seg} {
			if syn.ErrModel == nil || !syn.ErrModel.Rigorous() {
				t.Fatalf("publish %d %s: maintained synopsis lost its rigorous error model", pub, syn.Name)
			}
			for a := 0; a < n; a += 7 {
				for b := a; b < n; b += 13 {
					resid := math.Abs(syn.Est.Estimate(a, b) - tab.SumF(a, b))
					if bound := syn.ErrModel.Bound(a, b); resid > bound+1e-6 {
						t.Fatalf("publish %d %s: residual %g exceeds bound %g on [%d,%d]",
							pub, syn.Name, resid, bound, a, b)
					}
				}
			}
		}
	}
	if st := s.IngestStats(); st.Absorbed != 2*publishes || st.RebuildsAvoided != 2*publishes {
		t.Fatalf("ingest stats = %+v, want every publish absorbed by both synopses", st)
	}
}
