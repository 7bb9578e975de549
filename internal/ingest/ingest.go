// Package ingest maintains built synopses incrementally under streaming
// mutations, replacing the rebuild-per-write pattern with a decision
// ladder whose cost is proportional to the delta:
//
//  1. absorb — recompute only the bucket values covering the mutated
//     window from the fresh prefix table. For average-representation
//     histograms this reproduces, bit for bit, the values a from-scratch
//     build over the same boundaries would store (prefix sums of integer
//     counts are exact in float64 below 2^53, and the identical
//     tab.Avg code path is used), so absorption is not an approximation
//     of a rebuild: it is one, minus the redundant work.
//  2. reopt — every ReoptEvery absorbed batches, re-solve the paper's §5
//     normal equations 2xQ+g=0 (internal/reopt) on the fixed boundaries,
//     restoring the SSE-optimal values without touching the partition.
//  3. repair — when the workload-driven SSE-drift trigger fires, move
//     bucket boundaries by local search (internal/dp.ImproveBoundaries)
//     instead of re-running the construction DP.
//  4. escalate — when drift persists after a repair, hand the synopsis
//     back to the caller for a dirty-segment rebuild (internal/segment)
//     or a full build; maintenance restarts from the rebuilt state.
//
// The drift trigger follows Buccafurri et al.'s probabilistic framing
// (PAPERS.md): the quantity that matters is the error the *observed*
// workload sees, not the all-ranges SSE, so each State keeps a sampled
// ring of recently answered ranges and compares the synopsis's SSE over
// that ring against a baseline captured right after the last build,
// reopt, or repair. A ratio above DriftThreshold means the data under
// the hot ranges has shifted enough that value maintenance alone no
// longer holds the error — time to move boundaries (repair) or re-plan
// the layout (escalate).
package ingest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rangeagg/internal/dp"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/prefix"
	"rangeagg/internal/reopt"
	"rangeagg/internal/segment"
	"rangeagg/internal/sse"
)

// Maintenance metrics (process-wide): one counter per ladder action, the
// rebuilds the ladder made unnecessary, and the latency of each
// maintenance batch — the sustained-throughput signal (batches/sec is
// the histogram count over wall time, and each batch acknowledges every
// mutation absorbed since the last one).
var (
	absorbedTotal    = obs.Default.Counter("rangeagg_ingest_absorbed_total")
	reoptimizedTotal = obs.Default.Counter("rangeagg_ingest_reoptimized_total")
	repairedTotal    = obs.Default.Counter("rangeagg_ingest_repaired_total")
	escalatedTotal   = obs.Default.Counter("rangeagg_ingest_escalated_total")
	rebuildsAvoided  = obs.Default.Counter("rangeagg_ingest_rebuilds_avoided_total")
	maintainSeconds  = obs.Default.Histogram("rangeagg_ingest_maintain_seconds")
)

// Mode selects how a serving layer reacts to point mutations.
type Mode int

const (
	// ModeRebuild (the zero value) keeps the pre-ingest behaviour: every
	// mutation window is handed to the rebuild paths.
	ModeRebuild Mode = iota
	// ModeIncremental maintains maintainable synopses in place through
	// the absorb/reopt/repair/escalate ladder.
	ModeIncremental
)

// String names the mode (the -ingest-mode flag values).
func (m Mode) String() string {
	if m == ModeIncremental {
		return "incremental"
	}
	return "rebuild"
}

// ParseMode resolves a mode from its flag spelling.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "rebuild":
		return ModeRebuild, nil
	case "incremental":
		return ModeIncremental, nil
	}
	return 0, fmt.Errorf("ingest: unknown mode %q (want rebuild or incremental)", s)
}

// Config tunes one synopsis's maintenance; zero values select defaults.
type Config struct {
	// Mode gates maintenance; ModeRebuild disables it entirely.
	Mode Mode
	// DriftThreshold is the ratio of current workload SSE to the
	// post-build baseline above which the ladder stops trusting value
	// maintenance (first trip repairs boundaries, a trip persisting past
	// a repair escalates). Default 4; values ≤ 1 select the default.
	DriftThreshold float64
	// ReoptEvery is how many absorbed batches pass between value
	// re-optimizations (§5 normal equations). Default 16; negative
	// disables reopt.
	ReoptEvery int
	// RepairPasses caps the local-search passes of a boundary repair.
	// Default 2.
	RepairPasses int
	// WorkloadWindow sizes the sampled ring of observed query ranges the
	// drift trigger evaluates over. Default 256. Until queries arrive, a
	// deterministic dyadic grid stands in.
	WorkloadWindow int
}

// Enabled reports whether the configuration asks for maintenance.
func (c Config) Enabled() bool { return c.Mode == ModeIncremental }

func (c Config) withDefaults() Config {
	if c.DriftThreshold <= 1 {
		c.DriftThreshold = 4
	}
	if c.ReoptEvery == 0 {
		c.ReoptEvery = 16
	}
	if c.RepairPasses <= 0 {
		c.RepairPasses = 2
	}
	if c.WorkloadWindow <= 0 {
		c.WorkloadWindow = 256
	}
	return c
}

// Action is one rung of the maintenance ladder.
type Action int

const (
	// Absorb recomputed only the bucket values under the mutated window.
	Absorb Action = iota
	// Reopt additionally re-solved the §5 normal equations on the fixed
	// boundaries.
	Reopt
	// Repair moved bucket boundaries by local search after the drift
	// trigger fired.
	Repair
	// Escalate means maintenance declined: drift persisted through a
	// repair, and the caller must rebuild (dirty segments or full).
	Escalate
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Reopt:
		return "reopt"
	case Repair:
		return "repair"
	case Escalate:
		return "escalate"
	}
	return "absorb"
}

// Outcome reports what one maintenance batch did.
type Outcome struct {
	// Action is the highest rung the batch reached.
	Action Action
	// Buckets is how many bucket values the absorb step recomputed.
	Buckets int
	// Segments is how many segments the window touched (0 for flat
	// histograms).
	Segments int
	// Drift is the workload-SSE ratio at the decision point (1 ≈ no
	// drift since the baseline was captured).
	Drift float64
}

// State is the per-synopsis maintenance state: the absorb counter
// driving periodic reopt, the repaired/escalate arm of the drift
// ladder, and the sampled query ring the trigger evaluates over. It is
// safe for concurrent use; Maintain calls are serialized internally,
// and the ring has a lock of its own so Observe never waits on a
// maintenance batch.
type State struct {
	cfg Config

	// mu guards the ladder state and serializes Maintain.
	mu sync.Mutex
	// absorbs counts batches since the last value reopt.
	absorbs int
	// repaired records that a boundary repair already answered a drift
	// trip; the next trip escalates instead of repairing again.
	repaired bool
	// baseline is the workload SSE captured after the last build, reopt,
	// or repair; baselineSet distinguishes a true zero from "not yet
	// measured".
	baseline    float64
	baselineSet bool
	// ring holds sampled observed query ranges (filled to ringLen, then
	// overwritten round-robin at ringPos), guarded by ringMu.
	ringMu  sync.Mutex
	ring    []sse.Range
	ringLen int
	ringPos int

	// tick drives 1-in-sampleEvery Observe sampling; atomic so the query
	// hot path only takes the mutex for the observations it keeps.
	tick atomic.Uint64
}

// sampleEvery is the Observe sampling rate: recording every query would
// put a mutex on the read hot path for no trigger-quality gain.
const sampleEvery = 8

// NewState creates maintenance state for one synopsis.
func NewState(cfg Config) *State {
	cfg = cfg.withDefaults()
	return &State{cfg: cfg, ring: make([]sse.Range, 0, cfg.WorkloadWindow)}
}

// Observe feeds one answered query range into the drift trigger's
// sampled workload ring. Out-of-domain ranges are clamped at evaluation
// time, so callers pass what they answered.
func (st *State) Observe(a, b int) {
	if st.tick.Add(1)%sampleEvery != 1 { // always take the first observation
		return
	}
	st.ringMu.Lock()
	r := sse.Range{A: a, B: b}
	if st.ringLen < cap(st.ring) {
		st.ring = append(st.ring, r)
		st.ringLen++
	} else {
		st.ring[st.ringPos] = r
		st.ringPos = (st.ringPos + 1) % st.ringLen
	}
	st.ringMu.Unlock()
}

// Reset clears the maintenance state after the caller rebuilt the
// synopsis (the escalate hand-off, or any out-of-band rebuild): the
// absorb counter restarts, the repair arm re-arms, and the next Maintain
// captures a fresh drift baseline against the rebuilt estimator. The
// observed-query ring is kept — the workload did not change, the
// synopsis did.
func (st *State) Reset() {
	st.mu.Lock()
	st.absorbs = 0
	st.repaired = false
	st.baselineSet = false
	st.mu.Unlock()
}

// CanMaintain reports whether the ladder knows how to maintain this
// estimator representation: flat average-representation histograms
// (*histogram.Avg — the shape behind OPT-A, A0, the equi-* baselines and
// their approximate counterparts) and segmented synopses whose inner
// histograms are that same shape. Other families keep the rebuild path.
func CanMaintain(est method.Estimator) bool {
	switch est.(type) {
	case *histogram.Avg, *segment.Segmented:
		return true
	}
	return false
}

// Maintain runs one maintenance batch: series is the full current
// per-value series the synopsis summarizes, prev the estimator built
// from some earlier version of it, and [lo,hi] the value window known
// to contain every mutation in between. It returns the maintained
// estimator and what the ladder did; on Escalate the estimator is nil
// and the caller must rebuild (then call State.Reset). The returned
// estimator shares no mutable structure with prev — prev keeps serving
// concurrently, untouched.
func Maintain(series []int64, prev method.Estimator, lo, hi int, st *State) (method.Estimator, Outcome, error) {
	start := time.Now()
	var out Outcome
	if prev == nil {
		return nil, out, fmt.Errorf("ingest: maintain requires a previous estimator")
	}
	n := prev.N()
	if len(series) != n {
		return nil, out, fmt.Errorf("ingest: series spans %d values, synopsis %d", len(series), n)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if lo > hi {
		return nil, out, fmt.Errorf("ingest: empty maintenance window [%d,%d]", lo, hi)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	// The drift trigger evaluates over the workload observed up to here;
	// queries observed while the batch runs count toward the next one.
	w := st.workload(n)
	tab := prefix.NewTable(series)

	// Absorb, then reopt on schedule.
	var next method.Estimator
	var err error
	doReopt := st.cfg.ReoptEvery > 0 && st.absorbs+1 >= st.cfg.ReoptEvery
	switch h := prev.(type) {
	case *histogram.Avg:
		var nh *histogram.Avg
		nh, out.Buckets, err = absorbAvg(tab, h, lo, hi)
		if err == nil && doReopt {
			nh, err = reoptAvg(tab, nh)
		}
		next = nh
	case *segment.Segmented:
		next, out.Buckets, out.Segments, err = absorbSeg(series, h, lo, hi, doReopt)
	default:
		return nil, out, fmt.Errorf("ingest: cannot maintain %T", prev)
	}
	if err != nil {
		return nil, out, err
	}
	if doReopt {
		out.Action = Reopt
		st.absorbs = 0
	} else {
		st.absorbs++
	}

	// Drift trigger: the maintained synopsis's SSE over the observed
	// workload against the baseline captured after the last
	// build/reopt/repair.
	now := sse.Evaluate(tab, next, w).SSE
	if doReopt || !st.baselineSet {
		st.baseline = now
		st.baselineSet = true
	}
	out.Drift = driftRatio(now, st.baseline)
	if out.Drift > st.cfg.DriftThreshold {
		if st.repaired {
			// A repair already answered one trip and drift came back:
			// boundaries and values cannot hold this workload, re-plan.
			escalatedTotal.Inc()
			out.Action = Escalate
			maintainSeconds.Since(start)
			return nil, out, nil
		}
		next, err = repair(tab, series, next, lo, hi, st.cfg.RepairPasses)
		if err != nil {
			return nil, out, err
		}
		out.Action = Repair
		st.repaired = true
		st.baseline = sse.Evaluate(tab, next, w).SSE
	} else if out.Drift <= 1 {
		// Drift fully recovered (reopt or data shifting back): re-arm the
		// repair rung so a future trip repairs before escalating.
		st.repaired = false
	}

	switch out.Action {
	case Reopt:
		reoptimizedTotal.Inc()
	case Repair:
		repairedTotal.Inc()
	default:
		absorbedTotal.Inc()
	}
	rebuildsAvoided.Inc()
	maintainSeconds.Since(start)
	return next, out, nil
}

// driftRatio guards the now/baseline quotient against an (exactly or
// numerically) zero baseline: a synopsis that was exact on the workload
// counts as drifted only once its error is meaningfully non-zero.
func driftRatio(now, baseline float64) float64 {
	const floor = 1e-9
	if baseline < floor {
		baseline = floor
	}
	return now / baseline
}

// workload returns the query set the drift trigger evaluates over: the
// sampled ring of observed ranges clamped to the domain, or — before
// any query has been observed — a deterministic dyadic grid (sixteen
// equal cells, both halves, and the full range) so cold synopses still
// drift-check. The result is a copy, taken under st.ringMu.
func (st *State) workload(n int) []sse.Range {
	st.ringMu.Lock()
	defer st.ringMu.Unlock()
	if st.ringLen > 0 {
		out := make([]sse.Range, 0, st.ringLen)
		for _, r := range st.ring[:st.ringLen] {
			a, b := r.A, r.B
			if a < 0 {
				a = 0
			}
			if b > n-1 {
				b = n - 1
			}
			if a <= b {
				out = append(out, sse.Range{A: a, B: b})
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	cells := 16
	if cells > n {
		cells = n
	}
	out := make([]sse.Range, 0, cells+3)
	for i := 0; i < cells; i++ {
		a := i * n / cells
		b := (i+1)*n/cells - 1
		if a <= b {
			out = append(out, sse.Range{A: a, B: b})
		}
	}
	if n > 1 {
		out = append(out, sse.Range{A: 0, B: n/2 - 1}, sse.Range{A: n / 2, B: n - 1})
	}
	out = append(out, sse.Range{A: 0, B: n - 1})
	return out
}

// absorbAvg recomputes the values of the buckets intersecting [lo,hi]
// as the true bucket averages off the fresh prefix table — exactly what
// histogram.NewAvgFromBounds stores for those boundaries — and leaves
// every other bucket's value untouched. The bucketing is shared with
// the previous histogram (it is immutable); the value slice is cloned.
func absorbAvg(tab *prefix.Table, h *histogram.Avg, lo, hi int) (*histogram.Avg, int, error) {
	bk := h.Buckets
	p, q := bk.Find(lo), bk.Find(hi)
	values := append([]float64(nil), h.Values...)
	for i := p; i <= q; i++ {
		blo, bhi := bk.Bounds(i)
		values[i] = tab.Avg(blo, bhi)
	}
	nh, err := histogram.NewAvg(bk, values, h.Mode, h.Label)
	if err != nil {
		return nil, 0, err
	}
	return nh, q - p + 1, nil
}

// reoptAvg re-solves the §5 normal equations 2xQ+g=0 for the histogram's
// boundaries and stores the optimal values, keeping mode and label (the
// maintained synopsis keeps its published identity; reopt.Reopt's
// "-reopt" suffix is for one-shot construction pipelines).
func reoptAvg(tab *prefix.Table, h *histogram.Avg) (*histogram.Avg, error) {
	q, g, err := reopt.BuildSystem(tab, h.Buckets)
	if err != nil {
		return nil, err
	}
	x, err := reopt.Solve(q, g)
	if err != nil {
		return nil, err
	}
	return histogram.NewAvg(h.Buckets, x, h.Mode, h.Label)
}

// absorbSeg maintains a segmented synopsis: segments intersecting
// [lo,hi] get their inner histogram's touched bucket values recomputed
// from the segment's own sub-table (and, when doReopt, their values
// re-optimized on the segment's fixed inner boundaries); every other
// segment is carried verbatim. The composition's cumulative totals are
// rebuilt by segment.New.
func absorbSeg(series []int64, s *segment.Segmented, lo, hi int, doReopt bool) (*segment.Segmented, int, int, error) {
	first, last := s.Find(lo), s.Find(hi)
	segs := append([]*histogram.Avg(nil), s.Segs...)
	buckets := 0
	for i := first; i <= last; i++ {
		sLo, sHi := s.SegmentBounds(i)
		sub := prefix.NewTable(series[sLo : sHi+1])
		wLo, wHi := lo, hi
		if wLo < sLo {
			wLo = sLo
		}
		if wHi > sHi {
			wHi = sHi
		}
		nh, nb, err := absorbAvg(sub, s.Segs[i], wLo-sLo, wHi-sLo)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("ingest: absorbing into segment %d: %w", i, err)
		}
		if doReopt {
			if nh, err = reoptAvg(sub, nh); err != nil {
				return nil, 0, 0, fmt.Errorf("ingest: reoptimizing segment %d: %w", i, err)
			}
		}
		segs[i] = nh
		buckets += nb
	}
	next, err := segment.New(s.Domain, append([]int(nil), s.Starts...), segs, s.Label)
	if err != nil {
		return nil, 0, 0, err
	}
	return next, buckets, last - first + 1, nil
}

// repair moves bucket boundaries by local search — coordinate descent
// with every candidate scored by the prefix-identity SSE — instead of
// re-running the construction DP. For segmented synopses only the
// segments under the mutated window are repaired; the partition itself
// never moves (that is what escalation is for).
func repair(tab *prefix.Table, series []int64, est method.Estimator, lo, hi, passes int) (method.Estimator, error) {
	switch h := est.(type) {
	case *histogram.Avg:
		out, _, err := dp.ImproveBoundaries(tab, h, passes)
		if err != nil {
			return nil, err
		}
		out.Label = h.Label
		return out, nil
	case *segment.Segmented:
		first, last := h.Find(lo), h.Find(hi)
		segs := append([]*histogram.Avg(nil), h.Segs...)
		for i := first; i <= last; i++ {
			sLo, sHi := h.SegmentBounds(i)
			sub := prefix.NewTable(series[sLo : sHi+1])
			out, _, err := dp.ImproveBoundaries(sub, h.Segs[i], passes)
			if err != nil {
				return nil, fmt.Errorf("ingest: repairing segment %d: %w", i, err)
			}
			out.Label = h.Segs[i].Label
			segs[i] = out
		}
		return segment.New(h.Domain, append([]int(nil), h.Starts...), segs, h.Label)
	}
	return nil, fmt.Errorf("ingest: cannot repair %T", est)
}
