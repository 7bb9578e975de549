// Package build is the synopsis composition layer: it applies the
// paper's storage accounting to turn a word budget into a
// bucket/coefficient count, runs the construction algorithm resolved
// from the method registry (internal/method), and composes the §4–5
// improvement operators (boundary local search, value re-optimization)
// and the coarsen-lift scaling path on top. It holds no per-method
// knowledge of its own — what each method *is* lives in its registry
// descriptor; this package only sequences budget → build → improve.
package build

import (
	"fmt"
	"time"

	"rangeagg/internal/dp"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/prefix"
	"rangeagg/internal/reopt"
)

// buildSeconds times one whole Build per method ID
// (rangeagg_build_seconds{method=...}); phaseSeconds splits it into the
// construct / improve / coarsen phases
// (rangeagg_build_phase_seconds{method,phase}). These are the per-method
// build histograms the synserve banner and /metrics surface.
func buildSeconds(name string) *obs.Histogram {
	return obs.Default.Histogram("rangeagg_build_seconds", obs.L("method", name)...)
}

func phaseSeconds(name, phase string) *obs.Histogram {
	return obs.Default.Histogram("rangeagg_build_phase_seconds",
		obs.L("method", name, "phase", phase)...)
}

// ParseMethod resolves a method from its paper name (case-insensitive).
func ParseMethod(s string) (method.ID, error) { return method.Parse(s) }

// Options parameterizes Build. The fields mirror the facade's public
// Options (see rangeagg.Options for per-field semantics); Rounding is
// internal-only: it selects the answering procedure of
// average-representation results (the facade always builds unrounded).
type Options struct {
	Method      method.ID          `json:"method"`
	BudgetWords int                `json:"budget_words"`
	Reopt       bool               `json:"reopt,omitempty"`
	LocalSearch bool               `json:"local_search,omitempty"`
	Seed        int64              `json:"seed,omitempty"`
	Epsilon     float64            `json:"epsilon,omitempty"`
	RoundedX    int64              `json:"rounded_x,omitempty"`
	MaxStates   int                `json:"max_states,omitempty"`
	CoarsenTo   int                `json:"coarsen_to,omitempty"`
	Rounding    histogram.Rounding `json:"rounding,omitempty"`
	// Segments and SegmentPolicy parameterize the SEGMENTED family's
	// partition; other methods ignore them.
	Segments      int    `json:"segments,omitempty"`
	SegmentPolicy string `json:"segment_policy,omitempty"`
}

// Units converts the word budget into the method's bucket (or
// coefficient) count under the paper's accounting, never below 1.
func (o Options) Units() int {
	words := 2 // the common accounting; unknown methods fail in Build
	if d, err := method.Lookup(o.Method); err == nil {
		words = d.WordsPerUnit
	}
	u := o.BudgetWords / words
	if u < 1 {
		u = 1
	}
	return u
}

// methodOpts translates resolved build options into the registry's
// construction parameters.
func (o Options) methodOpts() method.Opts {
	return method.Opts{
		Units:         o.Units(),
		Rounding:      o.Rounding,
		Seed:          o.Seed,
		Epsilon:       o.Epsilon,
		RoundedX:      o.RoundedX,
		MaxStates:     o.MaxStates,
		Segments:      o.Segments,
		SegmentPolicy: o.SegmentPolicy,
		BudgetWords:   o.BudgetWords,
	}
}

// Build constructs a synopsis over the attribute-value distribution.
func Build(counts []int64, opt Options) (method.Estimator, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("build: empty distribution")
	}
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("build: negative count %d at value %d", c, i)
		}
	}
	d, err := method.Lookup(opt.Method)
	if err != nil {
		return nil, fmt.Errorf("build: unknown method %d", int(opt.Method))
	}
	if !d.BudgetFree && opt.BudgetWords <= 0 {
		return nil, fmt.Errorf("build: %s needs a positive storage budget, got %d words",
			d.Name, opt.BudgetWords)
	}
	defer buildSeconds(d.Name).Since(time.Now())
	if opt.CoarsenTo > 0 && opt.CoarsenTo < len(counts) && d.Caps.Has(method.BucketBased) {
		defer phaseSeconds(d.Name, "coarsen").Since(time.Now())
		return buildCoarsened(counts, d, opt)
	}
	tab := prefix.NewTable(counts)
	construct := time.Now()
	est, err := d.Build(tab, counts, opt.methodOpts())
	phaseSeconds(d.Name, "construct").Since(construct)
	if err != nil {
		return nil, err
	}
	return improve(tab, est, opt)
}

// improve applies the §4–5 improvement operators: boundary local search
// first (it re-derives true averages), then value re-optimization. Both
// are defined for the average representation only.
func improve(tab *prefix.Table, est method.Estimator, opt Options) (method.Estimator, error) {
	if !opt.LocalSearch && !opt.Reopt {
		return est, nil
	}
	defer phaseSeconds(est.Name(), "improve").Since(time.Now())
	avg, ok := est.(*histogram.Avg)
	if !ok {
		return nil, fmt.Errorf("build: local search / reopt apply to average-representation histograms, not %s", est.Name())
	}
	if opt.LocalSearch {
		improved, _, err := dp.ImproveBoundaries(tab, avg, 0)
		if err != nil {
			return nil, err
		}
		avg = improved
	}
	if opt.Reopt {
		re, err := reopt.Reopt(tab, avg)
		if err != nil {
			return nil, err
		}
		avg = re
	}
	return avg, nil
}

// buildCoarsened pre-aggregates the domain into opt.CoarsenTo equal-width
// cells, runs the bucket construction on the coarse distribution, and
// lifts the resulting boundaries back onto the full domain — how the
// quadratic DPs scale to domains of millions of values. Summaries are
// recomputed at full resolution (the descriptor's FromBounds hook) for
// the lifted boundaries, so only the boundary placement is approximate.
func buildCoarsened(counts []int64, d method.Descriptor, opt Options) (method.Estimator, error) {
	n, cells := len(counts), opt.CoarsenTo
	bound := func(i int) int { return i * n / cells } // cell i = [bound(i), bound(i+1))
	coarse := make([]int64, cells)
	for i := 0; i < cells; i++ {
		var s int64
		for j := bound(i); j < bound(i+1); j++ {
			s += counts[j]
		}
		coarse[i] = s
	}
	copt := opt
	copt.CoarsenTo = 0
	copt.LocalSearch = false // improvement operators run at full resolution
	copt.Reopt = false
	cEst, err := Build(coarse, copt)
	if err != nil {
		return nil, err
	}
	cStarts, cLabel, err := bucketStarts(cEst)
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(cStarts))
	for i, s := range cStarts {
		starts[i] = bound(s)
	}
	bk, err := histogram.NewBucketing(n, starts)
	if err != nil {
		return nil, err
	}
	tab := prefix.NewTable(counts)
	est, err := d.FromBounds(tab, bk, cLabel, opt.methodOpts())
	if err != nil {
		return nil, err
	}
	return improve(tab, est, opt)
}

// bucketStarts extracts the bucket boundaries and label of a
// bucket-partition estimator.
func bucketStarts(est method.Estimator) ([]int, string, error) {
	bk, ok := est.(histogram.Bucketed)
	if !ok {
		return nil, "", fmt.Errorf("build: %s has no bucket boundaries", est.Name())
	}
	return bk.BucketStarts(), bk.BucketLabel(), nil
}
