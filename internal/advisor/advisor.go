// Package advisor recommends a synopsis method for a concrete
// distribution, storage budget and query workload, by building every
// candidate and measuring its error on the workload — the "physical
// design" layer a database would put on top of the paper's algorithms.
package advisor

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/method"
	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
	"rangeagg/internal/sse"
)

// Candidate is one evaluated method.
type Candidate struct {
	// Method is the construction.
	Method method.ID
	// Epsilon is the approximation target the candidate was built with —
	// set for Approximate-capability methods (one candidate per swept ε),
	// zero for exact constructions.
	Epsilon float64
	// SSE over the evaluation workload.
	SSE float64
	// RMS error per query.
	RMS float64
	// StorageWords actually used (≤ the budget).
	StorageWords int
	// BuildTime is the measured construction cost.
	BuildTime time.Duration
	// Err is set when the candidate failed to build; such candidates sort
	// last.
	Err error
}

// Config tunes a recommendation run.
type Config struct {
	// BudgetWords is the storage budget each candidate gets.
	BudgetWords int
	// Methods restricts the candidate set; nil means every registered
	// method except pseudo-polynomial ones when the instance exceeds
	// ExactLimit.
	Methods []method.ID
	// Require keeps only candidates whose registered capabilities include
	// every flag in the set — e.g. method.Serializable when the chosen
	// synopsis must persist, or method.Mergeable for a sharded deployment.
	// Zero requires nothing.
	Require method.Caps
	// ExactLimit caps the domain size for which pseudo-polynomial methods
	// (the exact OPT-A dynamic program) are attempted (0 = 512).
	ExactLimit int
	// Epsilons are the approximation targets swept for Approximate-
	// capability methods: each such method contributes one candidate per ε,
	// so the ranking reports the build-time-vs-SSE trade-off alongside the
	// exact families. Nil sweeps {0.05, 0.1, 0.25}.
	Epsilons []float64
	// Seed for randomized constructions.
	Seed int64
	// MaxStates bounds the exact DP.
	MaxStates int
}

// defaultEpsilons is the ε sweep used when Config.Epsilons is nil.
var defaultEpsilons = []float64{0.05, 0.1, 0.25}

// Recommend evaluates candidate methods on the workload — concurrently,
// over the shared worker pool — and returns them ranked by workload SSE
// (ties by storage, then candidate order; the ranking is deterministic).
// The workload may be nil, in which case the paper's all-ranges metric is
// used.
func Recommend(counts []int64, queries []sse.Range, cfg Config) ([]Candidate, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("advisor: empty distribution")
	}
	if cfg.BudgetWords <= 0 {
		return nil, fmt.Errorf("advisor: need a positive budget, got %d", cfg.BudgetWords)
	}
	exactLimit := cfg.ExactLimit
	if exactLimit <= 0 {
		exactLimit = 512
	}
	candidates := cfg.Methods
	if candidates == nil {
		candidates = method.IDs()
	}
	epsilons := cfg.Epsilons
	if epsilons == nil {
		epsilons = defaultEpsilons
	}
	// One spec per build: exact methods contribute one candidate (ε = 0),
	// Approximate-capability methods one per swept ε.
	type spec struct {
		m   method.ID
		eps float64
	}
	var specs []spec
	for _, m := range candidates {
		d, err := method.Lookup(m)
		if err != nil {
			return nil, fmt.Errorf("advisor: %w", err)
		}
		if !d.Caps.Has(cfg.Require) {
			continue
		}
		// Capability-gated scale guard: the exact pseudo-polynomial DP's
		// cost grows with the data values, so it is only enumerated by
		// default on small instances. An explicit Methods list overrides.
		if cfg.Methods == nil && d.Caps.Has(method.PseudoPolynomial) && len(counts) > exactLimit {
			continue
		}
		if d.Caps.Has(method.Approximate) {
			for _, eps := range epsilons {
				specs = append(specs, spec{m: m, eps: eps})
			}
			continue
		}
		specs = append(specs, spec{m: m})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("advisor: no candidate method has the required capabilities (%s)", cfg.Require)
	}
	tab := prefix.NewTable(counts)
	// Build and score every candidate concurrently over the shared worker
	// pool. Each candidate writes only its own indexed slot, so the result
	// is deterministic regardless of pool width or scheduling.
	out := make([]Candidate, len(specs))
	parallel.ForEach(len(specs), func(idx int) {
		s := specs[idx]
		c := Candidate{Method: s.m, Epsilon: s.eps}
		start := time.Now()
		est, err := build.Build(counts, build.Options{
			Method: s.m, BudgetWords: cfg.BudgetWords,
			Seed: cfg.Seed, MaxStates: cfg.MaxStates, Epsilon: s.eps,
		})
		c.BuildTime = time.Since(start)
		if err != nil {
			c.Err = err
			c.SSE = math.Inf(1)
			out[idx] = c
			return
		}
		c.StorageWords = est.StorageWords()
		if len(queries) == 0 {
			c.SSE = sse.Of(tab, est)
			nq := tab.N() * (tab.N() + 1) / 2
			c.RMS = math.Sqrt(c.SSE / float64(nq))
		} else {
			metrics := sse.Evaluate(tab, est, queries)
			c.SSE = metrics.SSE
			c.RMS = metrics.RMS
		}
		out[idx] = c
	})
	// Ties break by storage, then candidate (= Method) order — never by
	// measured build time, which would make the ranking non-reproducible.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SSE != out[j].SSE {
			return out[i].SSE < out[j].SSE
		}
		return out[i].StorageWords < out[j].StorageWords
	})
	return out, nil
}

// Best returns the winning candidate of a Recommend run.
func Best(cands []Candidate) (Candidate, error) {
	for _, c := range cands {
		if c.Err == nil {
			return c, nil
		}
	}
	return Candidate{}, fmt.Errorf("advisor: no candidate built successfully")
}
