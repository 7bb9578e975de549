// Package sse evaluates the paper's quality metric — the sum-squared error
// over all range queries — for any synopsis, plus workload-restricted and
// per-query error metrics.
//
// Three evaluation paths are provided:
//
//   - Brute: the O(n²) definition, the reference everything else is tested
//     against.
//   - FromCumulative: the O(n) prefix-error identity for any
//     prefix-decomposable estimator (DESIGN.md §1).
//   - SAP0/SAP1 closed forms via the decomposition lemma (internal/dp uses
//     the same quantities during construction).
package sse

import (
	"fmt"
	"math"
	"math/rand"

	"rangeagg/internal/prefix"
)

// Estimator is any synopsis answering inclusive range-sum queries on
// [0, n).
type Estimator interface {
	Estimate(a, b int) float64
	N() int
}

// Cumulative is a prefix-decomposable estimator: Estimate(a,b) =
// CumEstimate(b+1) − CumEstimate(a) for every range.
type Cumulative interface {
	Estimator
	CumEstimate(t int) float64
}

// Brute computes the SSE over all ranges directly from the definition in
// O(n²) time. It is exact for every estimator and serves as the test
// oracle for the fast paths.
func Brute(tab *prefix.Table, est Estimator) float64 {
	n := tab.N()
	if est.N() != n {
		panic(fmt.Sprintf("sse: estimator n=%d does not match data n=%d", est.N(), n))
	}
	var sum float64
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			d := tab.SumF(a, b) - est.Estimate(a, b)
			sum += d * d
		}
	}
	return sum
}

// FromCumulative computes the exact SSE of a prefix-decomposable estimator
// in O(n) using the identity SSE = N·Σe² − (Σe)² over the pointwise
// cumulative errors e_t = P[t] − Ĉ[t].
//
// Note: for estimators that round each *answer* (histogram.RoundAnswer)
// the decomposition does not hold; use Brute for those.
func FromCumulative(tab *prefix.Table, est Cumulative) float64 {
	n := tab.N()
	if est.N() != n {
		panic(fmt.Sprintf("sse: estimator n=%d does not match data n=%d", est.N(), n))
	}
	e := make([]float64, n+1)
	for t := 0; t <= n; t++ {
		e[t] = tab.P[t] - est.CumEstimate(t)
	}
	return prefix.SSEFromErrors(e)
}

// RoundedCumulative computes the exact SSE of a prefix-decomposable
// estimator whose cumulative curve is rounded to the nearest integer at
// every position (histogram.RoundCumulative). The identity still applies,
// to the rounded errors.
func RoundedCumulative(tab *prefix.Table, est Cumulative) float64 {
	n := tab.N()
	if est.N() != n {
		panic(fmt.Sprintf("sse: estimator n=%d does not match data n=%d", est.N(), n))
	}
	e := make([]float64, n+1)
	for t := 0; t <= n; t++ {
		e[t] = tab.P[t] - math.Round(est.CumEstimate(t))
	}
	return prefix.SSEFromErrors(e)
}

// Metrics aggregates error statistics over a set of queries.
type Metrics struct {
	Queries int
	SSE     float64
	// MAE is the mean absolute error.
	MAE float64
	// MaxAbs is the worst absolute error.
	MaxAbs float64
	// RMS is sqrt(SSE / Queries).
	RMS float64
	// MeanRel is the mean relative error over queries with non-zero truth;
	// queries with zero truth are skipped in this average.
	MeanRel float64
}

// Range is an inclusive query range.
type Range struct{ A, B int }

// Evaluate computes error metrics over an explicit workload. An empty
// range (A > B) counts as a query answered exactly, with error 0.
func Evaluate(tab *prefix.Table, est Estimator, queries []Range) Metrics {
	var m Metrics
	var relSum float64
	var relCount int
	for _, q := range queries {
		if q.A > q.B {
			continue
		}
		truth := tab.SumF(q.A, q.B)
		d := truth - est.Estimate(q.A, q.B)
		ad := math.Abs(d)
		m.SSE += d * d
		m.MAE += ad
		if ad > m.MaxAbs {
			m.MaxAbs = ad
		}
		if truth != 0 {
			relSum += ad / truth
			relCount++
		}
	}
	m.Queries = len(queries)
	if m.Queries > 0 {
		m.MAE /= float64(m.Queries)
		m.RMS = math.Sqrt(m.SSE / float64(m.Queries))
	}
	if relCount > 0 {
		m.MeanRel = relSum / float64(relCount)
	}
	return m
}

// AllRanges enumerates every range of the domain, the paper's workload.
func AllRanges(n int) []Range {
	qs := make([]Range, 0, n*(n+1)/2)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			qs = append(qs, Range{a, b})
		}
	}
	return qs
}

// RandomRanges samples k ranges uniformly from all n(n+1)/2 ranges.
func RandomRanges(n, k int, seed int64) []Range {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Range, k)
	for i := range qs {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		qs[i] = Range{a, b}
	}
	return qs
}

// ShortRanges samples k ranges whose width is at most maxWidth, modelling
// selective predicates.
func ShortRanges(n, k, maxWidth int, seed int64) []Range {
	if maxWidth < 1 {
		maxWidth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Range, k)
	for i := range qs {
		w := 1 + rng.Intn(maxWidth)
		if w > n {
			w = n
		}
		a := rng.Intn(n - w + 1)
		qs[i] = Range{a, a + w - 1}
	}
	return qs
}

// PointQueries returns the n equality queries.
func PointQueries(n int) []Range {
	qs := make([]Range, n)
	for i := range qs {
		qs[i] = Range{i, i}
	}
	return qs
}
