package plan

import (
	"math"
	"testing"
)

// FuzzPlannerBudget checks the planner's budget contract on arbitrary
// inputs: whenever a query with a finite budget succeeds, the answer's
// bound is within that budget (after the documented negative→0 clamp),
// and the exact fallback always reports a zero, rigorous bound. Sources
// have deterministic per-range bounds of very different magnitudes so
// the fuzzer exercises every path.
func FuzzPlannerBudget(f *testing.F) {
	f.Add(0, 9, 5.0, false)
	f.Add(-3, 1000, 0.0, true)
	f.Add(7, 7, math.Inf(1), false)
	f.Add(50, 40, -2.5, true)
	f.Add(0, 63, math.NaN(), false)

	p := New(128)
	v := &View{
		Domain: 64,
		Sources: []Source{
			{
				Name: "coarse", Words: 4,
				Estimate: func(a, b int) float64 { return float64(b-a+1) * 3 },
				Bound: func(a, b int) (float64, bool, bool) {
					return float64(b-a+1) * 2, true, true
				},
			},
			{
				Name: "fine", Words: 32,
				Estimate: func(a, b int) float64 { return float64(b-a+1) * 3 },
				Bound: func(a, b int) (float64, bool, bool) {
					return float64(b-a+1) * 0.25, true, true
				},
			},
		},
		Exact: func(a, b int) float64 { return float64(b-a+1) * 3 },
	}

	f.Fuzz(func(t *testing.T, a, b int, maxErr float64, pinFine bool) {
		pinned := ""
		if pinFine {
			pinned = "fine"
		}
		ans, err := p.Query(v, pinned, a, b, maxErr)
		if err != nil {
			t.Fatalf("query(%d,%d,%g) failed: %v", a, b, maxErr, err)
		}
		if math.IsNaN(maxErr) {
			return // no budget: any bound is acceptable
		}
		budget := math.Max(maxErr, 0)
		if ans.Bound > budget {
			t.Fatalf("query(%d,%d,%g): bound %g exceeds budget %g (path %s, source %s)",
				a, b, maxErr, ans.Bound, budget, ans.Path, ans.Source)
		}
		if ans.Path == PathExact && (ans.Bound != 0 || !ans.Rigorous) {
			t.Fatalf("exact path must certify a zero bound: %+v", ans)
		}
	})
}
