package segment

import (
	"fmt"

	"rangeagg/internal/dp"
	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
)

// Allocator tuning. The curves exist only to rank marginal gains, so
// they are computed at bounded resolution: a segment wider than
// curveCells is pre-aggregated to curveCells equal-width cells first
// (the advisor's coarsen trick), and no segment's curve extends past
// maxCurveUnits buckets. Both caps are independent of the budget, which
// keeps the greedy allocation monotone in W (a bigger budget replays
// the same gain sequences further, it never reorders them).
const (
	curveCells    = 512
	maxCurveUnits = 128
)

// Plan is a budget allocation across one segment partition: Units[i]
// buckets for the segment starting at Starts[i], every entry ≥ 1.
type Plan struct {
	Starts []int
	Units  []int
}

// TotalUnits sums the allocated buckets.
func (p *Plan) TotalUnits() int {
	t := 0
	for _, u := range p.Units {
		t += u
	}
	return t
}

// curve is the lazily evaluated error-vs-space curve of one segment:
// vals[u] = (coarsened) optimal A0 cost of summarizing the segment with u
// buckets, non-increasing in u (running minimum applied as each layer is
// appended), vals[0] unused. The A0 fused cost is the same range-SSE
// surrogate the advisor's sweep and the approximate builder optimize, so
// the allocator ranks segments on the axis the per-segment builds will
// actually minimize. Layers are computed only as the greedy reads them.
type curve struct {
	step *dp.CurveStepper
	vals []float64
	max  int // layer cap: min(maxCurveUnits, coarsened width)
}

func newCurve(counts []int64, lo, hi int) *curve {
	series := curveSeries(counts, lo, hi)
	return &curve{step: dp.NewA0CurveStepper(prefix.NewTable(series)),
		vals: make([]float64, 1, maxCurveUnits+1), max: min(maxCurveUnits, len(series))}
}

// curveSeries is the series a segment's curve is evaluated on: counts
// [lo..hi], pre-aggregated to curveCells equal-width cells when wider.
func curveSeries(counts []int64, lo, hi int) []int64 {
	width := hi - lo + 1
	series := counts[lo : hi+1]
	if width <= curveCells {
		return series
	}
	coarse := make([]int64, curveCells)
	for c := 0; c < curveCells; c++ {
		a, b := c*width/curveCells, (c+1)*width/curveCells
		var s int64
		for j := a; j < b; j++ {
			s += series[j]
		}
		coarse[c] = s
	}
	return coarse
}

// extend computes layers up to min(u, max).
func (c *curve) extend(u int) {
	for k := len(c.vals); k <= u && k <= c.max; k++ {
		v := c.step.Next()
		// Force monotone non-increasing: adding a bucket can only help the
		// true objective, but per-layer DP optima need not be monotone for
		// the fused surrogate. Running min keeps every marginal gain ≥ 0.
		if k >= 2 && v > c.vals[k-1] {
			v = c.vals[k-1]
		}
		c.vals = append(c.vals, v)
	}
}

// Allocate distributes totalUnits buckets across the segments of the
// partition by greedy marginal gain: every segment gets one bucket,
// then each remaining bucket goes to the segment whose curve drops the
// most for it (ΔSSE per added bucket; every bucket costs the same two
// words, so per-bucket and per-word ranking coincide). Ties break to
// the lowest segment index, making the allocation deterministic and —
// because the curves do not depend on the budget — monotone in
// totalUnits: growing the budget never shrinks any segment's share.
// Curves are evaluated lazily: the first two layers of every segment
// concurrently on the shared pool, then one more layer of the segment
// that just won a bucket, so a plan reads Σ(uᵢ+1) layers, not K×128.
func Allocate(counts []int64, starts []int, totalUnits int) (*Plan, error) {
	if err := validStarts(len(counts), starts); err != nil {
		return nil, err
	}
	k := len(starts)
	if totalUnits < k {
		return nil, fmt.Errorf("segment: %d units cannot cover %d segments (one bucket each minimum)", totalUnits, k)
	}
	curves := make([]*curve, k)
	parallel.ForEach(k, func(i int) {
		lo, hi := segBounds(len(counts), starts, i)
		curves[i] = newCurve(counts, lo, hi)
		curves[i].extend(2)
	})
	units := make([]int, k)
	for i := range units {
		units[i] = 1
	}
	for remaining := totalUnits - k; remaining > 0; remaining-- {
		best, bestGain := -1, -1.0
		for i, c := range curves {
			u := units[i]
			if u+1 >= len(c.vals) {
				continue // segment at its curve cap (or at one bucket per value)
			}
			if gain := c.vals[u] - c.vals[u+1]; gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // every segment saturated; leave the rest of the budget unused
		}
		units[best]++
		curves[best].extend(units[best] + 1)
	}
	return &Plan{Starts: append([]int(nil), starts...), Units: units}, nil
}
