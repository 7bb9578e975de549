package segment

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rangeagg/internal/dp"
	"rangeagg/internal/prefix"
)

// eagerCurve is the reference allocation curve: every layer up to the
// cap, from a serial closure-kernel DP over dp.FusedA0Cost (ascending j,
// strict improvement, skip when prev[j] ≥ best — the scan every dp
// kernel follows), with the running minimum applied afterwards.
func eagerCurve(counts []int64, lo, hi int) []float64 {
	series := curveSeries(counts, lo, hi)
	n := len(series)
	cost := dp.FusedA0Cost(prefix.NewTable(series))
	maxB := min(maxCurveUnits, n)
	prev, cur := make([]float64, n+1), make([]float64, n+1)
	for i := 1; i <= n; i++ {
		prev[i] = math.MaxFloat64
	}
	curve := make([]float64, maxB+1)
	curve[0] = math.MaxFloat64
	for k := 1; k <= maxB; k++ {
		jHi := n
		if k == 1 {
			jHi = 0
		}
		for i := 0; i < k; i++ {
			cur[i] = math.MaxFloat64
		}
		for i := k; i <= n; i++ {
			best := math.MaxFloat64
			for j := k - 1; j <= min(i-1, jHi); j++ {
				if prev[j] >= best {
					continue
				}
				if c := prev[j] + cost(j, i-1); c < best {
					best = c
				}
			}
			cur[i] = best
		}
		curve[k] = cur[n]
		prev, cur = cur, prev
	}
	for u := 2; u < len(curve); u++ {
		if curve[u] > curve[u-1] {
			curve[u] = curve[u-1]
		}
	}
	return curve
}

// eagerUnits is the original greedy over fully evaluated curves.
func eagerUnits(curves [][]float64, totalUnits int) []int {
	units := make([]int, len(curves))
	for i := range units {
		units[i] = 1
	}
	for remaining := totalUnits - len(curves); remaining > 0; remaining-- {
		best, bestGain := -1, -1.0
		for i, c := range curves {
			u := units[i]
			if u+1 >= len(c) {
				continue
			}
			if gain := c[u] - c[u+1]; gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		units[best]++
	}
	return units
}

// TestAllocateMatchesEagerCurves pins the lazy allocator to the eager
// reference: same plan on every data shape, K and budget, from 3K units
// to past the point where every curve is saturated.
func TestAllocateMatchesEagerCurves(t *testing.T) {
	const n = 1024 // K=1 still exercises the coarsening to curveCells
	rng := rand.New(rand.NewSource(11))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = int64(rng.Intn(1000))
	}
	spike := make([]int64, n)
	spike[n/3] = 50000
	data := map[string][]int64{"zipf": zipfish(n, 13), "uniform": uniform, "spike": spike}
	for name, counts := range data {
		for _, k := range []int{1, 2, 8, 16} {
			starts, err := Split(prefix.NewTable(counts), k, EquiWidth)
			if err != nil {
				t.Fatal(err)
			}
			curves := make([][]float64, len(starts))
			saturated := 0
			for i := range starts {
				lo, hi := segBounds(n, starts, i)
				curves[i] = eagerCurve(counts, lo, hi)
				saturated += len(curves[i]) - 1
				lazy := newCurve(counts, lo, hi)
				lazy.extend(maxCurveUnits)
				for u := 1; u < len(curves[i]); u++ {
					if math.Float64bits(lazy.vals[u]) != math.Float64bits(curves[i][u]) {
						t.Fatalf("%s/K=%d segment %d: lazy curve[%d] = %v, eager %v", name, k, i, u, lazy.vals[u], curves[i][u])
					}
				}
			}
			for total := 3 * k; ; total = total*3/2 + 1 {
				if total > saturated+k {
					total = saturated + k // one probe past saturation
				}
				t.Run(fmt.Sprintf("%s/K=%d/W=%d", name, k, total), func(t *testing.T) {
					pl, err := Allocate(counts, starts, total)
					if err != nil {
						t.Fatal(err)
					}
					want := eagerUnits(curves, total)
					for i := range want {
						if pl.Units[i] != want[i] {
							t.Fatalf("units %v, eager reference %v", pl.Units, want)
						}
					}
				})
				if total == saturated+k {
					break
				}
			}
		}
	}
}
