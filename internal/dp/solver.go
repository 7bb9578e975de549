package dp

import (
	"fmt"
	"math"

	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
)

const inf = math.MaxFloat64

// rowKernel fills one contiguous span of a DP layer: for every cell
// i in [iLo, iHi) it must set cur[i] to the best cost of covering the
// first i values with exactly k buckets and choice[i] to the j achieving
// it (last bucket = [j, i−1]), scanning candidate boundaries j ascending
// over [jLo, min(i−1, jHi)] and reading the previous layer's row in prev.
//
// Kernels must preserve two invariants so that every kernel — serial,
// parallel, generic or specialized — produces bit-identical tables:
//
//  1. candidates are scanned in ascending j with a strict `c < best`
//     improvement test (first winner kept on ties), and
//  2. a candidate may be skipped only when prev[j] ≥ best, which is
//     admissible because bucket costs are non-negative: the candidate's
//     total prev[j]+cost can then never pass the strict test.
//
// Skip rule 2 also subsumes the infeasible-state check: infeasible prev
// entries hold +inf and are never evaluated.
type rowKernel func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32)

// chunkGrain is the number of DP cells a worker claims at a time. Cells
// have linearly growing cost in i, so dynamic chunking keeps the layer
// balanced; 32 cells amortize the atomic fetch without starving workers.
const chunkGrain = 32

// solveLayers is the shared driver behind every interval dynamic program
// in this package. It runs the O(n²·B) DP with two rolling 1-D rows
// (instead of full (B+1)×(n+1) tables) and a flattened int32 backtracking
// matrix, one stepLayer per bucket count.
func solveLayers(n, maxBuckets int, kernel rowKernel) (starts []int, total float64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("dp: empty domain (n=%d)", n)
	}
	if maxBuckets <= 0 {
		return nil, 0, fmt.Errorf("dp: need at least one bucket, got %d", maxBuckets)
	}
	if maxBuckets > n {
		maxBuckets = n
	}
	prev, cur := layerZero(n), make([]float64, n+1)
	// choice[k*(n+1)+i] is the backtracking pointer of cell (k, i).
	choice := make([]int32, (maxBuckets+1)*(n+1))
	bestK, bestCost := 0, inf
	for k := 1; k <= maxBuckets; k++ {
		stepLayer(n, k, kernel, prev, cur, choice[k*(n+1):(k+1)*(n+1)])
		if cur[n] < bestCost {
			bestCost, bestK = cur[n], k
		}
		prev, cur = cur, prev
	}
	if bestK == 0 {
		return nil, 0, fmt.Errorf("dp: no feasible bucketing for n=%d B=%d", n, maxBuckets)
	}
	starts = make([]int, bestK)
	i := n
	for k := bestK; k >= 1; k-- {
		j := int(choice[k*(n+1)+i])
		starts[k-1] = j
		i = j
	}
	return starts, bestCost, nil
}

// layerZero returns DP layer 0: zero buckets cover exactly zero values.
func layerZero(n int) []float64 {
	row := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		row[i] = inf
	}
	return row
}

// stepLayer computes DP layer k ≥ 1 into cur (and its backtracking
// pointers into row) from layer k−1 in prev. It is the one layer loop
// every driver shares, parallelized over the shared worker pool: every
// cell of layer k depends only on layer k−1, so cells are embarrassingly
// parallel, and results are identical at any pool width because cells
// are assigned by index and each kernel call is deterministic.
func stepLayer(n, k int, kernel rowKernel, prev, cur []float64, row []int32) {
	// Feasible window of the previous layer: layer 0 is feasible only at
	// j=0; layer k−1 ≥ 1 is feasible exactly on [k−1, n].
	jLo, jHi := k-1, n
	if k == 1 {
		jHi = 0
	}
	for i := 0; i < k; i++ {
		cur[i] = inf
		row[i] = -1
	}
	cells := n - k + 1 // cells i = k..n
	parallel.ForEachChunk(cells, chunkGrain, func(lo, hi int) {
		kernel(jLo, jHi, k+lo, k+hi, prev, cur, row)
	})
}

// CurveStepper evaluates the A0 error-vs-space curve of one series one
// layer at a time: the k-th call to Next returns the optimal fused-A0
// cost of partitioning the series into exactly k non-empty contiguous
// buckets — the value dp.A0's layer k computes for cell n. A budget
// allocator reads only the first few layers of most curves, so it
// extends each curve on demand instead of solving every layer up front.
// The stepper keeps two rolling rows and one scratch pointer row; it
// never backtracks.
type CurveStepper struct {
	n, k      int
	kernel    rowKernel
	prev, cur []float64
	row       []int32
}

// NewA0CurveStepper returns a stepper over the fused A0 cost of tab's
// series (the inlined a0Kernel; bit-identical to FusedA0Cost).
func NewA0CurveStepper(tab *prefix.Table) *CurveStepper {
	n := tab.N()
	return &CurveStepper{n: n, kernel: a0Kernel(tab),
		prev: layerZero(n), cur: make([]float64, n+1), row: make([]int32, n+1)}
}

// Next computes the next layer k and returns its optimum. A series of n
// values has n layers (one bucket per value); Next must not be called
// more often.
func (s *CurveStepper) Next() float64 {
	s.k++
	stepLayer(s.n, s.k, s.kernel, s.prev, s.cur, s.row)
	s.prev, s.cur = s.cur, s.prev
	return s.prev[s.n]
}

// closureKernel adapts an arbitrary CostFunc to a rowKernel. Specialized
// methods (SAP0, SAP1, A0, the weighted V-optimal family) bypass this via
// the inlined kernels in kernels.go; everything else (SAP2, PREFIX-OPT,
// external callers of Solve) pays one closure call per candidate.
func closureKernel(cost CostFunc) rowKernel {
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
			jMax := i - 1
			if jMax > jHi {
				jMax = jHi
			}
			best, bestJ := inf, int32(-1)
			for j := jLo; j <= jMax; j++ {
				ej := prev[j]
				if ej >= best {
					continue
				}
				c := ej + cost(j, i-1)
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// Solve finds starts of the partition of [0,n) into at most maxBuckets
// non-empty contiguous buckets minimizing Σ cost(bucket), by the standard
// O(n²·B) interval dynamic program. The cost function must be
// non-negative (the pruning rule relies on it). Layers are parallelized
// over the shared worker pool; the result is identical at any pool width.
func Solve(n, maxBuckets int, cost CostFunc) (starts []int, total float64, err error) {
	return solveLayers(n, maxBuckets, closureKernel(cost))
}

// SolveReference is the seed implementation of Solve — full 2-D tables, a
// serial scan, one closure call per inner iteration, no pruning. It is
// retained verbatim as the correctness oracle for the equivalence
// property tests and as the baseline side of the construction benchmarks
// (BENCH_dp.json); new code should call Solve.
func SolveReference(n, maxBuckets int, cost CostFunc) (starts []int, total float64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("dp: empty domain (n=%d)", n)
	}
	if maxBuckets <= 0 {
		return nil, 0, fmt.Errorf("dp: need at least one bucket, got %d", maxBuckets)
	}
	if maxBuckets > n {
		maxBuckets = n
	}
	e := make([][]float64, maxBuckets+1)
	choice := make([][]int, maxBuckets+1)
	for k := range e {
		e[k] = make([]float64, n+1)
		choice[k] = make([]int, n+1)
		for i := range e[k] {
			e[k][i] = inf
			choice[k][i] = -1
		}
	}
	e[0][0] = 0
	for k := 1; k <= maxBuckets; k++ {
		for i := k; i <= n; i++ {
			best := inf
			bestJ := -1
			for j := k - 1; j < i; j++ {
				if e[k-1][j] == inf {
					continue
				}
				c := e[k-1][j] + cost(j, i-1)
				if c < best {
					best, bestJ = c, j
				}
			}
			e[k][i] = best
			choice[k][i] = bestJ
		}
	}
	bestK, bestCost := 0, inf
	for k := 1; k <= maxBuckets; k++ {
		if e[k][n] < bestCost {
			bestCost, bestK = e[k][n], k
		}
	}
	if bestK == 0 {
		return nil, 0, fmt.Errorf("dp: no feasible bucketing for n=%d B=%d", n, maxBuckets)
	}
	starts = make([]int, bestK)
	i := n
	for k := bestK; k >= 1; k-- {
		j := choice[k][i]
		starts[k-1] = j
		i = j
	}
	return starts, bestCost, nil
}
