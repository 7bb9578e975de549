// Package wavelet implements the paper's wavelet-based summary
// representations (§3): the Haar transform substrate, the classical
// largest-coefficient heuristic over the data domain (the paper's TOPBB
// baseline, after [11, 17]), the paper's Theorem 9 construction — 2-D
// pointwise-optimal wavelets on the virtual range-sum matrix AA, computed
// without materializing it (see AA2D) — and a fast prefix-domain variant
// that is provably range-optimal within its own coefficient class.
//
// # Prefix-domain range-optimal selection
//
// A range query is a difference of two prefix sums, so the SSE over all
// ranges of any prefix-domain approximation P̂ is N·Σe² − (Σe)² with
// e = P − P̂ (DESIGN.md §1). Expanding e in the orthonormal Haar basis of
// P: every non-DC Haar vector is orthogonal to the all-ones vector, and
// the DC component of e is a constant shift of the cumulative curve, which
// cancels out of every range answer. Hence
//
//	SSE = N · Σ_{dropped k ≥ 1} c_k²,
//
// and the optimal B-coefficient prefix-domain synopsis keeps the B
// largest-magnitude non-DC coefficients of Haar(P) — computed in
// O(N log N) time. (The DC coefficient never needs a slot at all.) The
// argument is exact when N = n+1 is a power of two — the paper's own
// dataset has n = 127 — and heuristic (repeat-last padding) otherwise.
// Optimality is within the prefix-coefficient class; the data-domain and
// AA-matrix classes are incomparable with it in general.
package wavelet

import (
	"fmt"
	"math"
	"sort"
)

// TransformPow2 computes the orthonormal Haar transform of data, whose
// length must be a power of two. Coefficient layout: index 0 is the DC
// (scaled mean); indices [2^j, 2^(j+1)) are the level-j details with
// support length N/2^j.
func TransformPow2(data []float64) ([]float64, error) {
	n := len(data)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("wavelet: length %d is not a power of two", n)
	}
	out := make([]float64, n)
	copy(out, data)
	tmp := make([]float64, n)
	inv := 1 / math.Sqrt2
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, b := out[2*i], out[2*i+1]
			tmp[i] = (a + b) * inv      // scaling part
			tmp[half+i] = (a - b) * inv // detail part
		}
		copy(out[:length], tmp[:length])
	}
	return out, nil
}

// Inverse reconstructs the data from a full coefficient vector produced by
// TransformPow2.
func Inverse(coeffs []float64) ([]float64, error) {
	n := len(coeffs)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("wavelet: length %d is not a power of two", n)
	}
	out := make([]float64, n)
	copy(out, coeffs)
	tmp := make([]float64, n)
	inv := 1 / math.Sqrt2
	for length := 2; length <= n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			s, d := out[i], out[half+i]
			tmp[2*i] = (s + d) * inv
			tmp[2*i+1] = (s - d) * inv
		}
		copy(out[:length], tmp[:length])
	}
	return out, nil
}

// basisParams returns, for coefficient index k in an N-point transform
// (N a power of two), the support [start, start+length) and the amplitude
// of the positive half of the orthonormal basis vector. For k = 0 the
// vector is the constant 1/√N (no negative half: half = length).
func basisParams(n, k int) (start, length, half int, amp float64) {
	if k == 0 {
		return 0, n, n, 1 / math.Sqrt(float64(n))
	}
	// Level j: k ∈ [2^j, 2^(j+1)), support N/2^j.
	j := 0
	for 1<<(j+1) <= k {
		j++
	}
	length = n >> j
	start = (k - 1<<j) * length
	half = length / 2
	amp = 1 / math.Sqrt(float64(length))
	return start, length, half, amp
}

// BasisAt returns ψ_k[i] for the N-point orthonormal Haar basis.
func BasisAt(n, k, i int) float64 {
	start, length, half, amp := basisParams(n, k)
	if i < start || i >= start+length {
		return 0
	}
	if k == 0 || i < start+half {
		return amp
	}
	return -amp
}

// BasisRangeSum returns Σ_{i∈[a,b]} ψ_k[i] in O(1).
func BasisRangeSum(n, k, a, b int) float64 {
	if a > b {
		return 0
	}
	start, length, _, amp := basisParams(n, k)
	end := start + length - 1
	if b < start || a > end {
		return 0
	}
	if k == 0 {
		lo, hi := max(a, start), min(b, end)
		return float64(hi-lo+1) * amp
	}
	return detailRangeSum(start, length, a, b, amp)
}

// detailRangeSum is BasisRangeSum for a detail (non-DC) vector with
// support [start, start+length) that meets [a,b], given its amplitude.
// A support wholly inside [a,b] sums to exactly +0 (half·amp − half·amp).
func detailRangeSum(start, length, a, b int, amp float64) float64 {
	end := start + length - 1
	posEnd := start + length/2 - 1
	var sum float64
	if a <= posEnd && b >= start {
		lo, hi := max(a, start), min(b, posEnd)
		sum += float64(hi-lo+1) * amp
	}
	if b > posEnd {
		lo, hi := max(a, posEnd+1), min(b, end)
		if lo <= hi {
			sum -= float64(hi-lo+1) * amp
		}
	}
	return sum
}

// PathIndices returns the indices of the O(log N) coefficients whose basis
// vectors are non-zero at position i: the DC plus, per level with support
// length L, the detail coefficient n/L + i/L.
func PathIndices(n, i int) []int {
	idx := []int{0}
	for length := n; length > 1; length /= 2 {
		idx = append(idx, n/length+i/length)
	}
	return idx
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// PadRepeat pads data to the next power of two by repeating the last
// value (used for prefix arrays so the padded region stays flat).
func PadRepeat(data []float64) []float64 {
	p := NextPow2(len(data))
	if p == len(data) {
		return data
	}
	out := make([]float64, p)
	copy(out, data)
	last := 0.0
	if len(data) > 0 {
		last = data[len(data)-1]
	}
	for i := len(data); i < p; i++ {
		out[i] = last
	}
	return out
}

// PadZero pads data to the next power of two with zeros (used for count
// arrays so padded positions contribute no mass).
func PadZero(data []float64) []float64 {
	p := NextPow2(len(data))
	if p == len(data) {
		return data
	}
	out := make([]float64, p)
	copy(out, data)
	return out
}

// Coefficient is one retained (index, value) pair; it costs two words.
type Coefficient struct {
	Index int
	Value float64
}

// TopB returns the b coefficients of largest magnitude, optionally
// skipping the DC coefficient (index 0). Ties break toward smaller index
// for determinism. The result is sorted by index.
func TopB(coeffs []float64, b int, skipDC bool) []Coefficient {
	if b < 0 {
		b = 0
	}
	idx := make([]int, 0, len(coeffs))
	for i := range coeffs {
		if skipDC && i == 0 {
			continue
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(x, y int) bool {
		ax, ay := math.Abs(coeffs[idx[x]]), math.Abs(coeffs[idx[y]])
		if ax != ay {
			return ax > ay
		}
		return idx[x] < idx[y]
	})
	if b > len(idx) {
		b = len(idx)
	}
	kept := idx[:b]
	sort.Ints(kept)
	out := make([]Coefficient, len(kept))
	for i, k := range kept {
		out[i] = Coefficient{Index: k, Value: coeffs[k]}
	}
	return out
}
