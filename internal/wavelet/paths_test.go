package wavelet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rangeagg/internal/prefix"
)

// fullSum is the O(B) reference answer: every kept coefficient's range
// inner product, summed in index order.
func fullSum(s *DataSynopsis, a, b int) float64 {
	var sum float64
	for _, c := range s.Coefficients() {
		sum += c.Value * BasisRangeSum(s.pow, c.Index, a, b)
	}
	return sum
}

// probeRanges returns every range for tiny domains, else a fixed mix of
// edge, point, dyadic-aligned and random ranges.
func probeRanges(rng *rand.Rand, n int) [][2]int {
	var rs [][2]int
	if n <= 8 {
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				rs = append(rs, [2]int{a, b})
			}
		}
		return rs
	}
	rs = append(rs, [2]int{0, n - 1}, [2]int{0, 0}, [2]int{n - 1, n - 1}, [2]int{1, n - 2})
	for length := 1; length < n; length *= 2 {
		for _, a := range []int{0, length, n / 2 / length * length} {
			if b := a + length - 1; b < n {
				rs = append(rs, [2]int{a, b}, [2]int{a, n - 1}, [2]int{0, b})
			}
		}
	}
	for i := 0; i < 150; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		rs = append(rs, [2]int{a, b})
	}
	return rs
}

// TestDataSynopsisPathProbeBitIdentical pins the path-restricted TOPBB
// answers to the O(B) sum bit for bit, also after a JSON round trip.
func TestDataSynopsisPathProbeBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 777, 1000, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(float64(5000)/math.Pow(float64(i+1), 0.9)) + rng.Int63n(40)
		}
		pow := NextPow2(n)
		ranges := probeRanges(rng, n)
		for _, b := range []int{1, 7, 17, 18, 128, pow} {
			if b > pow {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/B=%d", n, b), func(t *testing.T) {
				s, err := NewData(counts, b)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteJSON(&buf, s); err != nil {
					t.Fatal(err)
				}
				back, err := ReadJSON(&buf)
				if err != nil {
					t.Fatal(err)
				}
				wantEst, wantCum := make([]float64, len(ranges)), make([]float64, len(ranges))
				for i, r := range ranges {
					wantEst[i], wantCum[i] = fullSum(s, r[0], r[1]), fullSum(s, 0, r[1])
				}
				for _, syn := range []*DataSynopsis{s, back.(*DataSynopsis)} {
					for i, r := range ranges {
						if got := syn.Estimate(r[0], r[1]); math.Float64bits(got) != math.Float64bits(wantEst[i]) {
							t.Fatalf("Estimate(%d,%d) = %v, O(B) sum %v", r[0], r[1], got, wantEst[i])
						}
						if got := syn.CumEstimate(r[1] + 1); math.Float64bits(got) != math.Float64bits(wantCum[i]) {
							t.Fatalf("CumEstimate(%d) = %v, O(B) sum %v", r[1]+1, got, wantCum[i])
						}
					}
				}
			})
		}
	}
}

// TestPrefixCumEstimateAnchor pins the cached P̂[0] anchor to the
// recomputed one.
func TestPrefixCumEstimateAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	counts := randCounts(rng, 1000, 500)
	for _, b := range []int{1, 17, 128} {
		s, err := NewPrefixTopB(prefix.NewTable(counts), b)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt <= 1000; tt += 7 {
			want := s.pointRecon(tt) - s.pointRecon(0)
			if got := s.CumEstimate(tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("B=%d CumEstimate(%d) = %v, want %v", b, tt, got, want)
			}
		}
	}
}

// TestDuplicateCoefficientIndexRejected: a duplicate index would be
// summed twice by the O(B) reference but read once through the index
// map, so every way in refuses it.
func TestDuplicateCoefficientIndexRejected(t *testing.T) {
	for _, kind := range []string{"data", "prefix"} {
		payload := `{"kind":"` + kind + `","n":3,"pow":4,"coeffs":[{"Index":1,"Value":2},{"Index":2,"Value":1},{"Index":1,"Value":3}]}`
		if _, err := ReadJSON(strings.NewReader(payload)); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s: ReadJSON accepted a duplicated index (err=%v)", kind, err)
		}
	}
	dup := []Coefficient{{Index: 2, Value: 1}, {Index: 2, Value: 5}}
	if _, err := newDataFromCoeffs(3, 4, dup, "dup"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("newDataFromCoeffs accepted a duplicated index (err=%v)", err)
	}
	if _, err := newPrefixFromCoeffs(3, 4, dup, "dup"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("newPrefixFromCoeffs accepted a duplicated index (err=%v)", err)
	}
}
