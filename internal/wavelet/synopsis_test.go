package wavelet

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rangeagg/internal/prefix"
)

func randCounts(rng *rand.Rand, n int, lim int64) []int64 {
	c := make([]int64, n)
	for i := range c {
		c[i] = rng.Int63n(lim)
	}
	return c
}

// bruteSSE computes the range SSE of any estimator directly.
func bruteSSE(tab *prefix.Table, est interface{ Estimate(a, b int) float64 }) float64 {
	n := tab.N()
	var sum float64
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			d := tab.SumF(a, b) - est.Estimate(a, b)
			sum += d * d
		}
	}
	return sum
}

func TestDataSynopsisFullBIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	counts := randCounts(rng, 16, 50)
	tab := prefix.NewTable(counts)
	s, err := NewData(counts, 16)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		for b := a; b < 16; b++ {
			if got, want := s.Estimate(a, b), tab.SumF(a, b); !approxEq(got, want) {
				t.Fatalf("Estimate(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
}

func TestDataSynopsisPaddedDomain(t *testing.T) {
	// Non-power-of-two n: zero padding must not disturb in-domain answers
	// at full coefficient budget.
	rng := rand.New(rand.NewSource(74))
	counts := randCounts(rng, 11, 50)
	tab := prefix.NewTable(counts)
	s, err := NewData(counts, 16)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 11; a++ {
		for b := a; b < 11; b++ {
			if got, want := s.Estimate(a, b), tab.SumF(a, b); !approxEq(got, want) {
				t.Fatalf("Estimate(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
}

func TestPrefixSynopsisFullBIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	counts := randCounts(rng, 15, 50) // prefix array: 16 entries, power of two
	tab := prefix.NewTable(counts)
	s, err := NewRangeOpt(tab, 15) // all non-DC coefficients of a 16-transform
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 15; a++ {
		for b := a; b < 15; b++ {
			if got, want := s.Estimate(a, b), tab.SumF(a, b); !approxEq(got, want) {
				t.Fatalf("Estimate(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
}

func TestCumEstimateConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	counts := randCounts(rng, 15, 40)
	tab := prefix.NewTable(counts)
	d, _ := NewData(counts, 5)
	p, _ := NewRangeOpt(tab, 5)
	for _, est := range []interface {
		Estimate(a, b int) float64
		CumEstimate(t int) float64
	}{d, p} {
		if got := est.CumEstimate(0); got != 0 {
			t.Fatalf("CumEstimate(0) = %g, want 0", got)
		}
		for a := 0; a < 15; a++ {
			for b := a; b < 15; b++ {
				want := est.CumEstimate(b+1) - est.CumEstimate(a)
				if got := est.Estimate(a, b); !approxEq(got, want) {
					t.Fatalf("%T: Estimate(%d,%d)=%g but cum diff=%g", est, a, b, got, want)
				}
			}
		}
	}
}

// TestRangeOptIsOptimalAmongSubsets verifies the Theorem 9 construction:
// on power-of-two prefix lengths, no other B-subset of prefix-domain Haar
// coefficients achieves smaller range SSE.
func TestRangeOptIsOptimalAmongSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	counts := randCounts(rng, 15, 60) // N = 16
	tab := prefix.NewTable(counts)
	const b = 4
	opt, err := NewRangeOpt(tab, b)
	if err != nil {
		t.Fatal(err)
	}
	optSSE := bruteSSE(tab, opt)

	full, err := TransformPow2(PadRepeat(tab.P))
	if err != nil {
		t.Fatal(err)
	}
	pow := len(full)
	// Try many random subsets of size b (including ones with DC).
	for trial := 0; trial < 300; trial++ {
		perm := rng.Perm(pow)[:b]
		sort.Ints(perm)
		kept := make([]Coefficient, b)
		for i, k := range perm {
			kept[i] = Coefficient{Index: k, Value: full[k]}
		}
		cand, err := newPrefixFromCoeffs(tab.N(), pow, kept, "cand")
		if err != nil {
			t.Fatal(err)
		}
		if got := bruteSSE(tab, cand); got < optSSE-1e-6*(1+optSSE) {
			t.Fatalf("subset %v SSE %g beats range-opt %g", perm, got, optSSE)
		}
	}
}

// TestRangeOptSSEClosedForm: SSE = N · Σ_{dropped non-DC} c² on
// power-of-two prefix lengths.
func TestRangeOptSSEClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	counts := randCounts(rng, 31, 80) // N = 32
	tab := prefix.NewTable(counts)
	full, _ := TransformPow2(PadRepeat(tab.P))
	for _, b := range []int{1, 3, 8, 15} {
		s, err := NewRangeOpt(tab, b)
		if err != nil {
			t.Fatal(err)
		}
		kept := map[int]bool{}
		for _, c := range s.Coefficients() {
			kept[c.Index] = true
		}
		var want float64
		for k := 1; k < len(full); k++ {
			if !kept[k] {
				want += full[k] * full[k] * float64(len(full))
			}
		}
		if got := bruteSSE(tab, s); !approxNear(got, want, 1e-6) {
			t.Fatalf("b=%d: SSE %g, closed form %g", b, got, want)
		}
	}
}

func approxNear(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// TestWaveletClassesAreSane builds the paper's n=127 Zipf shape and checks
// every wavelet method produces finite errors that decrease with budget.
// Note the classes are genuinely incomparable: the prefix-domain selection
// is optimal among prefix-coefficient subsets, the data-domain TOPBB among
// data-coefficient subsets, and the 2-D AA construction among AA-matrix
// subsets — none dominates the others on every dataset.
func TestWaveletClassesAreSane(t *testing.T) {
	counts := make([]int64, 127)
	for i := range counts {
		counts[i] = int64(1000 / math.Pow(float64(i+1), 1.8))
	}
	tab := prefix.NewTable(counts)
	prevRO, prevTB := math.Inf(1), math.Inf(1)
	for _, b := range []int{4, 8, 16, 32} {
		ro, err := NewRangeOpt(tab, b)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewData(counts, b)
		if err != nil {
			t.Fatal(err)
		}
		roSSE := bruteSSE(tab, ro)
		tbSSE := bruteSSE(tab, tb)
		if math.IsNaN(roSSE) || math.IsNaN(tbSSE) {
			t.Fatalf("b=%d: NaN SSE", b)
		}
		if roSSE > prevRO+1e-6 {
			t.Errorf("range-opt SSE increased with budget: %g → %g at b=%d", prevRO, roSSE, b)
		}
		if tbSSE > prevTB*1.5+1e-6 { // greedy data-domain selection is not monotone in theory; allow slack
			t.Errorf("TOPBB SSE grew sharply with budget: %g → %g at b=%d", prevTB, tbSSE, b)
		}
		prevRO, prevTB = roSSE, tbSSE
	}
}

func TestPrefixTopBNeverBeatsRangeOpt(t *testing.T) {
	// Keeping the DC coefficient wastes a slot; the DC-skipping selection
	// must be at least as good on power-of-two prefix lengths.
	rng := rand.New(rand.NewSource(79))
	counts := randCounts(rng, 31, 100)
	tab := prefix.NewTable(counts)
	for _, b := range []int{2, 5, 9} {
		ro, _ := NewRangeOpt(tab, b)
		tp, _ := NewPrefixTopB(tab, b)
		if got, ref := bruteSSE(tab, ro), bruteSSE(tab, tp); got > ref+1e-6*(1+ref) {
			t.Errorf("b=%d: range-opt %g > prefix-topB %g", b, got, ref)
		}
	}
}

func TestSynopsisValidation(t *testing.T) {
	if _, err := NewData(nil, 3); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := NewData([]int64{1, 2}, 0); err == nil {
		t.Error("b=0 accepted")
	}
	tab := prefix.NewTable([]int64{1, 2})
	if _, err := NewRangeOpt(tab, 0); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := NewPrefixTopB(tab, -1); err == nil {
		t.Error("b<0 accepted")
	}
}

func TestEstimatePanicsOnBadRange(t *testing.T) {
	s, _ := NewData([]int64{1, 2, 3, 4}, 2)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	s.Estimate(2, 9)
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	counts := randCounts(rng, 20, 50)
	tab := prefix.NewTable(counts)
	d, _ := NewData(counts, 6)
	p, _ := NewRangeOpt(tab, 6)
	for _, s := range []any{d, p} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		orig := s.(interface{ Estimate(a, b int) float64 })
		back := got.(interface{ Estimate(a, b int) float64 })
		for a := 0; a < 20; a += 3 {
			for b := a; b < 20; b += 2 {
				if g, w := back.Estimate(a, b), orig.Estimate(a, b); !approxEq(g, w) {
					t.Fatalf("%T round trip Estimate(%d,%d) = %g, want %g", s, a, b, g, w)
				}
			}
		}
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{broken`,
		`{"kind":"nope","n":4,"pow":4,"coeffs":[]}`,
		`{"kind":"data","n":4,"pow":3,"coeffs":[]}`,                      // pow not a power of two
		`{"kind":"data","n":4,"pow":4,"coeffs":[{"Index":9,"Value":1}]}`, // index out of range
		`{"kind":"prefix","n":4,"pow":4,"coeffs":[]}`,                    // prefix needs pow ≥ n+1
		`{"kind":"data","n":0,"pow":4,"coeffs":[]}`,                      // empty domain
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestWriteJSONRejectsUnknown(t *testing.T) {
	if err := WriteJSON(&bytes.Buffer{}, 42); err == nil {
		t.Error("unknown type accepted")
	}
}
