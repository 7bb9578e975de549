package build

import (
	"math"
	"strings"
	"testing"

	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
	"rangeagg/internal/sse"
)

func testCounts() []int64 {
	// A small skewed distribution: Zipf-ish head plus a mid-domain spike.
	c := make([]int64, 48)
	for i := range c {
		c[i] = int64(400 / (i + 1))
	}
	c[30] = 250
	return c
}

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, m := range method.IDs() {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if got != m {
			t.Errorf("ParseMethod(%s) = %v, want %v", m, got, m)
		}
	}
	if got, err := ParseMethod("opt-a"); err != nil || got != method.OptA {
		t.Errorf("case-insensitive parse: %v, %v", got, err)
	}
	if _, err := ParseMethod("NOPE"); err == nil {
		t.Error("NOPE accepted")
	}
	if method.ID(99).String() == "" {
		t.Error("out-of-range String empty")
	}
}

func TestUnitsAccounting(t *testing.T) {
	cases := []struct {
		m    method.ID
		w, u int
	}{
		{method.Naive, 0, 1},
		{method.OptA, 32, 16},    // 2 words per bucket
		{method.A0, 12, 6},       // 2 words per bucket
		{method.SAP0, 12, 4},     // 3 words per bucket
		{method.SAP1, 15, 3},     // 5 words per bucket
		{method.SAP2, 14, 2},     // 7 words per bucket
		{method.WaveTopBB, 8, 4}, // 2 words per coefficient
		{method.SAP1, 4, 1},      // never below one bucket
	}
	for _, c := range cases {
		if got := (Options{Method: c.m, BudgetWords: c.w}).Units(); got != c.u {
			t.Errorf("%s at %d words: units = %d, want %d", c.m, c.w, got, c.u)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{Method: method.A0, BudgetWords: 8}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := Build([]int64{1, -2}, Options{Method: method.A0, BudgetWords: 8}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Build([]int64{1, 2}, Options{Method: method.ID(99), BudgetWords: 8}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Build([]int64{1, 2}, Options{Method: method.A0}); err == nil {
		t.Error("zero budget accepted for A0")
	}
	if _, err := Build([]int64{1, 2}, Options{Method: method.Naive}); err != nil {
		t.Error("Naive must not need a budget")
	}
	if _, err := Build([]int64{1, 2, 3}, Options{Method: method.SAP0, BudgetWords: 9, Reopt: true}); err == nil {
		t.Error("reopt accepted on a non-average representation")
	}
}

func TestBuildAllMethodsWithinBudget(t *testing.T) {
	counts := testCounts()
	tab := prefix.NewTable(counts)
	naive, err := Build(counts, Options{Method: method.Naive})
	if err != nil {
		t.Fatal(err)
	}
	base := sse.Of(tab, naive)
	for _, m := range method.IDs() {
		// Epsilon feeds the approximate families; exact methods ignore it.
		est, err := Build(counts, Options{Method: m, BudgetWords: 14, Seed: 1, Epsilon: 0.1})
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		if est.N() != len(counts) {
			t.Errorf("%s: N = %d", m, est.N())
		}
		if est.StorageWords() > 14 {
			t.Errorf("%s: %d words over the 14-word budget", m, est.StorageWords())
		}
		got := sse.Of(tab, est)
		if math.IsNaN(got) || got < 0 || (m != method.Naive && got > base) {
			t.Errorf("%s: SSE %g vs NAIVE %g", m, got, base)
		}
	}
}

func TestImprovementOperators(t *testing.T) {
	counts := testCounts()
	tab := prefix.NewTable(counts)
	plain, err := Build(counts, Options{Method: method.EquiWidth, BudgetWords: 12})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Build(counts, Options{Method: method.EquiWidth, BudgetWords: 12, LocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Build(counts, Options{Method: method.EquiWidth, BudgetWords: 12, LocalSearch: true, Reopt: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(ls.Name(), "-ls") {
		t.Errorf("local search name = %q", ls.Name())
	}
	if !strings.HasSuffix(both.Name(), "-ls-reopt") {
		t.Errorf("combined name = %q", both.Name())
	}
	s0, s1, s2 := sse.Of(tab, plain), sse.Of(tab, ls), sse.Of(tab, both)
	if s1 > s0+1e-9 || s2 > s1+1e-9 {
		t.Errorf("operators increased SSE: plain %g, ls %g, ls+reopt %g", s0, s1, s2)
	}
}

func TestCoarsenToLiftsBoundaries(t *testing.T) {
	counts := make([]int64, 600)
	for i := range counts {
		counts[i] = int64((i % 37) * (i % 11))
	}
	tab := prefix.NewTable(counts)
	for _, m := range []method.ID{method.A0, method.SAP0, method.SAP1, method.EquiDepth} {
		est, err := Build(counts, Options{Method: m, BudgetWords: 20, CoarsenTo: 64})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if est.N() != len(counts) {
			t.Errorf("%s: N = %d, want %d", m, est.N(), len(counts))
		}
		if est.StorageWords() > 20 {
			t.Errorf("%s: %d words over budget", m, est.StorageWords())
		}
		// Boundaries must land on coarse-cell edges (multiples of 600/64
		// rounded by the cell map i·n/C).
		starts, _, err := bucketStarts(est)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		cellEdge := make(map[int]bool, 65)
		for i := 0; i <= 64; i++ {
			cellEdge[i*600/64] = true
		}
		for _, s := range starts {
			if !cellEdge[s] {
				t.Errorf("%s: boundary %d is not a coarse-cell edge", m, s)
			}
		}
		if got := sse.Of(tab, est); math.IsNaN(got) || got < 0 {
			t.Errorf("%s: SSE = %g", m, got)
		}
	}
	// CoarsenTo at or above the domain size is a no-op, not an error.
	if _, err := Build(testCounts(), Options{Method: method.A0, BudgetWords: 10, CoarsenTo: 4096}); err != nil {
		t.Errorf("oversized CoarsenTo: %v", err)
	}
}

func TestRoundingPlumbed(t *testing.T) {
	counts := testCounts()
	est, err := Build(counts, Options{Method: method.EquiWidth, BudgetWords: 8, Rounding: histogram.RoundCumulative})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := est.(*histogram.Avg)
	if !ok {
		t.Fatalf("EquiWidth built %T", est)
	}
	if h.Mode != histogram.RoundCumulative {
		t.Errorf("mode = %v", h.Mode)
	}
	for a := 0; a < len(counts); a += 7 {
		v := h.Estimate(a, len(counts)-1)
		if v != math.Trunc(v) {
			t.Errorf("rounded estimate [%d,%d] = %g not integral", a, len(counts)-1, v)
		}
	}
}

// TestWithApprox pins the cutover substitution rebuilds construct
// through: 0 selects DefaultApproxCutover (32768), a domain at or above
// the cutover substitutes the registered approximate counterpart, a
// negative cutover disables it, and CoarsenTo > 0 or a method without a
// counterpart leaves the options unchanged. ε defaults to 0.1 unless the
// caller pinned one in (0,1).
func TestWithApprox(t *testing.T) {
	if DefaultApproxCutover != 32768 {
		t.Fatalf("DefaultApproxCutover = %d, want 32768", DefaultApproxCutover)
	}
	a0 := Options{Method: method.A0, BudgetWords: 12}
	sub := func(o Options, m method.ID, eps float64) Options {
		o.Method, o.Epsilon = m, eps
		return o
	}
	coarse := a0
	coarse.CoarsenTo = 64
	pinned := a0
	pinned.Epsilon = 0.25
	badEps := a0
	badEps.Epsilon = 1.5
	for _, c := range []struct {
		name            string
		opt             Options
		domain, cutover int
		want            Options
	}{
		{"default cutover, below", a0, 32767, 0, a0},
		{"default cutover, at", a0, 32768, 0, sub(a0, method.A0Approx, 0.1)},
		{"explicit cutover, below", a0, 63, 64, a0},
		{"explicit cutover, at", a0, 64, 64, sub(a0, method.A0Approx, 0.1)},
		{"explicit cutover, above", a0, 1000, 64, sub(a0, method.A0Approx, 0.1)},
		{"negative cutover disables", a0, 1 << 20, -1, a0},
		{"coarsen-lift wins", coarse, 1 << 20, 64, coarse},
		{"pinned epsilon kept", pinned, 64, 64, sub(a0, method.A0Approx, 0.25)},
		{"out-of-range epsilon defaulted", badEps, 64, 64, sub(a0, method.A0Approx, 0.1)},
		{"SAP0 substitutes", Options{Method: method.SAP0, BudgetWords: 12}, 64, 64,
			Options{Method: method.SAP0Approx, BudgetWords: 12, Epsilon: 0.1}},
		{"POINT-OPT substitutes", Options{Method: method.PointOpt, BudgetWords: 12}, 64, 64,
			Options{Method: method.PointOptApprox, BudgetWords: 12, Epsilon: 0.1}},
		{"no counterpart", Options{Method: method.SAP1, BudgetWords: 20}, 64, 64,
			Options{Method: method.SAP1, BudgetWords: 20}},
		{"already approximate", sub(a0, method.A0Approx, 0.3), 64, 64, sub(a0, method.A0Approx, 0.3)},
	} {
		if got := WithApprox(c.opt, c.domain, c.cutover); got != c.want {
			t.Errorf("%s: WithApprox(%+v, %d, %d) = %+v, want %+v",
				c.name, c.opt, c.domain, c.cutover, got, c.want)
		}
	}
}
