package main

import (
	"math"
	"sort"
	"sync"
)

// mutation is one acknowledged write: delta records at value.
type mutation struct {
	value int
	delta int64
}

// answer is one served range answer awaiting its check.
type answer struct {
	op      int64
	version int64
	a, b    int
	value   float64
	bound   float64 // NaN when the response carried no bound
	maxErr  float64 // NaN when the request set no budget
	exact   bool    // the request asked for the exact path
	pinned  bool    // a pinned synopsis without a budget answered
}

// oracle is the brute-force mirror of the served data. The benchmark is
// the only writer and every mutation bumps the engine version by one, so
// the data at version v0+i is the base counts plus the first i logged
// mutations. Each answer is checked against the mirror at the version
// its response reports: exact answers must match exactly, bounded
// answers must lie within their bound, and budgeted answers must carry
// a bound within the budget.
type oracle struct {
	mu      sync.Mutex
	counts  []int64
	prefix  []int64
	v0      int64
	muts    []mutation
	pending []answer

	ranges, exactMismatches, boundViolations int64
	absErr, exactSum                         float64
	failedOps                                map[int64]bool
}

func newOracle(counts []int64, v0 int64) *oracle {
	o := &oracle{counts: append([]int64(nil), counts...), v0: v0, failedOps: make(map[int64]bool)}
	o.prefix = make([]int64, len(counts)+1)
	for i, c := range counts {
		o.prefix[i+1] = o.prefix[i] + c
	}
	return o
}

// log records mutations before they are sent, so no response can report
// a version the mirror does not know.
func (o *oracle) log(ms []mutation) {
	o.mu.Lock()
	o.muts = append(o.muts, ms...)
	o.mu.Unlock()
}

// head is the newest version the mirror knows.
func (o *oracle) head() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.v0 + int64(len(o.muts))
}

// fail marks an operation failed for a reason found outside the range
// checks (bad status, bad shape, unknown version).
func (o *oracle) fail(op int64) {
	o.mu.Lock()
	o.failedOps[op] = true
	o.mu.Unlock()
}

// check verifies an answer now when the data never changed, and defers
// it to finish otherwise.
func (o *oracle) check(ans answer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case ans.version < o.v0 || ans.version > o.v0+int64(len(o.muts)):
		o.failedOps[ans.op] = true
	case len(o.muts) == 0:
		o.judge(ans, o.prefix[clampIdx(ans.b+1, len(o.counts))]-o.prefix[clampIdx(ans.a, len(o.counts))])
	default:
		o.pending = append(o.pending, ans)
	}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// judge applies the checks to one answer given the exact value at its
// version. Called with o.mu held.
func (o *oracle) judge(ans answer, exact int64) {
	o.ranges++
	x := float64(exact)
	residual := math.Abs(ans.value - x)
	bad := false
	if ans.exact && (ans.value != x || ans.bound != 0) {
		o.exactMismatches++
		bad = true
	}
	if !math.IsNaN(ans.bound) && residual > ans.bound {
		o.boundViolations++
		bad = true
	} else if !math.IsNaN(ans.maxErr) && (math.IsNaN(ans.bound) || ans.bound > ans.maxErr) {
		o.boundViolations++ // the answer's bound misses the requested budget
		bad = true
	}
	if bad {
		o.failedOps[ans.op] = true
	}
	if ans.pinned {
		o.absErr += residual
		o.exactSum += x
	}
}

// finish checks the deferred answers: sorted by version, with a Fenwick
// tree advanced through the mutation log.
func (o *oracle) finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	sort.Slice(o.pending, func(i, j int) bool { return o.pending[i].version < o.pending[j].version })
	n := len(o.counts)
	fw := make([]int64, n+1)
	add := func(i int, d int64) {
		for i++; i <= n; i += i & -i {
			fw[i] += d
		}
	}
	sum := func(i int) int64 { // Σ counts[0..i)
		var s int64
		for ; i > 0; i -= i & -i {
			s += fw[i]
		}
		return s
	}
	for i, c := range o.counts {
		add(i, c)
	}
	applied := int64(0)
	for _, ans := range o.pending {
		for ; applied < ans.version-o.v0; applied++ {
			m := o.muts[applied]
			add(m.value, m.delta)
		}
		o.judge(ans, sum(clampIdx(ans.b+1, n))-sum(clampIdx(ans.a, n)))
	}
	o.pending = nil
}

// errRel is Σ|answer − exact| / Σ exact over pinned-synopsis answers:
// the realized error users of the synopses get.
func (o *oracle) errRel() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return ratio(o.absErr, o.exactSum)
}
