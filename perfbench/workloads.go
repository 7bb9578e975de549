package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
)

// Parameters shared by every workload. BENCHMARK.json repeats the ones a
// reader needs to interpret the figures (TestBenchmarkJSONRecordsParameters
// keeps the two in step).
const (
	domainN     = 65536 // attribute domain: n counts
	zipfAlpha   = 1.2   // rounded-Zipf exponent of the counts
	zipfHead    = 1000  // float frequency of rank 1 before rounding
	batchRanges = 64    // ranges per /query/batch request
	setups      = 5     // stack constructions per run; setup_s is their median

	// subWindowCount splits the measured window for the median-of-parts
	// end-to-end figures.
	subWindowCount = 5
	poolRanges     = 1024 // read-hot range pool (fits the 4096-entry planner cache)
	coldShare      = 0.05 // read-hot ranges drawn outside the pool: cache misses

	// read-write: the open-loop reader's fixed rate and the generator
	// lateness (p99) past which a run is invalid instead of a result.
	readRate    = 200 // /query/batch requests per second
	lateLimitMs = 50

	writeInserts = 4 // Zipf-placed inserts per POST /ingest
)

// synDef is one synopsis a workload's nodes serve.
type synDef struct {
	name     string
	method   string
	budget   int
	segments int
}

func (d synDef) spec() (engine.SynopsisSpec, error) {
	m, err := build.ParseMethod(d.method)
	if err != nil {
		return engine.SynopsisSpec{}, fmt.Errorf("synopsis %s: %w", d.name, err)
	}
	return engine.SynopsisSpec{Name: d.name, Metric: engine.Count,
		Options: build.Options{Method: m, BudgetWords: d.budget, Segments: d.segments}}, nil
}

// workload is one traffic mix over one serving stack.
type workload struct {
	name string
	syns []synDef
	// durable nodes log to a WAL (fsync always, checkpoint every 1024
	// records); incremental nodes maintain synopses in place on ingest.
	durable, incremental bool
	// nodes > 0 serves through a router over that many segment-owning
	// nodes; 0 is one standalone node.
	nodes int
}

var workloads = []workload{
	{
		name: "read-hot",
		syns: []synDef{{"coarse", "EQUI-WIDTH", 16, 0}, {"fine", "TOPBB", 256, 0}, {"seg", "SEGMENTED", 256, 8}},
	},
	{
		name:    "read-write",
		syns:    []synDef{{"seg", "SEGMENTED", 256, 8}, {"avg", "A0", 64, 0}, {"wave", "WAVE-RANGEOPT", 128, 0}},
		durable: true, incremental: true,
	},
	{
		name:  "routed",
		syns:  []synDef{{"avg", "A0", 64, 0}},
		nodes: 4,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) specs() ([]engine.SynopsisSpec, error) {
	out := make([]engine.SynopsisSpec, len(w.syns))
	for i, d := range w.syns {
		sp, err := d.spec()
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// genCounts draws the workload data from the seed: n rounded-Zipf counts
// in rank order, as the repository's own benchmarks use.
func genCounts(seed int64) ([]int64, error) {
	d, err := dataset.Zipf(dataset.ZipfConfig{N: domainN, Alpha: zipfAlpha, MaxCount: zipfHead, Seed: seed})
	if err != nil {
		return nil, err
	}
	return d.Counts, nil
}

// Serving settings: synserve's and synrouter's flag defaults.
const (
	debounce     = 50 * time.Millisecond
	maxLag       = time.Second
	ckptEvery    = 1024
	readTimeout  = 10 * time.Second
	writeTimeout = 30 * time.Second
)

// hotGen draws read-hot requests: ranges picked Zipf-skewed from a pool
// that fits the planner cache, plus a cold share drawn fresh (which miss
// the cache and so probe and escalate), and a mix of synopsis-pinned,
// maxerr-budgeted and exact requests so every planner path is taken.
type hotGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	pool    [][2]int
	syns    []string
	budgets []float64
}

// hotBudgets are the maxerr values budgeted requests carry: loose
// enough that the coarse synopsis meets some ranges, tight enough that
// others escalate or fall through to the exact tables.
var hotBudgets = []float64{4, 32, 256}

// hotPoolSeed fixes the read-hot pool: the hot set is a property of the
// workload, like a dashboard's fixed queries, while the run seed varies
// the data, the pick order and the cold ranges. A per-seed pool would
// let a few hot ranges swing err_rel from seed to seed.
const hotPoolSeed = 0x706f6f6c

func newHotPool() [][2]int {
	rng := rand.New(rand.NewSource(hotPoolSeed))
	pool := make([][2]int, poolRanges)
	for i := range pool {
		a := rng.Intn(domainN)
		pool[i] = [2]int{a, min(a+1+rng.Intn(domainN/8), domainN-1)}
	}
	return pool
}

func newHotGen(pool [][2]int, syns []string, seed int64) *hotGen {
	rng := rand.New(rand.NewSource(seed))
	return &hotGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1)),
		pool: pool, syns: syns, budgets: hotBudgets}
}

func (g *hotGen) next(single bool) *query {
	q := &query{maxErr: math.NaN(), single: single}
	switch r := g.rng.Float64(); {
	case r < 0.4:
		q.syn = g.syns[g.rng.Intn(len(g.syns))]
	case r < 0.8:
		q.maxErr = g.budgets[g.rng.Intn(len(g.budgets))]
	}
	k := batchRanges
	if single {
		k = 1
	}
	for i := 0; i < k; i++ {
		if g.rng.Float64() < coldShare {
			q.ranges = append(q.ranges, randomRange(g.rng))
		} else {
			q.ranges = append(q.ranges, g.pool[g.zipf.Uint64()])
		}
	}
	return q
}

// randomRange is a uniformly random range [a,b] of the domain.
func randomRange(rng *rand.Rand) [2]int {
	a, b := rng.Intn(domainN), rng.Intn(domainN)
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// uniformGen draws uniformly random ranges (too many distinct ones for
// any cache), pinned to the synopses in turn; exactShare of requests ask
// for the exact path instead.
type uniformGen struct {
	rng        *rand.Rand
	syns       []string
	exactShare float64
	turn       int
}

func (g *uniformGen) next(single bool) *query {
	q := &query{maxErr: math.NaN(), single: single}
	if g.rng.Float64() >= g.exactShare {
		q.syn = g.syns[g.turn%len(g.syns)]
		g.turn++
	}
	k := batchRanges
	if single {
		k = 1
	}
	for i := 0; i < k; i++ {
		q.ranges = append(q.ranges, randomRange(g.rng))
	}
	return q
}
