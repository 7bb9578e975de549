package rangeagg_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"rangeagg"
)

// catalogSurface is what Engine and Durable both answer and accept.
type catalogSurface interface {
	Load(counts []int64) error
	Insert(value int, occurrences int64) error
	Delete(value int, occurrences int64) error
	BuildSynopsis(name string, metric rangeagg.Metric, opt rangeagg.Options) error
	DropSynopsis(name string) bool
	MergeFrom(other *rangeagg.Engine, name string) error

	Domain() int
	Records() int64
	Counts() []int64
	ExactCount(a, b int) int64
	ExactSum(a, b int) int64
	SynopsisNames() []string
	Describe(name string) (rangeagg.SynopsisInfo, error)
	Approx(name string, a, b int) (float64, error)
	ApproxWithError(name string, a, b int) (rangeagg.ApproxAnswer, error)
	ApproxBatch(name string, queries []rangeagg.Range) ([]float64, error)
	Report(name string, queries []rangeagg.Range) (rangeagg.Metrics, error)
	SynopsisSSE(name string) (float64, error)
	Progressive(name string, a, b, chunks int) ([]rangeagg.ProgressiveStep, error)
}

var (
	_ catalogSurface = (*rangeagg.Engine)(nil)
	_ catalogSurface = (*rangeagg.Durable)(nil)
)

const catalogDomain = 96

func catalogCounts() []int64 {
	counts := make([]int64, catalogDomain)
	for i := range counts {
		counts[i] = int64(1 + (i*37)%23)
	}
	counts[70] = 400
	return counts
}

// segmentedOpts asks for a non-default segmentation: four
// weight-balanced segments instead of eight equi-width ones.
var segmentedOpts = rangeagg.Options{
	Method: rangeagg.Segmented, BudgetWords: 48, Segments: 4, SegmentPolicy: "weight-balanced",
}

func openCatalogDurable(t *testing.T, dir string) *rangeagg.Durable {
	t.Helper()
	d, err := rangeagg.OpenDurable(dir, rangeagg.DurableOptions{Domain: catalogDomain, Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameAsBuild checks a registered synopsis answers every range exactly
// like rangeagg.Build over the same counts and options.
func sameAsBuild(t *testing.T, what string, c catalogSurface, name string, opt rangeagg.Options) {
	t.Helper()
	ref, err := rangeagg.Build(c.Counts(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < c.Domain(); a += 5 {
		for b := a; b < c.Domain(); b += 7 {
			got, err := c.Approx(name, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Estimate(a, b); got != want {
				t.Fatalf("%s: [%d,%d] = %v, Build answers %v", what, a, b, got, want)
			}
		}
	}
}

// TestCatalogHonoursAllOptions checks Engine and Durable build through
// the same options conversion as Build: SEGMENTED's Segments and
// SegmentPolicy are honoured and survive a Store save/open and a
// Durable reopen, and an approximate method with ε=0 is refused with
// *InvalidEpsilonError.
func TestCatalogHonoursAllOptions(t *testing.T) {
	counts := catalogCounts()
	st := rangeagg.NewStore("catalog")
	eng, err := st.CreateColumn("c", catalogDomain)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "durable")
	dur := openCatalogDurable(t, dir)
	for _, c := range []struct {
		what string
		cat  catalogSurface
	}{{"Engine", eng}, {"Durable", dur}} {
		if err := c.cat.Load(counts); err != nil {
			t.Fatal(err)
		}
		if err := c.cat.BuildSynopsis("seg", rangeagg.Count, segmentedOpts); err != nil {
			t.Fatal(err)
		}
		sameAsBuild(t, c.what, c.cat, "seg", segmentedOpts)

		err := c.cat.BuildSynopsis("a0", rangeagg.Count, rangeagg.Options{Method: rangeagg.A0Approx, BudgetWords: 16})
		var ie *rangeagg.InvalidEpsilonError
		if !errors.As(err, &ie) || ie.Method != rangeagg.A0Approx || ie.Epsilon != 0 {
			t.Fatalf("%s: A0-APPROX with ε=0 returned %v (%T), want *InvalidEpsilonError", c.what, err, err)
		}
		if names := c.cat.SynopsisNames(); !reflect.DeepEqual(names, []string{"seg"}) {
			t.Fatalf("%s: refused build registered a synopsis: %v", c.what, names)
		}
	}

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rangeagg.OpenStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col, err := back.Column("c")
	if err != nil {
		t.Fatal(err)
	}
	sameAsBuild(t, "reopened Store", col, "seg", segmentedOpts)

	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur = openCatalogDurable(t, dir)
	defer dur.Close()
	sameAsBuild(t, "reopened Durable", dur, "seg", segmentedOpts)
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur = openCatalogDurable(t, dir)
	defer dur.Close()
	sameAsBuild(t, "Durable recovered from a checkpoint", dur, "seg", segmentedOpts)
}

// TestEngineDurableDifferential drives an Engine and a Durable through
// the same mutations and builds and checks every call of the shared
// surface gives identical answers and identical public error types.
func TestEngineDurableDifferential(t *testing.T) {
	eng, err := rangeagg.NewEngine("diff", catalogDomain)
	if err != nil {
		t.Fatal(err)
	}
	dur := openCatalogDurable(t, t.TempDir())
	defer dur.Close()
	shard := func() *rangeagg.Engine {
		sh, err := rangeagg.NewEngine("shard", catalogDomain)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Insert(12, 30); err != nil {
			t.Fatal(err)
		}
		if err := sh.BuildSynopsis("avg", rangeagg.Count, rangeagg.Options{Method: rangeagg.EquiWidth, BudgetWords: 16}); err != nil {
			t.Fatal(err)
		}
		return sh
	}
	workload := []rangeagg.Range{{A: 0, B: 95}, {A: 10, B: 40}, {A: 60, B: 80}, {A: 33, B: 33}}

	cases := []struct {
		name string
		call func(c catalogSurface) (any, error)
	}{
		{"Load", func(c catalogSurface) (any, error) { return nil, c.Load(catalogCounts()) }},
		{"Load/short", func(c catalogSurface) (any, error) { return nil, c.Load([]int64{1}) }},
		{"Insert", func(c catalogSurface) (any, error) { return nil, c.Insert(5, 9) }},
		{"Insert/outside", func(c catalogSurface) (any, error) { return nil, c.Insert(catalogDomain, 1) }},
		{"Delete", func(c catalogSurface) (any, error) { return nil, c.Delete(70, 100) }},
		{"Delete/too many", func(c catalogSurface) (any, error) { return nil, c.Delete(0, 1000) }},
		{"Build/SAP0", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("sap0", rangeagg.Count, rangeagg.Options{Method: rangeagg.SAP0, BudgetWords: 24})
		}},
		{"Build/sum", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("sum", rangeagg.Sum, rangeagg.Options{Method: rangeagg.EquiDepth, BudgetWords: 16})
		}},
		{"Build/segmented", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("seg", rangeagg.Count, segmentedOpts)
		}},
		{"Build/avg", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("avg", rangeagg.Count, rangeagg.Options{Method: rangeagg.EquiWidth, BudgetWords: 16})
		}},
		{"Build/unknown method", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("bad", rangeagg.Count, rangeagg.Options{Method: rangeagg.Method(99), BudgetWords: 8})
		}},
		{"Build/bad epsilon", func(c catalogSurface) (any, error) {
			return nil, c.BuildSynopsis("bad", rangeagg.Count, rangeagg.Options{Method: rangeagg.SAP0Approx, BudgetWords: 24, Epsilon: 2})
		}},
		{"MergeFrom", func(c catalogSurface) (any, error) { return nil, c.MergeFrom(shard(), "avg") }},
		{"MergeFrom/unknown", func(c catalogSurface) (any, error) { return nil, c.MergeFrom(shard(), "ghost") }},
		{"MergeFrom/not mergeable", func(c catalogSurface) (any, error) {
			sh := shard()
			if err := sh.BuildSynopsis("sap0", rangeagg.Count, rangeagg.Options{Method: rangeagg.SAP0, BudgetWords: 24}); err != nil {
				t.Fatal(err)
			}
			return nil, c.MergeFrom(sh, "sap0")
		}},
		{"Domain", func(c catalogSurface) (any, error) { return c.Domain(), nil }},
		{"Records", func(c catalogSurface) (any, error) { return c.Records(), nil }},
		{"Counts", func(c catalogSurface) (any, error) { return c.Counts(), nil }},
		{"ExactCount", func(c catalogSurface) (any, error) { return c.ExactCount(-3, 50), nil }},
		{"ExactSum", func(c catalogSurface) (any, error) { return c.ExactSum(20, 500), nil }},
		{"SynopsisNames", func(c catalogSurface) (any, error) { return c.SynopsisNames(), nil }},
	}
	for _, name := range []string{"sap0", "sum", "seg", "avg", "ghost"} {
		cases = append(cases, []struct {
			name string
			call func(c catalogSurface) (any, error)
		}{
			{"Describe/" + name, func(c catalogSurface) (any, error) { return c.Describe(name) }},
			{"Approx/" + name, func(c catalogSurface) (any, error) { return c.Approx(name, 7, 77) }},
			{"ApproxWithError/" + name, func(c catalogSurface) (any, error) { return c.ApproxWithError(name, 30, 90) }},
			{"ApproxBatch/" + name, func(c catalogSurface) (any, error) { return c.ApproxBatch(name, workload) }},
			{"Report/" + name, func(c catalogSurface) (any, error) { return c.Report(name, workload) }},
			{"SynopsisSSE/" + name, func(c catalogSurface) (any, error) { return c.SynopsisSSE(name) }},
			{"Progressive/" + name, func(c catalogSurface) (any, error) { return c.Progressive(name, 4, 90, 5) }},
		}...)
	}
	cases = append(cases, []struct {
		name string
		call func(c catalogSurface) (any, error)
	}{
		{"DropSynopsis", func(c catalogSurface) (any, error) { return c.DropSynopsis("sum"), nil }},
		{"DropSynopsis/again", func(c catalogSurface) (any, error) { return c.DropSynopsis("sum"), nil }},
		{"Approx/dropped", func(c catalogSurface) (any, error) { return c.Approx("sum", 0, 10) }},
		{"SynopsisNames/after drop", func(c catalogSurface) (any, error) { return c.SynopsisNames(), nil }},
	}...)

	for _, c := range cases {
		want, wantErr := c.call(eng)
		got, gotErr := c.call(dur)
		if fmt.Sprintf("%T", gotErr) != fmt.Sprintf("%T", wantErr) {
			t.Errorf("%s: Durable error %v (%T), Engine error %v (%T)", c.name, gotErr, gotErr, wantErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Durable answers %v, Engine %v", c.name, got, want)
		}
	}
	// Unknown names fail with the public type on both.
	for _, c := range []catalogSurface{eng, dur} {
		var use *rangeagg.UnknownSynopsisError
		if _, err := c.Approx("ghost", 0, 1); !errors.As(err, &use) {
			t.Errorf("%T: unknown synopsis error %v (%T) is not *UnknownSynopsisError", c, err, err)
		}
	}
}

// TestReportClampsRanges checks Report clamps a workload's ranges to the
// domain as Approx does, on Engine and Durable alike: a range wholly
// outside counts as one query answered exactly, with error 0.
func TestReportClampsRanges(t *testing.T) {
	eng, err := rangeagg.NewEngine("report", catalogDomain)
	if err != nil {
		t.Fatal(err)
	}
	dur := openCatalogDurable(t, t.TempDir())
	defer dur.Close()
	for _, c := range []catalogSurface{eng, dur} {
		if err := c.Load(catalogCounts()); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildSynopsis("h", rangeagg.Count, rangeagg.Options{Method: rangeagg.SAP0, BudgetWords: 24}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Report("h", []rangeagg.Range{{A: -5, B: 200}, {A: 90, B: 120}, {A: 200, B: 300}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Report("h", []rangeagg.Range{{A: 0, B: 95}, {A: 90, B: 95}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Queries != 3 || got.SSE != want.SSE || want.SSE == 0 {
			t.Errorf("%T: Report = %+v, want 3 queries and SSE %v", c, got, want.SSE)
		}
	}
}
