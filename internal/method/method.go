// Package method is the synopsis-method registry: the single place that
// knows what each of the system's synopsis families *is*. Every family
// self-registers one Descriptor carrying its paper name, storage
// accounting, construction algorithm, wire family, and capability flags;
// every other layer — build, codec, engine, serve, advisor, experiments,
// the public facade — drives off the registry instead of keeping its own
// per-method switch. Adding a synopsis family is one descriptor file in
// this package; no other layer changes.
package method

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rangeagg/internal/histogram"
	"rangeagg/internal/prefix"
)

// Estimator answers approximate range-sum queries; it is the method-layer
// counterpart of the facade's Synopsis interface.
type Estimator interface {
	Estimate(a, b int) float64
	N() int
	StorageWords() int
	Name() string
}

// ID identifies a registered synopsis method. The numbering is the
// public facade's enum (rangeagg.Method) and part of the persisted
// engine-store format; never reorder, only append.
type ID int

// The registered methods, named as in the paper.
const (
	Naive ID = iota
	EquiWidth
	EquiDepth
	MaxDiff
	VOptimal
	PointOpt
	A0
	SAP0
	SAP1
	OptA
	OptARounded
	WaveTopBB
	WaveRangeOpt
	WaveAA2D
	PrefixOpt
	SAP2
	SAP0Approx
	A0Approx
	PointOptApprox
	Segmented

	numIDs // sentinel: count of registered methods
)

// Caps is a bit set of method capabilities. Layers discover what a method
// can do from these flags instead of hard-coding method lists.
type Caps uint32

const (
	// Mergeable methods support exact shard merging: two synopses built
	// over the same domain from disjoint record sets combine (via the
	// descriptor's Merge hook) into one that answers every range with
	// exactly the sum of the two inputs' answers. Requires unrounded
	// answering at merge time (the facade's default).
	Mergeable Caps = 1 << iota
	// PrefixDecomposable methods expose a cumulative estimate Ĉ[t],
	// enabling the O(n) prefix-error SSE evaluation (internal/sse).
	PrefixDecomposable
	// Reoptimizable methods produce average-representation histograms the
	// §5 value re-optimization and boundary local search apply to.
	Reoptimizable
	// TwoD methods summarize the two-dimensional virtual range-sum matrix
	// (the paper's §3 construction).
	TwoD
	// Serializable methods round-trip through the wire codec
	// (internal/codec) bit-identically.
	Serializable
	// BucketBased methods partition the domain into contiguous buckets;
	// the coarsen-lift scaling path (build.Options.CoarsenTo) applies, via
	// the descriptor's FromBounds hook.
	BucketBased
	// PseudoPolynomial methods run the exact pseudo-polynomial OPT-A
	// dynamic program, whose cost grows with the data values; the advisor
	// skips them on large instances.
	PseudoPolynomial
	// Approximate methods trade a (1+ε) factor on the construction
	// objective for near-linear build time (internal/approx); they require
	// Opts.Epsilon ∈ (0,1) and the advisor sweeps ε as a knob.
	Approximate
	// ErrorBounded methods build a per-range error model at construction
	// time (via the descriptor's ErrorBound hook), so every approximate
	// answer can carry a bound on |exact − estimate| — the substrate of
	// the error-budget planner (internal/plan).
	ErrorBounded
)

// capNames orders the flag names for List/String.
var capNames = []struct {
	flag Caps
	name string
}{
	{Mergeable, "mergeable"},
	{PrefixDecomposable, "prefix-decomposable"},
	{Reoptimizable, "reoptimizable"},
	{TwoD, "2d"},
	{Serializable, "serializable"},
	{BucketBased, "bucket-based"},
	{PseudoPolynomial, "pseudo-polynomial"},
	{Approximate, "approximate"},
	{ErrorBounded, "error-bounded"},
}

// Has reports whether every capability in want is present.
func (c Caps) Has(want Caps) bool { return c&want == want }

// List returns the set capability names, in a fixed order.
func (c Caps) List() []string {
	var out []string
	for _, cn := range capNames {
		if c.Has(cn.flag) {
			out = append(out, cn.name)
		}
	}
	return out
}

// String renders the capability set as a comma-joined list.
func (c Caps) String() string { return strings.Join(c.List(), ",") }

// Opts carries the per-build parameters a construction algorithm may use.
// Budget accounting happens in the caller (internal/build): Units is
// already the method's bucket or coefficient count.
type Opts struct {
	// Units is the bucket/coefficient count derived from the word budget.
	Units int
	// Rounding selects the answering procedure of average-representation
	// results.
	Rounding histogram.Rounding
	// Seed drives randomized steps (OPT-A-ROUNDED's data rounding).
	Seed int64
	// Epsilon is the approximation quality target: the (1+ε) construction
	// bound for Approximate methods (required, ∈ (0,1)), and OPT-A-ROUNDED's
	// rounding quality when RoundedX is 0.
	Epsilon float64
	// RoundedX overrides OPT-A-ROUNDED's rounding parameter directly.
	RoundedX int64
	// MaxStates bounds the exact OPT-A dynamic program's memory.
	MaxStates int
	// Segments is the requested segment count for the SEGMENTED family;
	// 0 selects the default.
	Segments int
	// SegmentPolicy names the SEGMENTED partition policy ("equi-width",
	// "weight-balanced"; empty = default).
	SegmentPolicy string
	// BudgetWords is the raw word budget, for methods that allocate it
	// internally (SEGMENTED splits it between segment starts and
	// per-segment buckets). 0 means derive it from Units.
	BudgetWords int
}

// RebuildStats reports how much of a partial rebuild was real work.
type RebuildStats struct {
	// Rebuilt counts sub-structures reconstructed from current data.
	Rebuilt int
	// Reused counts sub-structures carried over verbatim.
	Reused int
}

// Descriptor is everything the system knows about one synopsis method.
type Descriptor struct {
	// ID is the method's registry slot (= the public enum value).
	ID ID
	// Name is the paper name, e.g. "OPT-A".
	Name string
	// Family is the wire-envelope family tag the method serializes under.
	Family string
	// WordsPerUnit is the paper's storage accounting: words per bucket for
	// histograms, per kept coefficient for wavelets.
	WordsPerUnit int
	// BudgetFree marks methods with a fixed O(1) footprint that ignore the
	// storage budget (NAIVE).
	BudgetFree bool
	// Caps are the method's capability flags.
	Caps Caps
	// PaperRounding is the answering procedure the paper defines for the
	// method (DESIGN.md §6b): integral cumulative rounding for the
	// average-histogram family, real-valued for SAP and the wavelets. The
	// experiment harness builds with it; the facade builds unrounded.
	PaperRounding histogram.Rounding
	// Build runs the construction algorithm. tab is the prefix-moment
	// table of counts; both views are provided so data-domain methods need
	// not rebuild the raw series.
	Build func(tab *prefix.Table, counts []int64, opt Opts) (Estimator, error)
	// FromBounds reconstructs the method's representation at full
	// resolution over an explicit bucketing (the coarsen-lift path).
	// Required exactly when Caps has BucketBased.
	FromBounds func(tab *prefix.Table, bk *histogram.Bucketing, label string, opt Opts) (Estimator, error)
	// Merge combines two same-representation estimators over the same
	// domain into one answering with the exact sum (shard merging).
	// Required exactly when Caps has Mergeable.
	Merge func(a, b Estimator) (Estimator, error)
	// ErrorBound builds the per-range error model of a freshly built
	// estimator against the data it summarized (tab must be the
	// prefix-moment table of that same data). Required exactly when Caps
	// has ErrorBounded.
	ErrorBound func(tab *prefix.Table, est Estimator) (ErrorModel, error)
	// Rebuild refreshes prev after mutations confined to the value
	// window [lo,hi], reconstructing only the affected sub-structures
	// from counts and carrying the rest over. Optional (nil = the method
	// only rebuilds wholesale); engine and serve nil-check it rather
	// than gate on a capability flag.
	Rebuild func(counts []int64, prev Estimator, lo, hi int, opt Opts) (Estimator, RebuildStats, error)
	// ApproxCounterpart names the (1+ε)-approximate method that builds
	// the same representation near-linearly, if one is registered; the
	// zero value means none. Engine and serve use it to substitute the
	// approximate construction above a domain-size cutover.
	ApproxCounterpart ID
}

// registry is fixed-size and filled by the descriptor files' init
// functions; the invariant test asserts every slot is taken.
var (
	registry [numIDs]*Descriptor
	byName   = make(map[string]ID, numIDs)
)

// Register installs a descriptor; it panics on invalid or duplicate
// registrations (a programming error caught at init time).
func Register(d Descriptor) {
	if d.ID < 0 || d.ID >= numIDs {
		panic(fmt.Sprintf("method: descriptor %q has ID %d outside [0,%d)", d.Name, d.ID, numIDs))
	}
	if registry[d.ID] != nil {
		panic(fmt.Sprintf("method: duplicate registration for ID %d (%q vs %q)", d.ID, d.Name, registry[d.ID].Name))
	}
	if d.Name == "" || d.WordsPerUnit <= 0 || d.Build == nil {
		panic(fmt.Sprintf("method: descriptor %q (ID %d) is incomplete", d.Name, d.ID))
	}
	if d.Caps.Has(BucketBased) != (d.FromBounds != nil) {
		panic(fmt.Sprintf("method: descriptor %q: BucketBased cap and FromBounds hook must agree", d.Name))
	}
	if d.Caps.Has(Mergeable) != (d.Merge != nil) {
		panic(fmt.Sprintf("method: descriptor %q: Mergeable cap and Merge hook must agree", d.Name))
	}
	if d.Caps.Has(ErrorBounded) != (d.ErrorBound != nil) {
		panic(fmt.Sprintf("method: descriptor %q: ErrorBounded cap and ErrorBound hook must agree", d.Name))
	}
	key := strings.ToUpper(d.Name)
	if _, ok := byName[key]; ok {
		panic(fmt.Sprintf("method: duplicate name %q", d.Name))
	}
	dd := d
	registry[d.ID] = &dd
	byName[key] = d.ID
}

// Lookup resolves a method ID to its descriptor.
func Lookup(id ID) (Descriptor, error) {
	if id < 0 || id >= numIDs || registry[id] == nil {
		return Descriptor{}, fmt.Errorf("method: unknown method %d", int(id))
	}
	return *registry[id], nil
}

// MustLookup resolves a method ID known to be registered (e.g. one taken
// from a built synopsis); it panics on an unknown ID.
func MustLookup(id ID) Descriptor {
	d, err := Lookup(id)
	if err != nil {
		panic(err)
	}
	return d
}

// Parse resolves a method from its paper name (case-insensitive).
func Parse(s string) (ID, error) {
	if id, ok := byName[strings.ToUpper(s)]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("method: unknown method %q", s)
}

// Count returns the number of registered methods.
func Count() int { return int(numIDs) }

// IDs lists every registered method in enum order.
func IDs() []ID {
	out := make([]ID, numIDs)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// All returns every registered descriptor in enum order.
func All() []Descriptor {
	out := make([]Descriptor, 0, numIDs)
	for i := ID(0); i < numIDs; i++ {
		if registry[i] != nil {
			out = append(out, *registry[i])
		}
	}
	return out
}

// String returns the method's paper name.
func (id ID) String() string {
	if id < 0 || id >= numIDs || registry[id] == nil {
		return fmt.Sprintf("Method(%d)", int(id))
	}
	return registry[id].Name
}

// FamilyCodec serializes one wire family of synopses. The codec envelope
// dispatches through these instead of a type switch: Write probes
// CanEncode in Rank order, Read resolves the envelope's family tag.
type FamilyCodec struct {
	// Family is the wire tag, e.g. "histogram".
	Family string
	// Rank orders CanEncode probing. The wavelet family must probe before
	// the histogram family: wavelet synopses satisfy the histogram
	// estimator interface too.
	Rank int
	// CanEncode reports whether the estimator belongs to this family.
	CanEncode func(Estimator) bool
	// Encode writes the family's payload (without the envelope).
	Encode func(io.Writer, Estimator) error
	// Decode reads the family's payload (without the envelope).
	Decode func(io.Reader) (Estimator, error)
}

var families []FamilyCodec

// RegisterFamily installs a family codec; it panics on duplicates.
func RegisterFamily(fc FamilyCodec) {
	if fc.Family == "" || fc.CanEncode == nil || fc.Encode == nil || fc.Decode == nil {
		panic(fmt.Sprintf("method: family codec %q is incomplete", fc.Family))
	}
	for _, f := range families {
		if f.Family == fc.Family {
			panic(fmt.Sprintf("method: duplicate family codec %q", fc.Family))
		}
	}
	families = append(families, fc)
	sort.SliceStable(families, func(i, j int) bool { return families[i].Rank < families[j].Rank })
}

// Families returns the registered family codecs in probe (Rank) order.
func Families() []FamilyCodec {
	return append([]FamilyCodec(nil), families...)
}

// FamilyByName resolves a family codec from its wire tag.
func FamilyByName(name string) (FamilyCodec, bool) {
	for _, f := range families {
		if f.Family == name {
			return f, true
		}
	}
	return FamilyCodec{}, false
}
