package wavelet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"rangeagg/internal/prefix"
)

// DataSynopsis is the classical wavelet summary over the count array
// itself: the paper's TOPBB baseline, after [11, 17]. It keeps the B
// largest-magnitude orthonormal Haar coefficients of A (zero-padded to a
// power of two) — the selection that is optimal for pointwise L2 but not
// for range queries. Storage: 2 words per coefficient.
type DataSynopsis struct {
	n      int // domain size (unpadded)
	pow    int // padded transform length
	coeffs []Coefficient
	lookup map[int]float64
	label  string
}

// NewData builds the TOPBB synopsis with b coefficients.
func NewData(counts []int64, b int) (*DataSynopsis, error) {
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("wavelet: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	data := make([]float64, n)
	for i, c := range counts {
		data[i] = float64(c)
	}
	padded := PadZero(data)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, false)
	return newDataFromCoeffs(n, len(padded), kept, "TOPBB")
}

func newDataFromCoeffs(n, pow int, kept []Coefficient, label string) (*DataSynopsis, error) {
	kept, lookup, err := indexCoefficients(kept, pow)
	if err != nil {
		return nil, err
	}
	return &DataSynopsis{n: n, pow: pow, coeffs: kept, lookup: lookup, label: label}, nil
}

// indexCoefficients returns kept sorted by index (a sorted copy when it
// is not) and its index → value map. It rejects indices outside
// [0, pow) and duplicate indices: the coefficient list (what is stored
// and serialized) would hold a duplicate twice while the map that
// answers queries keeps one value, so the two would disagree.
func indexCoefficients(kept []Coefficient, pow int) ([]Coefficient, map[int]float64, error) {
	if !sort.SliceIsSorted(kept, func(i, j int) bool { return kept[i].Index < kept[j].Index }) {
		kept = append([]Coefficient(nil), kept...)
		sort.Slice(kept, func(i, j int) bool { return kept[i].Index < kept[j].Index })
	}
	lookup := make(map[int]float64, len(kept))
	for i, c := range kept {
		if c.Index < 0 || c.Index >= pow {
			return nil, nil, fmt.Errorf("wavelet: coefficient index %d outside transform of length %d", c.Index, pow)
		}
		if i > 0 && kept[i-1].Index == c.Index {
			return nil, nil, fmt.Errorf("wavelet: duplicate coefficient index %d", c.Index)
		}
		lookup[c.Index] = c.Value
	}
	return kept, lookup, nil
}

// N returns the domain size.
func (s *DataSynopsis) N() int { return s.n }

// Name identifies the construction.
func (s *DataSynopsis) Name() string { return s.label }

// StorageWords returns 2 words per retained coefficient.
func (s *DataSynopsis) StorageWords() int { return 2 * len(s.coeffs) }

// Coefficients returns the retained coefficients (sorted by index).
func (s *DataSynopsis) Coefficients() []Coefficient { return s.coeffs }

// Estimate answers the range query [a,b] by summing per-basis range
// inner products, in O(log N).
func (s *DataSynopsis) Estimate(a, b int) float64 {
	if a < 0 || b >= s.n || a > b {
		panic(fmt.Sprintf("wavelet: invalid range [%d,%d] for n=%d", a, b, s.n))
	}
	return s.rangeSum(a, b)
}

// CumEstimate returns the cumulative estimate Ĉ[t] (the reconstruction
// summed over [0, t)), making the synopsis prefix-decomposable for O(n)
// SSE evaluation.
func (s *DataSynopsis) CumEstimate(t int) float64 {
	if t <= 0 {
		return 0
	}
	return s.rangeSum(0, t-1)
}

// rangeSum returns Σ_k c_k·Σ_{i∈[a,b]} ψ_k[i] over the kept coefficients
// in ascending index order. Only the DC and, per level, the details whose
// support holds a or b can be non-zero: a detail support wholly inside
// [a,b] sums to exactly +0, and one outside it to 0. Their terms are ±0,
// and adding ±0 to a sum that starts at +0 never changes its bits, so
// reading just the two root-to-leaf paths (in the same ascending order)
// gives the same float64 as the full loop.
func (s *DataSynopsis) rangeSum(a, b int) float64 {
	var sum float64
	if v, ok := s.lookup[0]; ok {
		sum += v * BasisRangeSum(s.pow, 0, a, b)
	}
	for length := s.pow; length > 1; length /= 2 {
		base := s.pow / length
		ka, kb := base+a/length, base+b/length
		// When a and b fall in different supports, a support starting at a
		// (or ending at b) lies wholly inside [a,b]: its term is +0.
		if ka == kb || a%length != 0 {
			sum = s.addDetail(sum, ka, base, length, a, b)
		}
		if kb != ka && (b+1)%length != 0 {
			sum = s.addDetail(sum, kb, base, length, a, b)
		}
	}
	return sum
}

// addDetail adds coefficient k's term, if kept, to sum: k is a detail of
// the level whose supports have the given length and first index base.
func (s *DataSynopsis) addDetail(sum float64, k, base, length, a, b int) float64 {
	if v, ok := s.lookup[k]; ok {
		sum += v * detailRangeSum((k-base)*length, length, a, b, 1/math.Sqrt(float64(length)))
	}
	return sum
}

// PrefixSynopsis is the prefix-domain range-optimal wavelet summary: the B
// largest-magnitude non-DC Haar coefficients of the prefix-sum array
// P[0..n] (padded by repeating P[n]). A query is answered as a difference
// of two point reconstructions of P̂, each touching O(log N) coefficients.
// Storage: 2 words per coefficient.
type PrefixSynopsis struct {
	n      int // domain size; prefix array has n+1 entries
	pow    int
	coeffs []Coefficient
	lookup map[int]float64
	p0     float64 // P̂[0], the anchor CumEstimate subtracts
	label  string
}

// NewRangeOpt builds the range-optimal wavelet synopsis with b
// coefficients from the data's prefix sums.
func NewRangeOpt(tab *prefix.Table, b int) (*PrefixSynopsis, error) {
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	n := tab.N()
	padded := PadRepeat(tab.P)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, true) // DC is free to drop: constant shifts cancel in ranges
	return newPrefixFromCoeffs(n, len(padded), kept, "WAVE-RANGEOPT")
}

// NewPrefixTopB builds the heuristic that keeps the top-b coefficients of
// the prefix transform *including* the DC — provided as an ablation
// against NewRangeOpt's DC-skipping selection.
func NewPrefixTopB(tab *prefix.Table, b int) (*PrefixSynopsis, error) {
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	n := tab.N()
	padded := PadRepeat(tab.P)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, false)
	return newPrefixFromCoeffs(n, len(padded), kept, "WAVE-PREFIX-TOPB")
}

func newPrefixFromCoeffs(n, pow int, kept []Coefficient, label string) (*PrefixSynopsis, error) {
	kept, lookup, err := indexCoefficients(kept, pow)
	if err != nil {
		return nil, err
	}
	s := &PrefixSynopsis{n: n, pow: pow, coeffs: kept, lookup: lookup, label: label}
	s.p0 = s.pointRecon(0)
	return s, nil
}

// N returns the domain size.
func (s *PrefixSynopsis) N() int { return s.n }

// Name identifies the construction.
func (s *PrefixSynopsis) Name() string { return s.label }

// StorageWords returns 2 words per retained coefficient.
func (s *PrefixSynopsis) StorageWords() int { return 2 * len(s.coeffs) }

// Coefficients returns the retained coefficients (sorted by index).
func (s *PrefixSynopsis) Coefficients() []Coefficient { return s.coeffs }

// pointRecon reconstructs P̂[t] from the O(log N) coefficients on t's
// root-to-leaf path, without allocating.
func (s *PrefixSynopsis) pointRecon(t int) float64 {
	var sum float64
	if v, ok := s.lookup[0]; ok {
		sum += v * BasisAt(s.pow, 0, t)
	}
	for length := s.pow; length > 1; length /= 2 {
		k := s.pow/length + t/length
		if v, ok := s.lookup[k]; ok {
			sum += v * BasisAt(s.pow, k, t)
		}
	}
	return sum
}

// Estimate answers the range query [a,b] as P̂[b+1] − P̂[a], in
// O(log N) time.
func (s *PrefixSynopsis) Estimate(a, b int) float64 {
	if a < 0 || b >= s.n || a > b {
		panic(fmt.Sprintf("wavelet: invalid range [%d,%d] for n=%d", a, b, s.n))
	}
	return s.pointRecon(b+1) - s.pointRecon(a)
}

// CumEstimate returns Ĉ[t] = P̂[t] − P̂[0] (anchored so Ĉ[0] = 0, which
// changes no range answer — constant shifts cancel).
func (s *PrefixSynopsis) CumEstimate(t int) float64 {
	if t < 0 || t > s.n {
		panic(fmt.Sprintf("wavelet: cumulative position %d outside [0,%d]", t, s.n))
	}
	return s.pointRecon(t) - s.p0
}

// encodedSynopsis is the shared JSON wire form.
type encodedSynopsis struct {
	Kind   string        `json:"kind"` // "data", "prefix" or "aa2d"
	Label  string        `json:"label"`
	N      int           `json:"n"`
	Pow    int           `json:"pow"`
	Coeffs []Coefficient `json:"coeffs,omitempty"`
	// Pairs carries 2-D coefficients for the "aa2d" kind.
	Pairs []AACoefficient `json:"pairs,omitempty"`
}

// WriteJSON serializes a wavelet synopsis.
func WriteJSON(w io.Writer, s any) error {
	var enc encodedSynopsis
	switch v := s.(type) {
	case *DataSynopsis:
		enc = encodedSynopsis{Kind: "data", Label: v.label, N: v.n, Pow: v.pow, Coeffs: v.coeffs}
	case *PrefixSynopsis:
		enc = encodedSynopsis{Kind: "prefix", Label: v.label, N: v.n, Pow: v.pow, Coeffs: v.coeffs}
	case *AA2D:
		enc = encodedSynopsis{Kind: "aa2d", Label: v.label, N: v.n, Pow: v.pow, Pairs: v.coeffs}
	default:
		return fmt.Errorf("wavelet: cannot encode %T", s)
	}
	return json.NewEncoder(w).Encode(enc)
}

// ReadJSON deserializes a wavelet synopsis written by WriteJSON. The
// result is *DataSynopsis or *PrefixSynopsis.
func ReadJSON(r io.Reader) (any, error) {
	var enc encodedSynopsis
	if err := json.NewDecoder(r).Decode(&enc); err != nil {
		return nil, fmt.Errorf("wavelet: decoding JSON: %w", err)
	}
	if enc.N <= 0 || enc.Pow < enc.N || enc.Pow&(enc.Pow-1) != 0 {
		return nil, fmt.Errorf("wavelet: corrupt sizes n=%d pow=%d", enc.N, enc.Pow)
	}
	switch enc.Kind {
	case "aa2d":
		for _, c := range enc.Pairs {
			if c.K < 0 || c.K >= enc.Pow || c.L < 0 || c.L >= enc.Pow {
				return nil, fmt.Errorf("wavelet: aa2d coefficient (%d,%d) outside transform of length %d", c.K, c.L, enc.Pow)
			}
		}
		return &AA2D{n: enc.N, pow: enc.Pow, coeffs: enc.Pairs, label: enc.Label}, nil
	case "data":
		return newDataFromCoeffs(enc.N, enc.Pow, enc.Coeffs, enc.Label)
	case "prefix":
		// Prefix transforms cover n+1 points.
		if enc.Pow < enc.N+1 {
			return nil, fmt.Errorf("wavelet: prefix transform length %d too small for n=%d", enc.Pow, enc.N)
		}
		return newPrefixFromCoeffs(enc.N, enc.Pow, enc.Coeffs, enc.Label)
	default:
		return nil, fmt.Errorf("wavelet: unknown kind %q", enc.Kind)
	}
}
