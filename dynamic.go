package rangeagg

import "fmt"

// Dynamic is a range synopsis over a distribution that takes point
// updates: an update costs O(1), and the next query rebuilds the
// range-optimal prefix-domain wavelet (WAVE-RANGEOPT) at the same budget
// from the current counts, so every answer is bit-identical to a static
// Build on the data as it stands. It keeps a private copy of the counts
// (O(n) memory, like the data itself); StorageWords reports the size of
// the published synopsis.
type Dynamic struct {
	counts []int64
	total  int64
	budget int
	syn    Synopsis
	dirty  bool
}

// NewDynamic builds a dynamic synopsis over the initial distribution with
// the given published storage budget.
func NewDynamic(counts []int64, budgetWords int) (*Dynamic, error) {
	if budgetWords < 2 {
		return nil, fmt.Errorf("rangeagg: dynamic synopsis needs at least 2 words, got %d", budgetWords)
	}
	d := &Dynamic{counts: append([]int64(nil), counts...), budget: budgetWords}
	for _, c := range counts {
		d.total += c
	}
	if err := d.refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Dynamic) refresh() error {
	syn, err := Build(d.counts, Options{Method: WaveRangeOpt, BudgetWords: d.budget})
	if err != nil {
		return err
	}
	d.syn, d.dirty = syn, false
	return nil
}

// published returns the synopsis over the current counts, rebuilding it
// first if updates arrived since the last build.
func (d *Dynamic) published() Synopsis {
	if d.dirty {
		if err := d.refresh(); err != nil {
			// The domain and budget passed the same build in NewDynamic
			// and Update keeps every count non-negative.
			panic(err)
		}
	}
	return d.syn
}

// Update applies counts[value] += delta. It rejects a value outside the
// domain and a delta that would make counts[value] negative.
func (d *Dynamic) Update(value int, delta int64) error {
	if value < 0 || value >= len(d.counts) {
		return fmt.Errorf("rangeagg: value %d outside domain [0,%d)", value, len(d.counts))
	}
	if d.counts[value]+delta < 0 {
		return fmt.Errorf("rangeagg: update %+d would make the count at value %d negative (%d)",
			delta, value, d.counts[value])
	}
	d.counts[value] += delta
	d.total += delta
	d.dirty = true
	return nil
}

// Estimate answers the range query from the current counts.
func (d *Dynamic) Estimate(a, b int) float64 { return d.published().Estimate(a, b) }

// N returns the domain size.
func (d *Dynamic) N() int { return len(d.counts) }

// StorageWords reports the published synopsis size.
func (d *Dynamic) StorageWords() int { return d.published().StorageWords() }

// Name identifies the construction.
func (d *Dynamic) Name() string { return "WAVE-RANGEOPT(dyn)" }

// Total returns the current total record count.
func (d *Dynamic) Total() int64 { return d.total }
