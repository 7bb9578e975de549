package rangeagg

import (
	"rangeagg/internal/engine"
	"rangeagg/internal/sse"
)

// Metric selects what an engine synopsis summarizes.
type Metric int

const (
	// Count answers COUNT(*) WHERE a ≤ attr ≤ b.
	Count Metric = iota
	// Sum answers SUM(attr) WHERE a ≤ attr ≤ b.
	Sum
)

// String names the metric.
func (m Metric) String() string { return engine.Metric(m).String() }

// Engine is an in-memory single-column store that maintains the
// attribute-value distribution of ingested records and serves exact and
// approximate range aggregates through named synopses — the
// selectivity-estimation substrate the paper assumes. It is safe for
// concurrent use.
type Engine struct {
	catalog
}

// catalog is the read surface Engine and Durable share: exact answers
// from the distribution and approximate ones from the named synopses,
// with every internal error translated to its public type.
type catalog struct {
	eng *engine.Engine
}

// NewEngine creates an engine for attribute values in [0, domain).
func NewEngine(name string, domain int) (*Engine, error) {
	e, err := engine.New(name, domain)
	if err != nil {
		return nil, err
	}
	return &Engine{catalog{eng: e}}, nil
}

// Load bulk-inserts counts per attribute value; len(counts) must equal the
// domain size.
func (e *Engine) Load(counts []int64) error { return e.eng.Load(counts) }

// Insert adds occurrences records with the given attribute value.
func (e *Engine) Insert(value int, occurrences int64) error {
	return e.eng.Insert(value, occurrences)
}

// Delete removes occurrences records with the given attribute value.
func (e *Engine) Delete(value int, occurrences int64) error {
	return e.eng.Delete(value, occurrences)
}

// BuildSynopsis constructs and registers a synopsis under the given name,
// replacing any existing one.
func (e *Engine) BuildSynopsis(name string, metric Metric, opt Options) error {
	bo, err := opt.internal()
	if err != nil {
		return err
	}
	_, err = e.eng.BuildSynopsis(name, engine.Metric(metric), bo)
	return err
}

// DropSynopsis removes a named synopsis, reporting whether it existed.
func (e *Engine) DropSynopsis(name string) bool { return e.eng.DropSynopsis(name) }

// MergeFrom absorbs a shard engine built over the same domain: the
// shard's records are added to this engine's distribution and its named
// synopsis is merged into this engine's (adopted if absent), so exact
// queries and the merged synopsis both cover the union of the two record
// sets afterwards, and the synopsis answers every range with exactly the
// sum of the shards' answers. The method must have the "mergeable"
// capability — the average-representation histogram family.
func (e *Engine) MergeFrom(other *Engine, name string) error {
	_, err := e.eng.MergeFrom(other.eng, name)
	return wrapEngineErr(err)
}

// Refresh rebuilds a registered synopsis from the current data.
func (e *Engine) Refresh(name string) error {
	_, err := e.eng.Refresh(name)
	return wrapEngineErr(err)
}

// SetAutoRefresh enables synopsis maintenance: any synopsis more than
// threshold mutations stale is rebuilt synchronously before answering a
// query. threshold ≤ 0 disables the policy (the default).
func (e *Engine) SetAutoRefresh(threshold int64) { e.eng.SetAutoRefresh(threshold) }

// Domain returns the attribute domain size.
func (c *catalog) Domain() int { return c.eng.Domain() }

// Records returns the total number of records.
func (c *catalog) Records() int64 { return c.eng.Records() }

// Counts returns a copy of the current distribution.
func (c *catalog) Counts() []int64 { return c.eng.Counts() }

// ExactCount answers COUNT(*) WHERE a ≤ attr ≤ b exactly, with the range
// clamped to the domain.
func (c *catalog) ExactCount(a, b int) int64 { return c.eng.ExactCount(a, b) }

// ExactSum answers SUM(attr) WHERE a ≤ attr ≤ b exactly.
func (c *catalog) ExactSum(a, b int) int64 { return c.eng.ExactSum(a, b) }

// SynopsisNames lists the registered synopsis names, sorted.
func (c *catalog) SynopsisNames() []string {
	list := c.eng.Synopses()
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.Name
	}
	return out
}

// SynopsisInfo describes a registered synopsis.
type SynopsisInfo struct {
	// Name is the registration name.
	Name string
	// Method is the construction's paper name.
	Method string
	// Metric the synopsis answers.
	Metric Metric
	// StorageWords is the summary's space.
	StorageWords int
	// Stale counts data mutations since the synopsis was built.
	Stale int64
	// Capabilities are the method's registered capability flags, e.g.
	// "mergeable", "serializable".
	Capabilities []string
}

// Describe reports metadata for a registered synopsis.
func (c *catalog) Describe(name string) (SynopsisInfo, error) {
	s, err := c.eng.Synopsis(name)
	if err != nil {
		return SynopsisInfo{}, wrapEngineErr(err)
	}
	return SynopsisInfo{
		Name:         s.Name,
		Method:       s.Est.Name(),
		Metric:       Metric(s.Metric),
		StorageWords: s.Est.StorageWords(),
		Stale:        c.eng.Stale(s),
		Capabilities: Method(s.Options.Method).Capabilities(),
	}, nil
}

// Approx answers a range aggregate from a named synopsis; the range is
// clamped to the domain. An unknown name yields *UnknownSynopsisError.
func (c *catalog) Approx(name string, a, b int) (float64, error) {
	v, err := c.eng.Approx(name, a, b)
	return v, wrapEngineErr(err)
}

// ApproxAnswer is an approximate answer together with its error
// certificate: ErrBound bounds |exact − Value|. Rigorous reports
// whether the bound is a guarantee from the synopsis's error model;
// when the method has no model the bound is +Inf and Rigorous is false.
type ApproxAnswer struct {
	Value    float64
	ErrBound float64
	Rigorous bool
}

// ApproxWithError answers a range aggregate like Approx and attaches
// the synopsis's per-range error bound, computed at build time against
// the data the synopsis summarized. A fully-outside range returns the
// exact answer 0 with a zero bound.
func (c *catalog) ApproxWithError(name string, a, b int) (ApproxAnswer, error) {
	ans, err := c.eng.ApproxWithError(name, a, b)
	return ApproxAnswer(ans), wrapEngineErr(err)
}

// ApproxBatch answers a batch of range aggregates from one named synopsis.
// The synopsis is resolved once for the whole batch and the evaluation
// fans out over the shared worker pool, so large batches cost far less
// than per-query calls; every answer comes from the same estimator even
// if the synopsis is rebuilt concurrently. Ranges are clamped to the
// domain.
func (c *catalog) ApproxBatch(name string, queries []Range) ([]float64, error) {
	vs, err := c.eng.ApproxBatch(name, sseRanges(queries))
	return vs, wrapEngineErr(err)
}

// Report evaluates a synopsis's error over a workload against the current
// exact data. Ranges are clamped to the domain like Approx's; one wholly
// outside it counts as a query answered exactly, with error 0.
func (c *catalog) Report(name string, queries []Range) (Metrics, error) {
	m, err := c.eng.Report(name, sseRanges(queries))
	return Metrics(m), wrapEngineErr(err)
}

// SynopsisSSE returns the exact SSE of a registered synopsis over all
// ranges of the current data.
func (c *catalog) SynopsisSSE(name string) (float64, error) {
	v, err := c.eng.SSE(name)
	return v, wrapEngineErr(err)
}

// ProgressiveStep is one state of an online-refined answer: Estimate
// blends exact mass over the scanned prefix of the range with the
// synopsis estimate of the remainder.
type ProgressiveStep struct {
	Scanned  int
	Of       int
	Estimate float64
}

// Progressive answers a range aggregate in the online-aggregation style:
// step 0 is the instant synopsis estimate, later steps refine it by exact
// scanning, and the final step is exact.
func (c *catalog) Progressive(name string, a, b, chunks int) ([]ProgressiveStep, error) {
	steps, err := c.eng.Progressive(name, a, b, chunks)
	if err != nil {
		return nil, wrapEngineErr(err)
	}
	out := make([]ProgressiveStep, len(steps))
	for i, s := range steps {
		out[i] = ProgressiveStep(s)
	}
	return out, nil
}

func sseRanges(queries []Range) []sse.Range {
	qs := make([]sse.Range, len(queries))
	for i, q := range queries {
		qs[i] = sse.Range(q)
	}
	return qs
}
