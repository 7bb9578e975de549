package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported figure. Stat says what the value is (a
// percentile, a median over set-ups, a ratio, a count) and N how many
// samples it rests on.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Stat  string
	N     int
}

// report collects a run's metrics in emission order.
type report struct {
	metrics []metric
	byName  map[string]int
}

func (r *report) add(name, unit, stat string, value float64, n int) {
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, unit, value, stat, n})
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.byName[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
// An empty set has no quantile; it reports 0 and the N=0 beside it says so.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0 (nothing to divide).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// beyond reports how many samples lie past the quantile a stat names; a
// percentile needs at least ten beyond it to mean anything.
func beyond(m metric) (int, bool) {
	var p float64
	if _, err := fmt.Sscanf(m.Stat, "p%f", &p); err != nil || m.N == 0 {
		return 0, false
	}
	return int(float64(m.N) * (1 - p/100)), true
}

// printTable writes every metric as one aligned line: name, value,
// unit, statistic and sample count. A percentile with fewer than ten
// samples beyond it is flagged rather than silently trusted.
func (r *report) printTable(w io.Writer) {
	for _, m := range r.metrics {
		note := ""
		if k, ok := beyond(m); ok && k < 10 {
			note = fmt.Sprintf("  (only %d samples beyond %s)", k, m.Stat)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-12s %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.Stat, m.N, note)
	}
}

// result is what the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the result object for the named metrics. A value that
// is not finite (a failed request counts as an infinite latency) is
// written as the largest float, which JSON can carry.
func (r *report) jsonLine(names []metricSpec, correct bool, attempted, failed int64) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, s := range names {
		m, ok := r.get(s.Name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(res)
}
