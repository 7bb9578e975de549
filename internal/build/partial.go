package build

import (
	"time"

	"rangeagg/internal/method"
)

// Window accumulates the value range mutated since a synopsis was last
// built. Point mutations widen it, bulk (or unlocatable) mutations mark
// everything; a builder captures-and-resets it at the snapshot it
// builds from and merges it back if the build fails, so a window always
// covers every mutation the next build has to account for.
type Window struct {
	Any, All bool
	Lo, Hi   int
}

// MarkValue widens the window to cover value v.
func (w *Window) MarkValue(v int) {
	if w.All {
		return
	}
	if !w.Any {
		w.Any, w.Lo, w.Hi = true, v, v
		return
	}
	if v < w.Lo {
		w.Lo = v
	}
	if v > w.Hi {
		w.Hi = v
	}
}

// MarkAll records a mutation anywhere in the domain.
func (w *Window) MarkAll() {
	w.Any, w.All = true, true
}

// Merge widens w to cover o — the restore path when a build that
// captured o fails and its mutations must stay pending.
func (w *Window) Merge(o Window) {
	if !o.Any {
		return
	}
	if o.All {
		w.MarkAll()
		return
	}
	w.MarkValue(o.Lo)
	w.MarkValue(o.Hi)
}

// Confined reports whether mutations happened and all of them lie in
// [Lo,Hi] — the windows partial rebuilds and maintenance can use.
func (w Window) Confined() bool { return w.Any && !w.All }

// CanRebuild reports whether opt's method supports partial rebuilds
// (has a registry Rebuild hook).
func CanRebuild(opt Options) bool {
	d, err := method.Lookup(opt.Method)
	return err == nil && d.Rebuild != nil
}

// Refresh rebuilds a synopsis over counts after the mutations recorded
// in win. When prev is non-nil (built with opt from an earlier version
// of counts), win is confined and the method has a registry Rebuild
// hook, only the sub-structures covering the window are reconstructed
// and the rest carry over; otherwise it is a full Build, substituting
// the (1+ε)-approximate counterpart per WithApprox at the default
// cutover. The stats are zero for full builds.
func Refresh(counts []int64, opt Options, prev method.Estimator, win Window) (method.Estimator, method.RebuildStats, error) {
	if d, err := method.Lookup(opt.Method); err == nil && d.Rebuild != nil && prev != nil && win.Confined() {
		defer phaseSeconds(d.Name, "rebuild").Since(time.Now())
		return d.Rebuild(counts, prev, win.Lo, win.Hi, opt.methodOpts())
	}
	est, err := Build(counts, WithApprox(opt, len(counts), DefaultApproxCutover))
	return est, method.RebuildStats{}, err
}

// DefaultApproxCutover is the domain size at and above which engine and
// serve substitute a method's (1+ε)-approximate counterpart for its
// exact construction: below it the quadratic DPs finish in milliseconds
// and optimality is free; above it the near-linear builder is the only
// interactive option.
const DefaultApproxCutover = 32768

// WithApprox returns the options rebuilds should construct with for a
// domain of the given size: when the domain is at or above the cutover
// and the method has a registered approximate counterpart, the
// counterpart is substituted (with a defaulted Epsilon if the caller
// did not pin one). cutover 0 selects DefaultApproxCutover; a negative
// cutover disables substitution. Explicit coarsen-lift scaling
// (CoarsenTo) wins over substitution — the caller already chose a
// scaling path.
func WithApprox(opt Options, domain, cutover int) Options {
	if cutover == 0 {
		cutover = DefaultApproxCutover
	}
	if cutover < 0 || domain < cutover || opt.CoarsenTo > 0 {
		return opt
	}
	d, err := method.Lookup(opt.Method)
	if err != nil || d.ApproxCounterpart == 0 || opt.Method == d.ApproxCounterpart {
		return opt
	}
	opt.Method = d.ApproxCounterpart
	if opt.Epsilon <= 0 || opt.Epsilon >= 1 {
		opt.Epsilon = 0.1
	}
	return opt
}
