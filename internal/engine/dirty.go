package engine

import "rangeagg/internal/build"

// markDirtyValue records a point mutation in every watched window.
// Callers hold e.mu.
func (e *Engine) markDirtyValue(v int) {
	for _, w := range e.watch {
		w.MarkValue(v)
	}
}

// markDirtyAll records a bulk mutation in every watched window.
// Callers hold e.mu.
func (e *Engine) markDirtyAll() {
	for _, w := range e.watch {
		w.MarkAll()
	}
}

// resetWatch starts (or stops) dirty tracking for a freshly installed
// synopsis: rebuild-capable synopses get a clean window, others drop
// any stale one. Callers hold e.mu.
func (e *Engine) resetWatch(name string, opt build.Options) {
	if build.CanRebuild(opt) {
		e.watch[name] = &build.Window{}
	} else {
		delete(e.watch, name)
	}
}
