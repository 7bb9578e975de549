package serve

import "time"

// markValue records a point mutation in the rebuild window.
func (s *Server) markValue(v int) {
	s.winMu.Lock()
	s.win.MarkValue(v)
	s.stampDirtyLocked()
	s.winMu.Unlock()
}

// markRange records a mutation confined to the inclusive value span
// [lo,hi] — the bulk-load path whose window is known.
func (s *Server) markRange(lo, hi int) {
	s.winMu.Lock()
	s.win.MarkValue(lo)
	s.win.MarkValue(hi)
	s.stampDirtyLocked()
	s.winMu.Unlock()
}

// markAll records a bulk (or unlocatable) mutation.
func (s *Server) markAll() {
	s.winMu.Lock()
	s.win.MarkAll()
	s.stampDirtyLocked()
	s.winMu.Unlock()
}

// stampDirtyLocked records when the window first became dirty — the
// /healthz staleness clock. Caller holds winMu.
func (s *Server) stampDirtyLocked() {
	if s.dirtyAt == 0 {
		s.dirtyAt = time.Now().UnixNano()
	}
}

// SegmentStats reports how much snapshot-rebuild work the segmented
// paths saved: Rebuilt/Reused count segments across partial rebuilds
// (from the method layer's RebuildStats), SynopsesReused counts whole
// synopses carried into a fresh snapshot verbatim because nothing
// changed for them.
type SegmentStats struct {
	Rebuilt        int64 `json:"rebuilt"`
	Reused         int64 `json:"reused"`
	SynopsesReused int64 `json:"synopses_reused"`
}

// SegmentStats returns the server's cumulative partial-rebuild counters.
func (s *Server) SegmentStats() SegmentStats {
	return SegmentStats{
		Rebuilt:        s.segRebuilt.Load(),
		Reused:         s.segReused.Load(),
		SynopsesReused: s.synReused.Load(),
	}
}

// IngestStats reports what the incremental-maintenance ladder did on
// this server: one count per ladder action across all maintained
// synopses and publishes, plus the rebuilds those batches made
// unnecessary (every non-escalated batch is one avoided rebuild of its
// synopsis).
type IngestStats struct {
	Absorbed        int64 `json:"absorbed"`
	Reoptimized     int64 `json:"reoptimized"`
	Repaired        int64 `json:"repaired"`
	Escalated       int64 `json:"escalated"`
	RebuildsAvoided int64 `json:"rebuilds_avoided"`
}

// IngestStats returns the server's cumulative maintenance counters.
func (s *Server) IngestStats() IngestStats {
	return IngestStats{
		Absorbed:        s.ingAbsorbed.Load(),
		Reoptimized:     s.ingReopt.Load(),
		Repaired:        s.ingRepaired.Load(),
		Escalated:       s.ingEscalated.Load(),
		RebuildsAvoided: s.ingAvoided.Load(),
	}
}
