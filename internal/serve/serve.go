// Package serve is the concurrent query-serving layer in front of the
// engine: it publishes each column's exact prefix tables and synopses as
// one immutable Snapshot behind an atomic pointer, answers single and
// batched range-aggregate queries from whatever snapshot is current, and
// rebuilds snapshots off the hot path behind a mutation-driven debouncer.
// Queries never take the engine lock and never block on a rebuild; a
// rebuild never publishes partial state (old snapshot or new, never a
// mix).
package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/parallel"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/wal"
)

// Serving-layer metrics (process-wide): snapshot rebuild latency and
// swap count, the published data version, and per-batch query latency.
// Endpoint-level HTTP latency lives in Metrics (metrics.go) instead, so
// each handler keeps its own registry.
var (
	rebuildSeconds    = obs.Default.Histogram("rangeagg_serve_rebuild_seconds")
	queryBatchSeconds = obs.Default.Histogram("rangeagg_serve_query_batch_seconds")
	snapshotSwaps     = obs.Default.Counter("rangeagg_serve_snapshot_swaps_total")
	snapshotVersion   = obs.Default.Gauge("rangeagg_serve_snapshot_version")
)

// Config tunes the server; zero values select the defaults.
type Config struct {
	// Debounce is the quiet period after a mutation before the automatic
	// rebuild fires (default 50ms). Further mutations inside the window
	// push the rebuild back, up to MaxLag.
	Debounce time.Duration
	// MaxLag caps how stale the published snapshot may grow while
	// mutations keep arriving (default 20×Debounce).
	MaxLag time.Duration
	// FanOut is the smallest batch QueryBatch spreads over the worker
	// pool; smaller batches evaluate inline (default 128).
	FanOut int
	// WAL, when non-nil, makes the server durable: the engine must be
	// the DB's engine, every mutation path (ingest, load, shard merge)
	// appends its log record before the call acknowledges, and a
	// checkpoint piggybacks on the debounced rebuild once enough records
	// accumulate.
	WAL *wal.DB
	// RecoveredShards seeds the shard-merge inbox from crash recovery
	// without re-logging. Entries whose name has no registered spec are
	// ignored.
	RecoveredShards []wal.ShardMerge
	// NodeID names this node in /healthz (cluster deployments); empty is
	// fine for standalone servers.
	NodeID string
	// Ingest configures incremental synopsis maintenance
	// (internal/ingest). In ModeIncremental, rebuilds whose mutations are
	// confined to a value window maintain maintainable synopses in place
	// through the absorb/reopt/repair ladder, escalating to the
	// dirty-segment or full rebuild paths only when the workload-driven
	// SSE-drift trigger persists past a repair. The zero value
	// (ModeRebuild) keeps the pre-ingest rebuild-per-window behaviour.
	Ingest ingest.Config
}

func (c Config) withDefaults() Config {
	if c.Debounce <= 0 {
		c.Debounce = 50 * time.Millisecond
	}
	if c.MaxLag <= 0 {
		c.MaxLag = 20 * c.Debounce
	}
	if c.FanOut <= 0 {
		c.FanOut = 128
	}
	return c
}

// Server publishes snapshots of one engine column and serves queries from
// them. It is safe for concurrent use.
type Server struct {
	eng *engine.Engine
	cfg Config

	// planner routes budgeted and synopsis queries through the cheapest
	// path meeting each one's error bound.
	planner *plan.Planner

	snap atomic.Pointer[Snapshot]

	// rebuildMu serializes snapshot construction; queries never take it.
	rebuildMu sync.Mutex
	specMu    sync.RWMutex
	specs     []engine.SynopsisSpec

	// shardMu guards shards: per-synopsis estimators received from remote
	// shards (MergeSynopsis). A rebuild folds them into the freshly built
	// local synopsis, so shard contributions survive snapshot swaps.
	shardMu sync.RWMutex
	shards  map[string][]method.Estimator

	// winMu guards win, the mutated value window Rebuild's partial and
	// maintained paths consume (one for all specs: they summarize the
	// same column), and dirtyAt, the unix-nano timestamp of the oldest
	// mutation not yet reflected in the served snapshot (0 = none) —
	// the /healthz staleness signal.
	winMu   sync.Mutex
	win     build.Window
	dirtyAt int64

	// swappedAt is when the served snapshot was published (unix nanos).
	swappedAt atomic.Int64
	// follow is the replication state a Follower reports (nil when this
	// node follows no primary).
	follow atomic.Pointer[FollowState]

	// Partial-rebuild counters (see SegmentStats).
	segRebuilt atomic.Int64
	segReused  atomic.Int64
	synReused  atomic.Int64

	// ingMu guards ingStates, the per-synopsis maintenance state created
	// lazily by Rebuild's maintained path (Config.Ingest incremental).
	ingMu     sync.RWMutex
	ingStates map[string]*ingest.State

	// Maintenance counters (see IngestStats).
	ingAbsorbed  atomic.Int64
	ingReopt     atomic.Int64
	ingRepaired  atomic.Int64
	ingEscalated atomic.Int64
	ingAvoided   atomic.Int64

	rebuilds atomic.Int64
	lastErr  atomic.Pointer[rebuildError]

	dirty     chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

type rebuildError struct{ err error }

// Query is one range-aggregate request. A named Synopsis answers
// approximately from the snapshot's estimator; an empty name answers
// exactly (per Metric) from the snapshot's prefix tables. A non-nil
// MaxErr is an error budget: the planner answers by the cheapest path
// whose error bound is within it, escalating through finer synopses and
// finally the exact tables. Synopsis and MaxErr compose — the named
// synopsis is probed first, escalation starts from there.
type Query struct {
	Synopsis string
	Metric   engine.Metric
	A, B     int
	MaxErr   *float64
}

// Result is one answer. Err is set per query (e.g. unknown synopsis
// name); the batch as a whole never fails. Bound bounds |exact − Value|
// (+Inf when the answering synopsis has no error model); Rigorous
// reports whether it is a guarantee; Path and Source say how the
// planner answered.
type Result struct {
	Value    float64
	Bound    float64
	Rigorous bool
	Path     plan.Path
	Source   string
	Err      error
}

// New builds the initial snapshot synchronously (so a successfully
// constructed Server always serves) and starts the rebuild debouncer.
// Callers must Close the server to stop it.
func New(eng *engine.Engine, specs []engine.SynopsisSpec, cfg Config) (*Server, error) {
	s := &Server{
		eng:       eng,
		cfg:       cfg.withDefaults(),
		specs:     append([]engine.SynopsisSpec(nil), specs...),
		shards:    make(map[string][]method.Estimator),
		ingStates: make(map[string]*ingest.State),
		dirty:     make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.planner = plan.New(0)
	for _, sh := range cfg.RecoveredShards {
		for _, sp := range s.specs {
			if sp.Name == sh.Name {
				s.shards[sh.Name] = append(s.shards[sh.Name], sh.Est)
				break
			}
		}
	}
	if err := s.Rebuild(); err != nil {
		return nil, err
	}
	s.declareSpecs()
	go s.debounceLoop()
	return s, nil
}

// Close stops the debouncer. The last published snapshot keeps serving.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Snapshot returns the currently published snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Rebuilds returns the number of snapshots published so far.
func (s *Server) Rebuilds() int64 { return s.rebuilds.Load() }

// LastError reports the most recent rebuild failure, or nil. A failed
// rebuild keeps the previous snapshot serving.
func (s *Server) LastError() error {
	if p := s.lastErr.Load(); p != nil {
		return p.err
	}
	return nil
}

// Insert forwards to the engine — through the write-ahead log when the
// server is durable, so the record is on the log before the call
// returns — and schedules a debounced rebuild.
func (s *Server) Insert(value int, occurrences int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Insert(value, occurrences)
	} else {
		err = s.eng.Insert(value, occurrences)
	}
	if err != nil {
		return err
	}
	s.markValue(value)
	s.signalDirty()
	return nil
}

// Delete forwards to the engine (via the write-ahead log when durable)
// and schedules a debounced rebuild.
func (s *Server) Delete(value int, occurrences int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Delete(value, occurrences)
	} else {
		err = s.eng.Delete(value, occurrences)
	}
	if err != nil {
		return err
	}
	s.markValue(value)
	s.signalDirty()
	return nil
}

// Load forwards a bulk load to the engine (via the write-ahead log when
// durable) and schedules a debounced rebuild. The mutation window is
// marked with the precise span of the loaded mass — not the whole
// domain — so a load confined to a value window keeps segmented
// rebuilds and incremental maintenance partial.
func (s *Server) Load(counts []int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Load(counts)
	} else {
		err = s.eng.Load(counts)
	}
	if err != nil {
		return err
	}
	lo, hi := loadSpan(counts)
	switch {
	case lo < 0:
		// An all-zero load changes no counts; signal anyway so the served
		// version converges with the engine's bump.
	case lo == 0 && hi == len(counts)-1:
		s.markAll()
	default:
		s.markRange(lo, hi)
	}
	s.signalDirty()
	return nil
}

// loadSpan returns the inclusive span of non-zero entries, or (-1,-1)
// when there are none.
func loadSpan(counts []int64) (int, int) {
	lo, hi := -1, -1
	for v, c := range counts {
		if c != 0 {
			if lo < 0 {
				lo = v
			}
			hi = v
		}
	}
	return lo, hi
}

// MarkDirty tells the debouncer the engine data changed. Callers that
// mutate the engine directly (not through the server's ingest wrappers)
// use it to keep the served snapshot converging; since the mutation's
// location is unknown here, the next rebuild is a full one.
func (s *Server) MarkDirty() {
	s.markAll()
	s.signalDirty()
}

// signalDirty schedules a debounced rebuild without touching the
// mutation window (the ingest wrappers already marked it precisely).
func (s *Server) signalDirty() {
	select {
	case s.dirty <- struct{}{}:
	default: // a rebuild is already pending
	}
}

// AddSynopsis registers a synopsis spec and publishes a snapshot that
// includes it.
func (s *Server) AddSynopsis(spec engine.SynopsisSpec) error {
	s.specMu.Lock()
	for _, sp := range s.specs {
		if sp.Name == spec.Name {
			s.specMu.Unlock()
			return fmt.Errorf("serve: synopsis %q already registered", spec.Name)
		}
	}
	s.specs = append(s.specs, spec)
	s.specMu.Unlock()
	if err := s.Rebuild(); err != nil {
		// Roll the bad spec back so later rebuilds keep succeeding.
		s.specMu.Lock()
		for i, sp := range s.specs {
			if sp.Name == spec.Name {
				s.specs = append(s.specs[:i], s.specs[i+1:]...)
				break
			}
		}
		s.specMu.Unlock()
		return err
	}
	s.declareSpecs()
	return nil
}

// DropSynopsis removes a synopsis spec and publishes a snapshot without
// it, reporting whether it existed.
func (s *Server) DropSynopsis(name string) bool {
	s.specMu.Lock()
	found := false
	for i, sp := range s.specs {
		if sp.Name == name {
			s.specs = append(s.specs[:i], s.specs[i+1:]...)
			found = true
			break
		}
	}
	s.specMu.Unlock()
	if found {
		s.shardMu.Lock()
		delete(s.shards, name)
		s.shardMu.Unlock()
		s.ingMu.Lock()
		delete(s.ingStates, name)
		s.ingMu.Unlock()
		if s.cfg.WAL != nil {
			// Purge the durable inbox too so recovery cannot resurrect
			// shard merges for the dropped synopsis.
			_, _ = s.cfg.WAL.DropSynopsis(name)
		}
		s.declareSpecs()
		// Dropping a spec cannot fail construction of the others.
		_ = s.Rebuild()
	}
	return found
}

// declareSpecs hands the current spec list to a durable server's WAL:
// checkpoints carry it so replicas (and recovery) can rebuild this
// node's full serving shape from counts alone.
func (s *Server) declareSpecs() {
	if s.cfg.WAL == nil {
		return
	}
	s.specMu.RLock()
	defer s.specMu.RUnlock()
	s.cfg.WAL.SetDeclaredSpecs(s.specs)
}

// MergeSynopsis accepts a remote shard's estimator for the named
// synopsis: every published snapshot from now on serves the local
// synopsis merged with all accepted shard estimators, answering each
// range with the sum of local and shard estimates. The synopsis's
// method must have the Mergeable capability and the estimator must be a
// compatible representation over the same domain (validated against the
// current snapshot before the shard is accepted). Note the shard's
// records are known to this server only through its estimator: exact
// (synopsis-less) queries keep answering from local data alone.
func (s *Server) MergeSynopsis(name string, est method.Estimator) error {
	s.specMu.RLock()
	var spec *engine.SynopsisSpec
	for i := range s.specs {
		if s.specs[i].Name == name {
			spec = &s.specs[i]
			break
		}
	}
	s.specMu.RUnlock()
	if spec == nil {
		return &engine.UnknownSynopsisError{Scope: "serve", Name: name}
	}
	d, err := method.Lookup(spec.Options.Method)
	if err != nil {
		return fmt.Errorf("serve: merging into %q: %w", name, err)
	}
	if !d.Caps.Has(method.Mergeable) {
		return fmt.Errorf("serve: %s synopses are not mergeable", d.Name)
	}
	if est.N() != s.eng.Domain() {
		return fmt.Errorf("serve: shard domain %d does not match %d", est.N(), s.eng.Domain())
	}
	// Dry-run against the served synopsis so an incompatible shard is
	// rejected here instead of poisoning every later rebuild.
	if cur, err := s.Snapshot().Synopsis(name); err == nil {
		if _, err := d.Merge(cur.Est, est); err != nil {
			return fmt.Errorf("serve: merging into %q: %w", name, err)
		}
	}
	if s.cfg.WAL != nil {
		// Append before acknowledging: an accepted shard survives a
		// crash from here on.
		if err := s.cfg.WAL.LogShardMerge(name, est); err != nil {
			return err
		}
	}
	s.shardMu.Lock()
	s.shards[name] = append(s.shards[name], est)
	s.shardMu.Unlock()
	return s.Rebuild()
}

// ingestState returns the maintenance state of a synopsis, creating it
// when create is set and there is none yet (nil otherwise). Creation
// only happens on Rebuild's maintained path (serialized by rebuildMu),
// so concurrent readers almost always stay on the RLock.
func (s *Server) ingestState(name string, create bool) *ingest.State {
	s.ingMu.RLock()
	st := s.ingStates[name]
	s.ingMu.RUnlock()
	if st != nil || !create {
		return st
	}
	s.ingMu.Lock()
	if st = s.ingStates[name]; st == nil {
		st = ingest.NewState(s.cfg.Ingest)
		s.ingStates[name] = st
	}
	s.ingMu.Unlock()
	return st
}

// observeQuery feeds an answered range into a maintained synopsis's
// drift trigger (sampled; no-op unless incremental ingest is on and the
// synopsis has been maintained at least once).
func (s *Server) observeQuery(name string, a, b int) {
	if !s.cfg.Ingest.Enabled() {
		return
	}
	s.ingMu.RLock()
	st := s.ingStates[name]
	s.ingMu.RUnlock()
	if st != nil {
		st.Observe(a, b)
	}
}

// Query answers one request from the current snapshot.
func (s *Server) Query(q Query) (float64, error) {
	res, _ := s.QueryOne(q)
	return res.Value, res.Err
}

// QueryOne answers one request from the current snapshot with the full
// planned result (value, error bound, path) and the snapshot version.
func (s *Server) QueryOne(q Query) (Result, int64) {
	snap := s.snap.Load()
	return s.answer(snap, q), snap.Version
}

// CacheStats returns zeros; it goes in perfbench's next change.
func (s *Server) CacheStats() plan.CacheStats { return plan.CacheStats{} }

// answer resolves one query against a pinned snapshot. Synopsis-less
// queries without a budget take the exact fast path; everything else
// goes through the planner, which attaches the error bound.
func (s *Server) answer(snap *Snapshot, q Query) Result {
	if q.Synopsis == "" && q.MaxErr == nil {
		return Result{Value: float64(snap.exact(q.Metric, q.A, q.B)),
			Rigorous: true, Path: plan.PathExact, Source: "exact"}
	}
	metric := q.Metric
	if q.Synopsis != "" {
		syn, ok := snap.syns[q.Synopsis]
		if !ok {
			return Result{Err: &engine.UnknownSynopsisError{Scope: "serve", Name: q.Synopsis}}
		}
		// A pinned synopsis answers its own metric, whatever the query
		// says (matching the pre-planner Approx semantics).
		metric = syn.Metric
		s.observeQuery(q.Synopsis, q.A, q.B)
	}
	maxErr := math.NaN() // planner convention: NaN = no budget
	if q.MaxErr != nil {
		maxErr = *q.MaxErr
	}
	ans, err := s.planner.Query(snap.View(metric), q.Synopsis, q.A, q.B, maxErr)
	if err != nil {
		return Result{Err: err}
	}
	return Result{Value: ans.Value, Bound: ans.Bound, Rigorous: ans.Rigorous,
		Path: ans.Path, Source: ans.Source}
}

// QueryBatch answers a batch of requests from one snapshot grab: every
// answer in the batch reflects the same data version (returned alongside
// the results), so concurrent rebuilds can never tear a batch. Large
// batches fan out over the shared worker pool.
func (s *Server) QueryBatch(qs []Query) ([]Result, int64) {
	_, span := obs.Start(context.Background(), "serve.query_batch")
	span.SetAttrInt("queries", int64(len(qs)))
	span.OnEnd(queryBatchSeconds.Observe)
	defer span.End()
	snap := s.snap.Load()
	out := make([]Result, len(qs))
	answer := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = s.answer(snap, qs[i])
		}
	}
	if len(qs) >= s.cfg.FanOut {
		parallel.ForEachChunk(len(qs), 64, answer)
	} else {
		answer(0, len(qs))
	}
	return out, snap.Version
}

// Rebuild constructs a fresh snapshot from the engine's current data —
// prefix tables and every registered synopsis, built concurrently over
// the worker pool — and atomically swaps it in. On failure the previous
// snapshot keeps serving and the error is retained for LastError.
//
// Rebuild avoids redoing work the mutation window proves unnecessary:
// a spec whose previous synopsis was built from the same data version
// with no mutations since is carried over verbatim (estimator and error
// model); a spec whose method supports partial rebuilds refreshes only
// the structures covering the mutated window; everything else is built
// from scratch, substituting the method's (1+ε)-approximate counterpart
// on domains of build.DefaultApproxCutover and above. The partial and
// reuse paths trust that direct engine mutators call MarkDirty (which
// widens the window to everything); the ingest wrappers mark precisely.
func (s *Server) Rebuild() error {
	_, span := obs.Start(context.Background(), "serve.rebuild")
	span.OnEnd(rebuildSeconds.Observe)
	defer span.End()
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()

	s.specMu.RLock()
	specs := append([]engine.SynopsisSpec(nil), s.specs...)
	s.specMu.RUnlock()
	span.SetAttrInt("specs", int64(len(specs)))

	// Capture the mutation window BEFORE reading the engine: a mutation
	// landing in between marks the fresh window and is also in the counts
	// read below, so the worst case is an over-rebuild, never stale
	// reuse. On failure the captured window is merged back so the pending
	// mutations are not lost.
	s.winMu.Lock()
	win := s.win
	dirtyAt := s.dirtyAt
	s.win = build.Window{}
	s.dirtyAt = 0
	s.winMu.Unlock()
	fail := func(err error) error {
		s.winMu.Lock()
		s.win.Merge(win)
		// Restore the staleness clock: the captured mutations are still
		// pending, so /healthz must keep aging them.
		if dirtyAt != 0 && (s.dirtyAt == 0 || dirtyAt < s.dirtyAt) {
			s.dirtyAt = dirtyAt
		}
		s.winMu.Unlock()
		s.lastErr.Store(&rebuildError{err: err})
		return err
	}

	// One locked read of the engine; the SUM series is derived locally so
	// both metrics come from the same version.
	counts, version := s.eng.MetricCounts(engine.Count)
	sums := make([]int64, len(counts))
	var records int64
	for v, c := range counts {
		sums[v] = int64(v) * c
		records += c
	}

	prev := s.snap.Load()
	// One shard-inbox snapshot drives both the build-mode decisions and
	// the fold below, so a shard arriving mid-rebuild cannot fold into a
	// reused estimator (its own Rebuild call is already queued).
	s.shardMu.RLock()
	shardsFor := make([][]method.Estimator, len(specs))
	for i, sp := range specs {
		shardsFor[i] = s.shards[sp.Name]
	}
	s.shardMu.RUnlock()

	snap := &Snapshot{
		Version: version,
		Domain:  len(counts),
		Records: records,
		syns:    make(map[string]*Synopsis, len(specs)),
	}
	ests := make([]method.Estimator, len(specs))
	ems := make([]method.ErrorModel, len(specs))
	errs := make([]error, len(specs))
	stats := make([]method.RebuildStats, len(specs))
	reused := make([]bool, len(specs))
	outcomes := make([]*ingest.Outcome, len(specs))
	tasks := []func(){
		func() { snap.count = prefix.NewTable(counts) },
		func() { snap.sum = prefix.NewTable(sums) },
	}
	for i := range specs {
		i, sp := i, specs[i]
		var prevSyn *Synopsis
		if prev != nil {
			prevSyn = prev.syns[sp.Name]
		}
		sameSpec := prevSyn != nil && len(shardsFor[i]) == 0 &&
			prevSyn.Metric == sp.Metric && prevSyn.Options == sp.Options
		if sameSpec && !win.Any && prev.Version == version {
			// Nothing changed for this spec: carry estimator and error
			// model into the new snapshot verbatim.
			ests[i], ems[i], reused[i] = prevSyn.Est, prevSyn.ErrModel, true
			s.synReused.Add(1)
			continue
		}
		var base method.Estimator // what a partial rebuild or maintenance starts from
		if sameSpec {
			base = prevSyn.Est
		}
		maintain := s.cfg.Ingest.Enabled() && base != nil && win.Confined() && ingest.CanMaintain(base)
		st := s.ingestState(sp.Name, maintain)
		tasks = append(tasks, func() {
			series := counts
			if sp.Metric == engine.Sum {
				series = sums
			}
			if maintain {
				// Incremental maintenance: absorb the confined window
				// through the ingest ladder. Only an escalation (drift
				// persisting past a boundary repair) falls through to the
				// rebuild below.
				var out ingest.Outcome
				ests[i], out, errs[i] = ingest.Maintain(series, base, win.Lo, win.Hi, st)
				outcomes[i] = &out
				if errs[i] != nil || out.Action != ingest.Escalate {
					return
				}
			}
			ests[i], stats[i], errs[i] = build.Refresh(series, sp.Options, base, win)
			if errs[i] == nil && st != nil {
				// Built, not maintained: the drift baseline and repair arm
				// described the previous synopsis, so maintenance restarts
				// from this one.
				st.Reset()
			}
		})
	}
	parallel.Do(tasks...)
	for i, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("serve: building synopsis %q: %w", specs[i].Name, err))
		}
	}
	var segR, segU int64
	for i := range stats {
		segR += int64(stats[i].Rebuilt)
		segU += int64(stats[i].Reused)
	}
	if segR+segU > 0 {
		s.segRebuilt.Add(segR)
		s.segReused.Add(segU)
	}
	for _, out := range outcomes {
		if out == nil {
			continue
		}
		switch out.Action {
		case ingest.Escalate:
			s.ingEscalated.Add(1)
			continue // the fall-through rebuild happened; nothing avoided
		case ingest.Reopt:
			s.ingReopt.Add(1)
		case ingest.Repair:
			s.ingRepaired.Add(1)
		default:
			s.ingAbsorbed.Add(1)
		}
		s.ingAvoided.Add(1)
	}
	// Fold accepted shard estimators into the fresh local synopses, in
	// arrival order, so shard contributions survive the snapshot swap.
	sharded := make([]bool, len(specs))
	for i, sp := range specs {
		sharded[i] = len(shardsFor[i]) > 0
		for _, shard := range shardsFor[i] {
			merged, err := method.MustLookup(sp.Options.Method).Merge(ests[i], shard)
			if err != nil {
				return fail(fmt.Errorf("serve: merging shard into %q: %w", sp.Name, err))
			}
			ests[i] = merged
		}
	}
	// Error models, built concurrently against the snapshot's own prefix
	// tables. Shard-folded synopses get none: their answers cover remote
	// records the local tables cannot see, so no local bound is valid (the
	// planner skips them outright under finite budgets). A model failure
	// just leaves that synopsis serving unbounded. Reused synopses carried
	// their model over above.
	var mtasks []func()
	for i, sp := range specs {
		d, err := method.Lookup(sp.Options.Method)
		if sharded[i] || reused[i] || err != nil || !d.Caps.Has(method.ErrorBounded) {
			continue
		}
		tab := snap.count
		if sp.Metric == engine.Sum {
			tab = snap.sum
		}
		i, d, tab := i, d, tab
		mtasks = append(mtasks, func() { ems[i], _ = d.ErrorBound(tab, ests[i]) })
	}
	if len(mtasks) > 0 {
		parallel.Do(mtasks...)
	}
	for i, sp := range specs {
		snap.syns[sp.Name] = &Synopsis{Name: sp.Name, Metric: sp.Metric, Options: sp.Options, Est: ests[i], ErrModel: ems[i]}
	}
	snap.epoch = s.rebuilds.Add(1)
	snap.buildViews()
	s.snap.Store(snap)
	s.swappedAt.Store(time.Now().UnixNano())
	s.lastErr.Store(&rebuildError{})
	snapshotSwaps.Inc()
	snapshotVersion.Set(snap.Version)
	span.SetAttrInt("version", snap.Version)
	return nil
}

// debounceLoop turns MarkDirty signals into background rebuilds: it waits
// for a quiet period after the last mutation before rebuilding, but never
// lets the snapshot lag more than MaxLag behind a mutation.
func (s *Server) debounceLoop() {
	defer close(s.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.dirty:
		}
		deadline := time.Now().Add(s.cfg.MaxLag)
		timer.Reset(s.cfg.Debounce)
	quiet:
		for {
			select {
			case <-s.stop:
				timer.Stop()
				return
			case <-s.dirty:
				d := s.cfg.Debounce
				if rem := time.Until(deadline); rem < d {
					d = rem
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(d)
			case <-timer.C:
				break quiet
			}
		}
		if err := s.Rebuild(); err == nil && s.cfg.WAL != nil {
			// Checkpoints piggyback on the debounced rebuild: the engine
			// is quiescing, so the captured state is the one just served.
			_, _ = s.cfg.WAL.MaybeCheckpoint()
		} // a failed rebuild keeps the old snapshot; LastError reports it
	}
}
