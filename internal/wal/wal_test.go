package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
)

// openT opens a DB and fails the test on error.
func openT(t *testing.T, dir string, opt Options) (*DB, *Recovery) {
	t.Helper()
	db, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db, rec
}

func closeT(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFreshDirNeedsDomain(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("opening a fresh directory without a domain should fail")
	}
}

func TestDomainMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	closeT(t, db)
	if _, _, err := Open(dir, Options{Domain: 64}); err == nil {
		t.Fatal("reopening with a different domain should fail")
	}
	// Omitting the domain must work: the directory is self-describing.
	db, rec := openT(t, dir, Options{})
	defer closeT(t, db)
	if rec.Fresh {
		t.Fatal("second open reported Fresh")
	}
	if got := db.Engine().Domain(); got != 32 {
		t.Fatalf("recovered domain %d, want 32", got)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, rec := openT(t, dir, Options{Domain: 64})
	if !rec.Fresh {
		t.Fatal("first open not Fresh")
	}
	mustNil := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	mustNil(db.Load(counts))
	mustNil(db.Insert(3, 10))
	mustNil(db.Insert(60, 4))
	mustNil(db.Delete(3, 2))
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("gone", engine.Count, build.Options{Method: method.EquiWidth, BudgetWords: 12}); err != nil {
		t.Fatal(err)
	}
	if had, err := db.DropSynopsis("gone"); err != nil || !had {
		t.Fatalf("DropSynopsis(gone) = %v, %v", had, err)
	}
	if had, err := db.DropSynopsis("never-existed"); err != nil || had {
		t.Fatalf("DropSynopsis(absent) = %v, %v; want false, nil", had, err)
	}
	wantCounts := db.Engine().Counts()
	wantRecords := db.Engine().Records()
	wantBytes := encodeT(t, db, "h")
	last := db.log.LastIndex()
	closeT(t, db)

	db2, rec2 := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec2.Fresh || rec2.Torn {
		t.Fatalf("recovery = %+v, want clean non-fresh", rec2)
	}
	if rec2.Replayed != int64(last) {
		t.Fatalf("replayed %d records, want %d", rec2.Replayed, last)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), wantCounts) {
		t.Fatal("recovered counts differ")
	}
	if got := db2.Engine().Records(); got != wantRecords {
		t.Fatalf("recovered %d records, want %d", got, wantRecords)
	}
	if len(db2.Engine().Synopses()) != 1 {
		t.Fatalf("recovered %d synopses, want 1", len(db2.Engine().Synopses()))
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("recovered synopsis wire bytes differ")
	}
	// The log keeps going where it left off.
	if err := db2.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if got := db2.log.LastIndex(); got != last+1 {
		t.Fatalf("post-recovery append got index %d, want %d", got, last+1)
	}
}

// encodeT serializes a registered synopsis to its codec envelope bytes.
func encodeT(t *testing.T, db *DB, name string) []byte {
	t.Helper()
	syn, err := db.Engine().Synopsis(name)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeEstimator(syn.Est)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 16, SegmentBytes: 128})
	for i := 0; i < 40; i++ {
		if err := db.Insert(i%16, 1+int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	want := db.Engine().Counts()
	segs, err := db.log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", segs)
	}
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Replayed != 40 || rec.Torn {
		t.Fatalf("recovery = %+v, want 40 clean replays", rec)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("recovered counts differ after multi-segment replay")
	}
}

func TestCheckpointTruncatesLogAndSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 16, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := db.Insert(i%16, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 8}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().RecordsSinceCkpt; got != 0 {
		t.Fatalf("records since checkpoint = %d after Checkpoint", got)
	}
	segs, err := db.log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs != 1 {
		t.Fatalf("%d segments survive the checkpoint, want only the active one", segs)
	}
	want := db.Engine().Counts()
	wantBytes := encodeT(t, db, "h")
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint covers everything)", rec.Replayed)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("checkpoint-recovered counts differ")
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("checkpoint-recovered synopsis bytes differ (should be installed verbatim)")
	}
}

func TestMaybeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8, CheckpointEvery: 4})
	defer closeT(t, db)
	for i := 0; i < 3; i++ {
		if err := db.Insert(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if did, err := db.MaybeCheckpoint(); err != nil || did {
		t.Fatalf("MaybeCheckpoint below threshold = %v, %v", did, err)
	}
	if err := db.Insert(3, 1); err != nil {
		t.Fatal(err)
	}
	if did, err := db.MaybeCheckpoint(); err != nil || !did {
		t.Fatalf("MaybeCheckpoint at threshold = %v, %v", did, err)
	}
	if got := db.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
}

func TestTornTailRecoversValidPrefix(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	var prefixes [][]int64
	prefixes = append(prefixes, db.Engine().Counts())
	for i := 0; i < 10; i++ {
		if err := db.Insert(i%8, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, db.Engine().Counts())
	}
	closeT(t, db)

	// Chop the tail mid-record: the log now ends inside record 10.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, rec := openT(t, dir, Options{})
	if !rec.Torn {
		t.Fatal("recovery did not report a torn tail")
	}
	if rec.Replayed != 9 {
		t.Fatalf("replayed %d records, want 9 (the valid prefix)", rec.Replayed)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), prefixes[9]) {
		t.Fatal("recovered counts are not the 9-record prefix state")
	}
	// The torn bytes are gone: appending and reopening again is clean.
	if err := db2.Insert(0, 100); err != nil {
		t.Fatal(err)
	}
	want := db2.Engine().Counts()
	closeT(t, db2)
	db3, rec3 := openT(t, dir, Options{})
	defer closeT(t, db3)
	if rec3.Torn {
		t.Fatal("second recovery still torn")
	}
	if !reflect.DeepEqual(db3.Engine().Counts(), want) {
		t.Fatal("post-tear append lost")
	}
}

func TestBitFlipStopsReplayAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	for i := 0; i < 6; i++ {
		if err := db.Insert(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	closeT(t, db)

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the record area (past the header):
	// CRC-32C catches it and replay must stop there, keeping the prefix.
	buf[segHdrLen+(len(buf)-segHdrLen)/2] ^= 0x10
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if !rec.Torn {
		t.Fatal("bit flip not reported as torn")
	}
	if rec.Replayed >= 6 {
		t.Fatalf("replayed %d records through a corrupt one", rec.Replayed)
	}
	want := make([]int64, 8)
	for i := int64(0); i < rec.Replayed; i++ {
		want[i] = 1
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatalf("recovered counts %v are not the %d-record prefix", db2.Engine().Counts(), rec.Replayed)
	}
}

func TestCorruptNewestCheckpointFallsBackOneGeneration(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	if err := db.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older := db.Engine().Counts()
	if err := db.Insert(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeT(t, db)

	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2 (KeepCheckpoints default)", len(cks))
	}
	newest := cks[len(cks)-1].path
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery falls back to the older checkpoint. The log between the
	// two was truncated by the newer one, so the replay sees a gap,
	// reports it as torn, and the older state is the recovered prefix.
	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if !reflect.DeepEqual(db2.Engine().Counts(), older) {
		t.Fatalf("recovered %v, want the older checkpoint state %v", db2.Engine().Counts(), older)
	}
	if rec.Fresh {
		t.Fatal("fallback recovery reported Fresh")
	}
}

func TestOnlyCheckpointCorruptFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	closeT(t, db)
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("checkpoints = %v, %v", cks, err)
	}
	if err := os.WriteFile(cks[0].path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Domain: 8}); err == nil {
		t.Fatal("open should fail rather than silently reinitialize over a damaged checkpoint")
	}
}

func TestShardInboxSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	defer closeT(t, db)

	shard, err := engine.New("shard", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Insert(4, 9); err != nil {
		t.Fatal(err)
	}
	syn, err := shard.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LogShardMerge("h", syn.Est); err != nil {
		t.Fatal(err)
	}
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	if len(rec.Shards) != 1 || rec.Shards[0].Name != "h" {
		t.Fatalf("recovered shards = %+v, want one for %q", rec.Shards, "h")
	}
	var got, want bytes.Buffer
	if err := codec.Write(&got, rec.Shards[0].Est); err != nil {
		t.Fatal(err)
	}
	if err := codec.Write(&want, syn.Est); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered shard estimator bytes differ")
	}

	// A checkpoint must carry the inbox too (recovery without replay).
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeT(t, db2)
	db3, rec3 := openT(t, dir, Options{})
	if rec3.Replayed != 0 || len(rec3.Shards) != 1 {
		t.Fatalf("post-checkpoint recovery = %+v, want shard from checkpoint alone", rec3)
	}

	// Dropping the synopsis purges the durable inbox.
	if _, err := db3.DropSynopsis("h"); err != nil {
		t.Fatal(err)
	}
	closeT(t, db3)
	db4, rec4 := openT(t, dir, Options{})
	defer closeT(t, db4)
	if len(rec4.Shards) != 0 {
		t.Fatalf("shards survived DropSynopsis: %+v", rec4.Shards)
	}
}

func TestAbsorbShardReplaysAndMerges(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	if err := db.Insert(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 8}); err != nil {
		t.Fatal(err)
	}

	shard, err := engine.New("shard", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Insert(20, 11); err != nil {
		t.Fatal(err)
	}
	ssyn, err := shard.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AbsorbShard("h", shard.Counts(), ssyn.Metric, ssyn.Options, ssyn.Est); err != nil {
		t.Fatal(err)
	}
	want := db.Engine().Counts()
	wantBytes := encodeT(t, db, "h")
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Torn {
		t.Fatal("absorb replay torn")
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("absorbed counts not recovered")
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("merged synopsis bytes differ after replay")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, _ := openT(t, dir, Options{Domain: 8, Fsync: policy})
			if err := db.Insert(2, 2); err != nil {
				t.Fatal(err)
			}
			stats := db.Stats()
			if stats.Appends != 1 {
				t.Fatalf("appends = %d, want 1", stats.Appends)
			}
			if policy == FsyncAlways && stats.Fsyncs == 0 {
				t.Fatal("always policy recorded no fsyncs")
			}
			closeT(t, db)
			db2, rec := openT(t, dir, Options{})
			defer closeT(t, db2)
			if rec.Replayed != 1 {
				t.Fatalf("replayed %d, want 1 (clean close syncs every policy)", rec.Replayed)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "": FsyncAlways, "INTERVAL": FsyncInterval, "off": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// A checkpoint with a nil synopsis blob (a non-serializable family, or a
// checkpoint written by a build without the codec) is rebuilt from the
// checkpoint counts.
func TestCheckpointSpecOnlySynopsisRebuilds(t *testing.T) {
	dir := t.TempDir()
	counts := []int64{5, 0, 3, 1, 0, 0, 9, 2}
	wire := checkpointWire{
		Name: "col", Domain: 8, Applied: 0, Counts: counts,
		Synopses: []ckptSynopsis{{
			Name: "h", Metric: int(engine.Count),
			Options: build.Options{Method: method.VOptimal, BudgetWords: 6},
		}},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(dir, wire); err != nil {
		t.Fatal(err)
	}
	db, rec := openT(t, dir, Options{})
	defer closeT(t, db)
	if rec.Fresh {
		t.Fatal("hand-written checkpoint read as fresh")
	}
	syn, err := db.Engine().Synopsis("h")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New("ref", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(counts); err != nil {
		t.Fatal(err)
	}
	refSyn, err := ref.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := encodeEstimator(syn.Est)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeEstimator(refSyn.Est)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("spec-only rebuild differs from a reference build on the same counts")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, base := range []uint64{0, 1, 0xdeadbeef, 1 << 60} {
		got, ok := parseSegmentName(segmentName(base))
		if !ok || got != base {
			t.Fatalf("parseSegmentName(segmentName(%d)) = %d, %v", base, got, ok)
		}
	}
	if _, ok := parseSegmentName("checkpoint-0000000000000001.ckpt"); ok {
		t.Fatal("checkpoint name parsed as segment")
	}
	if _, ok := parseCheckpointName(filepath.Base(segmentName(1))); ok {
		t.Fatal("segment name parsed as checkpoint")
	}
}
