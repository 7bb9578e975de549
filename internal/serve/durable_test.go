package serve

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/wal"
)

// newestCheckpointLists returns the synopsis names of the newest
// checkpoint's engine list and of its declared-spec list.
func newestCheckpointLists(t *testing.T, db *wal.DB) (synopses, specs []string) {
	t.Helper()
	rc, _, _, err := db.OpenNewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Synopses []struct {
			Name string `json:"name"`
		} `json:"synopses"`
		Specs []struct {
			Name string `json:"name"`
		} `json:"specs"`
	}
	const hdr = 16 // magic, body length, CRC
	if err := json.Unmarshal(buf[hdr:], &body); err != nil {
		t.Fatal(err)
	}
	for _, s := range body.Synopses {
		synopses = append(synopses, s.Name)
	}
	for _, s := range body.Specs {
		specs = append(specs, s.Name)
	}
	return synopses, specs
}

// decodedSpecNames decodes the newest checkpoint the way a replica does
// and returns the spec names it would adopt.
func decodedSpecNames(t *testing.T, db *wal.DB) []string {
	t.Helper()
	rc, _, _, err := db.OpenNewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ck, err := wal.DecodeCheckpoint(rc)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range ck.Specs {
		names = append(names, sp.Name)
	}
	return names
}

// checkServesLikeFresh compares every synopsis answer of s with a
// non-durable server built over the same counts and specs.
func checkServesLikeFresh(t *testing.T, s *Server, counts []int64) {
	t.Helper()
	eng, err := engine.New("fresh", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(eng, testSpecs(), Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range testSpecs() {
		for _, r := range [][2]int{{0, len(counts) - 1}, {3, 40}, {10, 10}} {
			q := Query{Synopsis: sp.Name, Metric: sp.Metric, A: r[0], B: r[1]}
			got, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s%v = %v, fresh server says %v", sp.Name, r, got, want)
			}
		}
	}
}

// TestDurableRestartBuildsNoEngineSynopses restarts a durable server
// twice: recovery must leave the engine catalog empty (the server
// builds its own snapshots from its specs), and every checkpoint must
// carry the declared specs only in its spec list, where a replica still
// finds them.
func TestDurableRestartBuildsNoEngineSynopses(t *testing.T) {
	dir := t.TempDir()
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(1 + (i*7)%13)
	}
	db, _, err := wal.Open(dir, wal.Options{Domain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(counts); err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 3; boot++ {
		if boot > 0 {
			if db, _, err = wal.Open(dir, wal.Options{}); err != nil {
				t.Fatal(err)
			}
			if n := len(db.Engine().Synopses()); n != 0 {
				t.Fatalf("boot %d: recovery built %d engine synopses, want none", boot, n)
			}
		}
		s, err := New(db.Engine(), testSpecs(), Config{Debounce: time.Hour, WAL: db})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(3+boot, 5); err != nil {
			t.Fatal(err)
		}
		counts[3+boot] += 5
		checkServesLikeFresh(t, s, counts)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		syns, specs := newestCheckpointLists(t, db)
		if len(syns) != 0 || !reflect.DeepEqual(specs, []string{"h", "s"}) {
			t.Fatalf("boot %d: checkpoint synopses %v, specs %v; want none and [h s]", boot, syns, specs)
		}
		if got := decodedSpecNames(t, db); !reflect.DeepEqual(got, []string{"h", "s"}) {
			t.Fatalf("boot %d: replica decodes specs %v, want [h s]", boot, got)
		}
		s.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddDropSynopsisDeclaresSpecs checks a durable server's checkpoints
// follow its spec list: an added spec is declared, a dropped one is not,
// and an add that fails and is rolled back leaves the list unchanged.
func TestAddDropSynopsisDeclaresSpecs(t *testing.T) {
	db, _, err := wal.Open(t.TempDir(), wal.Options{Domain: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := New(db.Engine(), testSpecs(), Config{Debounce: time.Hour, WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddSynopsis(engine.SynopsisSpec{Name: "new", Metric: engine.Count,
		Options: build.Options{Method: method.EquiDepth, BudgetWords: 8}}); err != nil {
		t.Fatal(err)
	}
	if !s.DropSynopsis("h") {
		t.Fatal("drop of h reported false")
	}
	if err := s.AddSynopsis(engine.SynopsisSpec{Name: "bad", Metric: engine.Count,
		Options: build.Options{Method: method.VOptimal}}); err == nil {
		t.Fatal("zero-budget spec accepted")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := decodedSpecNames(t, db); !reflect.DeepEqual(got, []string{"s", "new"}) {
		t.Fatalf("replica decodes specs %v, want [s new]", got)
	}
}

// TestOldFormatCheckpointShedsEngineCopies recovers a data directory
// written by the code before checkpoints had a spec list, from a node
// that had restarted once: its newest checkpoint holds the declared
// specs as engine synopses with estimator blobs. The directory must
// still recover its counts, give a replica its specs, and shed the
// engine copies once the server declares its specs, so the next
// checkpoint carries them only in the spec list.
func TestOldFormatCheckpointShedsEngineCopies(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "restarted-node")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture node loaded these counts, then inserted 5×3 and 2×40
	// (checkpointed after its restart) and 1×10 (left in the log).
	want := make([]int64, 64)
	for i := range want {
		want[i] = int64(1 + (i*7)%13)
	}
	want[3] += 5
	want[40] += 2
	want[10]++

	db, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rec.Fresh || rec.Torn || rec.Replayed != 1 {
		t.Fatalf("recovery = %+v, want one clean replayed record", rec)
	}
	if got := db.Engine().Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered counts %v, want %v", got, want)
	}
	if got := decodedSpecNames(t, db); !reflect.DeepEqual(got, []string{"h", "s"}) {
		t.Fatalf("replica decodes specs %v from the old checkpoint, want [h s]", got)
	}

	s, err := New(db.Engine(), testSpecs(), Config{Debounce: time.Hour, WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(db.Engine().Synopses()); n != 0 {
		t.Fatalf("%d engine synopses survive the spec declaration, want none", n)
	}
	checkServesLikeFresh(t, s, want)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	syns, specs := newestCheckpointLists(t, db)
	if len(syns) != 0 || !reflect.DeepEqual(specs, []string{"h", "s"}) {
		t.Fatalf("checkpoint synopses %v, specs %v; want none and [h s]", syns, specs)
	}

	// A bare replica installing the new checkpoint adopts both specs.
	rc, _, _, err := db.OpenNewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpoint(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New("replica", 64)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := New(eng, nil, Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.InstallCheckpoint(ck, true); err != nil {
		t.Fatal(err)
	}
	checkServesLikeFresh(t, replica, want)
}
