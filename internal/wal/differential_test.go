package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
)

// datasets mirrors the differential corpus used across the repo: the
// paper's Zipf generator plus uniform and spiked distributions.
func datasets(t *testing.T, n int) map[string][]int64 {
	t.Helper()
	out := make(map[string][]int64)
	d, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: 1.8, MaxCount: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out["zipf"] = d.Counts
	rng := rand.New(rand.NewSource(11))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = int64(rng.Intn(50))
	}
	out["uniform"] = uniform
	spiked := make([]int64, n)
	for i := 0; i < 4; i++ {
		spiked[rng.Intn(n)] = int64(1000 + rng.Intn(5000))
	}
	out["spiked"] = spiked
	return out
}

// synFamilies are the synopsis families the differential test builds
// mid-sequence: a mergeable histogram, a bucket synopsis, and a wavelet.
func synFamilies() []build.Options {
	return []build.Options{
		{Method: method.VOptimal, BudgetWords: 16},
		{Method: method.SAP1, BudgetWords: 20},
		{Method: method.WaveTopBB, BudgetWords: 16},
	}
}

// TestRecoveryDifferential is the acceptance test: a randomized mutation
// sequence (inserts, deletes, synopsis builds, interleaved checkpoints)
// over each dataset, then a reopen. The recovered engine must reproduce
// the live engine bit-exactly: counts equal, and every registered
// synopsis encodes to the same wire bytes as the pre-crash golden copy.
func TestRecoveryDifferential(t *testing.T) {
	const n = 128
	for name, counts := range datasets(t, n) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				dir := t.TempDir()
				db, _ := openT(t, dir, Options{Domain: n, SegmentBytes: 2048, Fsync: FsyncOff})
				if err := db.Load(counts); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				fams := synFamilies()
				built := 0
				for op := 0; op < 200; op++ {
					switch k := rng.Intn(10); {
					case k < 5:
						if err := db.Insert(rng.Intn(n), int64(1+rng.Intn(20))); err != nil {
							t.Fatal(err)
						}
					case k < 8:
						// Delete only available mass so the op is acked.
						v := rng.Intn(n)
						if have := db.Engine().Counts()[v]; have > 0 {
							if err := db.Delete(v, 1+rng.Int63n(have)); err != nil {
								t.Fatal(err)
							}
						}
					case k < 9 && built < len(fams):
						opt := fams[built]
						opt.Seed = seed
						if _, err := db.BuildSynopsis(fmt.Sprintf("syn%d", built), engine.Count, opt); err != nil {
							t.Fatal(err)
						}
						built++
					default:
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				golden := snapshotState(t, db)
				closeT(t, db)

				db2, rec := openT(t, dir, Options{})
				defer closeT(t, db2)
				if rec.Torn {
					t.Fatalf("clean log recovered torn: %+v", rec)
				}
				diffState(t, golden, snapshotState(t, db2))
			})
		}
	}
}

// TestRecoveryDifferentialTornTail truncates the log mid-record after a
// randomized run and requires recovery of the longest valid prefix: the
// recovered counts must equal the golden state after exactly
// checkpoint+Replayed acknowledged mutations.
func TestRecoveryDifferentialTornTail(t *testing.T) {
	const n = 64
	counts := datasets(t, n)["zipf"]
	for cut := int64(1); cut <= 9; cut += 4 {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			db, _ := openT(t, dir, Options{Domain: n, Fsync: FsyncOff})
			// states[i] is the counts after i log records are applied on
			// top of the baseline checkpoint.
			states := [][]int64{db.Engine().Counts()}
			if err := db.Load(counts); err != nil {
				t.Fatal(err)
			}
			states = append(states, db.Engine().Counts())
			rng := rand.New(rand.NewSource(cut))
			for op := 0; op < 30; op++ {
				if err := db.Insert(rng.Intn(n), int64(1+rng.Intn(5))); err != nil {
					t.Fatal(err)
				}
				states = append(states, db.Engine().Counts())
			}
			closeT(t, db)

			segs, err := listSegments(dir)
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments = %v, %v", segs, err)
			}
			last := segs[len(segs)-1].path
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			db2, rec := openT(t, dir, Options{})
			defer closeT(t, db2)
			if !rec.Torn {
				t.Fatal("mid-record truncation not reported as torn")
			}
			want := states[int(rec.Checkpoint)+int(rec.Replayed)]
			if !reflect.DeepEqual(db2.Engine().Counts(), want) {
				t.Fatalf("recovered counts are not the %d-record prefix", rec.Replayed)
			}
		})
	}
}

// walState is the comparable image of a durable engine.
type walState struct {
	counts   []int64
	records  int64
	synopses map[string][]byte // name -> codec wire bytes (serializable only)
	specs    map[string]build.Options
}

func snapshotState(t *testing.T, db *DB) walState {
	t.Helper()
	st := walState{
		counts:   db.Engine().Counts(),
		records:  db.Engine().Records(),
		synopses: make(map[string][]byte),
		specs:    make(map[string]build.Options),
	}
	for _, syn := range db.Engine().Synopses() {
		st.specs[syn.Name] = syn.Options
		if d, err := method.Lookup(syn.Options.Method); err == nil && d.Caps.Has(method.Serializable) {
			blob, err := encodeEstimator(syn.Est)
			if err != nil {
				t.Fatal(err)
			}
			st.synopses[syn.Name] = blob
		}
	}
	return st
}

func diffState(t *testing.T, want, got walState) {
	t.Helper()
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatal("recovered counts differ from the live engine")
	}
	if got.records != want.records {
		t.Fatalf("recovered %d records, want %d", got.records, want.records)
	}
	if !reflect.DeepEqual(got.specs, want.specs) {
		t.Fatalf("recovered synopsis specs %v, want %v", got.specs, want.specs)
	}
	for name, blob := range want.synopses {
		if !bytes.Equal(got.synopses[name], blob) {
			t.Fatalf("synopsis %q: recovered wire bytes differ from the pre-crash golden", name)
		}
	}
}
