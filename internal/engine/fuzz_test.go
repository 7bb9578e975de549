package engine

import (
	"sync"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/method"
)

// FuzzEngineQuery drives an engine through arbitrary interleavings of
// loads, inserts, deletes, synopsis builds, rebuilds (including one racing
// a query), and exact/approximate queries decoded from the fuzz input.
// The invariants: no operation panics, exact answers are never negative,
// and the record total never goes negative.
func FuzzEngineQuery(f *testing.F) {
	f.Add([]byte{16, 0, 1, 2, 3})
	f.Add([]byte{32, 3, 0, 4, 10, 20, 5, 0, 31, 7, 10, 0, 31})
	f.Add([]byte{8, 1, 3, 9, 2, 3, 9, 3, 1, 6, 0, 7, 8, 9, 5, 200, 200})
	f.Add([]byte{64, 0, 3, 2, 10, 3, 3, 4, 0, 63, 6, 1, 62, 9, 0, 63})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		domain := 4 + int(data[0])%61 // 4..64
		eng, err := New("fuzz", domain)
		if err != nil {
			t.Fatal(err)
		}
		// next yields the following byte of the op stream, zero when
		// exhausted, so every prefix of an input is a valid program.
		pos := 1
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}
		methods := []method.ID{method.Naive, method.EquiWidth, method.SAP0, method.A0}
		built := false
		for pos < len(data) {
			switch next() % 10 {
			case 0: // bulk load derived from the stream
				counts := make([]int64, domain)
				for i := range counts {
					counts[i] = int64(next() % 16)
				}
				if err := eng.Load(counts); err != nil {
					t.Fatalf("load of valid counts failed: %v", err)
				}
			case 1:
				_ = eng.Insert(next()%domain, int64(next()%32+1))
			case 2:
				// May legitimately fail (more deletes than records).
				_ = eng.Delete(next()%domain, int64(next()%32+1))
			case 3:
				metric := Metric(next() % 2)
				opt := build.Options{Method: methods[next()%len(methods)], BudgetWords: next()%32 + 1}
				if _, err := eng.BuildSynopsis("f", metric, opt); err != nil {
					t.Fatalf("building %v: %v", opt, err)
				}
				built = true
			case 4:
				if built {
					if _, err := eng.Approx("f", next()%domain, next()%domain); err != nil {
						t.Fatalf("approx: %v", err)
					}
				}
			case 5:
				a, b := next()-64, next()-64 // exercise clamping on both sides
				if c := eng.ExactCount(a, b); c < 0 {
					t.Fatalf("ExactCount(%d,%d) = %d < 0", a, b, c)
				}
			case 6:
				a, b := next()-64, next()-64
				if s := eng.ExactSum(a, b); s < 0 {
					t.Fatalf("ExactSum(%d,%d) = %d < 0", a, b, s)
				}
			case 7:
				if built {
					if _, err := eng.Refresh("f"); err != nil {
						t.Fatalf("refresh: %v", err)
					}
				}
			case 8:
				if built {
					if _, err := eng.Progressive("f", next()%domain, next()%domain, next()%8); err != nil {
						t.Fatalf("progressive: %v", err)
					}
				}
			case 9: // a rebuild racing a query batch — the serving pattern
				if built {
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, _ = eng.Refresh("f")
					}()
					if _, err := eng.ApproxBatch("f", nil); err != nil {
						t.Fatalf("batch during rebuild: %v", err)
					}
					_ = eng.ExactCount(0, domain-1)
					wg.Wait()
				}
			}
			if eng.Records() < 0 {
				t.Fatalf("negative record total %d", eng.Records())
			}
		}
	})
}
