package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, n := range []int{0, 1, 7, 100, 1000} {
		seen := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForEachChunkDisjointCoverage(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const n = 517
	seen := make([]int32, n)
	ForEachChunk(n, 13, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestNestedRegionsComplete(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	var total atomic.Int64
	ForEach(10, func(i int) {
		ForEach(10, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 100 {
		t.Fatalf("nested total = %d, want 100", total.Load())
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(5)
	if Workers() != 5 {
		t.Errorf("Workers() = %d, want 5", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("reset Workers() = %d, want GOMAXPROCS", Workers())
	}
	SetWorkers(prev)
}

func TestSerialWidthRunsInline(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	var count int // no atomics: width 1 must be strictly sequential
	ForEachChunk(100, 7, func(lo, hi int) { count += hi - lo })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

// TestRegionTakesUpFreedSlot: a region that starts while the budget is
// exhausted picks up a worker slot as soon as one frees, instead of
// running inline to the end. Here the only slot is held when the region
// starts and released by its first task; tasks 1 and 2 then only finish
// if they run concurrently.
func TestRegionTakesUpFreedSlot(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	if !tryAcquire() {
		t.Fatal("extra-worker slot unexpectedly busy")
	}
	var running atomic.Int64
	ForEach(3, func(i int) {
		if i == 0 {
			release()
			return
		}
		running.Add(1)
		deadline := time.Now().Add(5 * time.Second)
		for running.Load() < 2 {
			if time.Now().After(deadline) {
				t.Error("tasks 1 and 2 never ran concurrently: the freed slot was not taken up")
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestWaitingCallerLendsSlot: once a region's caller has run out of
// chunks and only waits for its workers, its share of the budget is
// free for the regions nested in those workers. Each round runs two
// tasks on the caller and its one worker; whichever finishes first, the
// other must see the whole budget free. The task-to-goroutine split is
// up to the scheduler, so the round repeats.
func TestWaitingCallerLendsSlot(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	for round := 0; round < 20; round++ {
		var started atomic.Int64
		failed := false
		ForEach(2, func(i int) {
			started.Add(1)
			for started.Load() < 2 {
				runtime.Gosched()
			}
			if i == 0 {
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for inflight.Load() != 0 {
				if time.Now().After(deadline) {
					t.Errorf("round %d: budget still held while the other goroutine only waits", round)
					failed = true
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
		if failed {
			return
		}
	}
}
