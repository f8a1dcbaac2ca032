package stats

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelDaysErrRecoversPanic(t *testing.T) {
	err := ParallelDaysErr(context.Background(), 64, 8, func(i int) error {
		if i == 17 {
			panic("worker exploded")
		}
		return nil
	})
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wp.Index != 17 {
		t.Errorf("panic index = %d, want 17", wp.Index)
	}
	if !strings.Contains(wp.Error(), "worker exploded") {
		t.Errorf("error text %q does not carry the panic value", wp.Error())
	}
	if len(wp.Stack) == 0 {
		t.Error("no stack captured")
	}
}

func TestParallelDaysErrSequentialPathRecoversToo(t *testing.T) {
	err := ParallelDaysErr(context.Background(), 8, 1, func(i int) error {
		if i == 3 {
			panic(fmt.Sprintf("boom at %d", i))
		}
		return nil
	})
	var wp *WorkerPanicError
	if !errors.As(err, &wp) || wp.Index != 3 {
		t.Fatalf("err = %v, want panic at index 3", err)
	}
}

func TestParallelDaysErrReturnsFirstError(t *testing.T) {
	sentinel := errors.New("shard failed")
	err := ParallelDaysErr(context.Background(), 32, 4, func(i int) error {
		if i%5 == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestParallelDaysErrStopsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	_ = ParallelDaysErr(context.Background(), 10_000, 2, func(i int) error {
		ran.Add(1)
		return errors.New("fail fast")
	})
	// Each worker stops at its first post-failure stop-flag check, so only
	// a tiny fraction of the 10k tasks may run.
	if n := ran.Load(); n > 100 {
		t.Errorf("%d tasks ran after the first failure", n)
	}
}

func TestParallelDaysErrHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ParallelDaysErr(ctx, 128, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a pre-cancelled context", ran.Load())
	}
}

func TestParallelDaysErrZeroTasks(t *testing.T) {
	if err := ParallelDaysErr(context.Background(), 0, 4, func(i int) error {
		t.Error("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDaysErrCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		hits := make([]atomic.Int32, 53)
		if err := ParallelDaysErr(context.Background(), len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelDaysRepanicsOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ParallelDays swallowed the worker panic")
		}
		var wp *WorkerPanicError
		if err, ok := r.(error); !ok || !errors.As(err, &wp) {
			t.Fatalf("recovered %v, want *WorkerPanicError", r)
		}
	}()
	ParallelDays(16, 4, func(i int) {
		if i == 9 {
			panic("legacy path panic")
		}
	})
}

// skewedCost is index i's simulated work: every seventh task is about 40
// times as long as the rest, as a slot's builds are uneven.
func skewedCost(i int) {
	d := 20 * time.Microsecond
	if i%7 == 0 {
		d = 800 * time.Microsecond
	}
	time.Sleep(d)
}

// TestParallelDaysErrWorkQueueContract runs skewed tasks at 1, 2, 8 and
// n+3 workers and holds the pool to its contract: every index runs
// exactly once, the first failure wins and stops later indices, a panic
// surfaces as *WorkerPanicError, and cancellation stops the sweep.
func TestParallelDaysErrWorkQueueContract(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8, n + 3} {
		hits := make([]atomic.Int32, n)
		if err := ParallelDaysErr(context.Background(), n, workers, func(i int) error {
			skewedCost(i)
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}

		// At most one index per worker can be in flight, or claimed just
		// before the stop, once the failure lands: nothing much past
		// the failing index starts.
		const failAt = 9
		bound := failAt + 2*workers
		first := errors.New("first failure")
		var maxRan atomic.Int64
		err := ParallelDaysErr(context.Background(), n, workers, func(i int) error {
			for {
				m := maxRan.Load()
				if int64(i) <= m || maxRan.CompareAndSwap(m, int64(i)) {
					break
				}
			}
			if i == failAt {
				return first
			}
			skewedCost(i)
			if i > failAt {
				return fmt.Errorf("later failure at %d", i)
			}
			return nil
		})
		if workers == 1 && err != first {
			t.Fatalf("workers=1: err = %v, want the first failure", err)
		}
		if err == nil {
			t.Fatalf("workers=%d: failure swallowed", workers)
		}
		if got := int(maxRan.Load()); bound < n && got > bound {
			t.Errorf("workers=%d: index %d ran after the failure at %d", workers, got, failAt)
		}

		err = ParallelDaysErr(context.Background(), n, workers, func(i int) error {
			skewedCost(i)
			if i == 13 {
				panic("skewed task exploded")
			}
			return nil
		})
		var wp *WorkerPanicError
		if !errors.As(err, &wp) || wp.Index != 13 {
			t.Fatalf("workers=%d: err = %v, want *WorkerPanicError at 13", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err = ParallelDaysErr(ctx, n, workers, func(i int) error {
			ran.Add(1)
			if i == failAt {
				cancel()
			}
			skewedCost(i)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := int(ran.Load()); bound < n && got > bound {
			t.Errorf("workers=%d: %d indices ran after cancellation at %d", workers, got, failAt)
		}
	}
}

// TestParallelDaysErrBalancesSkewedTasks puts every slow task in the first
// half of the range. Contiguous chunks would give them all to one of two
// workers; the shared queue hands the second worker a slow task at once.
// Index 0 waits for another slow task to start, so the test fails (after
// a timeout) under a chunked schedule.
func TestParallelDaysErrBalancesSkewedTasks(t *testing.T) {
	const n = 64
	otherSlow := make(chan struct{})
	var once sync.Once
	err := ParallelDaysErr(context.Background(), n, 2, func(i int) error {
		if i >= n/2 {
			return nil
		}
		if i > 0 {
			once.Do(func() { close(otherSlow) })
			time.Sleep(100 * time.Microsecond)
			return nil
		}
		select {
		case <-otherSlow:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no other worker took a slow task while index 0 ran")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
