package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"gobolt/internal/obsv"
)

func TestForRunsEveryItem(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		var hits atomic.Int64
		idx, err := For(context.Background(), 100, jobs, func(_, i int) error {
			hits.Add(1)
			return nil
		})
		if err != nil || idx != -1 {
			t.Fatalf("jobs=%d: unexpected (%d, %v)", jobs, idx, err)
		}
		if hits.Load() != 100 {
			t.Fatalf("jobs=%d: ran %d of 100 items", jobs, hits.Load())
		}
	}
}

func TestForLowestErrorWins(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		idx, err := For(context.Background(), 50, jobs, func(_, i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: expected error", jobs)
		}
		// Item 7 always runs before the drain completes, so the reported
		// index can never exceed it.
		if idx != 7 {
			t.Fatalf("jobs=%d: error attributed to item %d, want 7 (err: %v)", jobs, idx, err)
		}
	}
}

// TestForPanicBecomesError panics in one item and an error in a later
// one: the pool must return the panic as the lowest-index error, carrying
// the item, its name and the panic value, on every schedule, traced or
// not.
func TestForPanicBecomesError(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		for _, tr := range []*obsv.Tracer{nil, obsv.New()} {
			name := func(i int) string { return fmt.Sprintf("f%d", i) }
			idx, err := ForTraced(context.Background(), tr, "p", name, 50, jobs, func(_, i int) error {
				switch i {
				case 5:
					panic(boom)
				case 20:
					return errors.New("later")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || idx != 5 || pe.Item != 5 || pe.Name != "f5" || pe.Value != boom {
				t.Fatalf("jobs=%d traced=%v: got (%d, %v), want item 5's panic", jobs, tr != nil, idx, err)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("jobs=%d traced=%v: panic error carries no stack", jobs, tr != nil)
			}
		}
	}
}

// TestForUntracedSerialAllocatesNothing pins the zero-alloc contract of
// the untraced jobs=1 path, panic recovery included.
func TestForUntracedSerialAllocatesNothing(t *testing.T) {
	work := func(_, i int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := For(context.Background(), 64, 1, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced serial For allocated %.1f times per run, want 0", allocs)
	}
}

// TestForCancellationStopsPromptly cancels the context from inside a work
// item and checks that the pool drains without claiming the remaining
// items, returning the context's error with index -1.
func TestForCancellationStopsPromptly(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		cx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n, cancelAt = 10_000, 5
		idx, err := For(cx, n, jobs, func(_, i int) error {
			ran.Add(1)
			if i == cancelAt {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || idx != -1 {
			t.Fatalf("jobs=%d: got (%d, %v), want (-1, context.Canceled)", jobs, idx, err)
		}
		// At most the items claimed before the cancel landed may run:
		// with the atomic cursor that is a handful per worker, never the
		// full range.
		if got := ran.Load(); got >= n/2 {
			t.Fatalf("jobs=%d: %d of %d items ran after cancellation", jobs, got, n)
		}
	}
}

// TestForCancelledBeforeStart: a pre-cancelled context runs no work.
func TestForCancelledBeforeStart(t *testing.T) {
	cx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		var ran atomic.Int64
		idx, err := For(cx, 100, jobs, func(_, i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || idx != -1 {
			t.Fatalf("jobs=%d: got (%d, %v), want (-1, context.Canceled)", jobs, idx, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("jobs=%d: %d items ran under a cancelled context", jobs, ran.Load())
		}
	}
}

// TestForErrorBeatsCancel: when a work item fails and the context is then
// cancelled, the item error is reported, not the cancellation.
func TestForErrorBeatsCancel(t *testing.T) {
	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	idx, err := For(cx, 20, 4, func(_, i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || idx != 3 {
		t.Fatalf("got (%d, %v), want (3, boom)", idx, err)
	}
}

func TestJobs(t *testing.T) {
	if got := Jobs(4, 2); got != 2 {
		t.Errorf("Jobs(4,2) = %d, want 2 (capped by work)", got)
	}
	if got := Jobs(3, 100); got != 3 {
		t.Errorf("Jobs(3,100) = %d, want 3", got)
	}
	if got := Jobs(0, 0); got != 1 {
		t.Errorf("Jobs(0,0) = %d, want 1", got)
	}
}
