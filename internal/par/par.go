// Package par provides the one bounded fan-out primitive shared by every
// parallel phase of the toolchain: the loader's per-function
// disassembly+CFG stage, the PassManager's function passes, the emitter's
// per-function code generation, and profile-shard parsing. It lives
// outside internal/core so leaf packages (profile tooling, the bolt API)
// can use the same pool without importing the engine.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gobolt/internal/obsv"
)

// Jobs resolves a -jobs setting against GOMAXPROCS and the amount of work
// available: jobs <= 0 selects GOMAXPROCS (the production default) and
// the pool never exceeds n workers.
func Jobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// PanicError is the error a pool returns for a work item that panicked.
// The pool recovers the panic, so a malformed input that trips a bug in
// one item fails the phase like any other item error instead of
// crashing the process.
type PanicError struct {
	Item  int    // the item index whose work panicked
	Name  string // the item's task name, when the caller names items
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack: the error replaces the crash report
}

func (e *PanicError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("item %d (%s) panicked: %v", e.Item, e.Name, e.Value)
	}
	return fmt.Sprintf("item %d panicked: %v", e.Item, e.Value)
}

// call runs work on one item, converting a panic into a *PanicError
// named by taskName when it is non-nil.
func call(work func(worker, item int) error, taskName func(item int) string, w, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Item: i, Value: v, Stack: debug.Stack()}
			if taskName != nil {
				pe.Name = taskName(i)
			}
			err = pe
		}
	}()
	return work(w, i)
}

// For distributes work items [0,n) over jobs workers. Work is handed out
// by an atomic cursor; work receives the worker index (so callers can
// give each worker a private shard) and the item index. On failure the
// pool drains and the error attributed to the lowest item index is
// returned along with that index, keeping error messages stable across
// schedules. A panic in work is recovered and returned as that item's
// *PanicError. jobs <= 1 degenerates to a plain loop.
//
// Cancelling cx stops the pool promptly: no new item is claimed once the
// context is done (items already claimed run to completion), and For
// returns (-1, cx.Err()). Item errors take precedence over cancellation
// in the returned error, so a real failure is never masked by a
// simultaneous cancel. A nil cx behaves like context.Background().
func For(cx context.Context, n, jobs int, work func(worker, item int) error) (int, error) {
	return ForTraced(cx, nil, "", nil, n, jobs, work)
}

// ForTraced is For with span recording: when tr is non-nil each worker
// records one batch span named after the phase covering its whole
// participation in the pool, plus one task span per item (named by
// taskName when provided, else by the phase). A nil tr makes ForTraced
// identical to For — the hot loop takes no time stamps and performs no
// allocations, preserving the zero-alloc emission path.
func ForTraced(cx context.Context, tr *obsv.Tracer, phase string, taskName func(item int) string, n, jobs int, work func(worker, item int) error) (int, error) {
	if cx == nil {
		cx = context.Background()
	}
	// Task timestamps are chained: each span starts where the previous
	// one on the same worker ended, so an item costs one clock read, not
	// two. The sliver of claim overhead between items is attributed to
	// the task, which is negligible next to any real work item. Spans
	// are recorded for completed items only — a failing item ends its
	// worker's batch without a task span. The closures are built only
	// when tracing: with tr == nil this function allocates nothing.
	var task func(w, i int, last time.Time) time.Time
	if tr != nil {
		if jobs < 1 {
			tr.EnsureWorkers(1)
		} else {
			tr.EnsureWorkers(jobs)
		}
		task = func(w, i int, last time.Time) time.Time {
			now := time.Now()
			name := phase
			if taskName != nil {
				name = taskName(i)
			}
			tr.Task(w, phase, name, last, now.Sub(last))
			return now
		}
	}
	if jobs <= 1 {
		if tr == nil {
			for i := 0; i < n; i++ {
				if err := cx.Err(); err != nil {
					return -1, err
				}
				if err := call(work, taskName, 0, i); err != nil {
					return i, err
				}
			}
			return -1, nil
		}
		t0 := time.Now()
		last := t0
		items := 0
		batch := func() { tr.Batch(0, phase, t0, time.Since(t0), items) }
		for i := 0; i < n; i++ {
			if err := cx.Err(); err != nil {
				batch()
				return -1, err
			}
			if err := call(work, taskName, 0, i); err != nil {
				batch()
				return i, err
			}
			last = task(0, i, last)
			items++
		}
		batch()
		return -1, nil
	}
	return pool(cx, tr, phase, taskName, task, n, jobs, work)
}

// pool is ForTraced's worker-pool schedule for jobs > 1. It is a separate
// function so that the variables its goroutines capture are not moved to
// the heap on ForTraced's serial paths.
func pool(cx context.Context, tr *obsv.Tracer, phase string, taskName func(item int) string, task func(w, i int, last time.Time) time.Time, n, jobs int, work func(worker, item int) error) (int, error) {
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
	)
	errIdx, firstErr := -1, error(nil)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// worker-local: the traced wrapper must not race across workers
			run := func(w, i int) error { return call(work, taskName, w, i) }
			if tr != nil {
				t0 := time.Now()
				last := t0
				items := 0
				defer func() { tr.Batch(w, phase, t0, time.Since(t0), items) }()
				run = func(w, i int) error {
					err := call(work, taskName, w, i)
					if err == nil {
						last = task(w, i, last)
						items++
					}
					return err
				}
			}
			for {
				// Check for drain BEFORE claiming: a claimed item always
				// runs. The cursor hands out indices in order, so every
				// item below a recorded error index has run, and the
				// lowest-index error is reported exactly — the same
				// failure jobs=1 would stop at.
				if failed.Load() || cx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(w, i); err != nil {
					errMu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return errIdx, firstErr
	}
	if err := cx.Err(); err != nil {
		return -1, err
	}
	return -1, nil
}
