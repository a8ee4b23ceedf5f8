package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gobolt/bolt"
	"gobolt/internal/profile"
)

// jobs is the optimizer's worker count: every workload runs at the
// machine's CPU count, from one process.
var jobs = runtime.NumCPU()

func (w workloadDef) options() []bolt.Option {
	return []bolt.Option{bolt.WithJobs(jobs), bolt.WithLite(w.lite)}
}

// fdataBytes is a profile source over an fdata file's bytes, so the
// timed path starts from bytes like the binary does.
type fdataBytes []byte

func (fdataBytes) Describe() string { return "fdata bytes" }

func (b fdataBytes) Load(cx context.Context) (*profile.Fdata, error) {
	return profile.ParseData(cx, b, jobs)
}

// outcome is one optimize operation's product. sum is the output's
// hash, taken outside the timed operation.
type outcome struct {
	out     []byte
	sum     [sha256.Size]byte
	hotText uint64
}

// optimize is the operation the end-to-end cost metrics time: input
// bytes plus fdata bytes to output bytes through the public Session.
func optimize(cx context.Context, w workloadDef, binary, fdata []byte) (*outcome, error) {
	sess, err := bolt.OpenReader(bytes.NewReader(binary), w.options()...)
	if err != nil {
		return nil, err
	}
	if err := sess.LoadProfile(cx, fdataBytes(fdata)); err != nil {
		return nil, err
	}
	rep, err := sess.Optimize(cx)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, err := sess.WriteTo(&out); err != nil {
		return nil, err
	}
	return &outcome{out: out.Bytes(), hotText: rep.HotTextSize}, nil
}

// cost is what one operation consumed.
type cost struct {
	wall, cpu time.Duration
	// alloc is the bytes allocated; peak the largest growth of the heap
	// over the heap at the start, sampled every heapSampling.
	alloc, peak uint64
	gcCPU       time.Duration
}

// probe reads the process counters a cost is the difference of.
type probe struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gcCPU time.Duration
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func readProbe() probe {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricGCCPU}}
	metrics.Read(s)
	return probe{
		alloc: s[0].Value.Uint64(),
		gcCPU: time.Duration(s[1].Value.Float64() * float64(time.Second)),
		cpu:   processCPU(),
		at:    time.Now(),
	}
}

// since returns the counters' growth from p to now.
func (p probe) since() cost {
	q := readProbe()
	return cost{wall: q.at.Sub(p.at), cpu: q.cpu - p.cpu, alloc: q.alloc - p.alloc, gcCPU: q.gcCPU - p.gcCPU}
}

// processCPU is the user plus system time of every thread so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampling is the peak-heap sampling interval: the heap grows by a
// few hundred MB a second, so a peak is missed by at most ~1%.
const heapSampling = 5 * time.Millisecond

// measure runs op after a full collection, so every operation starts
// from the same heap, and returns what it cost.
func measure(op func()) cost {
	runtime.GC()
	heap := []metrics.Sample{{Name: metricHeap}}
	metrics.Read(heap)
	start := heap[0].Value.Uint64()
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		peak := start
		t := time.NewTicker(heapSampling)
		defer t.Stop()
		s := []metrics.Sample{{Name: metricHeap}}
		for {
			select {
			case <-stop:
				done <- peak - start
				return
			case <-t.C:
				metrics.Read(s)
				peak = max(peak, s[0].Value.Uint64())
			}
		}
	}()
	p := readProbe()
	op()
	c := p.since()
	close(stop)
	c.peak = <-done
	return c
}
