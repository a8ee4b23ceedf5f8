package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gobolt/internal/bincheck"
	"gobolt/internal/uarch"
)

type config struct {
	workload workloadDef
	seed     uint64
	seconds  time.Duration
	trace    bool
	// small runs the tiny preset, for the self-tests.
	small   bool
	spanDir string
}

const (
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 3
	// minOps is the fewest timed operations a loop makes, however short
	// the run.
	minOps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line the benchmark ends with.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary  summary
	problems []string
	// Fingerprints of the inputs the seed produced and of the outputs.
	inputSHA, profilesSHA, outputSHA string
	spanFile                         string
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	r.summary.Metrics[name] = metric{Value: v, Unit: unit}
}

// opLog counts optimize operations. The first operation on each profile
// that succeeds is that profile's reference: every later operation on
// the profile must reproduce its output, and every check examines it.
type opLog struct {
	refs              []*outcome
	attempted, failed int
	// costs and verifyWalls are the timed operations' costs and the
	// walls of verifying their outputs.
	costs       []cost
	verifyWalls []float64
}

func newOpLog(profiles int) *opLog { return &opLog{refs: make([]*outcome, profiles)} }

func (l *opLog) record(r *result, profile int, o *outcome, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		r.fail("optimize: %v", err)
		return false
	}
	o.sum = sha256.Sum256(o.out)
	switch {
	case l.refs[profile] == nil:
		l.refs[profile] = o
	case o.sum != l.refs[profile].sum:
		l.failed++
		r.fail("optimize is not deterministic: two operations on the same inputs gave different outputs")
		return false
	}
	return true
}

func runBench(cfg config) (*result, error) {
	w := cfg.workload
	res := &result{summary: summary{Metrics: map[string]metric{}}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, time.Now().UnixNano()))
	}

	var in *inputs
	var setupWalls []float64
	for range setupRepeats {
		start := time.Now()
		id := tr.begin("setup", -1)
		got, err := setup(w, cfg.seed, cfg.small)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		if in != nil && (!bytes.Equal(got.binary, in.binary) || !slices.EqualFunc(got.profiles, in.profiles, bytes.Equal)) {
			res.fail("set-up is not deterministic: seed %d gave two different inputs", cfg.seed)
		}
		in = got
	}
	res.inputSHA, res.profilesSHA = in.fingerprint()
	if err := checkSeeded(in, cfg.seed); err != nil {
		res.fail("seed: %v", err)
	}

	cx := context.Background()
	log := newOpLog(len(in.profiles))
	// One untimed operation per profile; the first also warms the heap.
	for i, p := range in.profiles {
		o, err := optimize(cx, w, in.binary, p)
		log.record(res, i, o, err)
	}
	if slices.Contains(log.refs, nil) {
		res.summary.Attempted, res.summary.Failed = log.attempted, log.failed
		return res, nil
	}
	res.outputSHA = sha(log.refs[0].out)
	// An untimed verification warms the verifier; its findings are the
	// ones reported.
	vr, err := bincheck.Check(log.refs[0].out)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	// Every timed operation optimizes with the first profile. A traced
	// run alternates untraced and traced operations, so that both see
	// the machine in the same states and their difference is the
	// tracing overhead.
	var traced []*tracedResult
	deadline := time.Now().Add(cfg.seconds)
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		timeOp(cx, w, in.binary, in.profiles[0], log, res)
		if tr == nil {
			continue
		}
		if t := traceOp(cx, tr, w, in.binary, in.profiles[0], log, res); t != nil {
			traced = append(traced, t)
		}
	}

	// Every output must compute what the input binary computes, on every
	// training and held-out input; an output that does not fails every
	// operation that produced it.
	outRuns := make([][]simRun, len(log.refs))
	for i, ref := range log.refs {
		runs, err := simulate(ref.out, in.seeds)
		if err != nil {
			res.fail("simulating output %d: %v", i, err)
			log.failed = log.attempted
			continue
		}
		for k, r := range runs {
			if r.checksum != in.base[k].checksum {
				res.fail("output %d computes %#x on input %d, the input binary %#x", i, r.checksum, k, in.base[k].checksum)
				log.failed = log.attempted
			}
		}
		outRuns[i] = runs
	}
	res.summary.Attempted, res.summary.Failed = log.attempted, log.failed
	res.summary.Correct = len(res.problems) == 0

	if tr == nil {
		endToEnd(res, setupWalls, log, in.base, outRuns)
		return res, nil
	}
	if len(traced) > 0 {
		perLayer(res, tr, traced, log, vr)
	}
	if res.spanFile, err = tr.write(cfg.spanDir, w.name, cfg.seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// timeOp times one optimize operation and, when it succeeds, the
// verification of its output. Each starts after a full collection.
func timeOp(cx context.Context, w workloadDef, binary, fdata []byte, log *opLog, res *result) {
	var o *outcome
	var err error
	c := measure(func() { o, err = optimize(cx, w, binary, fdata) })
	if !log.record(res, 0, o, err) {
		return
	}
	runtime.GC()
	start := time.Now()
	if _, err := bincheck.Check(o.out); err != nil {
		log.failed++
		res.fail("verify: %v", err)
		return
	}
	log.verifyWalls = append(log.verifyWalls, time.Since(start).Seconds())
	log.costs = append(log.costs, c)
}

// traceOp performs one traced optimize operation and the traced
// verification of its output.
func traceOp(cx context.Context, tr *tracer, w workloadDef, binary, fdata []byte, log *opLog, res *result) *tracedResult {
	log.attempted++
	runtime.GC()
	t, err := tracedOptimize(cx, tr, w, binary, fdata)
	if err != nil {
		log.failed++
		res.fail("traced optimize: %v", err)
		return nil
	}
	if sha256.Sum256(t.out) != log.refs[0].sum {
		log.failed++
		res.fail("traced and untraced optimize gave different outputs")
	}
	runtime.GC()
	id := tr.begin("bincheck", -1)
	_, err = bincheck.Check(t.out)
	tr.end(id)
	if err != nil {
		log.failed++
		res.fail("verify: %v", err)
	}
	return t
}

// endToEnd sets the metrics a user of the optimizer sees.
func endToEnd(res *result, setupWalls []float64, log *opLog, base []simRun, out [][]simRun) {
	pick := func(f func(c cost) float64) float64 {
		vs := make([]float64, len(log.costs))
		for i, c := range log.costs {
			vs[i] = f(c)
		}
		return median(vs)
	}
	res.set("setup_s", "s", median(setupWalls))
	res.set("optimize_s", "s", pick(func(c cost) float64 { return c.wall.Seconds() }))
	res.set("optimize_cpu_s", "s", pick(func(c cost) float64 { return c.cpu.Seconds() }))
	res.set("optimize_alloc_mb", "MB", pick(func(c cost) float64 { return float64(c.alloc) / 1e6 }))
	res.set("peak_heap_mb", "MB", pick(func(c cost) float64 { return float64(c.peak) / 1e6 }))
	res.set("verify_s", "s", median(log.verifyWalls))

	// Delivered quality is summed over every pair of an output and a
	// held-out input.
	var in, opt uarch.Metrics
	add := func(dst *uarch.Metrics, m uarch.Metrics) {
		dst.Cycles += m.Cycles
		dst.L1IMiss += m.L1IMiss
		dst.ITLBMiss += m.ITLBMiss
		dst.BranchMiss += m.BranchMiss
	}
	var hotText uint64
	for i, runs := range out {
		hotText += log.refs[i].hotText
		for k := trainingInputs; k < len(runs); k++ {
			add(&in, base[k].m)
			add(&opt, runs[k].m)
		}
	}
	res.set("speed_ratio", "x", ratio(in.Cycles, opt.Cycles))
	res.set("l1i_miss_ratio", "x", ratio(opt.L1IMiss, in.L1IMiss))
	res.set("itlb_miss_ratio", "x", ratio(opt.ITLBMiss, in.ITLBMiss))
	res.set("branch_miss_ratio", "x", ratio(opt.BranchMiss, in.BranchMiss))
	res.set("hot_text_kb", "KiB", float64(hotText)/1024/float64(len(out)))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
