package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/benchfmt"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/passes"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// Speed is the optimizer-cost experiment: where every other experiment
// measures the *optimized binary*, this one measures the *optimizer
// itself* (the paper's §6.1 processing-time claim). It builds the clang
// workload and records a training profile once, then sweeps jobs over
// {1, jobs} and at each point times the pipeline's hot phases — the
// loader (discovery plus parallel disassembly+CFG), the emitter (code
// generation + layout + patching), and the full open→profile→optimize
// session — reporting ns/op, B/op and allocs/op per phase in Go
// benchfmt, so two runs can be compared with benchstat or checked
// against BENCH.json with Gate. The per-phase benches drive core
// directly: isolating one phase is exactly what the staged public API
// hides on purpose, and measurement is the one caller with a legitimate
// need to bypass it.
//
// The pipeline line also carries the Amdahl split of its phase list:
// serial-fraction (serial wall / total wall, informational — a
// wall-clock ratio that rises whenever the parallel phases get faster)
// and serial-phases (the exact number of phases that did not run on the
// worker pool). Every point must emit a byte-identical binary with
// identical statistics; any divergence is an error.
//
// allocs/op at jobs=1 and serial-phases are exact per (scale, jobs) —
// mallocgc counters and a phase count — which is what makes the CI
// gates on them possible.
func Speed(scale Scale, jobs int) ([]benchfmt.Result, string, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sweep := []int{1}
	if jobs > 1 {
		sweep = append(sweep, jobs)
	}
	spec := scale.apply(workload.Clang())
	mode := perf.DefaultMode()
	f, _, err := Build(spec, CfgBaseline, mode)
	if err != nil {
		return nil, "", err
	}
	fd, _, err := perf.RecordFile(f, mode, 0)
	if err != nil {
		return nil, "", err
	}

	var results []benchfmt.Result
	var points []speedPoint
	for _, j := range sweep {
		rs, p, err := speedAt(f, fd, spec.Name, j)
		if err != nil {
			return nil, "", fmt.Errorf("speed: jobs=%d: %w", j, err)
		}
		if len(points) > 0 {
			if !bytes.Equal(points[0].out, p.out) {
				return nil, "", fmt.Errorf("bench: emitted binaries diverge across worker counts (jobs=1 vs jobs=%d: %d vs %d bytes)",
					j, len(points[0].out), len(p.out))
			}
			if !reflect.DeepEqual(points[0].rep.Stats, p.rep.Stats) {
				return nil, "", fmt.Errorf("bench: stats diverge across worker counts (jobs=1 vs jobs=%d):\n  %v\n  %v",
					j, points[0].rep.Stats, p.rep.Stats)
			}
		}
		results = append(results, rs...)
		points = append(points, p)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Optimizer cost on %s (%d simple functions, GOMAXPROCS=%d)\n",
		spec.Name, points[0].rep.SimpleFuncs, runtime.GOMAXPROCS(0))
	for _, p := range points {
		fmt.Fprintf(&sb, "\n-- jobs=%d --\n", p.jobs)
		p.rep.WriteTimings(&sb)
	}
	fmt.Fprintf(&sb, "\n  %5s %14s %8s %13s %12s %13s %16s\n",
		"jobs", "pipeline/op", "speedup", "serial wall", "serial frac", "serial phases", "max useful jobs")
	for _, p := range points {
		a := core.Amdahl(p.rep.Phases)
		maxJobs := "unbounded"
		if !math.IsInf(a.MaxUsefulJobs, 1) {
			maxJobs = fmt.Sprintf("~%.0f", math.Ceil(a.MaxUsefulJobs))
		}
		fmt.Fprintf(&sb, "  %5d %14v %7.2fx %13v %11.1f%% %13d %16s\n",
			p.jobs, p.wall.Round(time.Microsecond), float64(points[0].wall)/float64(p.wall),
			a.SerialWall.Round(time.Microsecond), 100*a.SerialFraction, serialPhases(p.rep.Phases), maxJobs)
	}
	fmt.Fprintf(&sb, "outputs byte-identical and stats identical across jobs=%v\n", sweep)
	if runtime.GOMAXPROCS(0) == 1 {
		sb.WriteString("(single-CPU host: worker-pool speedup cannot materialize; serial phase counts remain exact)\n")
	}
	sb.WriteByte('\n')
	benchfmt.WriteHeader(&sb, [][2]string{
		{"goos", runtime.GOOS},
		{"goarch", runtime.GOARCH},
		{"pkg", "gobolt/internal/bench"},
		{"cpu-count", fmt.Sprintf("%d", runtime.NumCPU())},
	})
	for _, r := range results {
		benchfmt.WriteResult(&sb, r)
	}
	return results, sb.String(), nil
}

// speedPoint is one jobs value of the sweep: the mean pipeline wall, and
// the report and output image of its last measured session.
type speedPoint struct {
	jobs int
	wall time.Duration
	rep  *bolt.Report
	out  []byte
}

// speedAt measures load, emit and pipeline at one worker count.
func speedAt(f *elfx.File, fd *profile.Fdata, workload string, jobs int) ([]benchfmt.Result, speedPoint, error) {
	cx := context.Background()
	opts := boltOptions()
	opts.Jobs = jobs
	p := speedPoint{jobs: jobs}
	var results []benchfmt.Result
	bench := func(phase string, fn func() error) error {
		r, err := measurePhase(fmt.Sprintf("BenchmarkSpeed/%s/%s/jobs=%d", phase, workload, jobs), fn)
		if err != nil {
			return fmt.Errorf("%s: %w", phase, err)
		}
		results = append(results, r)
		return nil
	}

	// load: the front half of the pipeline — function discovery plus the
	// parallel disassembly+CFG phase.
	if err := bench("load", func() error {
		_, err := core.NewContext(cx, f, opts)
		return err
	}); err != nil {
		return nil, p, err
	}

	// emit: code generation + layout + patching on an already-optimized
	// context. The context is prepared once; Rewrite is repeatable (the
	// only CFG mutation it persists, JCC inversion, reaches a fixpoint on
	// the first run, which the warmup iteration absorbs).
	ectx, err := core.NewContext(cx, f, opts)
	if err != nil {
		return nil, p, err
	}
	if err := ectx.ApplyProfile(cx, fd); err != nil {
		return nil, p, err
	}
	if err := core.NewPassManager(jobs).Run(cx, ectx, passes.BuildPipeline(opts)); err != nil {
		return nil, p, err
	}
	if err := bench("emit", func() error {
		_, err := ectx.Rewrite(cx)
		return err
	}); err != nil {
		return nil, p, err
	}

	// pipeline: the end-to-end session (open → profile → optimize), the
	// number a data-center deployment loop actually pays per binary. The
	// last iteration's session is kept for the cross-jobs checks.
	var sess *bolt.Session
	if err := bench("pipeline", func() error {
		sess, p.rep, err = optimizeSession(f, fd, bolt.WithOptions(opts))
		return err
	}); err != nil {
		return nil, p, err
	}
	if p.out, err = sess.Output().Bytes(); err != nil {
		return nil, p, err
	}
	pipe := results[len(results)-1]
	p.wall = time.Duration(pipe.Metrics["ns/op"])
	pipe.Metrics["serial-fraction"] = core.Amdahl(p.rep.Phases).SerialFraction
	pipe.Metrics["serial-phases"] = float64(serialPhases(p.rep.Phases))
	return results, p, nil
}

// serialPhases counts the phases that did not run on the worker pool.
func serialPhases(phases []core.PassTiming) int {
	n := 0
	for _, t := range phases {
		if !t.Parallel {
			n++
		}
	}
	return n
}

// speedTargetTime bounds how long measurePhase spends per phase; the
// iteration count adapts to it the way `go test -bench` adapts to
// -benchtime.
var speedTargetTime = 2 * time.Second

// measurePhase runs fn once as warmup (absorbing lazy initialization and
// one-time CFG fixups), picks an iteration count from the warmup
// duration, and measures wall time and heap allocation deltas around the
// timed iterations. Allocation counters come from runtime.MemStats —
// exact mallocgc counts, not sampled — so B/op and allocs/op are stable
// run to run.
func measurePhase(name string, fn func() error) (benchfmt.Result, error) {
	warmStart := time.Now()
	if err := fn(); err != nil {
		return benchfmt.Result{}, err
	}
	warm := time.Since(warmStart)

	iters := int64(1)
	if warm > 0 {
		iters = int64(speedTargetTime / warm)
	}
	if iters < 2 {
		iters = 2
	}
	if iters > 100 {
		iters = 100
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := int64(0); i < iters; i++ {
		if err := fn(); err != nil {
			return benchfmt.Result{}, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	return benchfmt.Result{
		// The "-N" suffix is the GOMAXPROCS convention benchstat strips
		// when matching names across files.
		Name:  fmt.Sprintf("%s-%d", name, runtime.GOMAXPROCS(0)),
		Iters: iters,
		Metrics: map[string]float64{
			"ns/op":     float64(wall.Nanoseconds()) / float64(iters),
			"B/op":      float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
			"allocs/op": float64(after.Mallocs-before.Mallocs) / float64(iters),
		},
	}, nil
}

// Baseline is the schema of the committed BENCH.json CI gate baseline:
// a speed run's results at one (scale, jobs) plus the gates Gate
// enforces against a fresh run at the same parameters.
type Baseline struct {
	Date string `json:"date"`
	Host struct {
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		CPUs   int    `json:"cpus"`
	} `json:"host"`
	Scale   float64           `json:"scale"`
	Jobs    int               `json:"jobs"`
	Gates   []BaselineGate    `json:"gates"`
	Results []benchfmt.Result `json:"results"`
	Notes   string            `json:"notes,omitempty"`
}

// BaselineGate fails a run whose value of Unit on Benchmark (a name
// without the GOMAXPROCS suffix) exceeds the baseline's by more than
// ThresholdPct percent.
type BaselineGate struct {
	Benchmark    string  `json:"benchmark"`
	Unit         string  `json:"unit"`
	ThresholdPct float64 `json:"threshold_pct"`
}

// NewBaseline builds a baseline from a fresh speed run with the two
// exact gates: emission allocs/op at jobs=1 (+10%), and the pipeline's
// serial-phases count at the run's jobs (+0%, so a phase that falls off
// the worker pool fails). Edit Notes by hand before committing.
func NewBaseline(scale Scale, jobs int, results []benchfmt.Result, now time.Time) *Baseline {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	b := &Baseline{Date: now.UTC().Format("2006-01-02"), Scale: float64(scale), Jobs: jobs, Results: results}
	b.Host.GOOS = runtime.GOOS
	b.Host.GOARCH = runtime.GOARCH
	b.Host.CPUs = runtime.NumCPU()
	for _, r := range results {
		name := benchfmt.BaseName(r.Name)
		switch {
		case strings.Contains(name, "/emit/") && strings.HasSuffix(name, "/jobs=1"):
			b.Gates = append(b.Gates, BaselineGate{Benchmark: name, Unit: "allocs/op", ThresholdPct: 10})
		case jobs > 1 && strings.Contains(name, "/pipeline/") && strings.HasSuffix(name, fmt.Sprintf("/jobs=%d", jobs)):
			b.Gates = append(b.Gates, BaselineGate{Benchmark: name, Unit: "serial-phases", ThresholdPct: 0})
		}
	}
	return b
}

// Marshal renders the baseline as indented JSON ready to commit.
func (b *Baseline) Marshal() ([]byte, error) {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// LoadBaseline reads a committed BENCH.json baseline.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &b, nil
}

// Gate checks a fresh speed run against every gate of a baseline and
// returns the comparison table. The run must have been taken at the
// baseline's (scale, jobs): allocation counts scale with the workload
// and the phase schedule depends on jobs, so other comparisons are
// rejected outright.
func Gate(b *Baseline, scale Scale, jobs int, results []benchfmt.Result) (string, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if float64(scale) != b.Scale || jobs != b.Jobs {
		return "", fmt.Errorf("bench: baseline was recorded at scale=%g jobs=%d, this run used scale=%g jobs=%d; rerun with the baseline's parameters",
			b.Scale, b.Jobs, float64(scale), jobs)
	}
	var sb strings.Builder
	sb.WriteString("speed gates vs baseline:\n")
	var failed []string
	for _, g := range b.Gates {
		var d *benchfmt.Delta
		for _, c := range benchfmt.Compare(b.Results, results, g.Unit) {
			if c.Name == g.Benchmark {
				d = &c
			}
		}
		if d == nil {
			return sb.String(), fmt.Errorf("bench: gated %s of %s missing from this run", g.Unit, g.Benchmark)
		}
		verdict := "ok"
		if d.New > d.Old*(1+g.ThresholdPct/100) {
			verdict = "FAIL"
			failed = append(failed, fmt.Sprintf("%s %s %g -> %g, over the +%g%% gate", d.Name, d.Unit, d.Old, d.New, g.ThresholdPct))
		}
		fmt.Fprintf(&sb, "%s    limit +%g%%  %s\n", strings.TrimSuffix(benchfmt.FormatDeltas([]benchfmt.Delta{*d}), "\n"), g.ThresholdPct, verdict)
	}
	if len(failed) > 0 {
		return sb.String(), fmt.Errorf("bench: regressed: %s", strings.Join(failed, "; "))
	}
	return sb.String(), nil
}
