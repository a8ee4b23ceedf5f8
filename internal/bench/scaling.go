package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/benchfmt"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
	"gobolt/internal/perf"
	"gobolt/internal/workload"
)

// DefaultScalingJobs is the jobs sweep the scaling experiment runs when
// no explicit list is given (and the sweep BENCH_*.json baselines are
// recorded at).
var DefaultScalingJobs = []int{1, 2, 4, 8}

// ScalingPoint is one jobs value of a scaling sweep: the end-to-end
// session wall time plus the Amdahl split of the pipeline's measured
// phase timings at that worker count.
type ScalingPoint struct {
	Jobs   int
	Wall   time.Duration
	Amdahl core.AmdahlSummary
	Report *bolt.Report
}

// Scaling is the jobs-sweep scaling experiment: it builds the clang
// workload and a training profile once, then runs the full session
// (open → profile → optimize) at each worker count in jobsList,
// verifying every run produces a byte-identical output binary and
// identical statistics — any divergence is an error, which is what the
// CI scaling-smoke job leans on. For each point it folds the session's
// phase timings (load, passes, emit) through core.Amdahl and reports,
// as benchfmt, the wall time and measured serial fraction per phase
// group and for the whole pipeline, so sweeps can be compared with
// benchstat or gated with ScalingGate.
//
// A phase counts as serial if it did not run on the worker pool, so the
// jobs=1 point always reports serial fraction 1 — it exists as the
// speedup denominator. The interesting number is the serial fraction at
// jobs>1: the share of wall the pool cannot touch, whose reciprocal
// bounds the useful worker count.
func Scaling(scale Scale, jobsList []int) ([]benchfmt.Result, string, error) {
	jobsList = normalizeJobs(jobsList)
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

	var points []ScalingPoint
	var firstRaw []byte
	for _, j := range jobsList {
		opts := boltOptions()
		opts.Jobs = j
		// Each point gets its own tracer so a divergence error can show
		// the worker-pool schedule of the failing run next to the
		// baseline's (Report.Occupancy rides along either way).
		opts.Trace = obsv.New()
		cx := context.Background()
		start := time.Now()
		sess, err := bolt.OpenELF(f, bolt.WithOptions(opts))
		if err != nil {
			return nil, "", fmt.Errorf("jobs=%d: %w", j, err)
		}
		if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
			return nil, "", fmt.Errorf("jobs=%d: %w", j, err)
		}
		rep, err := sess.Optimize(cx)
		wall := time.Since(start)
		if err != nil {
			return nil, "", fmt.Errorf("jobs=%d: %w", j, err)
		}
		raw, err := sess.Output().Bytes()
		if err != nil {
			return nil, "", fmt.Errorf("jobs=%d: %w", j, err)
		}
		if firstRaw == nil {
			firstRaw = raw
		} else {
			if !bytes.Equal(firstRaw, raw) {
				return nil, "", fmt.Errorf("bench: emitted binaries diverge across worker counts (jobs=%d vs jobs=%d: %d vs %d bytes)\n%s",
					jobsList[0], j, len(firstRaw), len(raw),
					divergenceOccupancy(jobsList[0], points[0].Report, j, rep))
			}
			if !reflect.DeepEqual(points[0].Report.Stats, rep.Stats) {
				return nil, "", fmt.Errorf("bench: stats diverge across worker counts (jobs=%d vs jobs=%d)\n%s",
					jobsList[0], j,
					divergenceOccupancy(jobsList[0], points[0].Report, j, rep))
			}
		}
		points = append(points, ScalingPoint{
			Jobs: j, Wall: wall, Amdahl: core.Amdahl(rep.Phases), Report: rep,
		})
	}

	var results []benchfmt.Result
	for _, p := range points {
		for _, g := range []struct{ phase, group string }{
			{"load", core.GroupLoad},
			{"passes", core.GroupPass},
			{"emit", core.GroupEmit},
		} {
			var rows []core.PassTiming
			for _, t := range p.Report.Phases {
				if t.Group == g.group {
					rows = append(rows, t)
				}
			}
			a := core.Amdahl(rows)
			results = append(results, scalingResult(spec.Name, g.phase, p.Jobs, a.Total, a.SerialFraction))
		}
		results = append(results, scalingResult(spec.Name, "pipeline", p.Jobs, p.Wall, p.Amdahl.SerialFraction))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Scaling sweep on %s (%d simple functions, GOMAXPROCS=%d)\n",
		spec.Name, points[0].Report.SimpleFuncs, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&sb, "  %5s %12s %8s %13s %12s %16s\n",
		"jobs", "wall", "speedup", "serial wall", "serial frac", "max useful jobs")
	base := float64(points[0].Wall)
	for _, p := range points {
		jobsStr := "unbounded"
		if !math.IsInf(p.Amdahl.MaxUsefulJobs, 1) {
			jobsStr = fmt.Sprintf("~%.0f", math.Ceil(p.Amdahl.MaxUsefulJobs))
		}
		fmt.Fprintf(&sb, "  %5d %12v %7.2fx %13v %11.1f%% %16s\n",
			p.Jobs, p.Wall.Round(time.Microsecond), base/float64(p.Wall),
			p.Amdahl.SerialWall.Round(time.Microsecond), 100*p.Amdahl.SerialFraction, jobsStr)
	}
	fmt.Fprintf(&sb, "outputs byte-identical and stats identical across jobs=%v\n", jobsList)
	if runtime.GOMAXPROCS(0) == 1 {
		sb.WriteString("(single-CPU host: worker-pool speedup cannot materialize; serial fractions remain meaningful)\n")
	}
	sb.WriteByte('\n')
	writeSpeedReport(&sb, results)
	return results, sb.String(), nil
}

// divergenceOccupancy renders the baseline and failing runs' per-phase
// occupancy summaries side by side, so a cross-jobs divergence error
// carries the worker-pool schedule that produced it.
func divergenceOccupancy(baseJobs int, base *bolt.Report, failJobs int, fail *bolt.Report) string {
	return fmt.Sprintf("baseline jobs=%d occupancy:\n%sfailing jobs=%d occupancy:\n%s",
		baseJobs, obsv.Summarize(base.OccupancyStats()),
		failJobs, obsv.Summarize(fail.OccupancyStats()))
}

// scalingResult builds one benchfmt line of the sweep. Iters is 1 —
// each point is a single end-to-end run, not an averaged loop — and the
// serial fraction rides along as a custom lower-is-better unit.
func scalingResult(workload, phase string, jobs int, wall time.Duration, serialFrac float64) benchfmt.Result {
	return benchfmt.Result{
		Name:  fmt.Sprintf("BenchmarkScaling/%s/%s/jobs=%d-%d", phase, workload, jobs, runtime.GOMAXPROCS(0)),
		Iters: 1,
		Metrics: map[string]float64{
			"ns/op":           float64(wall.Nanoseconds()),
			"serial-fraction": serialFrac,
		},
	}
}

// normalizeJobs sorts, dedups, and defaults a jobs sweep, dropping
// non-positive entries. The ascending order puts jobs=1 (when present)
// first, where Scaling uses it as the speedup baseline.
func normalizeJobs(jobsList []int) []int {
	out := make([]int, 0, len(jobsList))
	for _, j := range jobsList {
		if j > 0 {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return append(out, DefaultScalingJobs...)
	}
	sort.Ints(out)
	n := 1
	for _, j := range out[1:] {
		if j != out[n-1] {
			out[n] = j
			n++
		}
	}
	return out[:n]
}

// scalingAbsSlack is the absolute serial-fraction change (in fraction
// units, i.e. 0.02 = two percentage points) a run must exceed before
// the gate can fail. Serial fraction is a ratio of wall-clock sums, so
// on a loaded CI host it wobbles by a point or two even with identical
// code; a purely relative threshold over a ~5% baseline would turn that
// noise into spurious failures.
const scalingAbsSlack = 0.02

// NewScalingBenchFile builds a gate-baseline skeleton from a fresh
// scaling sweep: the gate pins the pipeline serial fraction at the
// sweep's gate point (jobs=2 when swept — the point the CI smoke job
// can reproduce on any host — else the largest jobs value) at a 10%
// relative threshold. Edit Issue/Local/Comparison/Notes by hand before
// committing.
func NewScalingBenchFile(scale Scale, jobsList []int, results []benchfmt.Result, now time.Time) *BenchFile {
	jobsList = normalizeJobs(jobsList)
	gateJobs := jobsList[len(jobsList)-1]
	for _, j := range jobsList {
		if j == 2 {
			gateJobs = 2
		}
	}
	bf := &BenchFile{Date: now.UTC().Format("2006-01-02")}
	bf.Host.GOOS = runtime.GOOS
	bf.Host.GOARCH = runtime.GOARCH
	bf.Host.CPUs = runtime.NumCPU()
	bf.Gate.Experiment = "scaling"
	bf.Gate.Scale = float64(scale)
	bf.Gate.Jobs = gateJobs
	bf.Gate.Unit = "serial-fraction"
	bf.Gate.ThresholdPct = 10
	bf.Gate.Results = results
	// The end-to-end point carries the gated fraction.
	for _, r := range results {
		if strings.Contains(r.Name, "/pipeline/") && strings.Contains(r.Name, fmt.Sprintf("/jobs=%d-", gateJobs)) {
			bf.Gate.Benchmark = benchfmt.BaseName(r.Name)
		}
	}
	return bf
}

// ScalingGate compares a fresh scaling sweep against the baseline
// committed in a BENCH_*.json file and fails if the gated pipeline
// serial fraction regressed beyond the recorded relative threshold AND
// by more than scalingAbsSlack absolute — both conditions, so wall-
// clock noise in a ~5% fraction cannot trip the gate on its own. The
// sweep must include the baseline's gate jobs point and have been taken
// at the baseline's scale; serial fraction shifts with both, so other
// comparisons are rejected outright.
func ScalingGate(bf *BenchFile, scale Scale, results []benchfmt.Result) (string, error) {
	if bf.Gate.Experiment != "scaling" {
		return "", fmt.Errorf("bench: baseline gates the %q experiment, not scaling", bf.Gate.Experiment)
	}
	if float64(scale) != bf.Gate.Scale {
		return "", fmt.Errorf("bench: scaling gate baseline was recorded at scale=%g, this run used scale=%g; rerun with the baseline's scale",
			bf.Gate.Scale, float64(scale))
	}
	deltas := benchfmt.Compare(bf.Gate.Results, results, bf.Gate.Unit)
	var sb strings.Builder
	fmt.Fprintf(&sb, "scaling gate (%s at jobs=%d, threshold +%.0f%% and +%.0fpp) vs baseline:\n",
		bf.Gate.Unit, bf.Gate.Jobs, bf.Gate.ThresholdPct, 100*scalingAbsSlack)
	sb.WriteString(benchfmt.FormatDeltas(deltas))
	var gated *benchfmt.Delta
	for i := range deltas {
		if deltas[i].Name == bf.Gate.Benchmark {
			gated = &deltas[i]
		}
	}
	if gated == nil {
		return sb.String(), fmt.Errorf("bench: gated benchmark %q missing from this sweep (did the jobs list include %d?)",
			bf.Gate.Benchmark, bf.Gate.Jobs)
	}
	if gated.Pct > bf.Gate.ThresholdPct && gated.New-gated.Old > scalingAbsSlack {
		return sb.String(), fmt.Errorf("bench: %s %s regressed %.2f%% (%.4f -> %.4f), over the +%.0f%% gate",
			gated.Name, gated.Unit, gated.Pct, gated.Old, gated.New, bf.Gate.ThresholdPct)
	}
	return sb.String(), nil
}
