package bench

import (
	"flag"
	"strings"
	"testing"
	"time"

	"gobolt/internal/benchfmt"
)

// speedScale shrinks the speed experiment's workload for CI; raise it
// locally (go test -run Speed -speed-scale 0.25) for more realistic
// phase times.
var speedScale = flag.Float64("speed-scale", 0.02, "workload scale for TestSpeedExperiment")

// TestSpeedExperiment runs the optimizer-cost experiment end to end at a
// tiny scale over the sweep {1,2}: every phase measured at both points,
// outputs identical across the sweep (Speed errors otherwise), the
// report parseable as Go benchfmt, and each baseline gate passing its
// own run, failing once its baseline number is lowered, and refusing a
// run at another scale.
func TestSpeedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("speed experiment times full pipeline phases; skipped in -short")
	}
	// Iteration counts only average wall time; allocation counts and
	// serial-phases are exact per iteration.
	defer func(d time.Duration) { speedTargetTime = d }(speedTargetTime)
	speedTargetTime = 200 * time.Millisecond

	scale := Scale(*speedScale)
	const jobs = 2
	results, report, err := Speed(scale, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6 (load/emit/pipeline at jobs 1 and 2): %+v", len(results), results)
	}
	for _, r := range results {
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if r.Metrics[unit] <= 0 {
				t.Errorf("%s: non-positive %s: %v", r.Name, unit, r.Metrics[unit])
			}
		}
		if strings.Contains(r.Name, "/pipeline/") && r.Metrics["serial-phases"] < 1 {
			t.Errorf("%s: no serial phases counted: %v", r.Name, r.Metrics)
		}
	}
	for _, want := range []string{"-- jobs=1 --", "-- jobs=2 --", "Pass execution timing report", "serial phases",
		"outputs byte-identical and stats identical across jobs=[1 2]"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}

	// The report is the CI artifact: it must round-trip through the
	// benchfmt parser with nothing lost.
	parsed, cfg, err := benchfmt.Parse(strings.NewReader(report))
	if err != nil {
		t.Fatalf("report does not parse as benchfmt: %v\n%s", err, report)
	}
	if len(parsed) != len(results) {
		t.Fatalf("parse round-trip lost results: %d -> %d", len(results), len(parsed))
	}
	for i := range parsed {
		if parsed[i].Name != results[i].Name || len(parsed[i].Metrics) != len(results[i].Metrics) {
			t.Errorf("round-trip changed result %d: %+v -> %+v", i, results[i], parsed[i])
		}
	}
	if cfg["pkg"] != "gobolt/internal/bench" {
		t.Errorf("report header lost config lines: %v", cfg)
	}

	// Gate self-consistency: a baseline built from this very run passes,
	// a run at other parameters is refused, and lowering either gated
	// number in the baseline makes the same run fail.
	base := NewBaseline(scale, jobs, results, time.Unix(0, 0))
	if len(base.Gates) != 2 {
		t.Fatalf("baseline has %d gates, want 2: %+v", len(base.Gates), base.Gates)
	}
	if table, err := Gate(base, scale, jobs, results); err != nil {
		t.Errorf("self-gate failed: %v\n%s", err, table)
	}
	if _, err := Gate(base, scale/2, jobs, results); err == nil {
		t.Error("gate accepted a run at the wrong scale")
	}
	if _, err := Gate(base, scale, 4, results); err == nil {
		t.Error("gate accepted a run at the wrong jobs count")
	}
	for _, tc := range []struct {
		unit  string
		lower func(float64) float64
	}{
		{"allocs/op", func(v float64) float64 { return v * 0.8 }},
		{"serial-phases", func(v float64) float64 { return v - 1 }},
	} {
		lowered := lowerGated(t, base, tc.unit, tc.lower)
		if _, err := Gate(lowered, scale, jobs, results); err == nil {
			t.Errorf("gate on %s passed against a lowered baseline", tc.unit)
		}
	}
}

// lowerGated returns a copy of b whose results carry the gated value of
// unit replaced by lower(value).
func lowerGated(t *testing.T, b *Baseline, unit string, lower func(float64) float64) *Baseline {
	t.Helper()
	out := *b
	out.Results = nil
	found := false
	for _, r := range b.Results {
		m := make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			m[k] = v
		}
		for _, g := range b.Gates {
			if g.Unit == unit && g.Benchmark == benchfmt.BaseName(r.Name) {
				m[unit] = lower(m[unit])
				found = true
			}
		}
		out.Results = append(out.Results, benchfmt.Result{Name: r.Name, Iters: r.Iters, Metrics: m})
	}
	if !found {
		t.Fatalf("no gate on %s in %+v", unit, b.Gates)
	}
	return &out
}
