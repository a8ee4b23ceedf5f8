package bolt_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/name, or rewrites the file
// when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestTimingViewsGolden pins the three views derived from the per-phase
// record — the -time-passes table, the RunReport phases and the trace's
// phase spans — on the tiny preset at jobs=2. Walls are zeroed (or left
// out) so only the structure is compared: phase order, groups, function
// counts, scheduling and stat deltas.
func TestTimingViewsGolden(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	tr := obsv.New()
	_, rep, _ := optimizeViaSession(t, f, fd, 2, bolt.WithTracer(tr))

	rows := slices.Clone(rep.Phases)
	for i := range rows {
		rows[i].Wall = 0
	}
	var table bytes.Buffer
	core.WriteTimings(&table, rows)
	checkGolden(t, "timings.golden", table.Bytes())

	var phases bytes.Buffer
	for _, p := range rep.RunReport().Phases {
		fmt.Fprintf(&phases, "%s %s funcs=%d parallel=%t jobs=%d\n",
			p.Group, p.Name, p.Funcs, p.Parallel, p.Jobs)
	}
	checkGolden(t, "report_phases.golden", phases.Bytes())

	var spans bytes.Buffer
	for _, s := range tr.Spans() {
		if s.Kind == obsv.KindPhase {
			fmt.Fprintf(&spans, "%s n=%d\n", s.Name, s.N)
		}
	}
	checkGolden(t, "trace_phases.golden", spans.Bytes())
}

// TestPhaseStatDeltasSumToTotals requires every counter to be
// attributed to exactly one phase: for each key, the StatDelta values
// over all phase rows add up to the run's final count.
func TestPhaseStatDeltasSumToTotals(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	for _, tc := range []struct {
		name string
		opts []bolt.Option
	}{
		{"default", nil},
		{"infer-always", []bolt.Option{bolt.WithInferFlow(core.InferAlways)}},
	} {
		_, rep, _ := optimizeViaSession(t, f, fd, 2, tc.opts...)
		sum := map[string]int64{}
		for _, p := range rep.Phases {
			for k, d := range p.StatDelta {
				sum[k] += d
			}
		}
		for k, v := range rep.Stats {
			if sum[k] != v {
				t.Errorf("%s: %s: phases sum %d, final %d", tc.name, k, sum[k], v)
			}
		}
		for k, s := range sum {
			if _, ok := rep.Stats[k]; !ok {
				t.Errorf("%s: %s: phases sum %d, absent from final stats", tc.name, k, s)
			}
		}
	}
}
