package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runSmall runs a workload at the smallest size with the shortest run.
func runSmall(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runBench(config{workload: w, seed: seed, trace: trace, small: true, spanDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.summary.Correct {
		t.Errorf("%s: checks failed: %s", name, strings.Join(res.problems, "; "))
	}
	return res
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names for that mode, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			res := runSmall(t, w.Name, 1, trace)
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			line, err := json.Marshal(res.summary)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]metric
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s: result line %s: %v", w.Name, line, err)
			}
			if *got.Attempted < 1 || *got.Failed < 0 || *got.Failed > *got.Attempted {
				t.Errorf("%s: attempted %d, failed %d", w.Name, *got.Attempted, *got.Failed)
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, g.Unit, m.Unit)
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got.Metrics), len(want))
			}
			if trace {
				if _, err := os.Stat(res.spanFile); err != nil {
					t.Errorf("%s: spans not written: %v", w.Name, err)
				}
			}
		}
	}
}

// TestFailuresCounted checks that operations that fail are counted
// against the operations attempted, and that a failed run is not
// reported correct.
func TestFailuresCounted(t *testing.T) {
	w, _ := workloadByName("clang-lbr")
	res := &result{summary: summary{Metrics: map[string]metric{}}}
	log := newOpLog(1)
	for range minOps {
		timeOp(context.Background(), w, []byte("not an executable"), []byte("boltprofile v1 lbr\n"), log, res)
	}
	if log.attempted != minOps || log.failed != minOps || len(log.costs) != 0 {
		t.Errorf("unreadable input: attempted %d, failed %d, timed %d; want %d, %d, 0",
			log.attempted, log.failed, len(log.costs), minOps, minOps)
	}
	if len(res.problems) == 0 {
		t.Error("failed operations left no problem to report")
	}

	res = &result{summary: summary{Metrics: map[string]metric{}}}
	log = newOpLog(1)
	a, b := &outcome{out: []byte{1}}, &outcome{out: []byte{2}}
	for _, o := range []*outcome{a, a, b} {
		log.record(res, 0, o, nil)
	}
	if log.attempted != 3 || log.failed != 1 || len(res.problems) != 1 {
		t.Errorf("an output unlike the first: attempted %d, failed %d, problems %v", log.attempted, log.failed, res.problems)
	}
}

// TestExactMetricsRepeat checks that the deterministic results, the
// quality metrics, the layer counts and the output, repeat bit for bit
// from one seed, and that another seed gives other inputs.
func TestExactMetricsRepeat(t *testing.T) {
	exact := []string{"speed_ratio", "l1i_miss_ratio", "itlb_miss_ratio", "branch_miss_ratio", "hot_text_kb"}
	counts := []string{
		"core.apply_profile.applied_ratio", "core.apply_profile.stale_recovered_ratio",
		"core.apply_profile.stale_funcs", "passes.lite_skipped", "passes.split_funcs",
		"core.emit.hot_text_kb", "bincheck.errors", "bincheck.warnings",
	}
	for _, name := range []string{"clang-lbr", "hhvm-lite-stale"} {
		var first *result
		for _, trace := range []bool{false, true} {
			names := exact
			if trace {
				names = counts
			}
			a, b := runSmall(t, name, 7, trace), runSmall(t, name, 7, trace)
			if first == nil {
				first = a
			}
			if a.inputSHA != b.inputSHA || a.profilesSHA != b.profilesSHA || a.outputSHA != b.outputSHA {
				t.Errorf("%s: one seed gave two different inputs or outputs", name)
			}
			for _, m := range names {
				if x, y := a.summary.Metrics[m].Value, b.summary.Metrics[m].Value; x != y {
					t.Errorf("%s: %s read %v, then %v", name, m, x, y)
				}
			}
		}
		if c := runSmall(t, name, 8, false); c.inputSHA == first.inputSHA || c.profilesSHA == first.profilesSHA {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestBuildDeterministic links the Clang preset twice. The linker lists
// the symbols of folded functions in map order; build must undo that so
// that one seed gives one binary.
func TestBuildDeterministic(t *testing.T) {
	w, _ := workloadByName("clang-lbr")
	var bins [2][]byte
	for i := range bins {
		f, err := build(w.spec(false), w.mode)
		if err != nil {
			t.Fatal(err)
		}
		if bins[i], err = f.Bytes(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bins[0], bins[1]) {
		t.Error("two builds of one program differ")
	}
}
