// Command perfbench is the repository benchmark. For one workload it
// prices both things gobolt is for: what the optimizer costs to run
// (wall, CPU, allocation and peak heap of one optimize from input bytes
// plus fdata bytes to output bytes through the public bolt Session, and
// the wall of verifying the output) and what its output delivers (the
// simulated speed and miss ratios of the BOLTed binary against its input
// on held-out inputs). It also checks that the outputs are correct.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload clang-lbr --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
// per-layer metrics, timed around the public calls into each layer, and
// the spans of the run are written to .bench_build/spans/. The exit
// code is 0 only when every correctness check passed.
//
// perfbench/notes.json records why each workload was chosen, which
// end-to-end metric each layer metric should move, and the known
// defects the baseline shows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: clang-lbr, clang-samples or hhvm-lite-stale")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the optimize loop measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spanDir:  filepath.Join(".bench_build", "spans"),
	}
	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: input %.16s profiles %.16s output %.16s\n",
		w.name, cfg.seed, res.inputSHA, res.profilesSHA, res.outputSHA)
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.summary.Correct {
		return 1
	}
	return 0
}
