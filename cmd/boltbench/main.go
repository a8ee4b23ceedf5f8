// Command boltbench regenerates the paper's tables and figures. Each
// experiment builds the relevant synthetic workload(s), profiles them
// under the VM, applies gobolt and/or the compiler baselines, and prints
// the rows/series the paper reports (see DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	boltbench -experiment fig5 [-scale 0.25]
//	boltbench -experiment speed -bench-out new.txt   # then: benchstat old.txt new.txt
//	boltbench -experiment speed -scale 0.05 -jobs 2 -bench-baseline BENCH.json
//	boltbench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/benchfmt"
	"gobolt/internal/obsv"
	"gobolt/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "boltbench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("experiment", "all",
		"experiment(s) to run: fig5, fig6, fig7, fig8, fig9, fig10, fig11, table2, events, icf, fig2, continuous, inference, verify, speed, obsv (comma separated or 'all')")
	scale := flag.Float64("scale", 1.0, "workload scale factor (iterations multiplier)")
	jobs := flag.Int("jobs", 0, "worker threads for every gobolt run's parallel phases — loader, function passes, emission (0 = GOMAXPROCS, 1 = serial)")
	heatOut := flag.String("heat-out", "", "write Figure 9 heat maps (CSV + text) with this path prefix")
	benchOut := flag.String("bench-out", "", "write the 'speed' experiment's report (per-phase tables and Go benchfmt lines) to this file (compare runs with benchstat)")
	benchJSON := flag.String("bench-json", "", "write the 'speed' experiment's results as a BENCH.json gate baseline to this file")
	benchBaseline := flag.String("bench-baseline", "", "check the 'speed' experiment against the gates of this committed BENCH.json baseline and fail on any regression past them")
	validateTrace := flag.String("validate-trace", "", "validate a Chrome trace-event JSON file (gobolt -trace-out) and exit")
	validateReport := flag.String("validate-report", "", "validate a machine-readable run report (gobolt -report-json) and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "boltbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "boltbench: memprofile:", err)
			}
		}()
	}

	// Standalone validation mode: check artifacts from a gobolt run
	// against the obsv schemas and exit without running experiments.
	if *validateTrace != "" || *validateReport != "" {
		if *validateTrace != "" {
			data, err := os.ReadFile(*validateTrace)
			if err != nil {
				return err
			}
			if err := obsv.ValidateChromeTrace(data); err != nil {
				return fmt.Errorf("%s: %w", *validateTrace, err)
			}
			fmt.Printf("boltbench: %s: valid Chrome trace\n", *validateTrace)
		}
		if *validateReport != "" {
			data, err := os.ReadFile(*validateReport)
			if err != nil {
				return err
			}
			if err := bolt.ValidateRunReport(data); err != nil {
				return fmt.Errorf("%s: %w", *validateReport, err)
			}
			fmt.Printf("boltbench: %s: valid run report (schema v%d)\n", *validateReport, bolt.ReportSchemaVersion)
		}
		return nil
	}

	bench.SetBoltJobs(*jobs)
	list := strings.Split(*exp, ",")
	if *exp == "all" {
		list = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "events", "icf", "fig2", "continuous", "inference"}
	}
	sc := bench.Scale(*scale)
	for _, e := range list {
		start := time.Now()
		var report string
		var err error
		switch strings.TrimSpace(e) {
		case "fig5":
			_, report, err = bench.Fig5(sc)
		case "fig6":
			_, report, err = bench.Fig6(sc)
		case "fig7":
			_, report, err = bench.CompilerExperiment(workload.Clang(), true, sc)
		case "fig8":
			_, report, err = bench.CompilerExperiment(workload.GCC(), false, sc)
		case "fig9":
			var before, after *bench.Measurement
			before, after, report, err = bench.Fig9(sc)
			if err == nil && *heatOut != "" {
				werr := os.WriteFile(*heatOut+".before.txt", []byte(before.Heat.Render()), 0o644)
				if werr == nil {
					werr = os.WriteFile(*heatOut+".after.txt", []byte(after.Heat.Render()), 0o644)
				}
				if werr == nil {
					werr = os.WriteFile(*heatOut+".before.csv", []byte(before.Heat.CSV()), 0o644)
				}
				if werr == nil {
					werr = os.WriteFile(*heatOut+".after.csv", []byte(after.Heat.CSV()), 0o644)
				}
				if werr != nil {
					fmt.Fprintln(os.Stderr, "heat-out:", werr)
				}
			}
		case "fig10":
			report, err = bench.Fig10(sc)
		case "fig11":
			_, report, err = bench.Fig11(sc)
		case "table2":
			report, err = bench.Table2(sc)
		case "events":
			_, report, err = bench.Events(sc)
		case "icf":
			_, report, err = bench.ICF(sc)
		case "fig2":
			report, err = bench.Fig2Report(sc)
		case "continuous":
			_, report, err = bench.Continuous(sc)
		case "inference":
			_, report, err = bench.Inference(sc)
		case "verify":
			_, report, err = bench.Verify(sc)
		case "obsv":
			report, err = bench.Obsv(sc)
		case "speed":
			var results []benchfmt.Result
			results, report, err = bench.Speed(sc, *jobs)
			if err == nil {
				var gates string
				gates, err = handleSpeedOutputs(results, report, sc, *jobs, *benchOut, *benchJSON, *benchBaseline)
				report += gates
			}
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
		// Printed before the error so a failed gate still shows the
		// measurements behind it.
		if report != "" {
			fmt.Println(report)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		fmt.Printf("[%s done in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// handleSpeedOutputs post-processes a speed run: round-trips the report
// through the benchfmt parser (the "output is valid benchfmt" check the
// CI job relies on), writes the optional -bench-out/-bench-json files,
// and enforces the -bench-baseline gates, returning their table.
func handleSpeedOutputs(results []benchfmt.Result, report string, sc bench.Scale, jobs int, outPath, jsonPath, baselinePath string) (string, error) {
	parsed, _, err := benchfmt.Parse(strings.NewReader(report))
	if err != nil {
		return "", fmt.Errorf("speed output failed benchfmt parse: %w", err)
	}
	if len(parsed) != len(results) {
		return "", fmt.Errorf("speed output round-trip lost results: %d written, %d parsed", len(results), len(parsed))
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
			return "", err
		}
	}
	if jsonPath != "" {
		raw, err := bench.NewBaseline(sc, jobs, results, time.Now()).Marshal()
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
			return "", err
		}
	}
	if baselinePath != "" {
		b, err := bench.LoadBaseline(baselinePath)
		if err != nil {
			return "", err
		}
		return bench.Gate(b, sc, jobs, results)
	}
	return "", nil
}
