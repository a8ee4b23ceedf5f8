package main

import (
	"slices"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/bincheck"
)

// costedStages also report their CPU time and allocation.
var costedStages = []string{"core.load", "passes", "core.emit"}

// passNames lists every pass any workload runs, once, in pipeline order;
// a pass a workload does not run reads 0.
func passNames() []string {
	var names []string
	for _, n := range bolt.PipelineNames(bolt.WithLite(true)) {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	return names
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mb(b uint64) float64 { return float64(b) / 1e6 }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio[T int64 | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer sets the per-layer metrics of a traced run: span timings are
// medians over the traced operations, counts are read from the first
// (every traced output was checked identical, so they agree).
func perLayer(res *result, tr *tracer, traced []*tracedResult, log *opLog, vr *bincheck.Result) {
	tr.computeSelf()
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var stageSums []float64
	for _, t := range traced {
		op := tr.spans[t.root]
		add("optimize.self_ms", ms(op.Self))
		add("runtime.gc_cpu_ms", ms(op.GCCPU))
		var sum time.Duration
		for _, i := range tr.children(t.root) {
			s := tr.spans[i]
			sum += s.wall()
			add(s.Name+"_ms", ms(s.wall()))
			if slices.Contains(costedStages, s.Name) {
				add(s.Name+"_cpu_ms", ms(s.CPU))
				add(s.Name+"_alloc_mb", mb(s.Alloc))
			}
			if s.Name != "passes" {
				continue
			}
			add("passes.self_ms", ms(s.Self))
			perPass := map[string]time.Duration{}
			for _, j := range tr.children(i) {
				perPass[tr.spans[j].Name] += tr.spans[j].wall()
			}
			for _, p := range passNames() {
				add("passes."+p+"_ms", ms(perPass["passes."+p]))
			}
		}
		stageSums = append(stageSums, ms(sum))
	}
	for _, s := range tr.spans {
		if s.Name == "bincheck" {
			add("bincheck_ms", ms(s.wall()))
		}
	}
	for name, vs := range samples {
		unit := "ms"
		if strings.HasSuffix(name, "_mb") {
			unit = "MB"
		}
		res.set(name, unit, median(vs))
	}

	untraced := make([]float64, len(log.costs))
	for i, c := range log.costs {
		untraced[i] = ms(c.wall)
	}
	res.set("trace.overhead_ms", "ms", median(stageSums)-median(untraced))
	res.set("optimize.samples", "count", float64(len(log.costs)))
	res.set("trace.samples", "count", float64(len(traced)))

	t := traced[0]
	st := t.stats
	res.set("profile.parse.records", "count", float64(len(t.fdata.Branches)+len(t.fdata.Samples)))
	res.set("core.load.simple_funcs", "count", float64(st["load-simple"]))
	res.set("core.load.non_simple_funcs", "count", float64(st["load-non-simple"]))
	applied := st["profile-edge-count"] + st["profile-call-count"] + st["profile-sample-count"] + st["profile-stale-count"]
	res.set("core.apply_profile.applied_ratio", "ratio", ratio(applied, st["profile-total-count"]))
	res.set("core.apply_profile.stale_recovered_ratio", "ratio",
		ratio(st["profile-stale-count"], st["profile-stale-count"]+st["profile-stale-drop-count"]))
	res.set("core.apply_profile.stale_funcs", "count", float64(st["profile-stale-funcs"]))
	res.set("core.apply_profile.inferred_funcs", "count", float64(st["profile-inferred-funcs"]))
	res.set("passes.icf.fold_ratio", "ratio", ratio(st["icf-folded"], st["icf-hashed"]))
	res.set("passes.split_funcs", "count", float64(st["split-functions"]))
	res.set("passes.lite_skipped", "count", float64(st["lite-skipped"]))
	res.set("core.emit.hot_text_kb", "KiB", float64(t.rewrite.HotTextSize)/1024)
	res.set("core.emit.cold_text_kb", "KiB", float64(t.rewrite.ColdTextSize)/1024)

	cfiDecode := 0
	for _, f := range vr.Findings {
		if f.Rule == "cfi-decode" && f.Severity == bincheck.SeverityError {
			cfiDecode++
		}
	}
	res.set("bincheck.errors", "count", float64(vr.Errors))
	res.set("bincheck.warnings", "count", float64(vr.Warnings))
	res.set("bincheck.cfi_decode_errors", "count", float64(cfiDecode))
}
