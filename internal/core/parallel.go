package core

import (
	"context"

	"gobolt/internal/par"
)

// effectiveJobs resolves a -jobs setting against GOMAXPROCS and the
// amount of work available: jobs <= 0 selects GOMAXPROCS (the production
// default) and the pool never exceeds n workers.
func effectiveJobs(jobs, n int) int { return par.Jobs(jobs, n) }

// forPhase distributes work items [0,n) over jobs workers via
// par.ForTraced, the one fan-out primitive shared by the pipeline's
// parallel phases. When the context carries a tracer (Opts.Trace) each
// worker records a batch span named after the phase plus one task span
// per item, named by taskName (typically the function being processed).
// Cancelling cx drains the pool promptly and returns (-1, cx.Err()). See
// par.For for the scheduling and error-attribution contract.
func (ctx *BinaryContext) forPhase(cx context.Context, phase string, taskName func(item int) string, n, jobs int, work func(worker, item int) error) (int, error) {
	return par.ForTraced(cx, ctx.Opts.Trace, phase, taskName, n, jobs, work)
}
