package noise

import (
	"topkagg/internal/budget"
	"topkagg/internal/obs"
)

// fixObs bundles the resolved metric handles of one fixpoint run.
// Handles are resolved once per engine construction (newFixpoint), so
// the sweep loop never touches the registry's name maps; the hot path
// (evaluate) only bumps plain per-worker scratch counters, which the
// serial post-iteration flush publishes here. A nil *fixObs is the
// disabled state.
//
// Metric names:
//
//	noise.fixpoint.runs             fixpoint iterations started (Run/RunIncremental)
//	noise.fixpoint.converged        runs that settled within Tol
//	noise.fixpoint.sweeps           dirty-victim sweeps executed
//	noise.fixpoint.iterations       total iterations across runs
//	noise.fixpoint.evals            victim evaluations performed
//	noise.fixpoint.replays          evaluations copied from a base run's trajectory
//	noise.fixpoint.worklist_depth   histogram: queue length per sweep
//	noise.fixpoint.env_memo_hits    per-coupling envelope memo hits
//	noise.fixpoint.env_memo_misses  ... and rebuilds
//	noise.fixpoint.pulse_memo_hits  transcendental pulse-solve memo hits
//	noise.fixpoint.pulse_memo_misses
//	noise.fixpoint.grid_eval_skips  breakpoint evaluations skipped in crossing walks
//	noise.fixpoint.stops            runs stopped early by budget/cancellation
//	noise.fixpoint.panics           runs stopped by a recovered worker panic
type fixObs struct {
	runs, converged      *obs.Counter
	sweeps, iterations   *obs.Counter
	evals, replays       *obs.Counter
	envHits, envMisses   *obs.Counter
	pulseHits, pulseMiss *obs.Counter
	gridSkips, stops     *obs.Counter
	panics               *obs.Counter
	worklistDepth        *obs.Histogram
}

// newFixObs resolves the fixpoint metric handles, or returns nil for
// a nil registry (instrumentation off).
func newFixObs(r *obs.Registry) *fixObs {
	if r == nil {
		return nil
	}
	return &fixObs{
		runs:          r.Counter("noise.fixpoint.runs"),
		converged:     r.Counter("noise.fixpoint.converged"),
		sweeps:        r.Counter("noise.fixpoint.sweeps"),
		iterations:    r.Counter("noise.fixpoint.iterations"),
		evals:         r.Counter("noise.fixpoint.evals"),
		replays:       r.Counter("noise.fixpoint.replays"),
		envHits:       r.Counter("noise.fixpoint.env_memo_hits"),
		envMisses:     r.Counter("noise.fixpoint.env_memo_misses"),
		pulseHits:     r.Counter("noise.fixpoint.pulse_memo_hits"),
		pulseMiss:     r.Counter("noise.fixpoint.pulse_memo_misses"),
		gridSkips:     r.Counter("noise.fixpoint.grid_eval_skips"),
		stops:         r.Counter("noise.fixpoint.stops"),
		panics:        r.Counter("noise.fixpoint.panics"),
		worklistDepth: r.Histogram("noise.fixpoint.worklist_depth"),
	}
}

// stopObserved classifies an early-stop error into the stop counters.
// No-op when disabled or when the run completed.
func (o *fixObs) stopObserved(err error) {
	if o == nil || err == nil {
		return
	}
	if budget.ReasonOf(err) == budget.WorkerPanic {
		o.panics.Inc()
		return
	}
	o.stops.Inc()
}

// evalCounts is the per-worker scratch half of the fixpoint
// instrumentation: plain (non-atomic) counters owned by exactly one
// sweep worker, summed serially after the iteration finishes. Keeping
// them local makes the hot path a few register increments and keeps
// published totals byte-identical for every worker count (the
// evaluation set and memo trajectories are deterministic; addition is
// commutative).
type evalCounts struct {
	evals, replays       int64
	envHits, envMisses   int64
	pulseHits, pulseMiss int64
	gridSkips            int64
}

// flush publishes the summed per-worker counts. No-op when disabled.
func (o *fixObs) flush(scratch []evalScratch, iters int, converged bool) {
	if o == nil {
		return
	}
	var t evalCounts
	for i := range scratch {
		c := &scratch[i].counts
		t.evals += c.evals
		t.replays += c.replays
		t.envHits += c.envHits
		t.envMisses += c.envMisses
		t.pulseHits += c.pulseHits
		t.pulseMiss += c.pulseMiss
		t.gridSkips += c.gridSkips
		*c = evalCounts{}
	}
	o.runs.Inc()
	if converged {
		o.converged.Inc()
	}
	o.iterations.Add(int64(iters))
	o.evals.Add(t.evals)
	o.replays.Add(t.replays)
	o.envHits.Add(t.envHits)
	o.envMisses.Add(t.envMisses)
	o.pulseHits.Add(t.pulseHits)
	o.pulseMiss.Add(t.pulseMiss)
	o.gridSkips.Add(t.gridSkips)
}
