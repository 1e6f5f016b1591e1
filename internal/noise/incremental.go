package noise

import (
	"fmt"
	"math"
	"slices"

	"topkagg/internal/budget"
	"topkagg/internal/circuit"
	"topkagg/internal/sta"
)

// IncrementalStats reports what an incremental run actually did.
type IncrementalStats struct {
	// Affected is the number of distinct nets the run evaluated at
	// least once; every other evaluation was copied from prev's
	// trajectory.
	Affected int
	// Full reports that the run had no trajectory to replay (prev was
	// nil or restored from a snapshot), so it copied nothing.
	Full bool
}

// RunIncremental re-evaluates the noise fixpoint after the active
// coupling mask changed from prevMask (the mask prev was computed
// with) to mask. The result is byte-identical to a cold Run(mask):
// timing windows, NetNoise, Iterations and Converged.
//
// It runs mask's own cold fixpoint — its own timing, worklist and
// convergence test — while replaying the trajectory prev's run
// recorded. A victim queued in sweep s whose evaluation inputs (its
// notified window, its committed noise and its aggressors' notified
// windows) are bitwise equal to those prev's run evaluated it with in
// sweep s, and none of whose couplings toggled, gets prev's result
// copied instead of recomputed. A victim evaluation is a pure function
// of exactly those inputs, so the copy is the value the cold run
// computes; only victims whose inputs actually moved are evaluated.
//
// This is the engine for what-if loops (shield this, re-check that).
// Every run records its own trajectory, so chained what-ifs replay as
// well. A prev without a trajectory — nil, or restored from a
// snapshot — runs Run(mask) and reports Full.
//
// Like Run, RunIncremental never writes to the model, the circuit,
// prev or the masks; many incremental analyses may share one prev
// concurrently.
func (m *Model) RunIncremental(prev *Analysis, prevMask, mask Mask) (*Analysis, IncrementalStats, error) {
	return m.RunIncrementalBudget(nil, prev, prevMask, mask)
}

// RunIncrementalBudget is RunIncremental under a budget, with the same
// bounded-granularity polling and all-or-nothing sweep commit as
// RunBudget; a nil budget runs unbounded.
func (m *Model) RunIncrementalBudget(b *budget.B, prev *Analysis, prevMask, mask Mask) (*Analysis, IncrementalStats, error) {
	defer m.Obs.Span("noise.run_incremental").End()
	if m.Obs != nil {
		m.Obs.Counter("noise.incremental.runs").Inc()
	}
	if prev != nil && sameMask(m.C, prevMask, mask) {
		m.incrementalDone(0, false)
		return prev, IncrementalStats{}, nil
	}
	var st IncrementalStats
	if prev == nil || len(prev.traj.head) == 0 {
		prev, st.Full = nil, true
	}
	an, affected, err := m.analyze(b, mask, prev, prevMask)
	if err != nil {
		return nil, IncrementalStats{}, fmt.Errorf("noise: incremental: %w", err)
	}
	st.Affected = affected
	m.incrementalDone(st.Affected, st.Full)
	return an, st, nil
}

// incrementalDone records one RunIncremental outcome: the number of
// distinct nets evaluated and whether the run had no trajectory to
// replay. No-op without a registry.
func (m *Model) incrementalDone(affected int, full bool) {
	if m.Obs == nil {
		return
	}
	m.Obs.Histogram("noise.incremental.affected").Observe(int64(affected))
	if full {
		m.Obs.Counter("noise.incremental.full_fallbacks").Inc()
	}
}

// sameMask reports whether the two masks activate the same couplings.
func sameMask(c *circuit.Circuit, a, b Mask) bool {
	for i := 0; i < c.NumCouplings(); i++ {
		if id := circuit.CouplingID(i); a.Active(id) != b.Active(id) {
			return false
		}
	}
	return true
}

// trajectory is the compact record of one fixpoint run that a later
// run replays: sweep by sweep, the victims evaluated with their
// committed results, then the notified-window updates that followed
// the sweep. head holds two counts per sweep (evaluations, updates);
// nets holds, sweep after sweep, the evaluated NetIDs followed by the
// updated NetIDs; vals and wins hold the matching results and new
// notified windows in the same order. A fixpoint appends to its pooled
// record as it runs; the Analysis gets an exact-size clone, immutable
// from then on.
type trajectory struct {
	head []int32
	nets []int32
	vals []float64
	wins []sta.Window
}

func (t *trajectory) reset() {
	t.head, t.nets, t.vals, t.wins = t.head[:0], t.nets[:0], t.vals[:0], t.wins[:0]
}

func (t *trajectory) clone() trajectory {
	return trajectory{
		head: slices.Clone(t.head),
		nets: slices.Clone(t.nets),
		vals: slices.Clone(t.vals),
		wins: slices.Clone(t.wins),
	}
}

// replay is a run's view of the base run whose trajectory it replays,
// advanced to the sweep in flight: win is the base run's notified
// windows entering the sweep (starting at the shared noiseless
// timing), and last holds, per net, the base run's latest evaluation
// up to this sweep. The view changes only between sweeps, so the copy
// test reads frozen state and is worker-count invariant.
type replay struct {
	t    *trajectory // nil: a cold run, nothing to copy
	win  []sta.Window
	last []baseEval

	h, n, v, w int // cursors into t.head, t.nets, t.vals, t.wins
	pending    int // notified-window updates of the previous sweep, not yet applied
}

// baseEval is the base run's latest evaluation of one net: the sweep
// that made it, the noise committed on the net before it and its
// result. sweep is -1 on endpoints of couplings whose activity
// differs between the two runs, whose results are never copied.
type baseEval struct {
	sweep     int32
	prev, val float64
}

// startReplay attaches t, recorded by a run under mask from, to this
// run under mask to. Both runs start from the same noiseless windows
// with zero noise.
func (f *fixpoint) startReplay(t *trajectory, from, to Mask) {
	r := &f.rp
	r.t = t
	r.h, r.n, r.v, r.w, r.pending = 0, 0, 0, 0, 0
	r.win = append(r.win[:0], f.notified...)
	r.last = grow(r.last, len(f.notified))
	clear(r.last)
	cols := f.cols
	for n := range r.last {
		for j := cols.CoupOff[n]; j < cols.CoupOff[n+1]; j++ {
			if id := circuit.CouplingID(cols.CoupIDs[j]); from.Active(id) != to.Active(id) {
				r.last[n].sweep = -1
				break
			}
		}
	}
}

// advance brings the base view to the start of sweep s: it applies the
// notified-window updates that followed sweep s-1 and loads the
// evaluations of sweep s. Past the base run's last sweep the view
// stays put and nothing more is copied.
func (r *replay) advance(s int32) {
	t := r.t
	for ; r.pending > 0; r.pending-- {
		r.win[t.nets[r.n]] = t.wins[r.w]
		r.n++
		r.w++
	}
	if r.h == len(t.head) {
		return
	}
	evals := int(t.head[r.h])
	r.pending = int(t.head[r.h+1])
	r.h += 2
	for ; evals > 0; evals-- {
		if e := &r.last[t.nets[r.n]]; e.sweep >= 0 {
			e.sweep, e.prev, e.val = s, e.val, t.vals[r.v]
		}
		r.n++
		r.v++
	}
}

// replayed returns the base run's result for victim vi when the base
// run evaluated it in this same sweep from bitwise-identical inputs:
// the same committed noise, the same notified window on the victim and
// on every active aggressor, and the same active couplings.
func (f *fixpoint) replayed(vi int) (float64, bool) {
	v := f.victims[vi]
	e := &f.rp.last[v]
	if e.sweep != f.sweepNo || math.Float64bits(e.prev) != math.Float64bits(f.inc.ExtraLAT()[v]) {
		return 0, false
	}
	base := f.rp.win
	if !sameWindow(base[v], f.notified[v]) {
		return 0, false
	}
	for j := f.vOff[vi]; j < f.vOff[vi+1]; j++ {
		if a := f.vAgg[j]; !sameWindow(base[a], f.notified[a]) {
			return 0, false
		}
	}
	return e.val, true
}

// sameWindow reports whether two windows are bitwise equal.
func sameWindow(a, b sta.Window) bool {
	return math.Float64bits(a.EAT) == math.Float64bits(b.EAT) &&
		math.Float64bits(a.LAT) == math.Float64bits(b.LAT) &&
		math.Float64bits(a.Slew) == math.Float64bits(b.Slew)
}
