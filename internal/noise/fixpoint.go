package noise

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"topkagg/internal/budget"
	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/faultinject"
	"topkagg/internal/sta"
	"topkagg/internal/waveform"
)

// budgetStride is how many victim evaluations a sweep worker performs
// between budget polls: coarse enough that the disabled path (nil
// budget, one branch per poll) is invisible next to the envelope math,
// fine enough that cancellation latency stays at a handful of
// evaluations.
const budgetStride = 64

// Flat-grid kernel tuning (DESIGN.md §12). gridCells is the fixed
// column count of the per-victim sampling grid (a power of two, and at
// most 64 so the cell-skip set fits one machine word). gridMinAgg is
// the active-aggressor count below which the grid is not worth
// building: accumulation is O(1) per trapezoid (affine range adds)
// plus one O(cells) finalize/skip pass, while each walk evaluation it
// avoids costs ~aggressors trap evaluations — so the grid pays once a
// handful of aggressors is in play, the pprof-measured break-even on
// the paper circuits.
const (
	gridCells  = 16
	gridMinAgg = 4
)

// envEntry memoizes the envelope one coupling induces on one of its
// two endpoint nets. An entry is invalidated eagerly the moment its
// aggressor's notified window moves (markChanged), so validity is a
// single flag load on the hot path; the trapezoid itself lives in the
// victim CSR (vTraps), contiguous per victim. Late fixpoint
// iterations move only a handful of windows, so almost every envelope
// is reused bit-for-bit. The pulse parameters are memoized separately
// on the aggressor slew alone: window EAT/LAT drift every iteration
// (noise accumulates), but the slew usually does not, and the pulse
// solve is the only transcendental-math step of the envelope build —
// its edge reciprocals (invRise, invFall) ride along for the
// division-free trap rebuilds (waveform.NewTrapPre). Validity is
// cleared at the start of every run — carrying entries across runs
// through the engine pool would make the memo hit/miss counters
// depend on nondeterministic pool composition, breaking the
// worker-invariance guarantee of the published stats.
type envEntry struct {
	win              sta.Window
	pulse            Pulse
	invRise, invFall float64 // memoized 1/Rise, 1/Fall of the pulse
	valid            bool
	pvalid           bool
}

// evalScratch is one worker's allocation-free workspace: the union
// breakpoint times of the current victim, the pooled sampling grid,
// and the worker-local observability counts. Each sweep worker owns
// exactly one.
type evalScratch struct {
	times  []float64       // union of breakpoint times
	traps  []waveform.Trap // active traps, densely packed in adjacency order
	grid   *waveform.Grid
	counts evalCounts
}

// fixpoint is the worklist-driven engine behind Run and
// RunIncremental. It keeps the circuit timing in an sta.Incremental
// (so injecting one net's noise re-times only its fanout cone) and
// between sweeps tracks exactly the victims whose inputs moved:
//
//   - a victim whose own window changed (its reference ramp moved),
//   - a victim coupled to a net whose window changed (its aggressor
//     envelope moved),
//   - a victim whose own injected noise changed last sweep (the
//     "minus own noise" reference correction moved).
//
// Every other victim would recompute, by the purely functional per-net
// evaluation, exactly the value it already has — so skipping it leaves
// the trajectory of the fixpoint ascent bit-identical to the full
// per-iteration sweep the engine replaces.
//
// The per-victim evaluation runs on the flat-grid waveform kernel:
// envelopes are closed-form trapezoids (waveform.Trap), the noisy
// victim waveform g(t) = ramp(t) − Σ traps(t) is evaluated exactly
// only at union breakpoint times during a descending crossing walk,
// and a fixed-cell upper-bound grid over the victim's analysis window
// skips breakpoints that provably cannot host the crossing. Published
// numbers never come from a grid sample — the grid only discards work
// — so results are byte-identical with the grid disabled
// (Model.exactWalk).
//
// Within one sweep the dirty victims are evaluated in parallel: an
// atomic cursor hands out queue slots, each worker writes only its
// slot's result, and the merge that commits results runs serially in
// queue order. No evaluation reads anything a concurrent evaluation
// writes (results are per-slot, envelope cache entries are owned by
// exactly one victim, windows and noise are frozen during the sweep),
// so results are byte-identical for any worker count.
//
// A fixpoint is pooled on its Model (getFixpoint/putFixpoint): the
// victim CSR, memo arrays and worker scratch are rebuilt in place per
// run, and the envelope memo persists across runs while the circuit
// snapshot is unchanged.
type fixpoint struct {
	m    *Model
	cols *circuit.Columns
	inc  *sta.Incremental

	// Victim CSR under the run's mask: victims lists the nets with at
	// least one active coupling in ascending NetID order; for victim
	// index vi, entries vOff[vi]..vOff[vi+1] of the parallel arrays
	// hold its active couplings (vCoup), their far endpoints (vAgg)
	// and their directed envelope-memo indices (vEnv, the snapshot's
	// CoupDir keys).
	victims []int32
	vIndex  []int32 // NetID -> victim index, -1 otherwise
	vOff    []int32
	vCoup   []int32
	vAgg    []int32
	vEnv    []int32

	// Per-CSR-slot envelope trapezoids, contiguous per victim so the
	// kernel streams them: vTraps[j] is the closed form of slot j's
	// envelope, vAct[j] whether it contributes (pulse peak > 0). Both
	// are (re)written only when slot j's memo entry rebuilds, and every
	// entry starts a run invalid, so no stale value survives a mask
	// change. Summation stays in adjacency order over active slots —
	// bit-identical to the envelope-list order it replaces.
	vTraps []waveform.Trap
	vAct   []bool

	dirty   []bool    // per victim index: re-evaluate next sweep
	queue   []int32   // victim indices evaluated this sweep, ascending
	results []float64 // per queue slot

	// notified is the per-net window as of the last time dependents
	// were told it moved. A net's window must drift more than markTol
	// from this record before its dependents re-evaluate; envelopes
	// are built from this view, so sub-threshold creep (ulp-level
	// float wobble late in the ascent) stops re-dirtying the whole
	// victim set. Movements accumulate against the record, so total
	// staleness per input is bounded by markTol.
	notified []sta.Window
	markTol  float64

	envs []envEntry // memo cache indexed by CoupDir (2*CouplingID + side)

	// evaluated marks, per victim index, the victims this run evaluated
	// at least once (rather than copying a replayed result); each sweep
	// worker writes only its own queue slots' entries.
	evaluated []bool

	// rec is the run's own trajectory, appended as it goes and copied
	// at exact size onto the returned Analysis; rp replays a base run's
	// trajectory (rp.t is nil on a cold run). See trajectory.
	rec     trajectory
	rp      replay
	sweepNo int32 // 1-based number of the sweep in flight

	scratch []evalScratch
	workers int

	bud *budget.B // cooperative stop; nil runs unbounded
	obs *fixObs   // resolved metric handles; nil when uninstrumented
}

// getFixpoint checks an engine out of the model's pool (or allocates
// one for pool-less zero-value models); newFixpoint rebuilds every
// piece of state in place, so only the storage is recycled.
func (m *Model) getFixpoint() *fixpoint {
	if m.fixPool != nil {
		return m.fixPool.Get().(*fixpoint)
	}
	return new(fixpoint)
}

// putFixpoint returns an engine to the model's pool, dropping the
// run-scoped references.
func (m *Model) putFixpoint(f *fixpoint) {
	f.m, f.inc, f.bud, f.obs, f.rp.t = nil, nil, nil, nil, nil
	if m.fixPool != nil {
		m.fixPool.Put(f)
	}
}

// grow returns s resized to n elements, reusing capacity when it can.
// Contents are unspecified; callers initialize what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newFixpoint builds the sweep state for one analysis: the victim CSR
// under the given mask, the envelope memo cache and the per-worker
// scratch. inc carries the starting timing and noise vector; bud (nil
// = unlimited) lets the caller cancel the ascent between evaluation
// batches. The returned engine must be released with putFixpoint.
func newFixpoint(m *Model, active Mask, inc *sta.Incremental, bud *budget.B) *fixpoint {
	cols := inc.Columns()
	f := m.getFixpoint()
	f.m, f.cols, f.inc, f.bud = m, cols, inc, bud

	nn := cols.NumNets()
	f.vIndex = grow(f.vIndex, nn)
	for i := range f.vIndex {
		f.vIndex[i] = -1
	}
	f.victims, f.vOff = f.victims[:0], f.vOff[:0]
	f.vCoup, f.vAgg, f.vEnv = f.vCoup[:0], f.vAgg[:0], f.vEnv[:0]
	for n := 0; n < nn; n++ {
		start := int32(len(f.vCoup))
		for j := cols.CoupOff[n]; j < cols.CoupOff[n+1]; j++ {
			if active.Active(circuit.CouplingID(cols.CoupIDs[j])) {
				f.vCoup = append(f.vCoup, cols.CoupIDs[j])
				f.vAgg = append(f.vAgg, cols.CoupOther[j])
				f.vEnv = append(f.vEnv, cols.CoupDir[j])
			}
		}
		if int32(len(f.vCoup)) == start {
			continue
		}
		f.vIndex[n] = int32(len(f.victims))
		f.victims = append(f.victims, int32(n))
		f.vOff = append(f.vOff, start)
	}
	f.vOff = append(f.vOff, int32(len(f.vCoup)))

	nc := len(f.vCoup)
	f.vTraps = grow(f.vTraps, nc)
	f.vAct = grow(f.vAct, nc)

	nv := len(f.victims)
	f.dirty = grow(f.dirty, nv)
	clear(f.dirty)
	f.evaluated = grow(f.evaluated, nv)
	clear(f.evaluated)
	f.rec.reset()
	f.notified = append(f.notified[:0], inc.Result().Windows...)
	f.markTol = m.Tol

	// The envelope memo recycles its storage through the pool but
	// starts every run invalid (see envEntry).
	ne := 2 * cols.NumCouplings()
	if cap(f.envs) < ne {
		f.envs = make([]envEntry, ne)
	} else {
		f.envs = f.envs[:ne]
		for i := range f.envs {
			f.envs[i].valid, f.envs[i].pvalid = false, false
		}
	}

	f.workers = m.Workers
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	if f.workers > nv {
		f.workers = nv
	}
	if f.workers < 1 {
		f.workers = 1
	}
	if cap(f.scratch) >= f.workers {
		f.scratch = f.scratch[:f.workers]
	} else {
		old := f.scratch
		f.scratch = make([]evalScratch, f.workers)
		copy(f.scratch, old)
	}
	f.obs = newFixObs(m.Obs)
	return f
}

// markChanged marks the victims whose evaluation depends on any of the
// given window-changed nets: the net itself (if a victim) and the far
// endpoints of its active couplings. A net only notifies its
// dependents when its window has drifted more than markTol since its
// last notification, so nets whose inputs moved within tolerance are
// not re-evaluated. Every notification is appended to the run's
// trajectory.
func (f *fixpoint) markChanged(changed []circuit.NetID) {
	wins := f.inc.Result().Windows
	for _, n := range changed {
		vi := f.vIndex[n]
		if vi < 0 {
			// A net with no active coupling feeds no envelope; its
			// window move is invisible to every victim evaluation.
			continue
		}
		if !windowMoved(wins[n], f.notified[n], f.markTol) {
			continue
		}
		f.notified[n] = wins[n]
		f.rec.nets = append(f.rec.nets, int32(n))
		f.rec.wins = append(f.rec.wins, wins[n])
		f.dirty[vi] = true
		for j := f.vOff[vi]; j < f.vOff[vi+1]; j++ {
			if ui := f.vIndex[f.vAgg[j]]; ui >= 0 {
				f.dirty[ui] = true
			}
			// Envelopes built from this net's window are now stale.
			// Notification is the only way a notified-view window moves,
			// so invalidating here makes the memo check a single flag
			// load: an entry is stale exactly when its key window moved.
			f.envs[f.vEnv[j]^1].valid = false
		}
	}
}

// windowMoved reports whether any field of the window drifted beyond
// tol.
func windowMoved(a, b sta.Window, tol float64) bool {
	return a.EAT-b.EAT > tol || b.EAT-a.EAT > tol ||
		a.LAT-b.LAT > tol || b.LAT-a.LAT > tol ||
		a.Slew-b.Slew > tol || b.Slew-a.Slew > tol
}

// iterate runs sweeps over the dirty victims, starting from every
// victim, until the largest noise movement of a sweep is
// within Tol or the iteration budget runs out. With a replay attached,
// each sweep first advances the base run's view to the same sweep.
//
// A non-nil error means the ascent was stopped before settling — the
// caller's budget tripped (cancellation, deadline, work allowance) or
// a sweep worker panicked — and the in-flight timing state must be
// discarded: a sweep that stops mid-queue commits nothing, so no
// partially-evaluated iteration ever reaches the returned Analysis.
func (f *fixpoint) iterate() (iters int, converged bool, err error) {
	for vi := range f.dirty {
		f.dirty[vi] = true
	}
	for iter := 1; iter <= f.m.MaxIterations; iter++ {
		if err = f.bud.Err(); err != nil {
			break
		}
		iters = iter
		f.sweepNo = int32(iter)
		f.buildQueue()
		if o := f.obs; o != nil {
			o.sweeps.Inc()
			o.worklistDepth.Observe(int64(len(f.queue)))
		}
		if f.rp.t != nil {
			f.rp.advance(f.sweepNo)
		}
		maxDelta, serr := f.sweep()
		if serr != nil {
			err = serr
			break
		}
		updates := len(f.rec.wins)
		f.markChanged(f.inc.Update())
		f.rec.head = append(f.rec.head, int32(len(f.queue)), int32(len(f.rec.wins)-updates))
		if maxDelta <= f.m.Tol {
			converged = true
			break
		}
	}
	f.obs.flush(f.scratch, iters, converged)
	f.obs.stopObserved(err)
	return iters, converged, err
}

// buildQueue drains the dirty set into the evaluation queue in victim
// (net-ID) order.
func (f *fixpoint) buildQueue() {
	f.queue = f.queue[:0]
	for vi, d := range f.dirty {
		if d {
			f.dirty[vi] = false
			f.queue = append(f.queue, int32(vi))
		}
	}
}

// sweep evaluates every queued victim against the frozen current
// timing, then serially commits the new noise values in victim order.
// It returns the largest single-net noise increase of the sweep and
// re-marks the victims whose noise moved (their reference correction
// changes next sweep).
//
// A sweep is all-or-nothing: when the budget trips or a worker
// panics, the commit loop never runs, so the incremental timing keeps
// exactly the previous iteration's state. Worker panics are recovered
// at the goroutine boundary (a panic in a bare goroutine would kill
// the process, not just the query) and surfaced as a typed
// *budget.PanicError.
func (f *fixpoint) sweep() (float64, error) {
	n := len(f.queue)
	if cap(f.results) < n {
		f.results = make([]float64, n)
	}
	res := f.results[:n]
	workers := f.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if err := f.sweepSerial(res); err != nil {
			return 0, err
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		var panicked atomic.Pointer[budget.PanicError]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *evalScratch) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, budget.NewPanicError("noise.fixpoint", r))
					}
				}()
				for {
					qi := int(next.Add(1) - 1)
					if qi >= n {
						return
					}
					if qi&(budgetStride-1) == 0 {
						if panicked.Load() != nil || f.bud.Err() != nil {
							return
						}
					}
					res[qi] = f.result(int(f.queue[qi]), s)
				}
			}(&f.scratch[w])
		}
		wg.Wait()
		if pe := panicked.Load(); pe != nil {
			return 0, pe
		}
		if err := f.bud.Err(); err != nil {
			return 0, err
		}
	}
	maxDelta := 0.0
	extra := f.inc.ExtraLAT()
	for qi, vi := range f.queue {
		v := circuit.NetID(f.victims[vi])
		nv := res[qi]
		if d := nv - extra[v]; d > maxDelta {
			maxDelta = d
		}
		// Commit exactly; re-marking of this victim and its neighbours
		// flows through the window change the commit causes (via
		// Update and the markTol gate in markChanged).
		f.inc.SetExtraLAT(v, nv)
		f.rec.nets = append(f.rec.nets, int32(v))
		f.rec.vals = append(f.rec.vals, nv)
	}
	return maxDelta, nil
}

// sweepSerial is the single-worker evaluation loop, with the same
// budget polling and panic capture as the parallel pool so callers
// see identical stop semantics at any worker count.
func (f *fixpoint) sweepSerial(res []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = budget.NewPanicError("noise.fixpoint", r)
		}
	}()
	s := &f.scratch[0]
	for qi, vi := range f.queue {
		if qi&(budgetStride-1) == 0 {
			if e := f.bud.Err(); e != nil {
				return e
			}
		}
		res[qi] = f.result(int(vi), s)
	}
	return nil
}

// result is victim vi's new noise for the sweep in flight: the base
// run's value when replay proves the evaluation's inputs bitwise equal
// to the base run's at the same sweep, else a fresh evaluation. Either
// way the value is the one a cold run computes.
func (f *fixpoint) result(vi int, s *evalScratch) float64 {
	if f.rp.t != nil {
		if n, ok := f.replayed(vi); ok {
			s.counts.replays++
			return n
		}
	}
	f.evaluated[vi] = true
	return f.evaluate(vi, s)
}

// pulseFromCols is PulseParams fed from the columnar snapshot: the
// victim's driver resistance and lumped ground capacitance and the
// coupling's Cc come from precomputed columns whose values are
// bit-identical to the pointer-model accessors, so the pulse is too.
func (f *fixpoint) pulseFromCols(v, cid int32, aggSlew float64) Pulse {
	rv := f.cols.DriverRes[v]
	cv := f.cols.CvBase[v]
	cc := f.cols.CoupCc[cid]
	tr := math.Max(aggSlew, 1e-3)
	vp, rEff := f.m.solvePeak(rv, cc, cv, tr)
	tau := cell.RC(rEff, cc+cv)
	return Pulse{Vp: vp, Rise: tr / 2, Fall: math.Max(2*tau, 1e-3)}
}

// evaluate recomputes one victim's worst-case delay noise from its
// aggressors' current windows, applying the monotone clamp of the
// fixpoint ascent. It reads only sweep-frozen state (windows, noise,
// its own cache entries) and writes only the worker's scratch and its
// own memo entries, so concurrent evaluations of distinct victims
// never interfere.
func (f *fixpoint) evaluate(vi int, s *evalScratch) float64 {
	faultinject.Fire(faultinject.SiteNoiseEval)
	v := f.victims[vi]
	// Envelopes and the reference ramp are built from the notified
	// window view: stale by at most markTol, stable between
	// notifications, identical for every worker count.
	wins := f.notified
	s.counts.evals++
	lo, hi := f.vOff[vi], f.vOff[vi+1]
	nact := 0
	for j := lo; j < hi; j++ {
		e := &f.envs[f.vEnv[j]]
		if !e.valid {
			s.counts.envMisses++
			win := wins[f.vAgg[j]]
			if !e.pvalid || e.win.Slew != win.Slew {
				s.counts.pulseMiss++
				e.pulse = f.pulseFromCols(v, f.vCoup[j], win.Slew)
				e.invRise = 1 / e.pulse.Rise
				e.invFall = 1 / e.pulse.Fall
				e.pvalid = true
			} else {
				s.counts.pulseHits++
			}
			e.win = win
			act := e.pulse.Vp > 0
			f.vAct[j] = act
			if act {
				f.vTraps[j] = waveform.NewTrapPre(win.EAT-e.pulse.Rise, e.pulse.Rise,
					win.LAT, e.pulse.Fall, e.pulse.Vp, e.invRise, e.invFall)
			}
			e.valid = true
		} else {
			s.counts.envHits++
		}
		if f.vAct[j] {
			nact++
		}
	}
	// The reference victim transition includes noise propagated from
	// the fanin but not the victim's own injected noise (which is
	// exactly what is being recomputed here).
	vw := wins[v]
	prev := f.inc.ExtraLAT()[v]
	vw.LAT -= prev
	n := f.delayNoiseFlat(vw, f.vTraps[lo:hi], f.vAct[lo:hi], nact, s)
	// Keep per-net noise monotone across iterations: arrival shifts
	// can move a victim past an aggressor envelope and make the raw
	// recomputation oscillate, but delay noise once observed is never
	// un-observed (the fixpoint lattice of Zhou [4] is ascended from
	// below).
	if n < prev {
		n = prev
	}
	return n
}

// gAt evaluates the noisy victim waveform g(t) = ramp(t) − Σ trap_i(t)
// exactly: the ramp interpolation is the PWL segment expression on the
// two-point ramp {(r0,0),(r1,Vdd)}, and the traps — densely packed in
// the victim's adjacency order, inactive slots dropped (they would add
// exactly +0.0, and At is non-negative so no −0.0 hazard exists) — are
// summed in that order, making the value a deterministic pure function
// of the frozen sweep state.
func (f *fixpoint) gAt(t, r0, r1 float64, traps []waveform.Trap) float64 {
	var rv float64
	switch {
	case t <= r0:
		rv = 0
	case t >= r1:
		rv = f.m.Vdd
	default:
		fr := (t - r0) / (r1 - r0)
		rv = fr * f.m.Vdd
	}
	sum := 0.0
	for i := range traps {
		sum += traps[i].At(t)
	}
	return rv - sum
}

// delayNoiseFlat computes the victim's raw worst-case delay noise on
// the flat kernel: the latest time the noisy waveform g(t) = ramp(t)
// − Σ envelopes(t) still sits at or below Vdd/2, minus the reference
// arrival. g is piecewise linear with breakpoints only at the union
// of the ramp's and the trapezoids' breakpoints, so the crossing walk
// evaluates g exactly at those times, descending, and interpolates
// within the bracketing segment — the same latest-upward-crossing
// semantics as PWL.LatestTimeAtOrBelow, without ever building the
// merged waveform.
//
// With enough aggressors (gridMinAgg) and the grid enabled, a
// gridCells-cell upper-bound accumulation over the window first
// derives a cell-skip word: cell c is skipped when even
// ramp(PadLeft(c)) − Col[c] — a certified lower bound on g anywhere in
// the cell, exact in float because per-trap column contributions
// dominate the summands of gAt pointwise and float
// addition/subtraction are monotone — exceeds level+Eps, so no time in
// the cell can be a crossing candidate. The skip discards provably
// irrelevant work only, so the result is byte-identical to the exact
// walk (Model.exactWalk).
func (f *fixpoint) delayNoiseFlat(vw sta.Window, traps []waveform.Trap, act []bool, nact int, s *evalScratch) float64 {
	if nact == 0 {
		return 0
	}
	vdd := f.m.Vdd
	level := vdd / 2
	slew := math.Max(vw.Slew, 1e-3)
	r0, r1 := vw.LAT-slew/2, vw.LAT+slew/2

	// Gather the union breakpoint times, pruning as they stream past.
	// Any breakpoint at or below the ramp's midpoint is a certified
	// crossing candidate: the exact ramp expression is monotone in t and
	// checked once at tMid, and the envelope only subtracts. The
	// descending walk always returns at the first candidate it meets —
	// every time above a candidate evaluated non-candidate, so the
	// bracket is valid the moment one appears. Times below the latest
	// certified candidate (tstop) can therefore never be visited, in
	// either mode: the gather keeps only breakpoints above tMid plus
	// tstop itself, and the grid starts there instead of at the earliest
	// envelope onset, doubling its resolution over the decidable region.
	tMid := r0 + (r1-r0)/2
	if fr := (tMid - r0) / (r1 - r0); !(fr*vdd <= level) {
		tMid = r0 // pathological rounding: keep everything past the ramp foot
	}
	tstop := r0 // ramp(r0) is exactly zero: always a candidate
	ts := append(s.times[:0], r1)
	envEnd := math.Inf(-1)
	// Compact the active traps densely while streaming their
	// breakpoints: the walk's exact evaluations and the grid
	// accumulation then loop branch-free, and the adjacency order the
	// summation depends on is preserved.
	dense := s.traps[:0]
	for i := range traps {
		if !act[i] {
			continue
		}
		dense = append(dense, traps[i])
		tr := &dense[len(dense)-1]
		if tr.Q3 > envEnd {
			envEnd = tr.Q3
		}
		if tr.Q0 > tMid {
			ts = append(ts, tr.Q0)
		} else if tr.Q0 > tstop {
			tstop = tr.Q0
		}
		if tr.Q1 > tMid {
			ts = append(ts, tr.Q1)
		} else if tr.Q1 > tstop {
			tstop = tr.Q1
		}
		if tr.Q2 != tr.Q1 {
			if tr.Q2 > tMid {
				ts = append(ts, tr.Q2)
			} else if tr.Q2 > tstop {
				tstop = tr.Q2
			}
		}
		if tr.Q3 > tMid {
			ts = append(ts, tr.Q3)
		} else if tr.Q3 > tstop {
			tstop = tr.Q3
		}
	}
	ts = append(ts, tstop)
	s.times, s.traps = ts, dense
	hi := r1
	if envEnd > hi {
		hi = envEnd
	}
	n := len(ts)

	var g *waveform.Grid
	var skip uint64
	if !f.m.exactWalk && nact >= gridMinAgg {
		g = s.grid
		if g == nil {
			g = waveform.GetGrid()
			s.grid = g
		}
		g.Reset(tstop, hi, gridCells)
		for i := range dense {
			g.AddTrapMax(dense[i])
		}
		// Fold the range additions and derive the cell-skip word in one
		// register-only pass: cell c is skipped when even
		// ramp(PadLeft(c)) minus the column bound — a certified lower
		// bound on g anywhere in the cell — clears level+Eps.
		skip = g.FinalizeSkip(r0, r1, vdd, level+waveform.Eps)
	}

	// Sort the pruned times ascending. Insertion sort: the array is a
	// couple dozen entries of short ascending runs, and the sorted
	// result is a pure function of the time multiset, so both modes
	// walk identical breakpoint sequences.
	for i := 1; i < n; i++ {
		v := ts[i]
		j := i - 1
		for ; j >= 0 && ts[j] > v; j-- {
			ts[j+1] = ts[j]
		}
		ts[j+1] = v
	}

	// Tail anchor: at the global latest time hi every trapezoid has
	// decayed to exactly zero and the ramp is saturated, so g(hi) is
	// exactly Vdd — the gAt call would reproduce it bit-for-bit. The
	// settle branch (envelope holding the victim below threshold past
	// its own span) fires only for degenerate sub-Eps supplies.
	tPrev := ts[n-1]
	gPrev := vdd
	if gPrev <= level+waveform.Eps {
		d := envEnd - vw.LAT
		if d < 0 {
			return 0
		}
		return d
	}
	// Descending crossing walk over distinct breakpoint times. A
	// skipped time cannot satisfy the candidate test (its g provably
	// exceeds level+Eps), so it participates only as the upper end of
	// a bracket, evaluated exactly on demand.
	prevValid := true
	for i := n - 2; i >= 0; i-- {
		t := ts[i]
		if t == ts[i+1] {
			continue
		}
		if skip != 0 && skip&(1<<uint(g.CellOf(t))) != 0 {
			s.counts.gridSkips++
			tPrev, prevValid = t, false
			continue
		}
		gt := f.gAt(t, r0, r1, dense)
		if gt <= level+waveform.Eps {
			gb := gPrev
			if !prevValid {
				gb = f.gAt(tPrev, r0, r1, dense)
			}
			if gb > level {
				var tc float64
				if gb == gt {
					tc = tPrev
				} else {
					fr := (level - gt) / (gb - gt)
					if fr < 0 {
						fr = 0
					}
					if fr > 1 {
						fr = 1
					}
					tc = t + fr*(tPrev-t)
				}
				d := tc - vw.LAT
				if d < 0 {
					return 0
				}
				return d
			}
		}
		tPrev, gPrev, prevValid = t, gt, true
	}
	// Entire waveform above level.
	d := ts[0] - vw.LAT
	if d < 0 {
		return 0
	}
	return d
}
