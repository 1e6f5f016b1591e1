// Package noise implements the linear noise-analysis framework of the
// DAC'07 paper (its Section 2): triangular noise pulses from a
// Thevenin/charge-sharing model, trapezoidal noise envelopes spanning
// aggressor timing windows, worst-case delay noise by superimposing
// envelopes on the latest victim transition, and the iterative
// timing-window/delay-noise fixpoint of Sapatnekar-style noise-aware
// STA.
package noise

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"topkagg/internal/budget"
	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/obs"
	"topkagg/internal/sta"
	"topkagg/internal/waveform"
)

// Mask selects the subset of coupling capacitors considered active in
// a noise scenario, indexed by CouplingID.
type Mask []bool

// NewMask returns an all-inactive mask sized for circuit c.
func NewMask(c *circuit.Circuit) Mask { return make(Mask, c.NumCouplings()) }

// AllMask returns a mask with every coupling active.
func AllMask(c *circuit.Circuit) Mask {
	m := NewMask(c)
	for i := range m {
		m[i] = true
	}
	return m
}

// MaskOf returns a mask with exactly the given couplings active.
func MaskOf(c *circuit.Circuit, ids []circuit.CouplingID) Mask {
	m := NewMask(c)
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// WithoutMask returns a mask with every coupling active except the
// given ones.
func WithoutMask(c *circuit.Circuit, ids []circuit.CouplingID) Mask {
	m := AllMask(c)
	for _, id := range ids {
		m[id] = false
	}
	return m
}

// Active reports whether coupling id is active. A nil Mask means all
// couplings are active.
func (m Mask) Active(id circuit.CouplingID) bool {
	if m == nil {
		return true
	}
	return m[id]
}

// Count returns the number of active couplings.
func (m Mask) Count() int {
	n := 0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// Clone returns a copy of the mask.
func (m Mask) Clone() Mask {
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// Model binds the noise framework to a circuit.
//
// A Model is read-only during analysis: Run and RunIncremental never
// write to the Model, the Circuit or any Analysis they are given, so
// one Model may serve any number of concurrent analyses (the serve
// package's batch layer relies on this). The configuration fields
// below must not be mutated while analyses are in flight.
type Model struct {
	C   *circuit.Circuit
	Vdd float64

	// MaxIterations bounds the timing-window/delay-noise fixpoint
	// iteration. Industrial designs converge in 3-4 iterations; the
	// default (32) is a generous safety bound.
	MaxIterations int
	// Tol is the convergence tolerance on per-net delay noise, ns.
	Tol float64
	// PIArrival optionally overrides primary-input windows.
	PIArrival func(circuit.NetID) sta.Window
	// Driver selects the victim holding-driver model for pulse peaks.
	// Nil means the paper's linear Thevenin model; SaturatingCSM
	// provides the paper's future-work nonlinear extension.
	Driver DriverModel
	// Workers caps the goroutines evaluating independent victims
	// within one fixpoint sweep. 0 means GOMAXPROCS, 1 forces serial
	// sweeps. Results are byte-identical for any setting; callers that
	// already parallelise whole analyses (e.g. the brute-force
	// searcher) set 1 to avoid oversubscription.
	Workers int
	// Obs, when non-nil, receives fixpoint and incremental-STA metrics
	// (see internal/obs and DESIGN.md §8). Nil disables instrumentation
	// at near-zero cost; analysis results are identical either way.
	Obs *obs.Registry
	// ExactWaveforms disables the flat-grid screen of the fixpoint
	// kernel: every victim evaluation runs the exact crossing walk over
	// all envelope breakpoints. Results are byte-identical either way —
	// the grid only skips work it proves cannot change the outcome
	// (DESIGN.md §12) — so the flag exists for differential testing
	// (cmd/topk -exact-waveforms) and debugging, at a throughput cost.
	ExactWaveforms bool

	// fixPool recycles fixpoint engine state (victim CSR, envelope
	// memo, per-worker scratch) across runs on the same model. Shallow
	// model copies (WithObs, WithWorkers, ...) share the pool; a
	// zero-value Model has none and allocates per run.
	fixPool *sync.Pool
}

// WithObs returns a shallow copy of the model publishing metrics to r
// (nil r disables instrumentation on the copy). The copy shares the
// circuit and all other configuration.
func (m *Model) WithObs(r *obs.Registry) *Model {
	cp := *m
	cp.Obs = r
	return &cp
}

// WithWorkers returns a shallow copy of the model with the sweep
// worker count set. The copy shares the circuit and all other
// configuration.
func (m *Model) WithWorkers(n int) *Model {
	cp := *m
	cp.Workers = n
	return &cp
}

// WithExactWaveforms returns a shallow copy of the model with the
// grid fast path enabled or disabled; see the ExactWaveforms field.
func (m *Model) WithExactWaveforms(exact bool) *Model {
	cp := *m
	cp.ExactWaveforms = exact
	return &cp
}

// NewModel creates a model with default iteration controls, taking
// Vdd from the circuit's library.
func NewModel(c *circuit.Circuit) *Model {
	return &Model{
		C: c, Vdd: c.Lib.Vdd, MaxIterations: 32, Tol: 1e-6,
		fixPool: &sync.Pool{New: func() any { return new(fixpoint) }},
	}
}

// Pulse describes the triangular noise pulse one coupling injects on a
// victim when the aggressor switches once.
type Pulse struct {
	Vp   float64 // peak voltage, V
	Rise float64 // time from pulse start to peak, ns
	Fall float64 // decay time from peak back to zero, ns
}

// PulseParams computes the noise pulse that coupling cp injects on
// victim when the aggressor side transitions with the given slew.
//
// The peak follows the standard linear (Thevenin driver + lumped RC)
// model: Vp = Vdd · (Rv·Cc/tr) · (1 − exp(−tr/τ)) with τ = Rv·(Cc+Cv),
// which saturates at the charge-sharing limit Vdd·Cc/(Cc+Cv) for fast
// aggressors. The pulse tracks the aggressor edge on the way up and
// decays with the victim RC constant.
func (m *Model) PulseParams(victim circuit.NetID, cp *circuit.Coupling, aggSlew float64) Pulse {
	rv := m.C.DriverRes(victim)
	cv := m.C.Net(victim).Cgnd + m.C.PinLoad(victim)
	tr := math.Max(aggSlew, 1e-3)
	vp, rEff := m.solvePeak(rv, cp.Cc, cv, tr)
	tau := cell.RC(rEff, cp.Cc+cv)
	return Pulse{
		Vp:   vp,
		Rise: tr / 2,
		Fall: math.Max(2*tau, 1e-3),
	}
}

// PulseAt returns the pulse waveform for an aggressor switching with
// its 50% crossing at time ta.
func (m *Model) PulseAt(victim circuit.NetID, cp *circuit.Coupling, aggSlew, ta float64) waveform.PWL {
	p := m.PulseParams(victim, cp, aggSlew)
	return waveform.TrianglePulse(ta-p.Rise, p.Rise, p.Fall, p.Vp)
}

// Envelope returns the trapezoidal noise envelope coupling cp induces
// on victim, given the aggressor's timing window: the pulse placed at
// the window's EAT and LAT with the peaks connected (paper Fig. 2).
func (m *Model) Envelope(victim circuit.NetID, cp *circuit.Coupling, aggWin sta.Window) waveform.PWL {
	p := m.PulseParams(victim, cp, aggWin.Slew)
	if p.Vp <= 0 {
		return waveform.Zero()
	}
	return waveform.Trapezoid(aggWin.EAT-p.Rise, p.Rise, aggWin.LAT, p.Fall, p.Vp)
}

// InfiniteEnvelope returns the envelope of coupling cp with an
// unbounded aggressor timing window, relative to the victim's own
// window: the flat top spans the victim's whole transition region.
// This is the construction the paper uses to upper-bound delay noise
// when computing the dominance interval.
func (m *Model) InfiniteEnvelope(victim circuit.NetID, cp *circuit.Coupling, victimWin sta.Window, aggSlew float64) waveform.PWL {
	p := m.PulseParams(victim, cp, aggSlew)
	if p.Vp <= 0 {
		return waveform.Zero()
	}
	span := 4*victimWin.Slew + p.Fall + 1.0
	start := victimWin.LAT - victimWin.Slew - span
	end := victimWin.LAT + span
	return waveform.Trapezoid(start-p.Rise, p.Rise, end, p.Fall, p.Vp)
}

// VictimRamp returns the noiseless latest victim transition: a rising
// saturated ramp with its 50% crossing at the window's LAT.
func (m *Model) VictimRamp(w sta.Window) waveform.PWL {
	return waveform.RisingRamp(w.LAT, math.Max(w.Slew, 1e-3), m.Vdd)
}

// DelayNoise returns the worst-case increase of the victim's t50 when
// the combined noise envelope env is superimposed on (subtracted from,
// for a rising victim) the latest victim transition.
func (m *Model) DelayNoise(victimWin sta.Window, env waveform.PWL) float64 {
	var s evalScratch
	return m.delayNoiseInto(victimWin, env, &s)
}

// delayNoiseInto is DelayNoise evaluated through a caller-owned
// scratch: the victim ramp is built in place and the ramp-minus-
// envelope subtraction reuses the scratch buffer, so the fixpoint hot
// path performs no steady-state allocation. The ramp points are
// exactly VictimRamp's (slew clamp included), and SubInto is
// point-identical to Sub, so the result matches the public DelayNoise
// bit for bit.
func (m *Model) delayNoiseInto(victimWin sta.Window, env waveform.PWL, s *evalScratch) float64 {
	if env.IsZero() {
		return 0
	}
	slew := math.Max(victimWin.Slew, 1e-3)
	s.ramp[0] = waveform.Point{T: victimWin.LAT - slew/2, V: 0}
	s.ramp[1] = waveform.Point{T: victimWin.LAT + slew/2, V: m.Vdd}
	var noisy waveform.PWL
	noisy, s.sub = waveform.SubInto(waveform.View(s.ramp[:]), env, s.sub)
	t, ok := noisy.LatestTimeAtOrBelow(m.Vdd / 2)
	if !ok {
		// Envelope holds the victim below threshold past its span;
		// the transition completes once the envelope decays.
		t = env.End()
	}
	d := t - victimWin.LAT
	if d < 0 {
		return 0
	}
	return d
}

// CombinedEnvelope sums the envelopes of the given couplings on the
// victim, using each aggressor's window from win.
func (m *Model) CombinedEnvelope(victim circuit.NetID, ids []circuit.CouplingID, win []sta.Window) waveform.PWL {
	var acc waveform.Accumulator
	for _, id := range ids {
		cp := m.C.Coupling(id)
		agg := cp.Other(victim)
		acc.Add(m.Envelope(victim, cp, win[agg]))
	}
	return acc.SumCopy()
}

// Analysis is the result of one noise-aware timing run.
type Analysis struct {
	// Base is the noiseless timing.
	Base *sta.Result
	// Timing is the converged noisy timing (windows include delay
	// noise in their LAT).
	Timing *sta.Result
	// NetNoise is each net's own worst-case delay noise at the
	// fixpoint (the ExtraLAT injected into Timing), indexed by NetID.
	NetNoise []float64
	// Iterations is the number of fixpoint iterations performed.
	Iterations int
	// Converged reports whether the fixpoint settled within tolerance.
	Converged bool

	// traj is the run's trajectory, which RunIncremental replays. It
	// is empty on an Analysis restored from a snapshot.
	traj trajectory
}

// ErrNotConverged is the sentinel every *NotConvergedError matches
// via errors.Is, so callers can test for non-convergence without
// caring about the iteration count it carries.
var ErrNotConverged = errors.New("noise: fixpoint did not converge")

// NotConvergedError is the typed non-convergence condition: the
// fixpoint exhausted its iteration cap before every net's noise
// settled within Tol. The analysis it annotates is still a sound
// lower bound (the ascent is monotone from below), just not proven
// stationary — callers decide whether that is degraded-but-usable or
// fatal.
type NotConvergedError struct {
	// Iterations is the number of sweeps performed (the cap).
	Iterations int
}

func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("noise: fixpoint did not converge within %d iterations", e.Iterations)
}

// Is makes errors.Is(err, ErrNotConverged) true for this type.
func (e *NotConvergedError) Is(target error) bool { return target == ErrNotConverged }

// CircuitDelay returns the noisy circuit delay.
func (a *Analysis) CircuitDelay() float64 { return a.Timing.CircuitDelay() }

// ConvergenceErr returns nil for a converged analysis and a typed
// *NotConvergedError otherwise — the query-visible form of the
// Converged flag.
func (a *Analysis) ConvergenceErr() error {
	if a.Converged {
		return nil
	}
	return &NotConvergedError{Iterations: a.Iterations}
}

// PropagatedShift returns the part of net n's latest-arrival shift
// that was inherited from its fanin rather than injected on n itself.
func (a *Analysis) PropagatedShift(n circuit.NetID) float64 {
	s := a.Timing.Window(n).LAT - a.Base.Window(n).LAT - a.NetNoise[n]
	if s < 0 {
		return 0
	}
	return s
}

// Run performs the iterative delay-noise/timing-window analysis with
// the given set of active couplings (nil mask = all active).
//
// The iteration starts from noiseless windows (the optimistic
// fixpoint start of [3],[5]); each pass recomputes the worst-case
// delay noise of every victim whose inputs moved, injects it into the
// victim's latest arrival through an incremental re-timing of the
// fanout cone, and repeats until no net's noise moves by more than
// Tol. Envelope widths grow monotonically with window widths, so the
// iteration is monotone and converges. After the first full sweep the
// engine evaluates only the dirty-victim worklist (see fixpoint),
// which is value-preserving: every skipped victim would recompute
// exactly the noise it already carries.
//
// Run does not mutate the model or the circuit and is safe to call
// concurrently; the returned Analysis is immutable shared data for
// every consumer that treats it as read-only (all packages here do).
func (m *Model) Run(active Mask) (*Analysis, error) { return m.RunBudget(nil, active) }

// RunCtx is Run honoring the context's cancellation and deadline: the
// fixpoint polls it at bounded granularity (per iteration and every
// budgetStride evaluations inside a sweep) and returns a typed
// early-stop error — no partially-committed sweep ever reaches an
// Analysis. The error unwraps to context.Canceled or
// context.DeadlineExceeded as appropriate.
func (m *Model) RunCtx(ctx context.Context, active Mask) (*Analysis, error) {
	return m.RunBudget(budget.New(ctx), active)
}

// RunBudget is the budget-carrying engine entry point RunCtx and the
// upper layers (core, serve) share; a nil budget runs unbounded. See
// Run for the analysis semantics.
func (m *Model) RunBudget(b *budget.B, active Mask) (*Analysis, error) {
	defer m.Obs.Span("noise.run").End()
	an, _, err := m.analyze(b, active, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	return an, nil
}

// analyze runs the fixpoint under active from the noiseless timing and
// records the run's trajectory on the returned Analysis. A non-nil
// prev, computed under prevMask, lends its noiseless timing (which
// does not depend on the mask) and its trajectory to replay. The int
// is the number of distinct victims the run evaluated rather than
// copied.
func (m *Model) analyze(b *budget.B, active Mask, prev *Analysis, prevMask Mask) (*Analysis, int, error) {
	opt := sta.Options{PIArrival: m.PIArrival}
	var base *sta.Result
	if prev != nil {
		base = prev.Base
	} else {
		var err error
		if base, err = sta.Analyze(m.C, opt); err != nil {
			return nil, 0, err
		}
	}
	// Adopt the noiseless timing instead of re-analyzing: a zero
	// ExtraLAT vector is bit-transparent to window propagation.
	inc, err := sta.NewIncrementalFrom(base, opt)
	if err != nil {
		return nil, 0, err
	}
	inc.Instrument(m.Obs)
	f := newFixpoint(m, active, inc, b)
	defer m.putFixpoint(f)
	if prev != nil {
		f.startReplay(&prev.traj, prevMask, active)
	}
	iters, converged, err := f.iterate()
	if err != nil {
		return nil, 0, err
	}
	an := &Analysis{
		Base:       base,
		Timing:     inc.Snapshot(),
		NetNoise:   append([]float64(nil), inc.ExtraLAT()...),
		Iterations: iters,
		Converged:  converged,
		traj:       f.rec.clone(),
	}
	evaluated := 0
	for _, e := range f.evaluated {
		if e {
			evaluated++
		}
	}
	return an, evaluated, nil
}

// activeCouplingsOf returns the active couplings incident on net v.
// With a nil (all-active) mask this is the circuit's own adjacency
// slice — shared, read-only, no allocation. Otherwise the filter
// appends into scratch (grown as needed) and returns it; callers that
// pass a reused scratch must consume the result before the next call.
func (m *Model) activeCouplingsOf(v circuit.NetID, active Mask, scratch []circuit.CouplingID) []circuit.CouplingID {
	all := m.C.CouplingsOf(v)
	if active == nil {
		return all
	}
	out := scratch[:0]
	for _, id := range all {
		if active.Active(id) {
			out = append(out, id)
		}
	}
	return out
}

// DelayUpperBound returns an upper bound on the delay noise of net v
// assuming every incident coupling has an infinite timing window; this
// bounds the dominance interval of the top-k algorithm.
func (m *Model) DelayUpperBound(v circuit.NetID, win []sta.Window) float64 {
	var acc waveform.Accumulator
	vw := win[v]
	for _, id := range m.C.CouplingsOf(v) {
		cp := m.C.Coupling(id)
		agg := cp.Other(v)
		acc.Add(m.InfiniteEnvelope(v, cp, vw, win[agg].Slew))
	}
	return m.DelayNoise(vw, acc.Sum())
}
