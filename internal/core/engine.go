package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topkagg/internal/bitset"
	"topkagg/internal/budget"
	"topkagg/internal/circuit"
	"topkagg/internal/faultinject"
	"topkagg/internal/noise"
	"topkagg/internal/obs"
	"topkagg/internal/sta"
	"topkagg/internal/waveform"
)

// mode distinguishes the two dual top-k problems.
type mode int

const (
	addition mode = iota
	elimination
)

// envTol is the simplification tolerance applied to combined
// envelopes; small compared to any meaningful noise voltage.
const envTol = 1e-9

// primAgg is one primary aggressor coupling of a victim, with its
// envelope expressed at that victim.
type primAgg struct {
	id    circuit.CouplingID
	env   waveform.PWL
	score float64
}

// prepared is the reusable, read-only state of one enumeration
// configuration (mode, target, options): noiseless timing, the
// all-aggressors fixpoint, victim selection, dominance intervals,
// primary-aggressor envelopes and the elimination scoring totals.
// Once built it is never mutated, so any number of engines — including
// engines running concurrently in different goroutines — can share
// one prepared instance.
type prepared struct {
	m    *noise.Model
	c    *circuit.Circuit
	opt  Options
	mode mode

	base *sta.Result     // noiseless timing
	full *noise.Analysis // all-aggressors fixpoint

	aggWin   []sta.Window  // windows used for primary envelopes
	target   circuit.NetID // optional single answer net (-1 = circuit outputs)
	victims  []circuit.NetID
	levels   [][]circuit.NetID // victims grouped by topological level
	isVictim []bool
	domLo    []float64
	domHi    []float64

	prim    map[circuit.NetID][]primAgg
	primIdx map[circuit.NetID]map[circuit.CouplingID]int
	// envc interns Rule-1 combined envelopes per (victim, parent set,
	// atom) so repeated derivations — elimination's second pass,
	// repeated queries and k-sweeps over one prepared state — reuse
	// the envelope and its score instead of re-summing and re-scoring.
	envc *envCache
	// Elimination scoring state, per victim: the total local
	// (primary-aggressor) envelope, the propagated-arrival shift of the
	// full noisy analysis, and the total arrival noise both together
	// produce.
	totalEnv  []waveform.PWL
	propShift []float64
	totalDN   []float64
}

// engine carries the mutable state of one top-k enumeration over a
// (possibly shared) prepared configuration.
type engine struct {
	*prepared

	bud *budget.B // cooperative stop; nil runs unbounded

	stats *Stats
	kstat *KStats // the cardinality currently being enumerated

	// atoms1 holds, per victim, the final cardinality-1 irredundant
	// list: the indivisible units ("aggressors" in the paper's sense —
	// primaries, pseudo singletons, single-coupling narrowings) used to
	// extend lower-cardinality sets.
	atoms1 map[circuit.NetID][]*aggSet

	prev map[circuit.NetID][]*aggSet // irredundant lists, cardinality i-1
	cur  map[circuit.NetID][]*aggSet // irredundant lists, cardinality i
	last map[circuit.NetID][]*aggSet // same-cardinality lists from the previous pass

	// Per-worker scratch, sized to nworkers once and recycled across
	// levels, passes and cardinalities: gens carries the waveform sum
	// buffer and envelope-cache tallies of the generation phase, prs
	// the digest slabs of the prune phase.
	nworkers  int
	gens      []genScratch
	prs       []pruner
	pruneHist *obs.Histogram // prune latency, resolved once (nil when disabled)
}

// genScratch is one generation worker's reusable state.
type genScratch struct {
	addBuf       []waveform.Point
	keyBuf       []byte          // rule-2 derivation-key assembly
	us           []circuit.NetID // rule-2 reached-input sort scratch
	hits, misses int             // envelope-cache lookups by this worker
}

// workers returns the enumeration worker count: Model.Workers when
// positive (the same knob the fixpoint sweeps honor, so WithWorkers
// pins the whole stack), else GOMAXPROCS.
func (p *prepared) workers() int {
	if p.m.Workers > 0 {
		return p.m.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// newPrepared runs the preparatory analyses: noiseless timing, the
// all-aggressor fixpoint, victim selection, dominance intervals and
// primary-aggressor envelopes. A non-nil full skips the fixpoint run
// and must be the result of m.Run(opt.Active) — the batch layer uses
// this to amortize the fixpoint across many preparations.
func newPrepared(m *noise.Model, opt Options, md mode, target circuit.NetID, full *noise.Analysis, bud *budget.B) (*prepared, error) {
	e := &prepared{m: m, c: m.C, opt: opt, mode: md, target: target, envc: newEnvCache()}
	if full == nil {
		var err error
		full, err = e.m.RunBudget(bud, e.opt.Active)
		if err != nil {
			return nil, err
		}
	}
	e.full = full
	e.base = full.Base
	if e.mode == addition {
		e.aggWin = e.base.Windows
	} else {
		e.aggWin = e.full.Timing.Windows
	}
	// The per-victim preparation loops (dominance bounds, primary
	// envelopes, elimination totals) are each linear passes; polling
	// the budget between them bounds a stopped preparation to one pass.
	e.selectVictims()
	if err := bud.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare: %w", err)
	}
	e.prepareDominanceIntervals()
	if err := bud.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare: %w", err)
	}
	e.preparePrimaries()
	if e.mode == elimination {
		if err := bud.Err(); err != nil {
			return nil, fmt.Errorf("core: prepare: %w", err)
		}
		e.prepareTotals()
	}
	return e, nil
}

// newEngine starts a fresh enumeration over the prepared state with
// the given budget (nil = unbounded). Each engine is single-use;
// concurrent runs each take their own.
func (p *prepared) newEngine(bud *budget.B) *engine {
	n := p.workers()
	e := &engine{
		prepared: p,
		bud:      bud,
		stats:    &Stats{},
		prev:     map[circuit.NetID][]*aggSet{},
		cur:      map[circuit.NetID][]*aggSet{},
		atoms1:   map[circuit.NetID][]*aggSet{},
		nworkers: n,
		gens:     make([]genScratch, n),
		prs:      make([]pruner, n),
	}
	for i := range e.prs {
		e.prs[i].exact = p.opt.ExactPrune
		e.prs[i].noDom = p.opt.NoDominance
		e.prs[i].width = p.opt.listWidth()
	}
	if reg := p.m.Obs; reg != nil {
		e.pruneHist = reg.Histogram("core.topk.prune_ns")
	}
	return e
}

// flushCacheStats merges the per-worker envelope-cache tallies into
// the run's Stats and the metric registry. Called once when the run
// ends (including early-stopped runs).
func (e *engine) flushCacheStats() {
	for i := range e.gens {
		e.stats.EnvCacheHits += e.gens[i].hits
		e.stats.EnvCacheMisses += e.gens[i].misses
		e.gens[i].hits, e.gens[i].misses = 0, 0
	}
	e.envc.hits.Add(int64(e.stats.EnvCacheHits))
	e.envc.misses.Add(int64(e.stats.EnvCacheMisses))
	if reg := e.m.Obs; reg != nil {
		reg.Counter("core.topk.envcache_hits").Add(int64(e.stats.EnvCacheHits))
		reg.Counter("core.topk.envcache_misses").Add(int64(e.stats.EnvCacheMisses))
	}
}

// vw returns the noiseless reference window of a victim: the
// transition the noise envelopes are superimposed on.
func (e *prepared) vw(v circuit.NetID) sta.Window { return e.base.Window(v) }

// selectVictims picks the nets on critical and near-critical paths:
// nets whose slack (required time minus latest arrival, measured on
// noiseless timing) is within SlackFrac of the circuit delay.
func (e *prepared) selectVictims() {
	margin := e.opt.slackFrac() * e.base.CircuitDelay()
	slacks := e.base.Slacks(0)
	var cone *bitset.Dense
	if e.target >= 0 {
		cone = bitset.Get(e.c.NumNets())
		defer bitset.Put(cone)
		e.c.FaninConeBits(e.target, cone, nil)
	}
	e.isVictim = make([]bool, e.c.NumNets())
	for _, v := range e.base.TopoOrder() {
		if e.opt.slackFrac() >= 1 || slacks[v] <= margin || (cone != nil && cone.Get(int(v))) {
			e.isVictim[v] = true
			e.victims = append(e.victims, v)
		}
	}
	// Group victims by topological level so each level's candidate
	// generation can run concurrently: a net's level is one past the
	// deepest of its driver's inputs, so all cross-level references
	// (fanin pseudo sets) resolve to already-completed levels.
	level := make([]int, e.c.NumNets())
	for _, n := range e.base.TopoOrder() {
		d := e.c.Net(n).Driver
		if d == circuit.NoGate {
			level[n] = 0
			continue
		}
		l := 0
		for _, in := range e.c.Gate(d).Inputs {
			if level[in] >= l {
				l = level[in] + 1
			}
		}
		level[n] = l
	}
	maxL := 0
	for _, v := range e.victims {
		if level[v] > maxL {
			maxL = level[v]
		}
	}
	e.levels = make([][]circuit.NetID, maxL+1)
	for _, v := range e.victims {
		e.levels[level[v]] = append(e.levels[level[v]], v)
	}
}

// prepareDominanceIntervals computes, per victim, the interval over
// which envelope encapsulation must hold for dominance: from the
// noiseless victim t50 to an upper bound obtained by assuming infinite
// aggressor timing windows (paper Section 3.2), padded by the
// propagated-noise headroom.
func (e *prepared) prepareDominanceIntervals() {
	n := e.c.NumNets()
	e.domLo = make([]float64, n)
	e.domHi = make([]float64, n)
	for _, v := range e.victims {
		w := e.vw(v)
		ub := e.m.DelayUpperBound(v, e.aggWin)
		prop := e.full.Timing.Window(v).LAT - e.base.Window(v).LAT
		e.domLo[v] = w.LAT
		e.domHi[v] = w.LAT + ub + prop + w.Slew + 0.1
	}
}

// preparePrimaries builds, per victim, the envelope of each incident
// coupling, sorted by the delay noise it alone would cause.
func (e *prepared) preparePrimaries() {
	e.prim = make(map[circuit.NetID][]primAgg, len(e.victims))
	e.primIdx = make(map[circuit.NetID]map[circuit.CouplingID]int, len(e.victims))
	for _, v := range e.victims {
		ids := e.c.CouplingsOf(v)
		if len(ids) == 0 {
			continue
		}
		list := make([]primAgg, 0, len(ids))
		for _, id := range ids {
			if !e.opt.Active.Active(id) {
				continue
			}
			cp := e.c.Coupling(id)
			env := e.m.Envelope(v, cp, e.aggWin[cp.Other(v)])
			list = append(list, primAgg{id: id, env: env, score: e.m.DelayNoise(e.vw(v), env)})
		}
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].score != list[j].score {
				return list[i].score > list[j].score
			}
			return list[i].id < list[j].id
		})
		e.prim[v] = list
		idx := make(map[circuit.CouplingID]int, len(list))
		for i, pa := range list {
			idx[pa.id] = i
		}
		e.primIdx[v] = idx
	}
}

// primEnvOf returns the primary envelope of coupling id at victim v
// and whether id is a primary aggressor of v.
func (e *prepared) primEnvOf(v circuit.NetID, id circuit.CouplingID) (waveform.PWL, bool) {
	i, ok := e.primIdx[v][id]
	if !ok {
		return waveform.PWL{}, false
	}
	return e.prim[v][i].env, true
}

// prepareTotals builds, for the elimination problem, each victim's
// total local envelope (the sum of all primary envelopes with noisy
// windows), the arrival shift propagated from its fanin, and the
// total arrival noise both produce together. Candidate sets are scored
// by how much of this total their removal takes away.
func (e *prepared) prepareTotals() {
	n := e.c.NumNets()
	e.totalEnv = make([]waveform.PWL, n)
	e.propShift = make([]float64, n)
	e.totalDN = make([]float64, n)
	for _, v := range e.victims {
		env := waveform.Zero()
		for _, pa := range e.prim[v] {
			env = waveform.Add(env, pa.env)
		}
		e.totalEnv[v] = env.Simplify(envTol)
		e.propShift[v] = e.full.PropagatedShift(v)
		e.totalDN[v] = e.m.DelayNoise(e.vw(v), e.withProp(v, e.totalEnv[v], 0))
	}
}

// withProp combines a local envelope with the victim's propagated
// pseudo envelope after reducing the propagated shift by the
// candidate's inherited reduction. Shifts do not superpose linearly as
// envelopes, which is why they are applied here rather than
// subtracted pointwise.
func (e *prepared) withProp(v circuit.NetID, local waveform.PWL, shiftReduction float64) waveform.PWL {
	p := e.propShift[v] - shiftReduction
	if p <= waveform.Eps {
		return local
	}
	return waveform.Add(local, e.pseudoEnvelope(v, p))
}

// pseudoEnvelope models a shift of the victim's own transition by dt
// as a noise envelope: the difference between the noiseless transition
// and the same transition delayed by dt (paper Section 3.1).
func (e *prepared) pseudoEnvelope(v circuit.NetID, dt float64) waveform.PWL {
	r := e.m.VictimRamp(e.vw(v))
	return waveform.Sub(r, r.Shift(dt))
}

// scoreSet evaluates a candidate at victim v according to the mode:
// the delay noise its local envelope adds (addition), or the arrival
// reduction its removal recovers (elimination), combining the local
// envelope removal with the inherited propagated-shift reduction.
func (e *prepared) scoreSet(v circuit.NetID, env waveform.PWL, shift float64) float64 {
	if e.mode == addition {
		return e.m.DelayNoise(e.vw(v), env)
	}
	remaining := waveform.Sub(e.totalEnv[v], env).ClampMin(0)
	return e.totalDN[v] - e.m.DelayNoise(e.vw(v), e.withProp(v, remaining, shift))
}

// propagateShift converts a latest-arrival shift dt at input net u
// into the resulting output-arrival shift at net v, accounting for
// masking by the other inputs of the driving gate. win supplies the
// arrival times (noiseless for addition, noisy for elimination).
//
// For elimination, sibling inputs mask with their *noiseless* arrivals
// rather than their current noisy ones: a removal set typically fixes
// couplings across the whole fanin cone, so the reachable joint
// reduction is bounded by where the siblings would land once their own
// noise is also fixed. Masking against noisy siblings would freeze the
// enumeration at the first reconvergence.
func (e *prepared) propagateShift(u, v circuit.NetID, dt float64, win []sta.Window) float64 {
	g := e.c.Gate(e.c.Net(v).Driver)
	load := e.c.LoadCap(v)
	oldMax, newMax := math.Inf(-1), math.Inf(-1)
	for _, in := range g.Inputs {
		arr := win[in].LAT + g.Cell.Delay(load, win[in].Slew)
		if arr > oldMax {
			oldMax = arr
		}
		if in == u {
			if e.mode == addition {
				arr += dt
			} else {
				arr -= dt
			}
		}
		if arr > newMax {
			newMax = arr
		}
	}
	var shift float64
	if e.mode == addition {
		shift = newMax - oldMax
	} else {
		shift = oldMax - newMax
	}
	if shift < 0 {
		return 0
	}
	if e.mode == elimination && shift > dt {
		shift = dt
	}
	return shift
}

// propagateShiftMulti converts simultaneous latest-arrival reductions
// on several inputs of v's driver (red, by input net) into the joint
// output-arrival reduction. Inputs without a reduction mask with their
// noiseless arrivals, consistent with propagateShift's elimination
// convention.
func (e *prepared) propagateShiftMulti(v circuit.NetID, red map[circuit.NetID]float64, win []sta.Window) float64 {
	g := e.c.Gate(e.c.Net(v).Driver)
	load := e.c.LoadCap(v)
	oldMax, newMax := math.Inf(-1), math.Inf(-1)
	maxRed := 0.0
	for _, in := range g.Inputs {
		arr := win[in].LAT + g.Cell.Delay(load, win[in].Slew)
		if arr > oldMax {
			oldMax = arr
		}
		if r, ok := red[in]; ok {
			arr -= r
			if r > maxRed {
				maxRed = r
			}
		} else {
			arr = e.base.Window(in).LAT + g.Cell.Delay(load, e.base.Window(in).Slew)
		}
		if arr > newMax {
			newMax = arr
		}
	}
	shift := oldMax - newMax
	if shift < 0 {
		return 0
	}
	if shift > maxRed {
		shift = maxRed
	}
	return shift
}

// The cardinality-i candidate list for victim v is built by the
// paper's three rules: extension of lower-cardinality sets by primary
// aggressors (rule1Range, chunkable across workers), pseudo input
// aggressors propagated from the fanin, and higher-order aggressors
// (primaries with windows widened by their own aggressors) — the
// latter two in rules23. iterate concatenates the pieces in rule
// order, so the combined list is identical to one serial pass.

// rule1Count returns how many generation units rule 1 iterates for
// victim v at cardinality i: the primaries for i == 1, the
// previous-cardinality irredundant list otherwise. Chunking splits
// this range.
func (e *engine) rule1Count(v circuit.NetID, i int) int {
	if i == 1 {
		return len(e.prim[v])
	}
	return len(e.prev[v])
}

// rule1Range appends to dst the rule-1 candidates of generation units
// [lo, hi): singletons, or extensions of I-list_{i-1} by one more
// cardinality-1 aggressor unit (a primary, a pseudo singleton or — in
// elimination — a single-coupling narrowing; see atoms1). Extensions
// go through the prepared state's envelope intern table: a hit reuses
// the combined envelope and score outright; a miss sums parent and
// atom into the worker's scratch buffer, simplifies, and publishes the
// (immutable) result for every later derivation of the same extension.
func (e *engine) rule1Range(v circuit.NetID, i, lo, hi int, sc *genScratch, dst []*aggSet) []*aggSet {
	if i == 1 {
		for _, pa := range e.prim[v][lo:hi] {
			// pa.score is the raw delay noise of the primary alone;
			// the candidate score must be mode-aware (for elimination,
			// the *reduction* achieved by removing it).
			dst = append(dst, &aggSet{
				ids:   []circuit.CouplingID{pa.id},
				env:   pa.env,
				score: e.scoreSet(v, pa.env, 0),
			})
		}
		return dst
	}
	ext := e.atoms1[v]
	if n := e.opt.extend(); len(ext) > n {
		ext = ext[:n]
	}
	for _, s := range e.prev[v][lo:hi] {
		pkey := s.key() // memoized by the pass that built prev
		for _, a := range ext {
			id := a.ids[0]
			if s.contains(id) {
				continue
			}
			k := envKey{kind: 1, v: v, parent: pkey, atom: id}
			ent, ok := e.envc.get(k)
			if ok {
				sc.hits++
			} else {
				sc.misses++
				shift := s.shift + a.shift
				sum, buf := waveform.AddInto(s.env, a.env, sc.addBuf)
				sc.addBuf = buf
				env := sum.Simplify(envTol)
				if len(buf) <= 2 {
					// Simplify returns its input unchanged at two points
					// or fewer; the cache must own its envelope, not view
					// the scratch buffer.
					env = env.Clone()
				}
				ent = &aggSet{
					ids:   s.withID(id),
					env:   env,
					shift: shift,
					score: e.scoreSet(v, env, shift),
				}
				ent.key() // materialize before the set is shared
				e.envc.put(k, ent)
			}
			dst = append(dst, ent)
		}
	}
	return dst
}

// rules23 appends victim v's rule-2 and rule-3 candidates to dst.
func (e *engine) rules23(v circuit.NetID, i int, sc *genScratch, dst []*aggSet) []*aggSet {
	cands := dst

	// Rule 2: pseudo input aggressors of cardinality i, propagated
	// from the fanin nets (already processed this iteration because
	// victims run in topological order).
	if !e.opt.NoPseudo {
		if d := e.c.Net(v).Driver; d != circuit.NoGate {
			win := e.base.Windows
			if e.mode == elimination {
				win = e.full.Timing.Windows
			}
			// One set can reach v through several inputs at once (a
			// coupling attacking both sides of a reconvergence); in the
			// elimination problem its arrival reductions then combine
			// at the gate, so per-input reductions are gathered first
			// and propagated jointly.
			type reach struct {
				s   *aggSet
				red map[circuit.NetID]float64
			}
			byKey := map[string]*reach{}
			var order []string
			for _, u := range e.c.Gate(d).Inputs {
				if !e.isVictim[u] {
					continue
				}
				list := e.cur[u]
				if len(list) == 0 {
					list = e.last[u]
				}
				for _, s := range list {
					if s.score <= waveform.Eps {
						continue
					}
					k := s.key()
					r, ok := byKey[k]
					if !ok {
						r = &reach{s: s, red: map[circuit.NetID]float64{}}
						byKey[k] = r
						order = append(order, k)
					}
					if s.score > r.red[u] {
						r.red[u] = s.score
					}
				}
			}
			for _, k := range order {
				r := byKey[k]
				var shift float64
				if e.mode == addition || len(r.red) == 1 {
					// Single path (or additive noise, where the worst
					// single path dominates): classic propagation.
					for u, red := range r.red {
						if sh := e.propagateShift(u, v, red, win); sh > shift {
							shift = sh
						}
					}
				} else {
					shift = e.propagateShiftMulti(v, r.red, win)
				}
				if shift <= waveform.Eps {
					continue
				}
				s := r.s
				// The candidate is a pure function of the derivation:
				// upstream set, each reached input with its exact
				// reduction bits (they select the viaInput exclusions
				// below and produced the shift), and the shift itself —
				// so it interns like the other rules. The key serializes
				// the reductions in input order for determinism.
				buf := append(sc.keyBuf[:0], k...)
				us := sc.us[:0]
				for u := range r.red {
					us = append(us, u)
				}
				slices.Sort(us)
				for _, u := range us {
					buf = append(buf, '|')
					buf = strconv.AppendInt(buf, int64(u), 10)
					buf = append(buf, ':')
					buf = strconv.AppendUint(buf, math.Float64bits(r.red[u]), 16)
				}
				sc.keyBuf, sc.us = buf, us
				ck := envKey{kind: 2, v: v, parent: string(buf), aux: math.Float64bits(shift)}
				cand, ok := e.envc.get(ck)
				if ok {
					sc.hits++
				} else {
					sc.misses++
					// Members of the upstream set that also couple v
					// directly contribute their primary envelopes here as
					// well (unless the "aggressor" is a fanin net whose
					// effect the propagated shift already carries).
					env := waveform.Zero()
					for _, id := range s.ids {
						if pe, ok := e.primEnvOf(v, id); ok {
							if _, viaInput := r.red[e.c.Coupling(id).Other(v)]; !viaInput {
								env = waveform.Add(env, pe)
							}
						}
					}
					if e.mode == addition {
						// Additive noise propagates as a pseudo noise
						// envelope superimposed on the victim.
						env = waveform.Add(env, e.pseudoEnvelope(v, shift)).Simplify(envTol)
						cand = &aggSet{ids: copyIDs(s.ids), env: env, score: e.scoreSet(v, env, 0)}
					} else {
						// Arrival reductions are carried as an explicit
						// shift; only direct envelopes stay local.
						env = env.Simplify(envTol)
						cand = &aggSet{ids: copyIDs(s.ids), env: env, shift: shift,
							score: e.scoreSet(v, env, shift)}
					}
					cand.key() // materialize before the set is shared
					e.envc.put(ck, cand)
				}
				cands = append(cands, cand)
			}
		}
	}

	// Rule 3: higher-order aggressors.
	cands = append(cands, e.higherOrder(v, i, sc)...)
	return cands
}

// higherOrder produces cardinality-i sets in which a primary
// aggressor's timing window is modified by the aggressor net's own
// top sets: widened for addition (the indirect-aggressor effect of
// paper Fig. 1), narrowed for elimination (fixing an indirect
// aggressor shrinks the primary's envelope).
//
// Each derivation is a pure function of (victim, widening set T,
// primary, T's score) given the prepared model, so results are
// interned in the envelope cache alongside rule-1 extensions; the aux
// field carries T's score bits, which both disambiguates from rule-1
// entries at the same (parent, atom) and captures the score's effect
// on the window. Elimination derivations whose removable envelope
// vanishes intern a nil sentinel so the recompute is skipped too.
func (e *engine) higherOrder(v circuit.NetID, i int, sc *genScratch) []*aggSet {
	var out []*aggSet
	lim := e.opt.higherOrder()
	for _, pa := range e.prim[v] {
		g := e.c.Coupling(pa.id).Other(v)
		if !e.isVictim[g] {
			continue
		}
		switch e.mode {
		case addition:
			if i < 2 {
				continue
			}
			// {primary} ∪ T, |T| = i-1: T's noise on the aggressor net
			// widens the aggressor window and thus the envelope on v.
			lists := e.prev[g]
			taken := 0
			for _, t := range lists {
				if taken >= lim {
					break
				}
				if t.score <= waveform.Eps || t.contains(pa.id) {
					continue
				}
				k := envKey{kind: 3, v: v, parent: t.key(), atom: pa.id, aux: math.Float64bits(t.score)}
				ent, ok := e.envc.get(k)
				if ok {
					sc.hits++
				} else {
					sc.misses++
					wid := e.aggWin[g]
					wid.LAT += t.score
					env := e.m.Envelope(v, e.c.Coupling(pa.id), wid)
					// Members of T that also couple v directly add their
					// own primary envelopes at v.
					for _, id := range t.ids {
						if pe, ok := e.primEnvOf(v, id); ok {
							env = waveform.Add(env, pe)
						}
					}
					env = env.Simplify(envTol)
					ent = &aggSet{
						ids:   t.withID(pa.id),
						env:   env,
						score: e.scoreSet(v, env, 0),
					}
					ent.key() // materialize before the set is shared
					e.envc.put(k, ent)
				}
				out = append(out, ent)
				taken++
			}
		case elimination:
			// T alone, |T| = i: removing T narrows the aggressor's
			// noisy window; the removable part of the primary envelope
			// is the difference between wide and narrowed envelopes.
			lists := e.cur[g]
			if len(lists) == 0 {
				lists = e.last[g]
			}
			taken := 0
			for _, t := range lists {
				if taken >= lim {
					break
				}
				if t.score <= waveform.Eps || t.contains(pa.id) {
					continue
				}
				k := envKey{kind: 3, v: v, parent: t.key(), atom: pa.id, aux: math.Float64bits(t.score)}
				ent, ok := e.envc.get(k)
				if ok {
					sc.hits++
				} else {
					sc.misses++
					nar := e.aggWin[g]
					nar.LAT -= t.score
					if nar.LAT < nar.EAT {
						nar.LAT = nar.EAT
					}
					envNar := e.m.Envelope(v, e.c.Coupling(pa.id), nar)
					env := waveform.Sub(pa.env, envNar).ClampMin(0)
					// Members of T that couple v directly are themselves
					// removed, taking their whole primary envelope with
					// them.
					for _, id := range t.ids {
						if pe, ok := e.primEnvOf(v, id); ok {
							env = waveform.Add(env, pe)
						}
					}
					env = env.Simplify(envTol)
					if env.IsZero() {
						e.envc.put(k, nil) // remembered as "removes nothing"
					} else {
						ent = &aggSet{
							ids:   copyIDs(t.ids),
							env:   env,
							score: e.scoreSet(v, env, 0),
						}
						ent.key()
						e.envc.put(k, ent)
					}
				}
				if ent == nil {
					continue
				}
				out = append(out, ent)
				taken++
			}
		}
	}
	return out
}

// genJob is one unit of the generation phase: a rule-1 chunk of one
// victim's parent range, or the victim's rule-2/rule-3 job.
type genJob struct {
	vi      int // victim index within the level
	lo, hi  int // rule-1 generation-unit range
	rules23 bool
	out     []*aggSet
}

// iterate computes the cardinality-i irredundant list of every victim
// in one topological pass. Same-cardinality lookups that miss (the
// referenced net comes later in topological order) fall back to
// e.last, the previous pass of the same cardinality.
//
// Each level runs in two parallel phases over the engine's worker
// pool. Phase A generates candidates: every victim contributes one
// rule-2/3 job plus one or more rule-1 chunks — the parent range is
// split only when the level has fewer victims than workers, so a
// single deep victim (the per-net target cone) still feeds the whole
// pool. Phase B dedupes, sorts and prunes per victim. Both phases
// land results in order-indexed slots and merge serially, so lists
// and stats are byte-identical for any worker count or chunking.
//
// The pass stops early — returning a typed error and leaving e.cur
// unusable — when the budget trips (each victim's raw candidate count
// is charged as work; generation workers additionally poll
// cancellation between jobs) or a level worker panics; panics are
// recovered at the goroutine boundary so a crashed worker never takes
// down the process or other queries sharing the prepared state.
func (e *engine) iterate(i int) error {
	e.cur = make(map[circuit.NetID][]*aggSet, len(e.victims))
	if ks := e.kstat; ks != nil {
		// Each pass rebuilds every list, so the width figures describe
		// the pass that last completed; the drop counters accumulate.
		ks.Lists, ks.MaxIListWidth = 0, 0
	}
	workers := e.nworkers
	for _, lvl := range e.levels {
		if len(lvl) == 0 {
			continue
		}
		if err := e.bud.Err(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		// Same-level victims never read each other's current lists
		// (cross-references fall back to e.last), so their generation
		// and pruning can run concurrently.
		per := 1
		if len(lvl) < workers {
			per = (workers + len(lvl) - 1) / len(lvl)
			if per > 8 {
				per = 8
			}
		}
		jobs := make([]genJob, 0, len(lvl)*(per+1))
		firstJob := make([]int, len(lvl)+1)
		for j, v := range lvl {
			firstJob[j] = len(jobs)
			n := e.rule1Count(v, i)
			c := per
			if c > n {
				c = n
			}
			for q := 0; q < c; q++ {
				jobs = append(jobs, genJob{vi: j, lo: n * q / c, hi: n * (q + 1) / c})
			}
			jobs = append(jobs, genJob{vi: j, rules23: true})
		}
		firstJob[len(lvl)] = len(jobs)

		var panicked atomic.Pointer[budget.PanicError]
		trap := func(wg *sync.WaitGroup) func() {
			return func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, budget.NewPanicError("core.topk", r))
				}
				wg.Done()
			}
		}

		// Phase A: candidate generation.
		var wgA sync.WaitGroup
		var nextA atomic.Int64
		na := min(workers, len(jobs))
		for w := 0; w < na; w++ {
			wgA.Add(1)
			go func(sc *genScratch) {
				defer trap(&wgA)()
				for {
					jn := int(nextA.Add(1) - 1)
					if jn >= len(jobs) || panicked.Load() != nil {
						return
					}
					// Work is charged per victim in phase B; polling here
					// keeps cancellation latency bounded by one job.
					if e.bud.Err() != nil {
						return
					}
					jb := &jobs[jn]
					v := lvl[jb.vi]
					if jb.rules23 {
						jb.out = e.rules23(v, i, sc, nil)
					} else {
						jb.out = e.rule1Range(v, i, jb.lo, jb.hi, sc, nil)
					}
				}
			}(&e.gens[w])
		}
		wgA.Wait()
		if pe := panicked.Load(); pe != nil {
			return fmt.Errorf("core: %w", pe)
		}
		if err := e.bud.Err(); err != nil {
			return fmt.Errorf("core: %w", err)
		}

		// Phase B: per-victim dedupe, sort and digest-prefiltered prune.
		type out struct {
			atoms, kept []*aggSet
			cands, dups int
			pc          pruneCounts
		}
		outs := make([]out, len(lvl))
		var wgB sync.WaitGroup
		var nextB atomic.Int64
		nb := min(workers, len(lvl))
		for w := 0; w < nb; w++ {
			wgB.Add(1)
			go func(pr *pruner) {
				defer trap(&wgB)()
				for {
					j := int(nextB.Add(1) - 1)
					if j >= len(lvl) || panicked.Load() != nil {
						return
					}
					faultinject.Fire(faultinject.SiteCoreVictim)
					v := lvl[j]
					// The victim's raw candidates, jobs concatenated in
					// (victim, chunk) order — the serial generation order.
					raw := jobs[firstJob[j]].out
					if nj := firstJob[j+1] - firstJob[j]; nj > 1 {
						nraw := len(raw)
						for jn := firstJob[j] + 1; jn < firstJob[j+1]; jn++ {
							nraw += len(jobs[jn].out)
						}
						if nraw > len(raw) {
							raw = make([]*aggSet, 0, nraw)
							for jn := firstJob[j]; jn < firstJob[j+1]; jn++ {
								raw = append(raw, jobs[jn].out...)
							}
						}
					}
					// One unit of work per candidate set scored; the
					// charge also polls cancellation, so stopping
					// latency is bounded by one victim's candidates.
					if e.bud.Charge(int64(len(raw))) != nil {
						return
					}
					cands := dedupe(raw)
					outs[j].cands = len(raw)
					outs[j].dups = len(raw) - len(cands)
					// Drop candidates that did not reach the requested
					// cardinality (duplicate-extension artifacts).
					filtered := cands[:0]
					for _, c := range cands {
						if len(c.ids) == i {
							filtered = append(filtered, c)
						}
					}
					sortByScore(filtered)
					if i == 1 {
						// The cardinality-1 units are the extension
						// alphabet for rule 1 at higher cardinalities.
						// They are recorded before pruning: Theorem 1
						// justifies dropping a dominated set Q from the
						// I-list only for extensions by aggressors
						// outside the dominating set P, so Q must stay
						// available as an *extension* of sets containing
						// members of P.
						outs[j].atoms = filtered
					}
					pr.lo, pr.hi = e.domLo[v], e.domHi[v]
					var t0 time.Time
					if e.pruneHist != nil {
						t0 = time.Now()
					}
					outs[j].kept, outs[j].pc = pr.prune(filtered)
					if e.pruneHist != nil {
						e.pruneHist.Observe(int64(time.Since(t0)))
					}
				}
			}(&e.prs[w])
		}
		wgB.Wait()
		if pe := panicked.Load(); pe != nil {
			return fmt.Errorf("core: %w", pe)
		}
		if err := e.bud.Err(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		for j, v := range lvl {
			if i == 1 {
				e.atoms1[v] = outs[j].atoms
			}
			e.cur[v] = outs[j].kept
			if ks := e.kstat; ks != nil {
				ks.Candidates += outs[j].cands
				ks.Duplicates += outs[j].dups
				ks.PrunedDominance += outs[j].pc.dom
				ks.PrunedBeam += outs[j].pc.beam
				ks.DigestHits += outs[j].pc.digestHits
				ks.DigestFallbacks += outs[j].pc.digestFallbacks
				if w := len(outs[j].kept); w > 0 {
					ks.Lists++
					if w > ks.MaxIListWidth {
						ks.MaxIListWidth = w
					}
				}
			}
		}
	}
	return nil
}

// advance produces the final cardinality-i lists. Elimination runs two
// passes so that higher-order references to nets later in topological
// order resolve; addition's cross-references (prev-cardinality lists)
// are already complete after one pass.
func (e *engine) advance(i int) error {
	passes := 1
	if e.mode == elimination {
		passes = 2
	}
	e.last = nil
	for p := 0; p < passes; p++ {
		if err := e.iterate(i); err != nil {
			return err
		}
		e.last = e.cur
	}
	e.last = nil
	e.prev = e.cur
	return nil
}

// bestAt returns the best cardinality-i set over the primary outputs'
// current lists together with its estimated circuit delay. The
// estimate accounts for the other outputs: adding noise at one output
// cannot lower the circuit delay below the noiseless maximum, and
// removing noise at one output cannot lower it below the remaining
// outputs' noisy arrivals.
func (e *engine) bestAt(pos []circuit.NetID) (*aggSet, circuit.NetID, float64, bool) {
	var best *aggSet
	var bestPO circuit.NetID
	bestEst := 0.0
	bestRaw := 0.0
	for _, po := range pos {
		if !e.isVictim[po] {
			continue
		}
		for _, s := range e.cur[po] {
			est, raw := e.estimate(po, pos, s.score)
			better := false
			switch {
			case best == nil:
				better = true
			case e.mode == addition:
				better = est > bestEst+waveform.Eps ||
					(est > bestEst-waveform.Eps && raw > bestRaw+waveform.Eps)
			default:
				better = est < bestEst-waveform.Eps ||
					(est < bestEst+waveform.Eps && raw < bestRaw-waveform.Eps)
			}
			if better {
				best, bestPO, bestEst, bestRaw = s, po, est, raw
			}
		}
	}
	return best, bestPO, bestEst, best != nil
}

// estimate converts a set's score at output po into an estimated
// circuit delay (and the raw per-output figure used for tie-breaks).
func (e *prepared) estimate(po circuit.NetID, pos []circuit.NetID, score float64) (est, raw float64) {
	if e.mode == addition {
		raw = e.base.Window(po).LAT + score
		if e.target >= 0 {
			// Per-net analysis reports the net's own arrival, not the
			// circuit delay.
			return raw, raw
		}
		return math.Max(e.base.CircuitDelay(), raw), raw
	}
	raw = e.full.Timing.Window(po).LAT - score
	return math.Max(e.othersNoisyMax(po, pos), raw), raw
}

// extendChain grows the previous winning set by the strongest
// cardinality-1 unit at the same output that it does not already
// contain, yielding a valid candidate one cardinality up.
func (e *engine) extendChain(chain *aggSet, po circuit.NetID, pos []circuit.NetID) (*aggSet, circuit.NetID, float64, bool) {
	if chain == nil {
		return nil, 0, 0, false
	}
	for _, a := range e.atoms1[po] {
		id := a.ids[0]
		if chain.contains(id) {
			continue
		}
		env := waveform.Add(chain.env, a.env).Simplify(envTol)
		shift := chain.shift + a.shift
		s := &aggSet{ids: chain.withID(id), env: env, shift: shift,
			score: e.scoreSet(po, env, shift)}
		est, _ := e.estimate(po, pos, s.score)
		return s, po, est, true
	}
	// All local units are in the set already: pad with any other
	// coupling. A coupling with no effect at this output keeps the
	// score (and the estimate) exactly where it was, which is the best
	// a larger set can guarantee.
	for id := circuit.CouplingID(0); int(id) < e.c.NumCouplings(); id++ {
		if chain.contains(id) {
			continue
		}
		s := &aggSet{ids: chain.withID(id), env: chain.env, shift: chain.shift, score: chain.score}
		est, _ := e.estimate(po, pos, s.score)
		return s, po, est, true
	}
	return nil, 0, 0, false
}

// bestVerified gathers the strongest candidates at the targets (plus
// the chain extension), re-evaluates each with the incremental
// reference engine, and returns the one with the best *measured*
// circuit delay. Returns a nil set when no candidate exists.
func (e *engine) bestVerified(pos []circuit.NetID, chain *aggSet, chainPO circuit.NetID) (*aggSet, circuit.NetID, float64, error) {
	type cand struct {
		s   *aggSet
		po  circuit.NetID
		est float64
	}
	var cands []cand
	for _, po := range pos {
		if !e.isVictim[po] {
			continue
		}
		for _, s := range e.cur[po] {
			est, _ := e.estimate(po, pos, s.score)
			cands = append(cands, cand{s, po, est})
		}
	}
	// Several alternative chain extensions compete under verification:
	// the measured winner may extend by an atom the estimates rank low.
	if chain != nil {
		taken := 0
		for _, a := range e.atoms1[chainPO] {
			if taken >= e.opt.VerifyTop {
				break
			}
			if chain.contains(a.ids[0]) {
				continue
			}
			env := waveform.Add(chain.env, a.env).Simplify(envTol)
			shift := chain.shift + a.shift
			cs := &aggSet{ids: chain.withID(a.ids[0]), env: env, shift: shift,
				score: e.scoreSet(chainPO, env, shift)}
			est, _ := e.estimate(chainPO, pos, cs.score)
			cands = append(cands, cand{cs, chainPO, est})
			taken++
		}
	}
	if c, cpo, cest, cok := e.extendChain(chain, chainPO, pos); cok {
		cands = append(cands, cand{c, cpo, cest})
	}
	if len(cands) == 0 {
		return nil, 0, 0, nil
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if e.mode == addition {
			return cands[i].est > cands[j].est
		}
		return cands[i].est < cands[j].est
	})
	// Dedupe by set identity, then cap.
	seen := map[string]bool{}
	uniq := cands[:0]
	for _, c := range cands {
		k := c.s.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		uniq = append(uniq, c)
	}
	cands = uniq
	if len(cands) > 2*e.opt.VerifyTop {
		cands = cands[:2*e.opt.VerifyTop]
	}
	if e.kstat != nil {
		e.kstat.Verified += len(cands)
	}
	prevMask := e.opt.Active
	if prevMask == nil {
		prevMask = noise.AllMask(e.c)
	}
	var best *cand
	bestDelay := 0.0
	for i := range cands {
		c := &cands[i]
		// One unit of work per reference re-measurement; the budget
		// also threads into the measurement's own fixpoint, so a
		// deadline can stop a verification mid-run.
		if err := e.bud.Charge(1); err != nil {
			return nil, 0, 0, fmt.Errorf("core: verify: %w", err)
		}
		var mask noise.Mask
		if e.mode == addition {
			mask = noise.MaskOf(e.c, c.s.ids)
		} else {
			mask = prevMask.Clone()
			for _, id := range c.s.ids {
				mask[id] = false
			}
		}
		var (
			an  *noise.Analysis
			err error
		)
		if e.mode == elimination {
			an, _, err = e.m.RunIncrementalBudget(e.bud, e.full, prevMask, mask)
		} else {
			an, err = e.m.RunBudget(e.bud, mask)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		d := an.CircuitDelay()
		if e.target >= 0 {
			d = an.Timing.Window(e.target).LAT
		}
		if best == nil || (e.mode == addition && d > bestDelay) || (e.mode == elimination && d < bestDelay) {
			best, bestDelay = c, d
		}
	}
	return best.s, best.po, bestDelay, nil
}

// othersNoisyMax returns the largest noisy arrival over the outputs
// other than po.
func (e *prepared) othersNoisyMax(po circuit.NetID, pos []circuit.NetID) float64 {
	m := math.Inf(-1)
	for _, other := range pos {
		if other == po {
			continue
		}
		if l := e.full.Timing.Window(other).LAT; l > m {
			m = l
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// run executes the full enumeration up to cardinality k and returns
// the per-cardinality selections.
func (e *engine) run(k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	reg := e.m.Obs
	defer reg.Span("core.topk").End()
	defer e.flushCacheStats()
	if reg != nil {
		reg.Counter("core.topk.runs").Inc()
	}
	start := time.Now()
	res := &Result{
		K:         k,
		Victims:   len(e.victims),
		BaseDelay: e.base.CircuitDelay(),
		AllDelay:  e.full.CircuitDelay(),
		Stats:     e.stats,
	}
	if e.target >= 0 {
		// Per-net analysis: endpoints are the target's own arrivals.
		res.BaseDelay = e.base.Window(e.target).LAT
		res.AllDelay = e.full.Timing.Window(e.target).LAT
	}
	targets := e.targets()
	// stop converts an early-stop error into the partial-result
	// contract: cancellation, deadline and work exhaustion degrade to
	// whatever cardinalities completed (Partial + Stopped set, nil
	// error), while a recovered worker panic stays a hard typed error —
	// a crashed enumeration proves nothing about any cardinality.
	stop := func(err error) (*Result, error) {
		if budget.ReasonOf(err) == budget.WorkerPanic || !budget.IsStop(err) {
			return nil, err
		}
		res.Partial = true
		res.Stopped = err
		if reg != nil {
			reg.Counter("core.topk.partials").Inc()
		}
		return res, nil
	}
	// chain carries the best selection forward: extending the previous
	// winner by one more unit is always a valid cardinality-i set, so
	// the reported per-cardinality estimates never regress even when
	// beam pruning loses the previous winner's supersets.
	var chain *aggSet
	var chainPO circuit.NetID
	for i := 1; i <= k; i++ {
		e.kstat = &KStats{K: i}
		kStart := time.Now()
		if err := e.advance(i); err != nil {
			// The in-flight cardinality is discarded whole: PerK keeps
			// exactly the fully-enumerated prefix, so completed entries
			// are identical to an unbounded run's.
			res.Elapsed = time.Since(start)
			return stop(err)
		}
		s, po, est, ok := e.bestAt(targets)
		if c, cpo, cest, cok := e.extendChain(chain, chainPO, targets); cok {
			if !ok || (e.mode == addition && cest > est) || (e.mode == elimination && cest < est) {
				s, po, est, ok = c, cpo, cest, true
			}
		}
		if !ok {
			break // cardinality exceeds what the coupling graph offers
		}
		verified := false
		if e.opt.VerifyTop > 0 {
			vs, vpo, vest, err := e.bestVerified(targets, chain, chainPO)
			if err != nil {
				res.Elapsed = time.Since(start)
				return stop(err)
			}
			if vs != nil {
				s, po, est = vs, vpo, vest
				verified = true
			}
		}
		chain, chainPO = s, po
		e.kstat.Elapsed = time.Since(kStart)
		publishKStats(reg, e.kstat)
		e.stats.PerK = append(e.stats.PerK, *e.kstat)
		res.PerK = append(res.PerK, Selected{IDs: copyIDs(s.ids), Estimate: est, Delay: est, Verified: verified})
		res.ElapsedPerK = append(res.ElapsedPerK, time.Since(start))
	}
	res.Elapsed = time.Since(start)
	if !e.opt.NoRescore {
		rStart := time.Now()
		if err := e.rescore(res); err != nil {
			e.stats.RescoreElapsed = time.Since(rStart)
			// A stopped rescore leaves the un-measured tail flagged
			// Verified=false (heuristic estimates); the measured prefix
			// stands.
			return stop(err)
		}
		e.stats.RescoreElapsed = time.Since(rStart)
	}
	if reg != nil {
		reg.Counter("core.topk.rescore_runs").Add(int64(e.stats.RescoreRuns))
	}
	return res, nil
}

// targets returns the nets whose lists the final answer is read from:
// every primary output, since for addition any output can become
// critical and for elimination removal sets discovered on any output
// cone remain valid (their true effect is settled by rescoring).
func (e *prepared) targets() []circuit.NetID {
	if e.target >= 0 {
		return []circuit.NetID{e.target}
	}
	return e.c.POs()
}

// rescore re-evaluates every selected set with the reference iterative
// noise engine, replacing the enumeration's estimates by measured
// circuit delays. The curve is kept monotone: if a larger set measures
// worse than a smaller one (the enumeration's estimate was optimistic
// for it), the smaller set padded with an arbitrary extra coupling is
// the better cardinality-k answer — the reference model is monotone in
// the active-coupling mask, so padding can only help.
func (e *engine) rescore(res *Result) error {
	eval := func(ids []circuit.CouplingID) (float64, error) {
		if err := e.bud.Charge(1); err != nil {
			return 0, fmt.Errorf("core: rescore: %w", err)
		}
		e.stats.RescoreRuns++
		var (
			an  *noise.Analysis
			err error
		)
		if e.mode == addition {
			an, err = e.m.RunBudget(e.bud, noise.MaskOf(e.c, ids))
		} else {
			// An elimination set differs from the prepared fixpoint's
			// mask by a few couplings, so replaying its trajectory
			// copies most evaluations; the result is a cold run's.
			an, _, err = e.m.RunIncrementalBudget(e.bud, e.full, e.opt.Active, noise.WithoutMask(e.c, ids))
		}
		if err != nil {
			return 0, err
		}
		if e.target >= 0 {
			return an.Timing.Window(e.target).LAT, nil
		}
		return an.CircuitDelay(), nil
	}
	worse := func(d, prev float64) bool {
		if e.mode == addition {
			return d < prev
		}
		return d > prev
	}
	for i := range res.PerK {
		d, err := eval(res.PerK[i].IDs)
		if err != nil {
			return err
		}
		if i > 0 && worse(d, res.PerK[i-1].Delay) {
			padded := e.padIDs(res.PerK[i-1].IDs, len(res.PerK[i].IDs))
			pd, err := eval(padded)
			if err != nil {
				return err
			}
			if !worse(pd, d) {
				res.PerK[i].IDs = padded
				d = pd
			}
			// Guard against residual non-monotonicity from fixpoint
			// tolerance: never report a regression.
			if worse(d, res.PerK[i-1].Delay) {
				d = res.PerK[i-1].Delay
			}
		}
		res.PerK[i].Delay = d
		res.PerK[i].Verified = true
	}
	return nil
}

// padIDs extends ids to the requested cardinality with the
// lowest-numbered couplings not already present.
func (e *prepared) padIDs(ids []circuit.CouplingID, n int) []circuit.CouplingID {
	out := copyIDs(ids)
	present := make(map[circuit.CouplingID]bool, len(ids))
	for _, id := range ids {
		present[id] = true
	}
	for id := circuit.CouplingID(0); len(out) < n && int(id) < e.c.NumCouplings(); id++ {
		if !present[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopKAdditionAt computes the top-k addition sets for one designated
// victim net instead of the circuit outputs: which k couplings most
// delay this net's latest arrival. The net's full fanin cone is
// enumerated regardless of slack.
func TopKAdditionAt(m *noise.Model, net circuit.NetID, k int, opt Options) (*Result, error) {
	if int(net) < 0 || int(net) >= m.C.NumNets() {
		return nil, fmt.Errorf("core: no net %d in circuit %s", net, m.C.Name)
	}
	s, err := PrepareAddition(m, net, opt)
	if err != nil {
		return nil, err
	}
	return s.TopK(k)
}

// TopKEliminationAt computes the top-k elimination sets for one
// designated victim net: which k couplings to fix for the largest
// recovery of this net's noisy arrival.
func TopKEliminationAt(m *noise.Model, net circuit.NetID, k int, opt Options) (*Result, error) {
	if int(net) < 0 || int(net) >= m.C.NumNets() {
		return nil, fmt.Errorf("core: no net %d in circuit %s", net, m.C.Name)
	}
	s, err := PrepareElimination(m, net, opt)
	if err != nil {
		return nil, err
	}
	return s.TopK(k)
}

// TopKAddition computes, for every cardinality 1..k, the set of
// coupling capacitors whose activation adds the most circuit delay to
// the noiseless design (the paper's top-k aggressors addition set).
func TopKAddition(m *noise.Model, k int, opt Options) (*Result, error) {
	s, err := PrepareAddition(m, WholeCircuit, opt)
	if err != nil {
		return nil, err
	}
	return s.TopK(k)
}

// TopKElimination computes, for every cardinality 1..k, the set of
// coupling capacitors whose removal (shielding/spacing) recovers the
// most circuit delay from the fully noisy design (the paper's top-k
// aggressors elimination set).
func TopKElimination(m *noise.Model, k int, opt Options) (*Result, error) {
	s, err := PrepareElimination(m, WholeCircuit, opt)
	if err != nil {
		return nil, err
	}
	return s.TopK(k)
}

// TopKAdditionCtx is TopKAddition honoring the context's cancellation
// and deadline through both the preparation (fixpoint, envelopes) and
// the enumeration. A preparation stopped early returns a typed error;
// an enumeration stopped early returns a Partial result (see
// Result.Partial).
func TopKAdditionCtx(ctx context.Context, m *noise.Model, k int, opt Options) (*Result, error) {
	b := budget.New(ctx)
	s, err := prepareSharedB(b, m, nil, addition, WholeCircuit, opt)
	if err != nil {
		return nil, err
	}
	return s.TopKBudget(b, k)
}

// TopKEliminationCtx is TopKElimination honoring the context (see
// TopKAdditionCtx).
func TopKEliminationCtx(ctx context.Context, m *noise.Model, k int, opt Options) (*Result, error) {
	b := budget.New(ctx)
	s, err := prepareSharedB(b, m, nil, elimination, WholeCircuit, opt)
	if err != nil {
		return nil, err
	}
	return s.TopKBudget(b, k)
}

// TopKAdditionAtCtx is TopKAdditionAt honoring the context (see
// TopKAdditionCtx).
func TopKAdditionAtCtx(ctx context.Context, m *noise.Model, net circuit.NetID, k int, opt Options) (*Result, error) {
	b := budget.New(ctx)
	s, err := prepareSharedB(b, m, nil, addition, net, opt)
	if err != nil {
		return nil, err
	}
	return s.TopKBudget(b, k)
}

// TopKEliminationAtCtx is TopKEliminationAt honoring the context (see
// TopKAdditionCtx).
func TopKEliminationAtCtx(ctx context.Context, m *noise.Model, net circuit.NetID, k int, opt Options) (*Result, error) {
	b := budget.New(ctx)
	s, err := prepareSharedB(b, m, nil, elimination, net, opt)
	if err != nil {
		return nil, err
	}
	return s.TopKBudget(b, k)
}
