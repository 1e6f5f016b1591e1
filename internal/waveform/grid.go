package waveform

import (
	"math"
	"sync"
)

// This file holds the flat-grid kernel primitives: Trap, the
// closed-form trapezoid a noise envelope reduces to, and Grid, a
// fixed-step sampled upper-bound accumulator over a per-victim
// analysis window. Together they replace merged-PWL envelope algebra
// on the noise fixpoint's hot path: exact values come from Trap.At
// (bit-identical to evaluating the corresponding PWL), and the grid
// columns carry conservative per-cell maxima that let the kernel skip
// breakpoints of its crossing search without ever deciding a
// published number from a sampled value alone (DESIGN.md §12).

// Trap is a trapezoidal envelope in closed form: zero up to Q0,
// rising linearly to Vp at Q1, flat to Q2, falling linearly to zero
// at Q3, zero after. Q1 == Q2 encodes the collapsed (triangular)
// top. It represents exactly the breakpoints AppendTrapezoid emits,
// including the minimum-width clamps.
type Trap struct {
	Q0, Q1, Q2, Q3 float64
	Vp             float64
	// InvRise and InvFall are 1/(Q1−Q0) and 1/(Q3−Q2), precomputed so
	// grid accumulation runs division-free. Exact evaluation (At) keeps
	// the division — the reciprocal product can differ by an ulp, and
	// At is pinned bit-for-bit to the PWL segment expression.
	InvRise, InvFall float64
}

// NewTrap builds the closed form of Trapezoid(t0, rise, flatEnd,
// fall, vp) with identical edge clamping and flat-top collapse.
func NewTrap(t0, rise, flatEnd, fall, vp float64) Trap {
	if rise < minWidth {
		rise = minWidth
	}
	if fall < minWidth {
		fall = minWidth
	}
	peakStart := t0 + rise
	if flatEnd < peakStart {
		flatEnd = peakStart
	}
	q1, q2 := peakStart, flatEnd
	if flatEnd <= peakStart+Eps {
		// AppendTrapezoid merges the peak pair into one breakpoint at
		// the later time.
		q1 = math.Max(peakStart, flatEnd)
		q2 = q1
	}
	q3 := flatEnd + fall
	return Trap{Q0: t0, Q1: q1, Q2: q2, Q3: q3, Vp: vp,
		InvRise: 1 / (q1 - t0), InvFall: 1 / (q3 - q2)}
}

// NewTrapPre is NewTrap with the edge reciprocals precomputed by the
// caller — typically memoized alongside a pulse solve, where the rise
// and fall widths are stable while the window endpoints drift. The
// memoized values may differ from NewTrap's 1/(Q1−Q0) and 1/(Q3−Q2)
// by the ulp-level wobble breakpoint rounding introduces — about
// ulp(t0)/rise, i.e. ~2⁻³⁸ at nanosecond time scales with the
// minimum pulse widths the solver emits; they are accepted only when
// they multiply back against the realized breakpoint differences to 1
// within 2⁻³⁷, a slop gridPadFrac's pad certifiably absorbs (the
// grid-bound error is multiplicative in the bound itself, so the
// shortfall against At never exceeds ~Vp·2⁻³⁷).
// Exact evaluation (At) still divides by the breakpoint differences,
// so published values are unchanged. Clamped edges, collapsed flat
// tops and out-of-tolerance reciprocals fall back to NewTrap.
func NewTrapPre(t0, rise, flatEnd, fall, vp, invRise, invFall float64) Trap {
	peakStart := t0 + rise
	if rise >= minWidth && fall >= minWidth && flatEnd > peakStart+Eps {
		q3 := flatEnd + fall
		dr := invRise * (peakStart - t0)
		df := invFall * (q3 - flatEnd)
		if dr > 1-0x1p-37 && dr < 1+0x1p-37 && df > 1-0x1p-37 && df < 1+0x1p-37 {
			return Trap{Q0: t0, Q1: peakStart, Q2: flatEnd, Q3: q3, Vp: vp,
				InvRise: invRise, InvFall: invFall}
		}
	}
	return NewTrap(t0, rise, flatEnd, fall, vp)
}

// At evaluates the trapezoid at time t, bit-identical to
// Trapezoid(...).Value(t): the same segment interpolation expression
// (a.V + f·(b.V−a.V)) specialized to each piece, with constant-zero
// extension outside [Q0, Q3].
func (tr Trap) At(t float64) float64 {
	switch {
	case t <= tr.Q0 || t >= tr.Q3:
		return 0
	case t < tr.Q1:
		f := (t - tr.Q0) / (tr.Q1 - tr.Q0)
		return f * tr.Vp // 0 + f*(Vp-0)
	case t <= tr.Q2:
		return tr.Vp
	default:
		f := (t - tr.Q2) / (tr.Q3 - tr.Q2)
		return tr.Vp + f*(0-tr.Vp)
	}
}

// End returns the last breakpoint time Q3.
func (tr Trap) End() float64 { return tr.Q3 }

// MaxOn returns an upper bound on At over [a, b] that is exact in
// the At arithmetic: the rising and falling pieces are monotone under
// correctly-rounded float evaluation, so the piece endpoint value
// bounds every interior sample, and any interval meeting the flat top
// is bounded by Vp. (Assumes Vp >= 0; the noise engine never grids a
// non-positive peak.)
func (tr Trap) MaxOn(a, b float64) float64 {
	switch {
	case b <= tr.Q0 || a >= tr.Q3:
		return 0
	case a <= tr.Q2 && b >= tr.Q1:
		return tr.Vp
	case b < tr.Q1:
		return tr.At(b) // wholly inside the rising edge
	default:
		return tr.At(a) // wholly inside the falling edge
	}
}

// Grid is a fixed-step sampled upper-bound accumulator: Col[c] bounds
// the summed envelope value at every time that CellOf assigns to cell
// c. The per-cell contribution of each trapezoid is its maximum over
// the cell interval padded by one full step on both sides, which
// makes the bound robust against the at-most-ulp-level disagreement
// between CellOf's rounded cell assignment and the cell's geometric
// interval — a one-step pad against a sub-femtosecond slop.
//
// Flat-top spans — usually most of a trapezoid's footprint, since the
// top runs the length of the aggressor's switching window — are
// accumulated as O(1) range additions on a difference array and
// folded into the columns by Finalize, so adding a trapezoid costs
// per-cell work only on its rising and falling edges.
//
// Columns are pooled flat []float64 storage (GetGrid/PutGrid) reused
// across victims and sweeps.
type Grid struct {
	Lo, Hi float64
	Cells  int
	Col    []float64

	step, invStep float64
	diffA         []float64 // deferred range adds, constant term (Cells+1)
	diffB         []float64 // deferred range adds, per-cell slope term
	padAcc        float64   // Σ range magnitudes, scales Finalize's pad
}

// Reset re-targets the grid at the window [lo, hi] with the given
// cell count (rounded up to a power of two) and clears the deferred
// range additions. The columns themselves are assigned by Finalize.
func (g *Grid) Reset(lo, hi float64, cells int) {
	if cells < 1 {
		cells = 1
	}
	// Power-of-two cell counts keep windows of similar width on
	// identical layouts, so pooled columns stabilize at one size.
	p := 1
	for p < cells {
		p <<= 1
	}
	cells = p
	if !(hi > lo) {
		hi = lo + minWidth
	}
	g.Lo, g.Hi, g.Cells = lo, hi, cells
	g.step = (hi - lo) / float64(cells)
	g.invStep = 1 / g.step
	if cap(g.Col) < cells {
		g.Col = make([]float64, cells)
	} else {
		g.Col = g.Col[:cells]
	}
	if cap(g.diffA) < cells+1 {
		g.diffA = make([]float64, cells+1)
		g.diffB = make([]float64, cells+1)
	} else if len(g.diffA) != cells+1 {
		// The finalize pass re-zeroes the entries it consumes, so a
		// same-size Reset (the steady state under pooling) skips the
		// clear entirely; only a size change pays for one.
		g.diffA = g.diffA[:cap(g.diffA)]
		g.diffB = g.diffB[:cap(g.diffB)]
		clear(g.diffA)
		clear(g.diffB)
		g.diffA = g.diffA[:cells+1]
		g.diffB = g.diffB[:cells+1]
	}
	g.padAcc = 0
}

// CellOf maps a time to its column index, clamped to [0, Cells-1].
// It is monotone non-decreasing in t, which AddTrapMax relies on.
func (g *Grid) CellOf(t float64) int {
	c := int((t - g.Lo) * g.invStep)
	if c < 0 {
		return 0
	}
	if c >= g.Cells {
		return g.Cells - 1
	}
	return c
}

// Edge returns the left edge time of cell c (Edge(Cells) is the
// right edge of the last cell).
func (g *Grid) Edge(c int) float64 { return g.Lo + float64(c)*g.step }

// PadLeft returns the one-step-padded left edge of cell c — the
// conservative lower end of the times CellOf may assign to c.
func (g *Grid) PadLeft(c int) float64 { return g.Lo + float64(c-1)*g.step }

// gridPadFrac scales the additive per-trap slack folded into each
// range's constant term. It absorbs two certified error sources: the
// reciprocal-multiply evaluation of a rising or falling piece differs
// from the exact division form of Trap.At by a handful of rounding
// errors of Vp, and a memoized reciprocal (NewTrapPre) may be off the
// exact one by 2⁻³⁷ relative — which makes the affine bound off by
// the same relative amount, and since the bound dominates At wherever
// it is tight, the absolute shortfall stays under ~Vp·2⁻³⁶. A pad of
// Vp·2⁻³³ dominates both with margin while sitting ~17 bits below
// the engine's Eps tolerance, so skip decisions are unaffected. gridAccPadFrac pads Finalize's prefix sums: the accumulated
// rounding of the difference-array reassociation is bounded by a few
// ulps of the summed range magnitudes (padAcc tracks Σ(|A| +
// |B|·Cells) over every range addition), so a slack of padAcc·2⁻⁴⁴ —
// 512 ulps of the worst-case partial sum — dominates it for any
// realistic trap count.
const (
	gridPadFrac    = 0x1p-33
	gridAccPadFrac = 0x1p-44
)

// addRange records the affine per-cell bound c ↦ a + b·c over cells
// [cs, ce] as an O(1) difference-array update.
func (g *Grid) addRange(cs, ce int, a, b float64) {
	if cs > ce {
		return
	}
	g.diffA[cs] += a
	g.diffA[ce+1] -= a
	g.diffB[cs] += b
	g.diffB[ce+1] -= b
	g.padAcc += math.Abs(a) + math.Abs(b)*float64(g.Cells)
}

// AddTrapMax accumulates the trapezoid's padded per-cell maxima into
// the grid: after Finalize, Col[c] upper-bounds the envelope sum at
// every time assigned to cell c.
//
// The covered cell span [CellOf(Q0), CellOf(Q3)] splits at the flat
// top into three phases, each an affine function of the cell index
// and therefore one O(1) range addition: rising cells are bounded at
// the padded right edge ((PadRight(c)−Q0)·slope grows past Vp beyond
// Q1, so it dominates At anywhere at or before the flat top), flat
// cells by Vp, and falling cells at the padded left edge (the affine
// extension exceeds Vp before Q2, so it dominates At anywhere at or
// after the top). Because each phase's bound is sound on the others'
// territory in the direction the split can be off by, the ulp-level
// slop in the split cells only coarsens the bound, never breaks it.
// The per-trap gridPadFrac slack is folded into each constant term.
func (g *Grid) AddTrapMax(tr Trap) {
	c0 := g.CellOf(tr.Q0)
	c1 := g.CellOf(tr.Q3)
	cr := g.CellOf(tr.Q1) // rising/flat split
	if cr > c1 {
		cr = c1
	}
	ce := g.CellOf(tr.Q2) + 1 // flat/falling split, one-cell overshoot
	if ce > c1 {
		ce = c1
	}
	if ce < cr {
		ce = cr
	}
	pad := tr.Vp * gridPadFrac
	riseSlope := tr.InvRise * tr.Vp
	fallSlope := tr.InvFall * tr.Vp
	// Rising [c0, cr]: (PadRight(c)−Q0)·riseSlope = A + B·c.
	g.addRange(c0, cr, (g.Lo+2*g.step-tr.Q0)*riseSlope+pad, g.step*riseSlope)
	// Flat (cr, ce]: constant Vp.
	g.addRange(cr+1, ce, tr.Vp+pad, 0)
	// Falling (ce, c1]: Vp−(PadLeft(c)−Q2)·fallSlope = A − B·c.
	g.addRange(ce+1, c1, tr.Vp+(tr.Q2-g.Lo+g.step)*fallSlope+pad, -g.step*fallSlope)
}

// Finalize folds the deferred range additions into the columns: one
// prefix pass over the two difference arrays, plus the gridAccPadFrac
// slack that keeps every column a certified upper bound despite the
// reassociated summation. Call once after the last AddTrapMax; the
// columns are unusable before (Finalize assigns them outright).
func (g *Grid) Finalize() {
	pad := g.padAcc * gridAccPadFrac
	runA, runB := 0.0, 0.0
	for c := 0; c < g.Cells; c++ {
		runA += g.diffA[c]
		runB += g.diffB[c]
		g.diffA[c], g.diffB[c] = 0, 0
		g.Col[c] = runA + runB*float64(c) + pad
	}
	g.diffA[g.Cells], g.diffB[g.Cells] = 0, 0
}

// rampPadFrac scales the slack subtracted from FinalizeSkip's
// division-free ramp lower bound, covering the reciprocal-multiply
// rounding against the exact ramp expression.
const rampPadFrac = 0x1p-48

// FinalizeSkip is Finalize fused with the cell-skip derivation, for
// callers that never read the columns: it folds the range additions in
// registers and, per cell, compares the column bound against the
// victim ramp lower bound — cell c is skipped (bit c set) when even
// ramp(PadLeft(c)) − col exceeds need, a certified lower bound on the
// noisy waveform anywhere CellOf assigns to the cell, exact in float
// because the column dominates the envelope summands pointwise and
// float addition/subtraction are monotone. The ramp lower bound is
// zero left of the ramp foot r0, the full swing vdd past r1, and
// otherwise the reciprocal-multiply interpolation minus an ulp-scaled
// pad. The Col slice is left untouched (and stale).
func (g *Grid) FinalizeSkip(r0, r1, vdd, need float64) (skip uint64) {
	pad := g.padAcc * gridAccPadFrac
	rampSlope := vdd / (r1 - r0)
	rampPad := vdd * rampPadFrac
	runA, runB := 0.0, 0.0
	for c := 0; c < g.Cells; c++ {
		runA += g.diffA[c]
		runB += g.diffB[c]
		g.diffA[c], g.diffB[c] = 0, 0
		col := runA + runB*float64(c) + pad
		e := g.Lo + float64(c-1)*g.step // PadLeft(c)
		var rv float64
		switch {
		case e <= r0:
			rv = 0
		case e >= r1:
			rv = vdd
		default:
			rv = (e-r0)*rampSlope - rampPad
		}
		if rv-col > need {
			skip |= 1 << uint(c)
		}
	}
	g.diffA[g.Cells], g.diffB[g.Cells] = 0, 0
	return skip
}

// gridPool recycles Grid column storage across queries.
var gridPool = sync.Pool{New: func() any { return new(Grid) }}

// GetGrid returns a pooled grid; call Reset before use.
func GetGrid() *Grid { return gridPool.Get().(*Grid) }

// PutGrid returns a grid to the pool. The caller must not use it (or
// its columns) afterwards.
func PutGrid(g *Grid) { gridPool.Put(g) }
