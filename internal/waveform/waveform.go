// Package waveform provides the piecewise-linear (PWL) waveform
// substrate used by the linear noise-analysis framework: saturated-ramp
// transitions, triangular noise pulses, trapezoidal noise envelopes and
// the algebra (superposition, shifting, encapsulation tests, t50
// crossings) that delay-noise computation is built on.
//
// A PWL waveform is defined by a sorted sequence of breakpoints
// (t, v). Between breakpoints the value is linearly interpolated;
// before the first breakpoint it equals the first value and after the
// last breakpoint it equals the last value. All operations return new
// waveforms; a PWL is immutable after construction.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the absolute tolerance used by comparisons on voltages and
// times. Waveform values in this library are volts (order 1) and
// seconds expressed in nanoseconds (order 0.01-10), so a single
// tolerance serves both axes.
const Eps = 1e-9

// Point is a single PWL breakpoint.
type Point struct {
	T float64 // time
	V float64 // value
}

// PWL is an immutable piecewise-linear waveform.
type PWL struct {
	pts []Point
}

// ErrUnordered is returned by New when breakpoints are not sorted by
// time.
var ErrUnordered = errors.New("waveform: breakpoints not sorted by time")

// Restore reconstructs a waveform from the exact breakpoints of a
// previously constructed one (waveform.PWL.Points), taking ownership
// of pts. Unlike New it performs no Eps-merging — internal algebra may
// legitimately produce breakpoints closer than Eps, and a snapshot
// round trip must reproduce the original bit-for-bit — but it still
// rejects unordered times and non-finite values, so a decoder fed
// corrupt bytes can never materialize a waveform the algebra's
// invariants don't hold for.
func Restore(pts []Point) (PWL, error) {
	for i := range pts {
		if math.IsNaN(pts[i].T) || math.IsInf(pts[i].T, 0) || math.IsNaN(pts[i].V) || math.IsInf(pts[i].V, 0) {
			return PWL{}, fmt.Errorf("waveform: restore: non-finite point %d (t=%v v=%v)", i, pts[i].T, pts[i].V)
		}
		if i > 0 && pts[i].T < pts[i-1].T {
			return PWL{}, fmt.Errorf("%w: point %d at t=%g after t=%g", ErrUnordered, i, pts[i].T, pts[i-1].T)
		}
	}
	return PWL{pts: pts}, nil
}

// New constructs a waveform from breakpoints. Points must be sorted by
// non-decreasing time; points closer than Eps in time are merged
// (keeping the later value). A waveform with no points is the constant
// zero waveform.
func New(pts ...Point) (PWL, error) {
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T-Eps {
			return PWL{}, fmt.Errorf("%w: point %d at t=%g after t=%g", ErrUnordered, i, pts[i].T, pts[i-1].T)
		}
	}
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if n := len(out); n > 0 && p.T <= out[n-1].T+Eps {
			out[n-1].V = p.V
			out[n-1].T = math.Max(out[n-1].T, p.T)
			continue
		}
		out = append(out, p)
	}
	return PWL{pts: out}, nil
}

// MustNew is New made total: it never fails and never panics. It is
// intended for statically-known shapes (ramps, pulses) whose ordering
// is guaranteed by construction; should corrupt parameters (negative
// slews from bad cell data, say) produce unordered points anyway, they
// are stably sorted by time first, so the analysis degrades to a valid
// waveform instead of crashing the engine.
func MustNew(pts ...Point) PWL {
	w, err := New(pts...)
	if err != nil {
		sorted := append([]Point(nil), pts...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
		w, _ = New(sorted...)
	}
	return w
}

// Zero returns the constant zero waveform.
func Zero() PWL { return PWL{} }

// Constant returns the waveform that is v everywhere.
func Constant(v float64) PWL {
	if v == 0 {
		return Zero()
	}
	return PWL{pts: []Point{{T: 0, V: v}}}
}

// IsZero reports whether the waveform is identically zero.
func (w PWL) IsZero() bool {
	for _, p := range w.pts {
		if math.Abs(p.V) > Eps {
			return false
		}
	}
	return true
}

// Points returns a copy of the breakpoints.
func (w PWL) Points() []Point {
	out := make([]Point, len(w.pts))
	copy(out, w.pts)
	return out
}

// AppendTo appends the waveform's breakpoints to buf and returns the
// extended slice — the allocation-free export used together with View
// by hot paths that cache waveforms in caller-owned storage.
func (w PWL) AppendTo(buf []Point) []Point { return append(buf, w.pts...) }

// NumPoints returns the number of breakpoints.
func (w PWL) NumPoints() int { return len(w.pts) }

// Start returns the time of the first breakpoint; for an empty
// waveform it returns 0.
func (w PWL) Start() float64 {
	if len(w.pts) == 0 {
		return 0
	}
	return w.pts[0].T
}

// End returns the time of the last breakpoint; for an empty waveform
// it returns 0.
func (w PWL) End() float64 {
	if len(w.pts) == 0 {
		return 0
	}
	return w.pts[len(w.pts)-1].T
}

// Value returns the waveform value at time t.
func (w PWL) Value(t float64) float64 {
	n := len(w.pts)
	if n == 0 {
		return 0
	}
	if t <= w.pts[0].T {
		return w.pts[0].V
	}
	if t >= w.pts[n-1].T {
		return w.pts[n-1].V
	}
	// First breakpoint strictly after t.
	i := sort.Search(n, func(i int) bool { return w.pts[i].T > t })
	a, b := w.pts[i-1], w.pts[i]
	if b.T == a.T {
		return b.V
	}
	f := (t - a.T) / (b.T - a.T)
	return a.V + f*(b.V-a.V)
}

// Shift returns the waveform delayed by dt (dt may be negative).
func (w PWL) Shift(dt float64) PWL {
	if len(w.pts) == 0 || dt == 0 {
		return w
	}
	out := make([]Point, len(w.pts))
	for i, p := range w.pts {
		out[i] = Point{T: p.T + dt, V: p.V}
	}
	return PWL{pts: out}
}

// Scale returns the waveform with all values multiplied by f.
func (w PWL) Scale(f float64) PWL {
	if len(w.pts) == 0 {
		return w
	}
	out := make([]Point, len(w.pts))
	for i, p := range w.pts {
		out[i] = Point{T: p.T, V: p.V * f}
	}
	return PWL{pts: out}
}

// Neg returns the waveform with all values negated.
func (w PWL) Neg() PWL { return w.Scale(-1) }

// mergeTimes returns the sorted union of breakpoint times of a and b.
func mergeTimes(a, b PWL) []float64 {
	ts := make([]float64, 0, len(a.pts)+len(b.pts))
	i, j := 0, 0
	for i < len(a.pts) || j < len(b.pts) {
		var t float64
		switch {
		case i >= len(a.pts):
			t = b.pts[j].T
			j++
		case j >= len(b.pts):
			t = a.pts[i].T
			i++
		case a.pts[i].T <= b.pts[j].T:
			t = a.pts[i].T
			i++
		default:
			t = b.pts[j].T
			j++
		}
		if n := len(ts); n == 0 || t > ts[n-1]+Eps {
			ts = append(ts, t)
		}
	}
	return ts
}

// combine builds a waveform by evaluating f(a(t), b(t)) at the merged
// breakpoints of a and b. The result is exact for pointwise-linear
// combinations (addition, subtraction); Max additionally inserts
// intersection breakpoints before combining.
func combine(a, b PWL, f func(av, bv float64) float64) PWL {
	ts := mergeTimes(a, b)
	if len(ts) == 0 {
		v := f(0, 0)
		if v == 0 {
			return Zero()
		}
		return Constant(v)
	}
	out := make([]Point, len(ts))
	for i, t := range ts {
		out[i] = Point{T: t, V: f(a.Value(t), b.Value(t))}
	}
	return PWL{pts: out}
}

// Add returns the pointwise sum a + b (linear superposition).
func Add(a, b PWL) PWL {
	return linearCombine(a, b, 1)
}

// linearCombine computes a + sign·b with a single linear merge over
// both breakpoint lists (no per-point binary search); it is the hot
// path of envelope superposition.
func linearCombine(a, b PWL, sign float64) PWL {
	if len(a.pts) == 0 && len(b.pts) == 0 {
		return Zero()
	}
	return PWL{pts: appendCombine(make([]Point, 0, len(a.pts)+len(b.pts)), a, b, sign)}
}

// appendCombine appends the breakpoints of a + sign·b to dst and
// returns the extended slice. dst should arrive with length 0; it is
// the scratch-buffer form of linearCombine.
func appendCombine(dst []Point, a, b PWL, sign float64) []Point {
	ap, bp := a.pts, b.pts
	// Disjoint spans reduce to scaled copies with the far side's
	// constant extension added — the common case when summing noise
	// envelopes spread across the clock period. The per-point sums
	// below are exactly the va + sign·vb the merge loop would compute.
	if len(ap) > 0 && len(bp) > 0 {
		switch {
		case ap[len(ap)-1].T < bp[0].T-Eps:
			sb := sign * bp[0].V
			for _, p := range ap {
				dst = append(dst, Point{T: p.T, V: p.V + sb})
			}
			va := ap[len(ap)-1].V
			for _, p := range bp {
				dst = append(dst, Point{T: p.T, V: va + sign*p.V})
			}
			return dst
		case bp[len(bp)-1].T < ap[0].T-Eps:
			va := ap[0].V
			for _, p := range bp {
				dst = append(dst, Point{T: p.T, V: va + sign*p.V})
			}
			sb := sign * bp[len(bp)-1].V
			for _, p := range ap {
				dst = append(dst, Point{T: p.T, V: p.V + sb})
			}
			return dst
		}
	}
	i, j := 0, 0
	for i < len(ap) || j < len(bp) {
		var t float64
		switch {
		case i >= len(ap):
			t = bp[j].T
		case j >= len(bp):
			t = ap[i].T
		case ap[i].T <= bp[j].T:
			t = ap[i].T
		default:
			t = bp[j].T
		}
		for i < len(ap) && ap[i].T <= t {
			i++
		}
		for j < len(bp) && bp[j].T <= t {
			j++
		}
		// Manually inlined segVal on both sides, same operation order.
		var va, vb float64
		switch {
		case len(ap) == 0:
			va = 0
		case i == 0:
			va = ap[0].V
		case i >= len(ap):
			va = ap[len(ap)-1].V
		default:
			p, q := ap[i-1], ap[i]
			if q.T == p.T {
				va = q.V
			} else {
				f := (t - p.T) / (q.T - p.T)
				va = p.V + f*(q.V-p.V)
			}
		}
		switch {
		case len(bp) == 0:
			vb = 0
		case j == 0:
			vb = bp[0].V
		case j >= len(bp):
			vb = bp[len(bp)-1].V
		default:
			p, q := bp[j-1], bp[j]
			if q.T == p.T {
				vb = q.V
			} else {
				f := (t - p.T) / (q.T - p.T)
				vb = p.V + f*(q.V-p.V)
			}
		}
		v := va + sign*vb
		if n := len(dst); n > 0 && t <= dst[n-1].T+Eps {
			dst[n-1] = Point{T: math.Max(dst[n-1].T, t), V: v}
			continue
		}
		dst = append(dst, Point{T: t, V: v})
	}
	return dst
}

// Sub returns the pointwise difference a - b.
func Sub(a, b PWL) PWL {
	return linearCombine(a, b, -1)
}

// Max returns the pointwise maximum of a and b, inserting breakpoints
// at segment intersections so the result is exact.
func Max(a, b PWL) PWL {
	ts := mergeTimes(a, b)
	if len(ts) == 0 {
		return Zero()
	}
	// Insert intersection times where a-b changes sign within a segment.
	aug := make([]float64, 0, 2*len(ts))
	aug = append(aug, ts[0])
	for i := 1; i < len(ts); i++ {
		t0, t1 := ts[i-1], ts[i]
		d0 := a.Value(t0) - b.Value(t0)
		d1 := a.Value(t1) - b.Value(t1)
		if (d0 > Eps && d1 < -Eps) || (d0 < -Eps && d1 > Eps) {
			tx := t0 + (t1-t0)*d0/(d0-d1)
			if tx > t0+Eps && tx < t1-Eps {
				aug = append(aug, tx)
			}
		}
		aug = append(aug, t1)
	}
	out := make([]Point, len(aug))
	for i, t := range aug {
		out[i] = Point{T: t, V: math.Max(a.Value(t), b.Value(t))}
	}
	return PWL{pts: out}
}

// ClampMin returns the waveform with values below lo replaced by lo,
// inserting breakpoints at the clamp crossings.
func (w PWL) ClampMin(lo float64) PWL {
	return Max(w, Constant(lo))
}

// Peak returns the time and value of the waveform maximum. For an
// empty waveform it returns (0, 0). Ties resolve to the earliest time.
func (w PWL) Peak() (t, v float64) {
	if len(w.pts) == 0 {
		return 0, 0
	}
	t, v = w.pts[0].T, w.pts[0].V
	for _, p := range w.pts[1:] {
		if p.V > v+Eps {
			t, v = p.T, p.V
		}
	}
	return t, v
}

// Encapsulates reports whether a(t) >= b(t) - tol for all t in
// [t0, t1]. Because both waveforms are linear between the merged
// breakpoints, checking the merged breakpoints clipped to the interval
// plus the interval endpoints is exact.
//
// The merged times are walked with two cursors instead of
// materializing the union (this sits on the dominance-pruning hot
// path), and each waveform is evaluated by a forward-moving cursor
// using the same index convention and interpolation arithmetic as
// Value, so the verdict is bit-identical to the original
// mergeTimes+Value formulation.
func Encapsulates(a, b PWL, t0, t1, tol float64) bool {
	if t1 < t0 {
		return true
	}
	if a.Value(t0) < b.Value(t0)-tol || a.Value(t1) < b.Value(t1)-tol {
		return false
	}
	// Merge cursors (ia/ib) produce the union of breakpoint times with
	// mergeTimes' Eps-dedup; evaluation cursors (ea/eb) track, per
	// waveform, the first breakpoint strictly after the current time.
	ia, ib, ea, eb := 0, 0, 0, 0
	last := 0.0
	first := true
	for ia < len(a.pts) || ib < len(b.pts) {
		var t float64
		switch {
		case ia >= len(a.pts):
			t = b.pts[ib].T
			ib++
		case ib >= len(b.pts):
			t = a.pts[ia].T
			ia++
		case a.pts[ia].T <= b.pts[ib].T:
			t = a.pts[ia].T
			ia++
		default:
			t = b.pts[ib].T
			ib++
		}
		if !first && t <= last+Eps {
			continue
		}
		first = false
		last = t
		if t <= t0 || t >= t1 {
			continue
		}
		if a.valueAt(t, &ea) < b.valueAt(t, &eb)-tol {
			return false
		}
	}
	return true
}

// valueAt evaluates the waveform at t using *cursor as the running
// index of the first breakpoint strictly after t. Successive calls
// must not decrease t. The arithmetic mirrors Value exactly.
func (w PWL) valueAt(t float64, cursor *int) float64 {
	if len(w.pts) == 0 {
		return 0
	}
	if t <= w.pts[0].T {
		// Mirrors Value's leading-edge branch; matters when the first
		// two breakpoints share a time (a step at the start).
		return w.pts[0].V
	}
	i := *cursor
	for i < len(w.pts) && w.pts[i].T <= t {
		i++
	}
	*cursor = i
	switch {
	case i == 0:
		return w.pts[0].V
	case i >= len(w.pts):
		return w.pts[len(w.pts)-1].V
	default:
		a, b := w.pts[i-1], w.pts[i]
		if b.T == a.T {
			return b.V
		}
		f := (t - a.T) / (b.T - a.T)
		return a.V + f*(b.V-a.V)
	}
}

// LatestTimeAtOrBelow returns the supremum of {t : w(t) <= level}
// restricted to the waveform's breakpoint span. ok is false when the
// waveform never rises above level after its last visit to it (i.e.
// the supremum is unbounded: the waveform ends at or below level).
//
// For a noisy rising victim transition this is the noisy t50: the last
// instant the waveform still sits at or below the measurement level.
func (w PWL) LatestTimeAtOrBelow(level float64) (t float64, ok bool) {
	n := len(w.pts)
	if n == 0 {
		if 0 <= level {
			return 0, false // constant zero never exceeds level
		}
		return 0, false
	}
	if w.pts[n-1].V <= level+Eps {
		return 0, false // ends at/below level: supremum unbounded
	}
	// Walk backwards to the last upward crossing of level.
	for i := n - 1; i >= 1; i-- {
		a, b := w.pts[i-1], w.pts[i]
		if a.V <= level+Eps && b.V > level {
			if b.V == a.V {
				return b.T, true
			}
			f := (level - a.V) / (b.V - a.V)
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			return a.T + f*(b.T-a.T), true
		}
	}
	// Entire waveform above level.
	return w.pts[0].T, true
}

// EarliestTimeAtOrAbove returns the infimum of {t : w(t) >= level}.
// ok is false if the waveform never reaches level.
func (w PWL) EarliestTimeAtOrAbove(level float64) (t float64, ok bool) {
	n := len(w.pts)
	if n == 0 {
		return 0, 0 >= level
	}
	if w.pts[0].V >= level-Eps {
		return w.pts[0].T, true
	}
	for i := 1; i < n; i++ {
		a, b := w.pts[i-1], w.pts[i]
		if b.V >= level-Eps && a.V < level {
			if b.V == a.V {
				return b.T, true
			}
			f := (level - a.V) / (b.V - a.V)
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			return a.T + f*(b.T-a.T), true
		}
	}
	return 0, false
}

// Equal reports whether two waveforms agree within tol at every merged
// breakpoint (and hence, by linearity, everywhere).
func Equal(a, b PWL, tol float64) bool {
	for _, t := range mergeTimes(a, b) {
		if math.Abs(a.Value(t)-b.Value(t)) > tol {
			return false
		}
	}
	if len(a.pts) == 0 && len(b.pts) == 0 {
		return true
	}
	// Also compare the constant extensions.
	return math.Abs(a.Value(math.Inf(-1))-b.Value(math.Inf(-1))) <= tol &&
		math.Abs(a.Value(math.Inf(1))-b.Value(math.Inf(1))) <= tol
}

// Simplify returns an equivalent waveform with redundant breakpoints
// removed: any interior point whose value lies within tol of the
// straight line between its surviving neighbors is dropped. With
// tol = 0 only exactly-collinear points are removed and the waveform
// is unchanged as a function.
func (w PWL) Simplify(tol float64) PWL {
	if len(w.pts) <= 2 {
		return w
	}
	out := make([]Point, 0, len(w.pts))
	out = append(out, w.pts[0])
	for i := 1; i < len(w.pts)-1; i++ {
		a := out[len(out)-1]
		p := w.pts[i]
		b := w.pts[i+1]
		if b.T == a.T {
			out = append(out, p)
			continue
		}
		f := (p.T - a.T) / (b.T - a.T)
		lin := a.V + f*(b.V-a.V)
		if math.Abs(p.V-lin) <= tol {
			continue
		}
		out = append(out, p)
	}
	out = append(out, w.pts[len(w.pts)-1])
	return PWL{pts: out}
}

// String renders the waveform breakpoints, mainly for test failure
// messages.
func (w PWL) String() string {
	if len(w.pts) == 0 {
		return "PWL{0}"
	}
	var sb strings.Builder
	sb.WriteString("PWL{")
	for i, p := range w.pts {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "(%.4g,%.4g)", p.T, p.V)
	}
	sb.WriteString("}")
	return sb.String()
}
