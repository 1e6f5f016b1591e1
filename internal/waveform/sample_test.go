package waveform

import (
	"math/rand"
	"testing"
)

// view wraps pts in a PWL without New's validation or breakpoint
// merging, so a test can build a vertical step.
func view(pts []Point) PWL { return PWL{pts: pts} }

// TestSampleIntoMatchesValue pins the bit-identity contract of the
// digest sampler: every grid sample equals Value at the same time —
// same formula, same operation order — over random waveforms and
// random intervals, including intervals that start before, inside, and
// after the waveform's support.
func TestSampleIntoMatchesValue(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := randPWL(r)
		lo := r.Float64()*4 - 2
		hi := lo + r.Float64()*4
		var out [24]float64
		w.SampleInto(lo, hi, out[:])
		n := len(out)
		step := (hi - lo) / float64(n-1)
		for g := range out {
			tg := lo + float64(g)*step
			if g == n-1 {
				tg = hi
			}
			if want := w.Value(tg); out[g] != want {
				t.Fatalf("seed %d sample %d (t=%g): SampleInto %g != Value %g",
					seed, g, tg, out[g], want)
			}
		}
	}
}

// TestSampleIntoEdges covers the degenerate inputs the random sweep
// cannot hit deliberately: empty waveforms, empty output, collapsed
// intervals, and a leading step (two breakpoints at the same time).
func TestSampleIntoEdges(t *testing.T) {
	var out4 [4]float64
	Zero().SampleInto(0, 1, out4[:])
	for g, v := range out4 {
		if v != 0 {
			t.Fatalf("zero waveform sample %d = %g, want 0", g, v)
		}
	}

	w := Trapezoid(1, 0.5, 3, 0.5, 2)
	w.SampleInto(0, 0, out4[:]) // collapsed interval: every sample at lo
	for g, v := range out4 {
		if want := w.Value(0); v != want {
			t.Fatalf("collapsed interval sample %d = %g, want %g", g, v, want)
		}
	}
	w.SampleInto(5, 2, out4[:]) // inverted interval treated like collapsed
	for g, v := range out4 {
		if want := w.Value(5); v != want {
			t.Fatalf("inverted interval sample %d = %g, want %g", g, v, want)
		}
	}
	w.SampleInto(0, 1, nil) // must not panic

	// A step at the start: Value takes its leading-edge branch for
	// t <= first breakpoint, and the sampler must match it exactly.
	step := view([]Point{{T: 1, V: 0.5}, {T: 1, V: 2}, {T: 3, V: 0}})
	var out5 [5]float64
	step.SampleInto(0, 2, out5[:])
	for g, tg := range []float64{0, 0.5, 1, 1.5, 2} {
		if want := step.Value(tg); out5[g] != want {
			t.Fatalf("leading step: sample %d (t=%g) = %g, want Value %g", g, tg, out5[g], want)
		}
	}
}

// TestAddIntoMatchesAdd checks the allocation-free sum against Add on
// random pairs, including buffer reuse across calls, and that the
// result read through the returned PWL survives until the buffer's
// next reuse (but a Clone survives past it).
func TestAddIntoMatchesAdd(t *testing.T) {
	var buf []Point
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := randPWL(r), randPWL(r)
		want := Add(a, b)
		var got PWL
		got, buf = AddInto(a, b, buf)
		if !Equal(got, want, 0) {
			t.Fatalf("seed %d: AddInto differs from Add", seed)
		}
		kept := got.Clone()
		_, buf = AddInto(b, a, buf) // clobber the buffer
		if !Equal(kept, want, 0) {
			t.Fatalf("seed %d: Clone does not survive buffer reuse", seed)
		}
	}
}
