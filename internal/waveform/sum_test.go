package waveform

import (
	"math/rand"
	"testing"
)

// sumTestPulse builds a random triangular pulse for merge tests.
func sumTestPulse(r *rand.Rand) PWL {
	start := r.Float64() * 5
	return TrianglePulse(start, 0.05+r.Float64()*0.3, 0.05+r.Float64()*0.5, r.Float64())
}

// TestSumMatchesPairwiseAdd pins the k-way merge to the reference
// pairwise cascade: the two must agree as functions everywhere.
func TestSumMatchesPairwiseAdd(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6)
		ws := make([]PWL, n)
		for i := range ws {
			ws[i] = sumTestPulse(r)
		}
		cascade := Zero()
		for _, w := range ws {
			cascade = Add(cascade, w)
		}
		merged := Sum(ws...)
		if !Equal(cascade, merged, 1e-12) {
			t.Fatalf("trial %d (n=%d): k-way sum differs from cascade:\n%v\n%v",
				trial, n, cascade, merged)
		}
	}
}

// TestSumPairBitIdentical: for zero, one and two waveforms the merge
// takes the exact code path of Add, so results are bit-identical.
func TestSumPairBitIdentical(t *testing.T) {
	a := TrianglePulse(1, 0.2, 0.3, 0.6)
	b := TrianglePulse(1.1, 0.1, 0.4, 0.4)
	want := Add(a, b)
	got := Sum(a, b)
	wp, gp := want.Points(), got.Points()
	if len(wp) != len(gp) {
		t.Fatalf("point counts differ: %d vs %d", len(wp), len(gp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, wp[i], gp[i])
		}
	}
	if one := Sum(a); !Equal(one, a, 0) {
		t.Fatal("Sum of one waveform must be itself")
	}
	if !Sum().IsZero() {
		t.Fatal("empty Sum must be zero")
	}
}

// TestAccumulatorReuse checks that the scratch buffer is reused across
// Reset/Sum cycles without corrupting earlier copies.
func TestAccumulatorReuse(t *testing.T) {
	var acc Accumulator
	a := TrianglePulse(0, 0.1, 0.2, 0.5)
	b := TrianglePulse(0.5, 0.1, 0.2, 0.3)
	acc.Add(a)
	acc.Add(b)
	first := acc.SumCopy()
	borrowed := func() PWL {
		acc.Reset()
		acc.Add(b)
		return acc.Sum()
	}()
	if !Equal(borrowed, b, 0) {
		t.Fatal("second Sum wrong")
	}
	if !Equal(first, Add(a, b), 1e-12) {
		t.Fatal("SumCopy must survive buffer reuse")
	}
	acc.Reset()
	if acc.Len() != 0 || !acc.Sum().IsZero() {
		t.Fatal("Reset must clear the accumulated set")
	}
}
