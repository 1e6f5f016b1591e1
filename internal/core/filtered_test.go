package core

import (
	"math"
	"testing"

	"topkagg/internal/filter"
	"topkagg/internal/gen"
	"topkagg/internal/noise"
)

// TestActiveMaskRestrictsEnumeration checks the filter→enumerate flow:
// running top-k over only the filter-surviving couplings matches the
// unfiltered run's delays (exact timing filter only).
func TestActiveMaskRestrictsEnumeration(t *testing.T) {
	c, err := gen.BuildPaper("i1")
	if err != nil {
		t.Fatal(err)
	}
	m := noise.NewModel(c)
	fr, err := filter.FalseAggressors(m, filter.Options{PeakFrac: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.False) == 0 {
		t.Skip("no removable couplings on this benchmark")
	}
	plain, err := TopKAddition(m, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := TopKAddition(m, 5, Options{Active: fr.Active})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.PerK) != len(plain.PerK) {
		t.Fatalf("filtered run truncated: %d vs %d", len(filtered.PerK), len(plain.PerK))
	}
	for i := range plain.PerK {
		if d := math.Abs(plain.PerK[i].Delay - filtered.PerK[i].Delay); d > 1e-6 {
			t.Fatalf("k=%d: filtered delay differs by %g", i+1, d)
		}
	}
	// The filtered enumeration must not select a false coupling.
	for _, s := range filtered.PerK {
		for _, id := range s.IDs {
			if !fr.Active.Active(id) {
				t.Fatalf("filtered run selected false coupling %d", id)
			}
		}
	}
}

func TestActiveMaskEmptySelectsNothing(t *testing.T) {
	c, err := gen.BuildPaper("i1")
	if err != nil {
		t.Fatal(err)
	}
	m := noise.NewModel(c)
	res, err := TopKAddition(m, 3, Options{Active: noise.NewMask(c)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerK) != 0 {
		t.Fatalf("empty active mask must yield no sets: %+v", res.PerK)
	}
	if math.Abs(res.AllDelay-res.BaseDelay) > 1e-9 {
		t.Fatal("with nothing active, noisy == noiseless")
	}
}

// TestEliminationRescoreHonoursActive pins elimination rescoring to the
// configured coupling subset, as a false-aggressor filter feeds it:
// with a partial Options.Active, each reported delay is the measured
// delay of Active minus the set, never a run that re-activates the
// couplings Active leaves out, so no cardinality can report more delay
// than Active with nothing eliminated.
func TestEliminationRescoreHonoursActive(t *testing.T) {
	c, err := gen.BuildPaper("i1")
	if err != nil {
		t.Fatal(err)
	}
	m := noise.NewModel(c)
	active := noise.AllMask(c)
	for id := 0; id < len(active); id += 4 {
		active[id] = false
	}
	res, err := TopKElimination(m, 3, Options{Active: active})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerK) != 3 {
		t.Fatalf("got %d cardinalities, want 3", len(res.PerK))
	}
	none, err := m.Run(active)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.PerK {
		mask := active.Clone()
		for _, id := range s.IDs {
			mask[id] = false
		}
		an, err := m.Run(mask)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s.Delay) != math.Float64bits(an.CircuitDelay()) {
			t.Errorf("k=%d: reported delay %v, Active minus %v measures %v", i+1, s.Delay, s.IDs, an.CircuitDelay())
		}
		if s.Delay > none.CircuitDelay() {
			t.Errorf("k=%d: reported delay %v exceeds %v of Active with nothing eliminated", i+1, s.Delay, none.CircuitDelay())
		}
	}
}
