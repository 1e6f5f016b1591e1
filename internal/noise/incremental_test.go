package noise

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"topkagg/internal/circuit"
	"topkagg/internal/gen"
)

func TestIncrementalNoChangeReturnsPrev(t *testing.T) {
	m := smallModel(t, 31)
	mask := AllMask(m.C)
	prev, err := m.Run(mask)
	if err != nil {
		t.Fatal(err)
	}
	an, st, err := m.RunIncremental(prev, mask, mask.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if an != prev || st.Affected != 0 || st.Full {
		t.Fatalf("no-change must short-circuit: %+v", st)
	}
}

func TestIncrementalNilPrevFallsBack(t *testing.T) {
	m := smallModel(t, 31)
	mask := AllMask(m.C)
	an, st, err := m.RunIncremental(nil, nil, mask)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || an == nil {
		t.Fatal("nil prev must run fully")
	}
}

func TestIncrementalMatchesFullOnSingleFix(t *testing.T) {
	m := smallModel(t, 33)
	all := AllMask(m.C)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < m.C.NumCouplings(); id += 7 {
		mask := all.Clone()
		mask[id] = false
		want, err := m.Run(mask)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := m.RunIncremental(prev, all, mask)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwiseEqual(t, fmt.Sprintf("fix %d", id), got, want)
	}
}

func TestQuickIncrementalMatchesFull(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "inc", Gates: 50, Couplings: 25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c)
	all := AllMask(c)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	sawIncremental := false
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mask := all.Clone()
		// Toggle 1-2 couplings.
		for i := 0; i < 1+r.Intn(2); i++ {
			mask[r.Intn(len(mask))] = r.Intn(2) == 0
		}
		want, err := m.Run(mask)
		if err != nil {
			return false
		}
		got, st, err := m.RunIncremental(prev, all, mask)
		if err != nil {
			return false
		}
		if !st.Full && st.Affected > 0 {
			sawIncremental = true
		}
		return bitwiseDiff(got, want) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	if !sawIncremental {
		t.Fatal("test never exercised the replay path")
	}
}

func TestDelayDelta(t *testing.T) {
	m := smallModel(t, 47)
	all := AllMask(m.C)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	// Fixing (removing) any coupling cannot increase delay.
	delta, an, err := m.DelayDelta(prev, all, []circuit.CouplingID{0})
	if err != nil {
		t.Fatal(err)
	}
	if delta > 1e-9 {
		t.Fatalf("fixing a coupling increased delay by %g", delta)
	}
	if an == nil {
		t.Fatal("analysis missing")
	}
	// DelayDelta with a nil prevMask treats it as all-active.
	if _, _, err := m.DelayDelta(prev, nil, []circuit.CouplingID{1}); err != nil {
		t.Fatal(err)
	}
}
