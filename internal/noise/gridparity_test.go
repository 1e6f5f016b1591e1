package noise

import (
	"fmt"
	"math/rand"
	"testing"

	"topkagg/internal/gen"
)

// assertGridExactParity runs the model's fixpoint with the flat-grid
// skip word enabled and disabled (the exact walk), at one and at eight
// sweep workers, in the three shapes production runs take: every
// coupling active, a seeded partial mask (a filtered design, an
// addition candidate), and a what-if that replays the full analysis
// with a few seeded couplings fixed. Every published number must match
// bit for bit: the grid is a work-discarding device, never a value
// source, so any ulp of divergence is a soundness bug in the grid, not
// noise.
func assertGridExactParity(t *testing.T, m *Model, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	partial := NewMask(m.C)
	for id := range partial {
		partial[id] = rng.Intn(2) == 0
	}
	fixed := AllMask(m.C)
	for i := 0; i < 3 && len(fixed) > 0; i++ {
		fixed[rng.Intn(len(fixed))] = false
	}
	shapes := []string{"all active", "partial mask", "what-if"}
	var ref []*Analysis
	for _, w := range []int{1, 8} {
		for _, exact := range []bool{false, true} {
			mw := m.WithWorkers(w)
			mw.exactWalk = exact
			name := fmt.Sprintf("grid-w%d", w)
			if exact {
				name = fmt.Sprintf("exact-w%d", w)
			}
			full, err := mw.Run(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			part, err := mw.Run(partial)
			if err != nil {
				t.Fatalf("%s partial: %v", name, err)
			}
			whatIf, _, err := mw.RunIncremental(full, nil, fixed)
			if err != nil {
				t.Fatalf("%s what-if: %v", name, err)
			}
			got := []*Analysis{full, part, whatIf}
			if ref == nil {
				ref = got // grid-w1
				continue
			}
			for i, an := range got {
				assertBitwiseEqual(t, fmt.Sprintf("%s %s %s vs grid-w1", m.C.Name, shapes[i], name), an, ref[i])
			}
		}
	}
}

// TestGridExactParitySeededCircuits sweeps 50 seeded random circuits
// of varied size and coupling density through the parity check. Run
// under -race this doubles as the worker-invariance certificate for
// the grid kernel.
func TestGridExactParitySeededCircuits(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		assertSpecGridExactParity(t, gen.Spec{
			Name:      fmt.Sprintf("parity%d", seed),
			Gates:     20 + (seed*7)%60,
			Couplings: 30 + (seed*13)%150,
			Seed:      int64(2000 + seed),
		})
	}
	// Twelve small dense circuits (14 gates, 16 couplings) of the kind
	// the top-k enumeration measures. Every delay the enumeration
	// publishes funnels through these fixpoint runs, so fixpoint parity
	// on them is the whole of the enumeration's grid parity.
	t.Run("enumeration circuits", func(t *testing.T) {
		for seed := int64(601); seed <= 612; seed++ {
			assertSpecGridExactParity(t, gen.Spec{Name: "gridperk", Gates: 14, Couplings: 16, Seed: seed})
		}
	})
}

func assertSpecGridExactParity(t *testing.T, spec gen.Spec) {
	t.Helper()
	c, err := gen.Build(spec)
	if err != nil {
		t.Fatalf("%s seed %d: %v", spec.Name, spec.Seed, err)
	}
	assertGridExactParity(t, NewModel(c), spec.Seed)
}

// TestGridExactParityScale runs the parity check on the scaling
// generator's circuits, whose nanosecond-scale windows and deeper
// aggressor fan-in exercise the memoized-reciprocal fallback and the
// 64-bit skip word harder than the paper mirrors do.
func TestGridExactParityScale(t *testing.T) {
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		c, err := gen.Scale(n)
		if err != nil {
			t.Fatalf("scale %d: %v", n, err)
		}
		assertGridExactParity(t, NewModel(c), int64(n))
	}
}
