package noise

import (
	"testing"

	"topkagg/internal/gen"
)

// TestFixpointAllocBudget is the allocation regression gate on the
// flat-grid kernel: a warm fixpoint run on the paper circuits must
// stay within a fixed allocation ceiling. The measured steady state
// is ~28 allocs/run on i1 and ~31 on i3 (engine pool bookkeeping, the
// result maps and the four slices of the replay trajectory — the
// per-victim envelope math itself is allocation-free); the ceiling leaves slack for harmless runtime
// variation while still failing loudly if per-victim or per-iteration
// allocations ever creep back in (the pre-kernel engine spent 1218
// and 2573 allocs/run respectively).
func TestFixpointAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is redundant in -short runs")
	}
	const ceiling = 64
	for _, name := range []string{"i1", "i3"} {
		c, err := gen.BuildPaper(name)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(c)
		if _, err := m.Run(nil); err != nil { // warm the engine pool
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(5, func() {
			if _, err := m.Run(nil); err != nil {
				t.Error(err)
			}
		})
		if avg > ceiling {
			t.Errorf("%s: warm fixpoint run allocates %.0f objects, ceiling %d", name, avg, ceiling)
		}
	}
}
