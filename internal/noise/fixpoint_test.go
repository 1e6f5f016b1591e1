package noise

import (
	"fmt"
	"math/rand"
	"testing"

	"topkagg/internal/gen"
)

// TestFixpointWorkerCountInvariant pins the determinism contract of
// the parallel sweep: for any circuit and any mask, the analysis is
// byte-identical regardless of the worker count. Runs under -race in
// CI, so it also exercises the sweep for data races.
func TestFixpointWorkerCountInvariant(t *testing.T) {
	for _, seed := range []int64{3, 7, 19, 57, 101} {
		c, err := gen.Build(gen.Spec{Name: "wprop", Gates: 40, Couplings: 70, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(c)
		r := rand.New(rand.NewSource(seed))
		mask := NewMask(c)
		for i := range mask {
			mask[i] = r.Intn(4) != 0
		}
		ref, err := m.WithWorkers(1).Run(mask)
		if err != nil {
			t.Fatalf("seed %d: serial run: %v", seed, err)
		}
		for _, workers := range []int{2, 8} {
			an, err := m.WithWorkers(workers).Run(mask)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if an.Iterations != ref.Iterations || an.Converged != ref.Converged {
				t.Errorf("seed %d workers %d: iterations %d/%v, serial %d/%v",
					seed, workers, an.Iterations, an.Converged, ref.Iterations, ref.Converged)
			}
			for n, v := range an.NetNoise {
				if v != ref.NetNoise[n] {
					t.Errorf("seed %d workers %d: net %d noise %v != serial %v",
						seed, workers, n, v, ref.NetNoise[n])
				}
			}
			for n, w := range an.Timing.Windows {
				if w != ref.Timing.Windows[n] {
					t.Errorf("seed %d workers %d: net %d window %+v != serial %+v",
						seed, workers, n, w, ref.Timing.Windows[n])
				}
			}
		}
	}
}

// TestRunIncrementalMatchesColdRun checks that the incremental path —
// the new mask's own fixpoint, replaying the previous run's trajectory
// — lands on exactly the fixpoint a cold Run computes for the new
// mask, bit for bit.
func TestRunIncrementalMatchesColdRun(t *testing.T) {
	for _, seed := range []int64{5, 13, 29} {
		c, err := gen.Build(gen.Spec{Name: "iprop", Gates: 40, Couplings: 70, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(c)
		prevMask := AllMask(c)
		prev, err := m.Run(prevMask)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		mask := prevMask.Clone()
		for i := 0; i < 5; i++ {
			mask[r.Intn(len(mask))] = false
		}
		incAn, _, err := m.RunIncremental(prev, prevMask, mask)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.Run(mask)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwiseEqual(t, fmt.Sprintf("seed %d", seed), incAn, cold)
	}
}
