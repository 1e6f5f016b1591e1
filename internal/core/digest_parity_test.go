package core

import (
	"reflect"
	"testing"

	"topkagg/internal/gen"
	"topkagg/internal/noise"
)

// TestDigestParity is the property test behind the digest prefilter's
// central claim (DESIGN.md §10): the envelope-digest prefilter is
// conservative, so enumeration with it enabled returns byte-identical
// results to the digest-free prune (Options.exactPrune) — same
// selections, same scores, same pruning counters — over the seeded
// differential circuits, in both modes, at one and at eight workers.
// The only permitted difference is the digest counters themselves,
// which are zero by definition without the prefilter.
func TestDigestParity(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c, err := gen.Build(gen.Spec{Name: "diff", Gates: 10, Couplings: 9, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, elim := range []bool{false, true} {
			run := TopKAddition
			mode := "addition"
			if elim {
				run = TopKElimination
				mode = "elimination"
			}
			for _, w := range []int{1, 8} {
				m := noise.NewModel(c).WithWorkers(w)
				digest, err := run(m, 4, Options{SlackFrac: 1, NoRescore: true})
				if err != nil {
					t.Fatalf("seed %d %s workers=%d: %v", seed, mode, w, err)
				}
				exact, err := run(m, 4, Options{SlackFrac: 1, NoRescore: true, exactPrune: true})
				if err != nil {
					t.Fatalf("seed %d %s workers=%d exact: %v", seed, mode, w, err)
				}

				if !reflect.DeepEqual(digest.PerK, exact.PerK) {
					t.Errorf("seed %d %s workers=%d: selections differ:\n  digest: %+v\n  exact:  %+v",
						seed, mode, w, digest.PerK, exact.PerK)
				}

				ds, es := stripTime(digest.Stats), stripTime(exact.Stats)
				for i := range es.PerK {
					if es.PerK[i].DigestHits != 0 || es.PerK[i].DigestFallbacks != 0 {
						t.Errorf("seed %d %s workers=%d k=%d: digest-free run reports digest activity (%d hits, %d fallbacks)",
							seed, mode, w, es.PerK[i].K, es.PerK[i].DigestHits, es.PerK[i].DigestFallbacks)
					}
				}
				for i := range ds.PerK {
					ds.PerK[i].DigestHits, ds.PerK[i].DigestFallbacks = 0, 0
				}
				if !reflect.DeepEqual(ds, es) {
					t.Errorf("seed %d %s workers=%d: stats differ beyond digest counters:\n  digest: %+v\n  exact:  %+v",
						seed, mode, w, ds, es)
				}
			}
		}
	}
}
