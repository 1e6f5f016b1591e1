// Whatif: an interactive-style noise-fixing loop of the kind the paper
// motivates ("employed in the inner loop of design optimization").
// Starting from the fully noisy design, it repeatedly asks the top-k
// engine for a candidate fix, verifies the candidate with the
// incremental noise engine (which replays the current analysis and
// re-evaluates only the nets whose inputs moved, with the exact result
// of a full run), applies it, and repeats until a timing target is met
// or the fix budget runs out.
package main

import (
	"flag"
	"fmt"
	"log"

	"topkagg"
)

func main() {
	bench := flag.String("bench", "", "paper benchmark circuit (default: a sparser generated design)")
	margin := flag.Float64("margin", 0.5, "fraction of the crosstalk penalty to recover")
	budget := flag.Int("budget", 25, "maximum number of fixes")
	flag.Parse()

	var (
		c   *topkagg.Circuit
		err error
	)
	if *bench != "" {
		c, err = topkagg.GenerateBenchmark(*bench)
	} else {
		c, err = topkagg.Generate(topkagg.Spec{Name: "sparse", Gates: 220, Couplings: 120, Seed: 9})
	}
	if err != nil {
		log.Fatal(err)
	}
	m := topkagg.NewModel(c)
	mask := make(topkagg.Mask, c.NumCouplings())
	for i := range mask {
		mask[i] = true
	}
	cur, err := m.Run(mask)
	if err != nil {
		log.Fatal(err)
	}
	base := cur.Base.CircuitDelay()
	penalty := cur.CircuitDelay() - base
	target := cur.CircuitDelay() - *margin*penalty
	fmt.Printf("design %s: noisy %.4f ns, noiseless %.4f ns, target %.4f ns\n\n",
		c.Name, cur.CircuitDelay(), base, target)

	// Ask once for a ranked fix plan, then apply it fix by fix with
	// incremental verification.
	plan, err := topkagg.TopKElimination(m, *budget, topkagg.Options{NoRescore: true})
	if err != nil {
		log.Fatal(err)
	}
	applied := map[topkagg.CouplingID]bool{}
	tried := map[topkagg.CouplingID]bool{}
	fixes := 0
	for _, sel := range plan.PerK {
		if cur.CircuitDelay() <= target || fixes >= *budget {
			break
		}
		for _, id := range sel.IDs {
			if applied[id] || tried[id] {
				continue
			}
			tried[id] = true
			next := mask.Clone()
			next[id] = false
			an, stats, err := m.RunIncremental(cur, mask, next)
			if err != nil {
				log.Fatal(err)
			}
			gain := cur.CircuitDelay() - an.CircuitDelay()
			scope := fmt.Sprintf("%d nets evaluated, the rest replayed", stats.Affected)
			if stats.Full {
				scope = "full re-analysis"
			}
			if gain <= 0 {
				fmt.Printf("  skip  %-24s (no gain; %s)\n", topkagg.CouplingString(c, id), scope)
				continue
			}
			mask, cur = next, an
			applied[id] = true
			fixes++
			fmt.Printf("  fix %2d %-24s -> %.4f ns (gain %.4f, %s)\n",
				fixes, topkagg.CouplingString(c, id), cur.CircuitDelay(), gain, scope)
			if cur.CircuitDelay() <= target || fixes >= *budget {
				break
			}
		}
	}

	fmt.Printf("\nfinal delay %.4f ns after %d fixes", cur.CircuitDelay(), fixes)
	if cur.CircuitDelay() <= target {
		fmt.Println(" — target met")
	} else {
		fmt.Println(" — budget exhausted before target")
	}
}
