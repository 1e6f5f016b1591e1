package noise

import (
	"context"
	"testing"
	"time"

	"topkagg/internal/budget"
	"topkagg/internal/gen"
)

// TestScaleFixpointUnderBudget is the 100k-net smoke: the scaling
// generator must build a six-figure circuit and the fixpoint must
// stop cleanly under a time budget — a typed DeadlineExceeded error,
// no partially-committed sweep — then run the same pooled model to
// convergence. CI thereby exercises the full flat-kernel path at two
// orders of magnitude past the paper's largest benchmark with a
// bounded worst-case duration. (Work-unit budgets are charged by the
// enumeration layer, not per fixpoint evaluation — see
// internal/core's scale smoke for that arm.)
func TestScaleFixpointUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-net build is too slow for -short")
	}
	c, err := gen.Scale(100000)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNets() < 100000 {
		t.Fatalf("scale circuit has %d nets, want >= 100000", c.NumNets())
	}
	m := NewModel(c)

	// A deadline far below the cold-run cost: the run must stop on the
	// budget, not converge.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := m.RunBudget(budget.New(ctx), nil); budget.ReasonOf(err) != budget.DeadlineExceeded {
		t.Fatalf("budgeted run: reason %v (err %v), want deadline stop", budget.ReasonOf(err), err)
	}

	// The same model runs to convergence unbudgeted — the smoke's
	// positive half, and proof the budget stop left no poisoned pooled
	// state behind.
	an, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Converged {
		t.Fatalf("100k-net fixpoint did not converge (%d iterations)", an.Iterations)
	}
}
