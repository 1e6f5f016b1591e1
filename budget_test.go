package topkagg_test

import (
	"context"
	"testing"

	"topkagg"
)

// TestBudgetFacade calls Model.RunBudget and RunIncrementalBudget the
// way code outside the module must: with a budget from NewBudget or
// with nil.
func TestBudgetFacade(t *testing.T) {
	c, err := topkagg.ParseNetlistString(`
circuit demo
output y z
gate g1 INV_X1 a -> n1
gate g2 INV_X1 n1 -> y
gate h1 INV_X1 b -> m1
gate h2 INV_X1 m1 -> z
couple n1 m1 3.0
couple n1 b 1.0
`)
	if err != nil {
		t.Fatal(err)
	}
	m := topkagg.NewModel(c)
	noisy, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	quiet := make(topkagg.Mask, c.NumCouplings())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := topkagg.NewBudget(ctx)
	if _, err := m.RunBudget(b, nil); topkagg.StopReason(err) != "canceled" {
		t.Fatalf("RunBudget under a canceled budget: err = %v, want a canceled stop", err)
	}
	if _, _, err := m.RunIncrementalBudget(b, noisy, nil, quiet); topkagg.StopReason(err) != "canceled" {
		t.Fatalf("RunIncrementalBudget under a canceled budget: err = %v, want a canceled stop", err)
	}

	an, err := m.RunBudget(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := an.CircuitDelay(), noisy.CircuitDelay(); got != want {
		t.Fatalf("RunBudget(nil) delay = %v, Run = %v", got, want)
	}
	inc, _, err := m.RunIncrementalBudget(nil, noisy, nil, quiet)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inc.CircuitDelay(), cold.CircuitDelay(); got != want {
		t.Fatalf("RunIncrementalBudget(nil) delay = %v, Run = %v", got, want)
	}
}
