package core

import (
	"context"
	"math"
	"testing"

	"topkagg/internal/budget"
	"topkagg/internal/gen"
	"topkagg/internal/noise"
)

// TestTopKCtxPreCanceled pins the hard-stop contract at the engine
// entry point: a budget bound to a context canceled before the call
// never produces a result — the preparation itself is refused with a
// typed cancellation error.
func TestTopKCtxPreCanceled(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "budget", Gates: 20, Couplings: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := PrepareAdditionBudget(budget.New(ctx), noise.NewModel(c), nil, WholeCircuit, Options{})
	if err == nil {
		t.Fatalf("pre-canceled context returned a preparation: %+v", s)
	}
	if reason := budget.ReasonOf(err); reason != budget.Canceled {
		t.Fatalf("error reason = %v, want Canceled: %v", reason, err)
	}
}

// TestWorkBudgetPartialPrefix sweeps the work allowance from starvation
// to completion and pins the Partial contract: a budgeted run never
// errors on work exhaustion, reports WorkExhausted in Stopped, and its
// PerK is a strict prefix of the unbounded run's curve — identical
// selections and scores cardinality by cardinality. The sweep must
// observe at least one non-empty partial prefix on its way up, so the
// prefix property is exercised, not vacuously true.
func TestWorkBudgetPartialPrefix(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "budget", Gates: 20, Couplings: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// NoRescore keeps Delay == Estimate on both sides so prefix entries
	// compare exactly.
	opt := Options{NoRescore: true}
	s, err := PrepareAddition(noise.NewModel(c), WholeCircuit, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.PerK) < 2 {
		t.Fatalf("reference curve too short to exercise prefixes: %d cardinalities", len(ref.PerK))
	}

	sawPrefix := false
	for w := int64(1); ; w *= 2 {
		if w > 1<<40 {
			t.Fatal("enumeration never completed within any work budget")
		}
		res, err := s.TopKBudget(budget.WithWork(context.Background(), w), 4)
		if err != nil {
			t.Fatalf("work budget %d: unexpected hard error: %v", w, err)
		}
		if !res.Partial {
			// Completion: the budgeted run must equal the unbounded one.
			if len(res.PerK) != len(ref.PerK) {
				t.Fatalf("complete budgeted run has %d cardinalities, reference %d", len(res.PerK), len(ref.PerK))
			}
			comparePrefix(t, w, res, ref)
			break
		}
		if res.Stopped == nil {
			t.Fatalf("work budget %d: Partial result carries no Stopped condition", w)
		}
		if reason := budget.ReasonOf(res.Stopped); reason != budget.WorkExhausted {
			t.Errorf("work budget %d: Stopped reason = %v, want WorkExhausted", w, reason)
		}
		if len(res.PerK) >= len(ref.PerK) {
			t.Errorf("work budget %d: partial result claims %d cardinalities, reference has %d",
				w, len(res.PerK), len(ref.PerK))
		}
		comparePrefix(t, w, res, ref)
		if len(res.PerK) > 0 {
			sawPrefix = true
		}
	}
	if !sawPrefix {
		t.Error("sweep never observed a non-empty partial prefix; budgets jumped from empty to complete")
	}
}

// comparePrefix asserts every completed cardinality of a (possibly
// partial) result is bit-identical to the unbounded reference.
func comparePrefix(t *testing.T, w int64, got, ref *Result) {
	t.Helper()
	for i, sel := range got.PerK {
		want := ref.PerK[i]
		if len(sel.IDs) != len(want.IDs) {
			t.Errorf("work budget %d, k=%d: %d aggressors selected, reference %d", w, i+1, len(sel.IDs), len(want.IDs))
			continue
		}
		for j := range sel.IDs {
			if sel.IDs[j] != want.IDs[j] {
				t.Errorf("work budget %d, k=%d: selection differs from unbounded run", w, i+1)
				break
			}
		}
		if math.Float64bits(sel.Estimate) != math.Float64bits(want.Estimate) ||
			math.Float64bits(sel.Delay) != math.Float64bits(want.Delay) {
			t.Errorf("work budget %d, k=%d: completed cardinality score differs from unbounded run", w, i+1)
		}
	}
}

// TestFixpointPreCanceled pins the same refusal one layer down: the
// noise fixpoint under an already-canceled context returns a typed
// cancellation error, not a half-swept analysis.
func TestFixpointPreCanceled(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "budget", Gates: 20, Couplings: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	an, err := noise.NewModel(c).RunBudget(budget.New(ctx), nil)
	if err == nil {
		t.Fatalf("pre-canceled fixpoint returned an analysis: %v", an)
	}
	if reason := budget.ReasonOf(err); reason != budget.Canceled {
		t.Fatalf("error reason = %v, want Canceled: %v", reason, err)
	}
}
