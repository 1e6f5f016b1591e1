package core

import (
	"fmt"

	"topkagg/internal/budget"
	"topkagg/internal/circuit"
	"topkagg/internal/noise"
)

// WholeCircuit selects the circuit's primary outputs as the analysis
// target (the paper's circuit-delay problems) instead of a single net.
const WholeCircuit circuit.NetID = -1

// Shared is the reusable, read-only engine state of one enumeration
// configuration: the all-aggressor fixpoint, victim selection,
// dominance intervals, primary-aggressor envelopes and (for
// elimination) the scoring totals. Building it is the expensive part
// of every TopK* call; once built, any number of TopK runs — including
// runs executing concurrently in different goroutines — can share one
// Shared instance. The serve package memoizes these per (mode, target)
// to answer sustained query traffic over one model.
type Shared struct {
	p *prepared
}

// PrepareAddition builds shared addition-problem state for the given
// target net (WholeCircuit analyzes the circuit outputs; a specific
// net analyzes that net's arrival over its full fanin cone).
func PrepareAddition(m *noise.Model, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareShared(m, nil, addition, net, opt)
}

// PrepareElimination builds shared elimination-problem state for the
// given target net (WholeCircuit analyzes the circuit outputs).
func PrepareElimination(m *noise.Model, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareShared(m, nil, elimination, net, opt)
}

// PrepareAdditionFrom is PrepareAddition with a precomputed
// all-aggressor fixpoint. full must be the result of m.Run(opt.Active);
// batch layers use this to amortize the fixpoint — the single most
// expensive preparation step — across many (mode, target) states.
func PrepareAdditionFrom(m *noise.Model, full *noise.Analysis, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareShared(m, full, addition, net, opt)
}

// PrepareEliminationFrom is PrepareElimination with a precomputed
// all-aggressor fixpoint (see PrepareAdditionFrom).
func PrepareEliminationFrom(m *noise.Model, full *noise.Analysis, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareShared(m, full, elimination, net, opt)
}

// PrepareAdditionBudget is PrepareAdditionFrom under a budget: the
// preparation (including its fixpoint run, when full is nil) polls b
// and stops early with a typed error. The serve layer builds its
// cached preparations under the triggering query's budget through
// this.
func PrepareAdditionBudget(b *budget.B, m *noise.Model, full *noise.Analysis, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareSharedB(b, m, full, addition, net, opt)
}

// PrepareEliminationBudget is PrepareEliminationFrom under a budget
// (see PrepareAdditionBudget).
func PrepareEliminationBudget(b *budget.B, m *noise.Model, full *noise.Analysis, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareSharedB(b, m, full, elimination, net, opt)
}

func prepareShared(m *noise.Model, full *noise.Analysis, md mode, net circuit.NetID, opt Options) (*Shared, error) {
	return prepareSharedB(nil, m, full, md, net, opt)
}

func prepareSharedB(b *budget.B, m *noise.Model, full *noise.Analysis, md mode, net circuit.NetID, opt Options) (*Shared, error) {
	if net != WholeCircuit && (int(net) < 0 || int(net) >= m.C.NumNets()) {
		return nil, fmt.Errorf("core: no net %d in circuit %s", net, m.C.Name)
	}
	p, err := newPrepared(m, opt, md, net, full, b)
	if err != nil {
		return nil, err
	}
	return &Shared{p: p}, nil
}

// TopK runs a fresh enumeration up to cardinality k over the shared
// state. Safe for concurrent use: each call takes its own engine, and
// the shared state is never written after Prepare* returns. Given
// identical k, the result is identical to a cold TopK* call with the
// same configuration.
func (s *Shared) TopK(k int) (*Result, error) {
	return s.p.newEngine(nil).run(k)
}

// TopKBudget is TopK under a full budget — cancellation, deadline and
// a candidate-evaluation work allowance (budget.WithWork). The
// enumeration polls b between candidate batches and degrades to a
// Partial result carrying the cardinalities that completed (see
// Result.Partial). A nil budget runs unbounded.
func (s *Shared) TopKBudget(b *budget.B, k int) (*Result, error) {
	return s.p.newEngine(b).run(k)
}

// FullAnalysis returns the memoized fixpoint of the configuration's
// active mask (all aggressors unless Options.Active restricts them).
// It is read-only; callers may share it, e.g. as the base of
// incremental what-if re-analyses.
func (s *Shared) FullAnalysis() *noise.Analysis { return s.p.full }

// NumVictims returns how many victim nets the configuration enumerates.
func (s *Shared) NumVictims() int { return len(s.p.victims) }

// EnvCacheStats returns the lifetime hit/miss totals of the shared
// Rule-1 set-envelope intern table, accumulated over every run (and
// every concurrent query) executed against this prepared state. The
// serve layer surfaces these for its cached preparations.
func (s *Shared) EnvCacheStats() (hits, misses int64) { return s.p.envc.Stats() }

// Target returns the configured answer net (WholeCircuit when the
// enumeration targets the circuit outputs).
func (s *Shared) Target() circuit.NetID { return s.p.target }
