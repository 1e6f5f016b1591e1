// Package core implements the paper's contribution: computation of
// top-k aggressor addition and elimination sets by implicit
// enumeration with pseudo input aggressors and dominance-based pruning
// of irredundant lists (DAC'07, Sections 3.1-3.4).
package core

import (
	"time"

	"topkagg/internal/circuit"
	"topkagg/internal/noise"
)

// Options tune the enumeration. The zero value selects the defaults
// used throughout the benchmarks; tests that cross-validate against
// brute force use Exact().
type Options struct {
	// MaxListWidth caps each irredundant list after dominance pruning
	// (a beam). 0 selects DefaultListWidth; negative means unlimited
	// (the paper's exact lists).
	MaxListWidth int

	// MaxExtend caps, per victim, how many of the strongest primary
	// aggressors are used to extend lower-cardinality sets. 0 selects
	// DefaultExtend; negative means all primaries.
	MaxExtend int

	// MaxHigherOrder caps how many widening sets are considered per
	// primary aggressor when forming higher-order aggressors. 0
	// selects DefaultHigherOrder; negative means all available.
	MaxHigherOrder int

	// SlackFrac selects the victim nets: nets whose timing slack is at
	// most SlackFrac times the circuit delay are analyzed ("the
	// critical path and near-critical paths"). 0 selects
	// DefaultSlackFrac; values >= 1 analyze every net.
	SlackFrac float64

	// NoDominance disables dominance pruning (irredundant lists become
	// plain score-sorted beams). Used by the ablation benchmarks.
	NoDominance bool

	// NoPseudo disables pseudo-input-aggressor propagation. Used by
	// the ablation benchmarks.
	NoPseudo bool

	// NoRescore skips re-evaluating each selected set with the
	// reference noise engine; Result delays then carry the
	// enumeration's own estimates.
	NoRescore bool

	// Active restricts the enumeration to a subset of couplings (nil =
	// all). Feed it the Active mask of a false-aggressor filter pass
	// (package filter) to skip provably irrelevant couplings.
	Active noise.Mask

	// VerifyTop, when positive, re-evaluates the top VerifyTop
	// candidate sets at each cardinality with the (incremental)
	// reference noise engine and selects by measured delay instead of
	// by envelope estimate. This closes most of the gap between the
	// envelope model's estimates and ground truth — particularly for
	// the elimination problem, where joint removals interact through
	// gate masking — at the cost of VerifyTop incremental analyses per
	// cardinality.
	VerifyTop int

	// exactPrune disables the envelope-digest prefilter in dominance
	// pruning, running the exact PWL encapsulation check on every
	// candidate pair. The prefilter only rejects pairs the exact check
	// would also reject (DESIGN.md §10), so results do not change; the
	// digest-free prune is the oracle TestDigestParity holds the
	// prefilter to, and nothing outside the package's tests sets it.
	exactPrune bool
}

// Defaults for the zero Options value.
const (
	DefaultListWidth   = 24
	DefaultExtend      = 12
	DefaultHigherOrder = 4
	DefaultSlackFrac   = 0.30
)

// Exact returns options that disable every cap, analyze every net and
// verify the top candidates with the reference engine, matching the
// paper's exact enumeration. Intended for small circuits (brute-force
// cross-validation).
func Exact() Options {
	return Options{MaxListWidth: -1, MaxExtend: -1, MaxHigherOrder: -1, SlackFrac: 1, VerifyTop: 8}
}

func (o Options) listWidth() int {
	switch {
	case o.MaxListWidth < 0:
		return int(^uint(0) >> 1)
	case o.MaxListWidth == 0:
		return DefaultListWidth
	default:
		return o.MaxListWidth
	}
}

func (o Options) extend() int {
	switch {
	case o.MaxExtend < 0:
		return int(^uint(0) >> 1)
	case o.MaxExtend == 0:
		return DefaultExtend
	default:
		return o.MaxExtend
	}
}

func (o Options) higherOrder() int {
	switch {
	case o.MaxHigherOrder < 0:
		return int(^uint(0) >> 1)
	case o.MaxHigherOrder == 0:
		return DefaultHigherOrder
	default:
		return o.MaxHigherOrder
	}
}

func (o Options) slackFrac() float64 {
	if o.SlackFrac == 0 {
		return DefaultSlackFrac
	}
	return o.SlackFrac
}

// Selected is the winning aggressor set at one cardinality.
type Selected struct {
	// IDs are the coupling capacitors in the set, sorted.
	IDs []circuit.CouplingID
	// Estimate is the enumeration's own figure of merit: the estimated
	// circuit delay after adding (addition) or removing (elimination)
	// the set.
	Estimate float64
	// Delay is the circuit delay of the set re-evaluated with the
	// reference iterative noise engine (equal to Estimate when
	// rescoring is disabled).
	Delay float64
	// Verified distinguishes proven from heuristic figures: true when
	// Delay was measured by the reference noise engine (rescoring or
	// per-cardinality verification), false when it is the enumeration's
	// own envelope estimate. Partial results stopped mid-rescore carry
	// a mixed curve — the measured prefix true, the estimated tail
	// false.
	Verified bool
}

// Result is the outcome of a top-k run.
type Result struct {
	// K is the requested maximum cardinality.
	K int
	// PerK holds the best set per cardinality: PerK[i] is the top-(i+1)
	// aggressor set. Cardinalities for which no candidate exists (more
	// sets requested than couplings) are truncated.
	PerK []Selected
	// Victims is the number of victim nets enumerated.
	Victims int
	// BaseDelay is the noiseless circuit delay.
	BaseDelay float64
	// AllDelay is the circuit delay with every coupling active.
	AllDelay float64
	// Elapsed is the wall-clock enumeration time (excludes rescoring).
	Elapsed time.Duration
	// ElapsedPerK[i] is the cumulative enumeration time through
	// cardinality i+1 — the runtime a top-(i+1) run would have taken,
	// which is what the paper's Table 2 runtime columns report.
	ElapsedPerK []time.Duration
	// Stats instruments the enumeration: per-cardinality candidate and
	// pruning counts, list widths and wall times, plus the shared-state
	// cache counters when the run went through the serve layer.
	Stats *Stats
	// Partial reports that the enumeration stopped before reaching K
	// (deadline, cancellation or work budget): PerK holds exactly the
	// cardinalities that completed, each identical to what an unbounded
	// run computes for it. Worker panics never yield a partial result —
	// they surface as errors.
	Partial bool
	// Stopped is the typed early-stop condition when Partial is true
	// (unwraps to context.Canceled / context.DeadlineExceeded where
	// applicable; see internal/budget), nil otherwise.
	Stopped error
}

// Top returns the highest-cardinality selection (the top-k set).
func (r *Result) Top() Selected {
	if len(r.PerK) == 0 {
		return Selected{}
	}
	return r.PerK[len(r.PerK)-1]
}
