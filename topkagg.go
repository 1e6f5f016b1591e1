// Package topkagg is a library for identifying the top-k aggressor
// coupling sets in crosstalk delay-noise analysis, reproducing
// "Top-k Aggressors Sets in Delay Noise Analysis" (Gandikota, Chopra,
// Blaauw, Sylvester, Becer — DAC 2007).
//
// The library answers two dual questions about a gate-level design
// with coupling capacitors:
//
//   - Addition set: which k couplings, if their crosstalk is
//     considered on top of noiseless timing, increase circuit delay
//     the most?
//   - Elimination set: which k couplings, if fixed (shielded or
//     spaced), recover the most circuit delay from the fully noisy
//     design?
//
// Both are computed by the paper's implicit enumeration: candidate
// aggressor sets propagate through the circuit in topological order as
// pseudo aggressors, and dominance between noise envelopes prunes the
// search to irredundant lists.
//
// A minimal session:
//
//	c, err := topkagg.LoadNetlist("design.ckt")
//	m := topkagg.NewModel(c)
//	res, err := topkagg.TopKElimination(m, 10, topkagg.Options{})
//	for _, cpl := range res.Top().IDs {
//	    fmt.Println("shield:", topkagg.CouplingString(c, cpl))
//	}
//
// The underlying substrates (PWL waveform algebra, synthetic cell
// library, netlist format, static timing, linear noise analysis,
// brute-force baseline and benchmark generator) live in the internal
// packages and are re-exported here only to the extent a library user
// needs.
package topkagg

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"topkagg/internal/bruteforce"
	"topkagg/internal/budget"
	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/filter"
	"topkagg/internal/gen"
	"topkagg/internal/kselect"
	"topkagg/internal/liberty"
	"topkagg/internal/mc"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
	"topkagg/internal/obs"
	"topkagg/internal/pathreport"
	"topkagg/internal/serve"
	"topkagg/internal/sizing"
	"topkagg/internal/spef"
	"topkagg/internal/sta"
	"topkagg/internal/verilog"
)

// Re-exported types. These aliases form the public API surface; see
// the internal packages for full documentation of each.
type (
	// Circuit is a gate-level netlist with coupled parasitics.
	Circuit = circuit.Circuit
	// CouplingID identifies one coupling capacitor in a Circuit.
	CouplingID = circuit.CouplingID
	// NetID identifies a net in a Circuit.
	NetID = circuit.NetID
	// Library is a standard-cell library.
	Library = cell.Library
	// Model binds the linear noise-analysis framework to a circuit.
	Model = noise.Model
	// Mask selects the active subset of coupling capacitors.
	Mask = noise.Mask
	// Analysis is the result of one iterative noise-aware timing run.
	Analysis = noise.Analysis
	// Window is a net's switching window (EAT/LAT/slew).
	Window = sta.Window
	// Options tune the top-k enumeration.
	Options = core.Options
	// Result is a top-k run's outcome with per-cardinality selections.
	Result = core.Result
	// Selected is the winning aggressor set at one cardinality.
	Selected = core.Selected
	// Spec describes a synthetic benchmark for Generate.
	Spec = gen.Spec
	// BruteForceResult is the outcome of an exhaustive baseline search.
	BruteForceResult = bruteforce.Result
	// DriverModel abstracts the victim holding-driver model for noise
	// pulses (paper future work: nonlinear driver models).
	DriverModel = noise.DriverModel
	// LinearThevenin is the paper's default linear holding driver.
	LinearThevenin = noise.LinearThevenin
	// SaturatingCSM is the first-order nonlinear (current-source-
	// model-flavored) holding driver.
	SaturatingCSM = noise.SaturatingCSM
	// KneeParams tune GoodK's convergence detection.
	KneeParams = kselect.Params
	// FilterOptions tune false-aggressor pruning.
	FilterOptions = filter.Options
	// FilterResult reports false-aggressor classification.
	FilterResult = filter.Result
	// IncrementalStats reports what an incremental noise run did.
	IncrementalStats = noise.IncrementalStats
	// SizingOptions tune the crosstalk-driven upsizing optimizer.
	SizingOptions = sizing.Options
	// SizingResult summarizes an upsizing run.
	SizingResult = sizing.Result
	// Explanation breaks a selected set into verified per-coupling
	// marginal and solo effects plus a synergy term.
	Explanation = core.Explanation
	// Contribution is one coupling's share of an Explanation.
	Contribution = core.Contribution
	// MCConfig controls a Monte-Carlo switching-scenario run.
	MCConfig = mc.Config
	// MCResult is a sampled crosstalk-delay distribution.
	MCResult = mc.Result
	// Analyzer answers batches of top-k and what-if queries over one
	// model, memoizing the expensive shared engine state across queries.
	Analyzer = serve.Analyzer
	// Query is one unit of work for an Analyzer batch.
	Query = serve.Query
	// QueryLimits bound one query's execution (timeout + work budget).
	QueryLimits = serve.Limits
	// Response is the outcome of one Query.
	Response = serve.Response
	// QueryOp selects what a Query computes.
	QueryOp = serve.Op
	// AnalyzerStats aggregates an Analyzer's cache counters.
	AnalyzerStats = serve.Stats
	// EngineStats instruments one top-k enumeration (see Result.Stats).
	EngineStats = core.Stats
	// KStats instruments one cardinality of an enumeration.
	KStats = core.KStats
	// Metrics is a registry of counters, histograms and spans the
	// analysis engines publish into when attached to a Model (see
	// NewMetrics and Model.WithObs). Nil-safe: a nil *Metrics disables
	// all instrumentation at near-zero cost.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time, JSON-serializable copy of
	// every metric in a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// DebugServer is a running metrics/expvar/pprof HTTP endpoint.
	DebugServer = obs.DebugServer
	// Budget bounds one run by a context's cancellation and deadline
	// (see NewBudget, Model.RunBudget and Model.RunIncrementalBudget).
	// A nil *Budget runs unbounded.
	Budget = budget.B
)

// Query operations and targets for the batch Analyzer.
const (
	// OpAddition asks for top-k aggressor addition sets.
	OpAddition = serve.Addition
	// OpElimination asks for top-k aggressor elimination sets.
	OpElimination = serve.Elimination
	// OpWhatIf evaluates one explicit fix scenario incrementally.
	OpWhatIf = serve.WhatIf
	// WholeCircuit targets the circuit outputs rather than one net.
	WholeCircuit = serve.WholeCircuit
)

// DefaultLibrary returns the synthetic 0.13µm-scale standard-cell
// library used by the netlist parser and the benchmark generator.
func DefaultLibrary() *Library { return cell.Default() }

// ParseNetlist reads a circuit in the text netlist format using the
// default cell library.
func ParseNetlist(r io.Reader) (*Circuit, error) {
	return netlist.Parse(r, cell.Default())
}

// ParseNetlistString parses an in-memory netlist.
func ParseNetlistString(s string) (*Circuit, error) {
	return netlist.ParseString(s, cell.Default())
}

// LoadNetlist reads a circuit from a netlist file.
func LoadNetlist(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topkagg: %w", err)
	}
	defer f.Close()
	c, err := netlist.Parse(f, cell.Default())
	if err != nil {
		return nil, fmt.Errorf("topkagg: %s: %w", path, err)
	}
	return c, nil
}

// WriteNetlist emits a circuit in canonical netlist form.
func WriteNetlist(w io.Writer, c *Circuit) error { return netlist.Write(w, c) }

// NetlistString renders a circuit in canonical netlist form.
func NetlistString(c *Circuit) string { return netlist.String(c) }

// Generate builds a synthetic coupled benchmark circuit from a spec.
func Generate(spec Spec) (*Circuit, error) { return gen.Build(spec) }

// GenerateBenchmark builds one of the paper's benchmarks (i1..i10).
func GenerateBenchmark(name string) (*Circuit, error) { return gen.BuildPaper(name) }

// Benchmarks returns the specs of the paper's ten benchmarks.
func Benchmarks() []Spec { return gen.Paper() }

// NewModel creates a noise model for a circuit with default iteration
// controls.
func NewModel(c *Circuit) *Model { return noise.NewModel(c) }

// NewMetrics creates an empty metric registry. Attach it with
// Model.WithObs (or by setting Model.Obs) to have the fixpoint, STA,
// enumeration and batch layers publish counters, histograms and spans
// into it; read them back with its Snapshot method, serve them over
// HTTP with ServeDebug, or render them with Snapshot.WriteTable.
func NewMetrics() *Metrics { return obs.New() }

// ServeDebug starts an HTTP debug endpoint for the registry on addr
// (e.g. "localhost:6060"), exposing /debug/metrics (JSON snapshot),
// /debug/vars (expvar) and /debug/pprof/. Close the returned server
// when done.
func ServeDebug(r *Metrics, addr string) (*DebugServer, error) { return r.ServeDebug(addr) }

// TopKAddition computes, for every cardinality 1..k, the coupling set
// whose activation adds the most circuit delay to noiseless timing.
func TopKAddition(m *Model, k int, opt Options) (*Result, error) {
	return core.TopKAddition(m, k, opt)
}

// TopKElimination computes, for every cardinality 1..k, the coupling
// set whose removal recovers the most circuit delay from the fully
// noisy design.
func TopKElimination(m *Model, k int, opt Options) (*Result, error) {
	return core.TopKElimination(m, k, opt)
}

// TopKAdditionAt computes top-k addition sets for one designated
// victim net ("which k couplings most delay THIS net?"); the net's
// full fanin cone is analyzed regardless of slack.
func TopKAdditionAt(m *Model, net NetID, k int, opt Options) (*Result, error) {
	return core.TopKAdditionAt(m, net, k, opt)
}

// TopKEliminationAt computes top-k elimination sets for one designated
// victim net ("which k couplings to fix to recover THIS net?").
func TopKEliminationAt(m *Model, net NetID, k int, opt Options) (*Result, error) {
	return core.TopKEliminationAt(m, net, k, opt)
}

// TopKAdditionCtx is TopKAddition honoring the context's cancellation
// and deadline: the engines poll it at bounded granularity, and an
// enumeration stopped mid-run returns a best-effort Result with
// Partial set, holding exactly the cardinalities that completed (each
// identical to an unbounded run's).
func TopKAdditionCtx(ctx context.Context, m *Model, k int, opt Options) (*Result, error) {
	return topKCtx(ctx, core.PrepareAdditionBudget, m, core.WholeCircuit, k, opt)
}

// TopKEliminationCtx is TopKElimination honoring the context (see
// TopKAdditionCtx).
func TopKEliminationCtx(ctx context.Context, m *Model, k int, opt Options) (*Result, error) {
	return topKCtx(ctx, core.PrepareEliminationBudget, m, core.WholeCircuit, k, opt)
}

// TopKAdditionAtCtx is TopKAdditionAt honoring the context (see
// TopKAdditionCtx).
func TopKAdditionAtCtx(ctx context.Context, m *Model, net NetID, k int, opt Options) (*Result, error) {
	return topKCtx(ctx, core.PrepareAdditionBudget, m, net, k, opt)
}

// TopKEliminationAtCtx is TopKEliminationAt honoring the context (see
// TopKAdditionCtx).
func TopKEliminationAtCtx(ctx context.Context, m *Model, net NetID, k int, opt Options) (*Result, error) {
	return topKCtx(ctx, core.PrepareEliminationBudget, m, net, k, opt)
}

// topKCtx prepares the enumeration state and runs it to cardinality k
// under one budget bound to ctx, so a stop during the preparation
// returns a typed error and a stop during the enumeration a Partial
// result.
func topKCtx(ctx context.Context, prepare func(*budget.B, *Model, *noise.Analysis, NetID, Options) (*core.Shared, error),
	m *Model, net NetID, k int, opt Options) (*Result, error) {
	b := NewBudget(ctx)
	s, err := prepare(b, m, nil, net, opt)
	if err != nil {
		return nil, err
	}
	return s.TopKBudget(b, k)
}

// NewBudget returns a budget bound to ctx: a run given it stops with
// an error once ctx is canceled or its deadline passes (see
// StopReason).
func NewBudget(ctx context.Context) *Budget { return budget.New(ctx) }

// StopReason classifies an error returned anywhere in the stack as an
// early-stop condition: "canceled", "deadline", "work-budget" or
// "worker-panic" for stops, "" for ordinary errors (and nil). Use it
// to distinguish a timed-out run from a genuinely failed one.
func StopReason(err error) string {
	if r := budget.ReasonOf(err); r != budget.None {
		return r.String()
	}
	return ""
}

// ExactOptions returns enumeration options with every pruning cap
// lifted (the paper's exact lists) — intended for small circuits.
func ExactOptions() Options { return core.Exact() }

// NewAnalyzer creates a batch-query Analyzer over the model. Unlike
// the one-shot TopK* calls, an Analyzer performs the noise fixpoint at
// most once and memoizes per-target engine state, so k-sweeps and
// per-net scans amortize the preparation. All methods are safe for
// concurrent use, and batch results are identical regardless of the
// worker count.
func NewAnalyzer(m *Model, opt Options) *Analyzer { return serve.NewAnalyzer(m, opt) }

// KSweepQueries builds one top-k query per target net — the batch
// workload an Analyzer amortizes best.
func KSweepQueries(op QueryOp, nets []NetID, k int) []Query {
	return serve.KSweep(op, nets, k)
}

// BruteForceAddition exhaustively searches all C(r, k) coupling
// subsets for the worst addition set. budget bounds the wall-clock
// time (0 = unbounded).
func BruteForceAddition(m *Model, k int, budget time.Duration) (*BruteForceResult, error) {
	return bruteforce.Addition(m, k, budget)
}

// BruteForceElimination exhaustively searches all C(r, k) coupling
// subsets for the best elimination set.
func BruteForceElimination(m *Model, k int, budget time.Duration) (*BruteForceResult, error) {
	return bruteforce.Elimination(m, k, budget)
}

// BruteForceAdditionParallel is BruteForceAddition distributed over
// worker goroutines (workers <= 0 selects GOMAXPROCS); results are
// deterministic regardless of worker count.
func BruteForceAdditionParallel(m *Model, k int, budget time.Duration, workers int) (*BruteForceResult, error) {
	return bruteforce.AdditionParallel(m, k, budget, workers)
}

// BruteForceEliminationParallel is the parallel elimination baseline.
func BruteForceEliminationParallel(m *Model, k int, budget time.Duration, workers int) (*BruteForceResult, error) {
	return bruteforce.EliminationParallel(m, k, budget, workers)
}

// ParseNetlistWith parses the native netlist format against a custom
// cell library (e.g. one loaded with ParseLiberty).
func ParseNetlistWith(r io.Reader, lib *Library) (*Circuit, error) {
	return netlist.Parse(r, lib)
}

// ParseVerilog reads a gate-level structural Verilog netlist (one
// module, named pin connections) using the default cell library. Pair
// with ApplySPEF for parasitics.
func ParseVerilog(r io.Reader) (*Circuit, error) {
	return verilog.Parse(r, cell.Default())
}

// ParseVerilogWith parses Verilog against a custom cell library.
func ParseVerilogWith(r io.Reader, lib *Library) (*Circuit, error) {
	return verilog.Parse(r, lib)
}

// ParseLiberty reads a Liberty-subset (.lib) standard-cell library.
func ParseLiberty(r io.Reader) (*Library, error) { return liberty.Parse(r) }

// WriteLiberty emits a cell library in Liberty-subset form.
func WriteLiberty(w io.Writer, lib *Library) error { return liberty.Write(w, lib) }

// WriteVerilog emits the circuit as gate-level Verilog (topology
// only; parasitics go to WriteSPEF).
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// ApplySPEF reads a SPEF parasitics file and applies its ground
// capacitances, wire resistances and coupling capacitors to the
// circuit's nets.
func ApplySPEF(r io.Reader, c *Circuit) error { return spef.Apply(r, c) }

// WriteSPEF emits the circuit's parasitics in SPEF form.
func WriteSPEF(w io.Writer, c *Circuit) error { return spef.Write(w, c) }

// FalseAggressors classifies every coupling direction of the model's
// circuit, returning the couplings (and directions) that can never
// produce delay noise; feed Result.Active to Model.Run or drop the
// couplings before enumeration.
func FalseAggressors(m *Model, opt FilterOptions) (*FilterResult, error) {
	return filter.FalseAggressors(m, opt)
}

// CriticalReport renders a sign-off-style critical-path report with
// crosstalk annotations for a completed analysis.
func CriticalReport(an *Analysis) string {
	return pathreport.Critical(an, pathreport.Options{})
}

// NoisyNetsReport renders the nets with the largest delay noise.
func NoisyNetsReport(an *Analysis, top int) string {
	return pathreport.NoisyNets(an, top)
}

// NoisePlot renders an ASCII chart of one net's victim transition,
// combined aggressor envelope and resulting noisy transition — the
// picture behind the paper's Figures 2-5, from actual analysis data.
func NoisePlot(an *Analysis, m *Model, net NetID) string {
	return pathreport.NoisePlot(an, m, net, pathreport.PlotOptions{})
}

// MonteCarloDelay samples realistic switching scenarios (each
// coupling active with the configured activity factor) and returns
// the resulting circuit-delay distribution — the probabilistic
// counterpart to worst-case top-k analysis.
func MonteCarloDelay(m *Model, cfg MCConfig) (*MCResult, error) {
	return mc.Run(m, cfg)
}

// ExplainAddition measures each member's leave-one-out and solo
// effects within an addition set, plus the combination synergy.
func ExplainAddition(m *Model, ids []CouplingID) (*Explanation, error) {
	return core.ExplainAddition(m, ids)
}

// ExplainElimination is the dual breakdown for an elimination set.
func ExplainElimination(m *Model, ids []CouplingID) (*Explanation, error) {
	return core.ExplainElimination(m, ids)
}

// OptimizeSizing greedily upsizes the drivers of the noisiest
// near-critical nets until budget moves are spent or nothing improves
// the measured noisy delay — the gate-sizing alternative to fixing
// couplings via the elimination set. The circuit is modified in place.
func OptimizeSizing(m *Model, budget int, opt SizingOptions) (*SizingResult, error) {
	return sizing.Optimize(m, budget, opt)
}

// FixToTarget runs the elimination analysis and returns the smallest
// cardinality whose fix set brings the circuit delay down to target
// (and that selection). ok is false if even maxK fixes cannot reach
// the target; the best achieved selection is still returned.
func FixToTarget(m *Model, target float64, maxK int, opt Options) (sel Selected, k int, ok bool, err error) {
	res, err := TopKElimination(m, maxK, opt)
	if err != nil {
		return Selected{}, 0, false, err
	}
	for i, s := range res.PerK {
		if s.Delay <= target {
			return s, i + 1, true, nil
		}
	}
	if len(res.PerK) == 0 {
		return Selected{}, 0, res.AllDelay <= target, nil
	}
	last := res.PerK[len(res.PerK)-1]
	return last, len(res.PerK), false, nil
}

// GoodK implements the paper's future-work item of picking a "good"
// value of k: given a top-k Result it returns the smallest cardinality
// beyond which the per-cardinality delay curve stays flat (marginal
// change below the params' fraction of the noiseless-to-all-aggressor
// span for several consecutive cardinalities). settled is false when
// the curve is still moving at the largest computed cardinality.
func GoodK(res *Result, p KneeParams) (k int, settled bool, err error) {
	curve := make([]float64, len(res.PerK))
	for i, s := range res.PerK {
		curve[i] = s.Delay
	}
	return kselect.GoodK(curve, res.BaseDelay, res.AllDelay, p)
}

// CouplingString renders a coupling capacitor as "netA<->netB (x.x fF)".
func CouplingString(c *Circuit, id CouplingID) string {
	cp := c.Coupling(id)
	return fmt.Sprintf("%s<->%s (%.2f fF)", c.Net(cp.A).Name, c.Net(cp.B).Name, cp.Cc)
}
