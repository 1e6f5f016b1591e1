// Command topk runs top-k aggressor analysis on a circuit: either the
// addition set (which k couplings would add the most delay to
// noiseless timing) or the elimination set (which k couplings to fix
// for the largest delay recovery).
//
// Circuits load from the native netlist format, from gate-level
// Verilog plus SPEF parasitics, or from the built-in benchmark
// generator:
//
//	topk -netlist design.ckt -k 10 -mode elim
//	topk -verilog design.v -spef design.spef -k 10 -mode elim
//	topk -bench i2 -k 20 -mode add -curve -report
//
// A batch of queries runs against one shared analyzer (the noise
// fixpoint and per-target engine state are computed once and reused),
// optionally across a worker pool:
//
//	topk -bench i2 -batch queries.json -workers 4 -stats
//
// where queries.json is an array like
//
//	[{"op": "add", "k": 5},
//	 {"op": "elim", "net": "n42", "k": 3},
//	 {"op": "whatif", "fix": [1, 2, 7]}]
//
// An empty "net" targets the circuit outputs; a missing "k" takes the
// -k flag's value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"topkagg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes. Timeout and degraded are distinct so scripts can tell "no
// answer in time" (retry with a larger budget) from "best-effort answer
// printed" (usable, but not the full curve).
const (
	exitOK       = 0
	exitErr      = 1
	exitUsage    = 2
	exitTimeout  = 3 // the time/work budget expired before any usable result
	exitDegraded = 4 // a partial or degraded result was printed
)

// config carries the parsed flag values; run logic lives on methods so
// tests can drive the command without a process boundary.
type config struct {
	netlist, verilog, spef, bench, lib string
	k                                  int
	mode                               string
	exact                              bool
	curve, report, prefilter           bool
	plot, net                          string
	asJSON                             bool
	stats                              bool
	workers                            int
	fixWorkers                         int
	batch                              string
	metrics                            bool
	debugAddr                          string
	timeout                            time.Duration
	budget                             int64

	stderr io.Writer // degraded-result warnings
}

// run is the whole command: parse args, execute, report. It returns
// the process exit code and writes only to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("topk", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.netlist, "netlist", "", "circuit netlist file (native format)")
	fs.StringVar(&cfg.verilog, "verilog", "", "gate-level Verilog netlist file")
	fs.StringVar(&cfg.spef, "spef", "", "SPEF parasitics file (with -verilog)")
	fs.StringVar(&cfg.bench, "bench", "", "paper benchmark name instead of a file")
	fs.StringVar(&cfg.lib, "lib", "", "Liberty (.lib) cell library (default: built-in synthetic library)")
	fs.IntVar(&cfg.k, "k", 10, "set cardinality")
	fs.StringVar(&cfg.mode, "mode", "add", "add (addition set) or elim (elimination set)")
	fs.BoolVar(&cfg.exact, "exact", false, "disable all pruning caps (small circuits only)")
	fs.BoolVar(&cfg.curve, "curve", false, "print the full per-cardinality delay curve")
	fs.BoolVar(&cfg.report, "report", false, "print the noisy critical-path report")
	fs.BoolVar(&cfg.prefilter, "filter", false, "report false-aggressor classification before the analysis")
	fs.StringVar(&cfg.plot, "plot", "", "net name: plot its transition, noise envelope and noisy waveform")
	fs.StringVar(&cfg.net, "net", "", "net name: analyze this net's arrival instead of the circuit outputs")
	fs.BoolVar(&cfg.asJSON, "json", false, "emit the result as JSON (for scripting)")
	fs.BoolVar(&cfg.stats, "stats", false, "print engine instrumentation (per-cardinality counters, cache activity)")
	fs.IntVar(&cfg.workers, "workers", 0, "worker goroutines for -batch (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.fixWorkers, "fixpoint-workers", 0, "worker goroutines inside each noise-fixpoint sweep (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.batch, "batch", "", "JSON batch-query file; all queries share one analyzer")
	fs.BoolVar(&cfg.metrics, "metrics", false, "print the engine metrics summary table after the run")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address during the run (e.g. localhost:6060)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-query wall-clock limit; a run stopped mid-enumeration prints its best-effort prefix (0 = none)")
	fs.Int64Var(&cfg.budget, "budget", 0, "per-query work allowance in candidate evaluations (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	cfg.stderr = stderr
	code, err := cfg.execute(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "topk:", err)
	}
	return code
}

func (cfg *config) execute(w io.Writer) (int, error) {
	if cfg.workers < 0 {
		return exitErr, fmt.Errorf("-workers must be >= 0, got %d", cfg.workers)
	}
	if cfg.fixWorkers < 0 {
		return exitErr, fmt.Errorf("-fixpoint-workers must be >= 0, got %d", cfg.fixWorkers)
	}
	if cfg.timeout < 0 {
		return exitErr, fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	}
	if cfg.budget < 0 {
		return exitErr, fmt.Errorf("-budget must be >= 0, got %d", cfg.budget)
	}
	lib, err := loadLibrary(cfg.lib)
	if err != nil {
		return exitErr, err
	}
	c, err := loadCircuit(lib, cfg.netlist, cfg.verilog, cfg.spef, cfg.bench)
	if err != nil {
		return exitErr, err
	}
	m := topkagg.NewModel(c)
	if cfg.fixWorkers > 0 {
		m = m.WithWorkers(cfg.fixWorkers)
	}
	var reg *topkagg.Metrics
	if cfg.metrics || cfg.debugAddr != "" {
		reg = topkagg.NewMetrics()
		m = m.WithObs(reg)
	}
	if cfg.debugAddr != "" {
		d, err := topkagg.ServeDebug(reg, cfg.debugAddr)
		if err != nil {
			return exitErr, err
		}
		defer d.Close()
		fmt.Fprintf(w, "debug endpoint on http://%s/ (metrics, expvar, pprof)\n", d.Addr())
	}
	opt := topkagg.Options{}
	if cfg.exact {
		opt = topkagg.ExactOptions()
	}

	if cfg.prefilter {
		fr, err := topkagg.FalseAggressors(m, topkagg.FilterOptions{})
		if err != nil {
			return exitErr, err
		}
		fmt.Fprintf(w, "false-aggressor filter: %d of %d couplings removable; false directions: %d early, %d late, %d unobservable, %d sub-threshold\n\n",
			len(fr.False), c.NumCouplings(),
			fr.EarlyFiltered, fr.LateFiltered, fr.UnobservableFiltered, fr.MagnitudeFiltered)
	}

	var code int
	var runErr error
	if cfg.batch != "" {
		code, runErr = cfg.runBatch(w, c, m, opt)
	} else {
		code, runErr = cfg.runSingle(w, c, m, opt)
	}
	// The metrics table prints even after a partially failed batch:
	// what the engines did up to the failure is exactly what the flag
	// asks to see.
	if cfg.metrics {
		fmt.Fprintln(w, "\nengine metrics:")
		if err := reg.Snapshot().WriteTable(w); err != nil && runErr == nil {
			code, runErr = exitErr, err
		}
	}
	return code, runErr
}

// limits builds the per-query execution limits from the flags.
func (cfg *config) limits() topkagg.QueryLimits {
	return topkagg.QueryLimits{Timeout: cfg.timeout, MaxWork: cfg.budget}
}

// limited reports whether any execution limit is in force.
func (cfg *config) limited() bool { return cfg.timeout > 0 || cfg.budget > 0 }

// classify maps an error to its exit code: a budget-stopped run that
// produced nothing is a timeout, everything else is a hard error.
func classify(err error) int {
	switch topkagg.StopReason(err) {
	case "deadline", "canceled", "work-budget":
		return exitTimeout
	default:
		return exitErr
	}
}

// runSingle is the original one-query mode.
func (cfg *config) runSingle(w io.Writer, c *topkagg.Circuit, m *topkagg.Model, opt topkagg.Options) (int, error) {
	var target topkagg.NetID = topkagg.WholeCircuit
	if cfg.net != "" {
		id, ok := c.NetByName(cfg.net)
		if !ok {
			return exitErr, fmt.Errorf("no net %q", cfg.net)
		}
		target = id
	}
	var op topkagg.QueryOp
	switch cfg.mode {
	case "add":
		op = topkagg.OpAddition
	case "elim":
		op = topkagg.OpElimination
	default:
		return exitErr, fmt.Errorf("unknown -mode %q (want add or elim)", cfg.mode)
	}
	var res *topkagg.Result
	var err error
	code := exitOK
	if cfg.limited() {
		// Route through the analyzer so the limits apply and a stopped
		// run degrades to its best-effort prefix instead of failing.
		a := topkagg.NewAnalyzer(m, opt)
		resp := a.DoCtx(context.Background(), topkagg.Query{Op: op, Net: target, K: cfg.k, Limits: cfg.limits()})
		if resp.Err != nil {
			return classify(resp.Err), resp.Err
		}
		res = resp.Result
		if resp.Degraded != "" {
			fmt.Fprintf(cfg.stderr, "topk: degraded result (%s): %d of %d cardinalities completed\n",
				resp.Degraded, len(res.PerK), cfg.k)
			code = exitDegraded
		}
	} else {
		switch {
		case op == topkagg.OpAddition && target >= 0:
			res, err = topkagg.TopKAdditionAt(m, target, cfg.k, opt)
		case op == topkagg.OpAddition:
			res, err = topkagg.TopKAddition(m, cfg.k, opt)
		case target >= 0:
			res, err = topkagg.TopKEliminationAt(m, target, cfg.k, opt)
		default:
			res, err = topkagg.TopKElimination(m, cfg.k, opt)
		}
		if err != nil {
			return exitErr, err
		}
	}

	if cfg.asJSON {
		if err := emitJSON(w, c, cfg.mode, res); err != nil {
			return exitErr, err
		}
		return code, nil
	}
	fmt.Fprintf(w, "circuit %s: %d gates, %d couplings, %d victim nets analyzed\n",
		c.Name, c.NumGates(), c.NumCouplings(), res.Victims)
	scope := "circuit"
	if cfg.net != "" {
		scope = "net " + cfg.net
	}
	fmt.Fprintf(w, "%s: noiseless arrival %.4f ns, all-aggressor arrival %.4f ns\n", scope, res.BaseDelay, res.AllDelay)
	fmt.Fprintf(w, "enumeration time %s\n", res.Elapsed)
	if len(res.PerK) == 0 {
		if res.Partial {
			fmt.Fprintln(w, "no cardinality completed within the budget")
			return exitTimeout, nil
		}
		fmt.Fprintln(w, "no aggressor sets found (no couplings affect the analyzed paths)")
		return code, nil
	}
	if cfg.curve {
		fmt.Fprintln(w, "\nk  delay(ns)  set")
		for i, s := range res.PerK {
			fmt.Fprintf(w, "%-2d %.4f", i+1, s.Delay)
			fmt.Fprintf(w, "  %v\n", s.IDs)
		}
	}
	top := res.Top()
	fmt.Fprintf(w, "\ntop-%d %s set (delay %.4f ns):\n", len(top.IDs), cfg.mode, top.Delay)
	for _, id := range top.IDs {
		fmt.Fprintf(w, "  %s\n", topkagg.CouplingString(c, id))
	}
	if cfg.stats {
		printStats(w, res.Stats)
	}

	if cfg.report || cfg.plot != "" {
		an, err := m.Run(nil)
		if err != nil {
			return exitErr, err
		}
		if cfg.report {
			fmt.Fprintln(w)
			fmt.Fprint(w, topkagg.CriticalReport(an))
		}
		if cfg.plot != "" {
			id, ok := c.NetByName(cfg.plot)
			if !ok {
				return exitErr, fmt.Errorf("no net %q", cfg.plot)
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, topkagg.NoisePlot(an, m, id))
		}
	}
	return code, nil
}

// batchQuery is one entry of the -batch JSON file.
type batchQuery struct {
	// Op is "add"/"addition", "elim"/"elimination" or "whatif".
	Op string `json:"op"`
	// Net names the target net; empty targets the circuit outputs.
	Net string `json:"net,omitempty"`
	// K is the cardinality for top-k ops; 0 takes the -k flag value.
	K int `json:"k,omitempty"`
	// Fix lists coupling IDs a whatif scenario deactivates.
	Fix []int `json:"fix,omitempty"`
}

// runBatch loads the batch file, answers every query over one shared
// analyzer and prints aligned per-query results. Per-query failures
// are reported inline; the command fails if any query failed, and
// degrades its exit code when any query returned a best-effort result.
func (cfg *config) runBatch(w io.Writer, c *topkagg.Circuit, m *topkagg.Model, opt topkagg.Options) (int, error) {
	data, err := os.ReadFile(cfg.batch)
	if err != nil {
		return exitErr, err
	}
	var specs []batchQuery
	if err := json.Unmarshal(data, &specs); err != nil {
		return exitErr, fmt.Errorf("%s: %w", cfg.batch, err)
	}
	if len(specs) == 0 {
		return exitErr, fmt.Errorf("%s: batch contains no queries", cfg.batch)
	}
	queries := make([]topkagg.Query, len(specs))
	for i, s := range specs {
		q := topkagg.Query{Net: topkagg.WholeCircuit, K: s.K, Limits: cfg.limits()}
		switch s.Op {
		case "add", "addition":
			q.Op = topkagg.OpAddition
		case "elim", "elimination":
			q.Op = topkagg.OpElimination
		case "whatif":
			q.Op = topkagg.OpWhatIf
		default:
			return exitErr, fmt.Errorf("%s: query %d: unknown op %q (want add, elim or whatif)", cfg.batch, i, s.Op)
		}
		if s.Net != "" {
			id, ok := c.NetByName(s.Net)
			if !ok {
				return exitErr, fmt.Errorf("%s: query %d: no net %q", cfg.batch, i, s.Net)
			}
			q.Net = id
		}
		if q.K == 0 {
			q.K = cfg.k
		}
		for _, id := range s.Fix {
			q.Fix = append(q.Fix, topkagg.CouplingID(id))
		}
		queries[i] = q
	}

	a := topkagg.NewAnalyzer(m, opt)
	start := time.Now()
	resps := a.RunBatch(queries, cfg.workers)
	elapsed := time.Since(start)

	failed, timedOut, degraded := 0, 0, 0
	for i, r := range resps {
		switch {
		case r.Err != nil:
			failed++
			if classify(r.Err) == exitTimeout {
				timedOut++
			}
		case r.Degraded != "":
			degraded++
			fmt.Fprintf(cfg.stderr, "topk: query %d degraded (%s)\n", i, r.Degraded)
		}
	}
	code := exitOK
	switch {
	case failed > 0 && failed == timedOut && degraded == 0:
		code = exitTimeout
	case failed > 0:
		code = exitErr
	case degraded > 0:
		code = exitDegraded
	}

	if cfg.asJSON {
		if err := emitBatchJSON(w, c, specs, resps); err != nil {
			return exitErr, err
		}
		return code, nil
	}
	fmt.Fprintf(w, "circuit %s: %d gates, %d couplings\n", c.Name, c.NumGates(), c.NumCouplings())
	fmt.Fprintf(w, "batch: %d queries in %s (workers=%d)\n\n", len(resps), elapsed.Round(time.Microsecond), cfg.workers)
	for i, r := range resps {
		fmt.Fprintf(w, "[%d] %s %s", i, r.Query.Op, describeTarget(c, r.Query.Net))
		switch {
		case r.Err != nil:
			fmt.Fprintf(w, ": error: %v\n", r.Err)
		case r.Query.Op == topkagg.OpWhatIf:
			fmt.Fprintf(w, " fix=%v: delay %.4f ns\n", r.Query.Fix, r.Delay)
		default:
			top := r.Result.Top()
			fmt.Fprintf(w, " k=%d: delay %.4f ns, set %v", r.Query.K, top.Delay, top.IDs)
			if r.Partial {
				fmt.Fprintf(w, " (partial: %d of %d cardinalities)", len(r.Result.PerK), r.Query.K)
			}
			fmt.Fprintln(w)
			if cfg.stats {
				printStats(w, r.Result.Stats)
			}
		}
	}
	if cfg.stats {
		st := a.Stats()
		fmt.Fprintf(w, "\nanalyzer: %d queries, %d fixpoint run(s), prepared-state cache %d hit(s) / %d miss(es)\n",
			st.Queries, st.FixpointRuns, st.PrepHits, st.PrepMisses)
	}
	if failed > 0 {
		return code, fmt.Errorf("%d of %d batch queries failed", failed, len(resps))
	}
	return code, nil
}

func describeTarget(c *topkagg.Circuit, net topkagg.NetID) string {
	if net == topkagg.WholeCircuit {
		return "circuit"
	}
	return "net " + c.Net(net).Name
}

// printStats renders one run's engine instrumentation.
func printStats(w io.Writer, st *topkagg.EngineStats) {
	if st == nil {
		return
	}
	fmt.Fprintln(w, "  k   cands  dups  prune-dom  prune-beam  dig-hit  dig-fb  lists  max-width  verified  time")
	for _, ks := range st.PerK {
		fmt.Fprintf(w, "  %-3d %-6d %-5d %-10d %-11d %-8d %-7d %-6d %-10d %-9d %s\n",
			ks.K, ks.Candidates, ks.Duplicates, ks.PrunedDominance, ks.PrunedBeam,
			ks.DigestHits, ks.DigestFallbacks,
			ks.Lists, ks.MaxIListWidth, ks.Verified, ks.Elapsed.Round(time.Microsecond))
	}
	if st.RescoreRuns > 0 {
		fmt.Fprintf(w, "  rescore: %d reference run(s) in %s\n", st.RescoreRuns, st.RescoreElapsed.Round(time.Microsecond))
	}
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(w, "  shared state: %d cache hit(s), %d miss(es)\n", st.CacheHits, st.CacheMisses)
	}
	if st.EnvCacheHits+st.EnvCacheMisses > 0 {
		fmt.Fprintf(w, "  envelope cache: %d hit(s), %d miss(es)\n", st.EnvCacheHits, st.EnvCacheMisses)
	}
}

// jsonResult is the machine-readable output shape of -json.
type jsonResult struct {
	Circuit   string     `json:"circuit"`
	Mode      string     `json:"mode"`
	Gates     int        `json:"gates"`
	Couplings int        `json:"couplings"`
	BaseDelay float64    `json:"baseDelayNs"`
	AllDelay  float64    `json:"allDelayNs"`
	ElapsedNs int64      `json:"enumerationNs"`
	PerK      []jsonPerK `json:"perK"`
}

type jsonPerK struct {
	K         int          `json:"k"`
	DelayNs   float64      `json:"delayNs"`
	Couplings []jsonCouple `json:"couplings"`
}

type jsonCouple struct {
	ID   int     `json:"id"`
	NetA string  `json:"netA"`
	NetB string  `json:"netB"`
	CcFF float64 `json:"ccFF"`
}

func emitJSON(w io.Writer, c *topkagg.Circuit, mode string, res *topkagg.Result) error {
	out := jsonResult{
		Circuit:   c.Name,
		Mode:      mode,
		Gates:     c.NumGates(),
		Couplings: c.NumCouplings(),
		BaseDelay: res.BaseDelay,
		AllDelay:  res.AllDelay,
		ElapsedNs: res.Elapsed.Nanoseconds(),
	}
	for i, s := range res.PerK {
		pk := jsonPerK{K: i + 1, DelayNs: s.Delay}
		for _, id := range s.IDs {
			cp := c.Coupling(id)
			pk.Couplings = append(pk.Couplings, jsonCouple{
				ID:   int(id),
				NetA: c.Net(cp.A).Name,
				NetB: c.Net(cp.B).Name,
				CcFF: cp.Cc,
			})
		}
		out.PerK = append(out.PerK, pk)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// jsonBatchResp is one element of -batch -json output, aligned with
// the input queries by position.
type jsonBatchResp struct {
	Op       string     `json:"op"`
	Net      string     `json:"net,omitempty"`
	K        int        `json:"k,omitempty"`
	Fix      []int      `json:"fix,omitempty"`
	Error    string     `json:"error,omitempty"`
	Partial  bool       `json:"partial,omitempty"`
	Degraded string     `json:"degraded,omitempty"`
	DelayNs  float64    `json:"delayNs,omitempty"`
	PerK     []jsonPerK `json:"perK,omitempty"`
}

func emitBatchJSON(w io.Writer, c *topkagg.Circuit, specs []batchQuery, resps []topkagg.Response) error {
	out := make([]jsonBatchResp, len(resps))
	for i, r := range resps {
		jr := jsonBatchResp{Op: specs[i].Op, Net: specs[i].Net, Fix: specs[i].Fix, Partial: r.Partial, Degraded: r.Degraded}
		switch {
		case r.Err != nil:
			jr.Error = r.Err.Error()
		case r.Query.Op == topkagg.OpWhatIf:
			jr.DelayNs = r.Delay
		default:
			jr.K = r.Query.K
			jr.DelayNs = r.Result.Top().Delay
			for j, s := range r.Result.PerK {
				jr.PerK = append(jr.PerK, jsonPerK{K: j + 1, DelayNs: s.Delay, Couplings: coupleJSON(c, s.IDs)})
			}
		}
		out[i] = jr
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func coupleJSON(c *topkagg.Circuit, ids []topkagg.CouplingID) []jsonCouple {
	var out []jsonCouple
	for _, id := range ids {
		cp := c.Coupling(id)
		out = append(out, jsonCouple{ID: int(id), NetA: c.Net(cp.A).Name, NetB: c.Net(cp.B).Name, CcFF: cp.Cc})
	}
	return out
}

func loadLibrary(path string) (*topkagg.Library, error) {
	if path == "" {
		return topkagg.DefaultLibrary(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topkagg.ParseLiberty(f)
}

func loadCircuit(lib *topkagg.Library, path, vpath, spath, bench string) (*topkagg.Circuit, error) {
	sources := 0
	for _, s := range []string{path, vpath, bench} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of -netlist, -verilog or -bench is required")
	}
	switch {
	case path != "":
		if spath != "" {
			return nil, fmt.Errorf("-spef pairs with -verilog, not -netlist")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topkagg.ParseNetlistWith(f, lib)
	case vpath != "":
		f, err := os.Open(vpath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := topkagg.ParseVerilogWith(f, lib)
		if err != nil {
			return nil, err
		}
		if spath != "" {
			sf, err := os.Open(spath)
			if err != nil {
				return nil, err
			}
			defer sf.Close()
			if err := topkagg.ApplySPEF(sf, c); err != nil {
				return nil, err
			}
		}
		return c, nil
	default:
		return topkagg.GenerateBenchmark(bench)
	}
}
