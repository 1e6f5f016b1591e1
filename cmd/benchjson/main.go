// Command benchjson measures the performance-critical kernels with
// testing.Benchmark and writes the results as machine-readable JSON.
// The JSON is the artifact the perf acceptance criteria are checked
// against and what EXPERIMENTS.md records as before/after evidence.
//
// Three suites are available. The default, "fixpoint", times the
// noise fixpoint and the end-to-end Table-1/2 kernels (default output
// BENCH_fixpoint.json). "core" times the top-k enumeration core in
// isolation — prepared state built outside the timer, k-sweeps over
// the Table-1/2 circuits in both modes and a worker sweep (default
// output BENCH_core.json). "scale" times warm fixpoint runs over
// generated circuits from 1k to 100k nets (default output
// BENCH_scale.json):
//
//	go run ./cmd/benchjson -o BENCH_fixpoint.json
//	go run ./cmd/benchjson -suite core
//	go run ./cmd/benchjson -suite scale
//	go run ./cmd/benchjson -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"topkagg/internal/bruteforce"
	"topkagg/internal/core"
	"topkagg/internal/gen"
	"topkagg/internal/noise"
	"topkagg/internal/obs"
)

// result is one benchmark measurement in the output file.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// report is the whole output file.
type report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"goVersion"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numCPU"`
	Results    []result `json:"results"`
	// Metrics holds, per model, the observability snapshot of one
	// instrumented fixpoint run (sweep counts, worklist depths, memo
	// hit rates) — the enabled-path evidence the perf criteria ask for.
	// The timed benchmarks above run uninstrumented.
	Metrics map[string]*obs.Snapshot `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "output JSON file (default BENCH_<suite>.json)")
	suite := flag.String("suite", "fixpoint", "benchmark suite: fixpoint, core or scale")
	quick := flag.Bool("quick", false, "skip the slow brute-force and enumeration kernels")
	flag.Parse()
	var err error
	switch *suite {
	case "fixpoint":
		if *out == "" {
			*out = "BENCH_fixpoint.json"
		}
		err = run(*out, *quick)
	case "core":
		if *out == "" {
			*out = "BENCH_core.json"
		}
		err = runCore(*out, *quick)
	case "scale":
		if *out == "" {
			*out = "BENCH_scale.json"
		}
		err = runScale(*out, *quick)
	default:
		err = fmt.Errorf("unknown suite %q (want fixpoint, core or scale)", *suite)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// write renders the report to stdout lines plus the JSON artifact.
func write(out string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", out, len(rep.Results))
	return nil
}

// measure runs one benchmark function and records/prints the result.
func measure(rep *report, name string, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	res := result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	rep.Results = append(rep.Results, res)
	fmt.Printf("%-34s %12.0f ns/op %10d B/op %8d allocs/op\n",
		res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
}

func newReport() report {
	return report{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// runCore emits the enumeration-core suite: the same kernels as
// internal/core's BenchmarkTopKEnumeration (prepared state outside the
// timer, so each op is one warm TopK query), plus an instrumented
// metrics snapshot showing the digest/env-cache counters and the
// prune latency histogram.
func runCore(out string, quick bool) error {
	models := map[string]*noise.Model{}
	c, err := gen.Build(gen.Spec{Name: "t1", Gates: 30, Couplings: 60, Seed: 77})
	if err != nil {
		return err
	}
	models["t1"] = noise.NewModel(c)
	for _, name := range []string{"i1", "i3"} {
		pc, err := gen.BuildPaper(name)
		if err != nil {
			return err
		}
		models[name] = noise.NewModel(pc)
	}
	options := func(ckt string) core.Options {
		opt := core.Options{NoRescore: true}
		if ckt == "t1" {
			opt.SlackFrac = 1
		}
		return opt
	}
	prepare := func(m *noise.Model, mode, ckt string) (*core.Shared, error) {
		if mode == "elim" {
			return core.PrepareElimination(m, core.WholeCircuit, options(ckt))
		}
		return core.PrepareAddition(m, core.WholeCircuit, options(ckt))
	}
	topk := func(shared *core.Shared, k int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shared.TopK(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	rep := newReport()
	type cfg struct {
		mode string
		ckt  string
		ks   []int
		slow bool
	}
	cfgs := []cfg{
		{"add", "t1", []int{1, 2, 4, 8}, false},
		{"add", "i1", []int{4, 8}, true},
		{"add", "i3", []int{4}, true},
		{"elim", "t1", []int{1, 2, 4, 8}, false},
		{"elim", "i1", []int{4}, true},
	}
	for _, tc := range cfgs {
		if quick && tc.slow {
			continue
		}
		shared, err := prepare(models[tc.ckt], tc.mode, tc.ckt)
		if err != nil {
			return err
		}
		for _, k := range tc.ks {
			measure(&rep, fmt.Sprintf("topk_enum/%s/%s-k%d", tc.mode, tc.ckt, k), topk(shared, k))
		}
	}
	// Worker sweep at the deepest cardinality (results are byte-identical
	// at every setting; only the wall clock may move).
	for _, w := range []int{1, 2, 4, 8} {
		shared, err := prepare(models["t1"].WithWorkers(w), "add", "t1")
		if err != nil {
			return err
		}
		measure(&rep, fmt.Sprintf("topk_enum_workers/add/t1-k8-w%d", w), topk(shared, 8))
	}

	rep.Metrics = map[string]*obs.Snapshot{}
	reg := obs.New()
	shared, err := prepare(models["t1"].WithObs(reg), "add", "t1")
	if err != nil {
		return err
	}
	for _, warm := range []string{"cold", "warm"} {
		if _, err := shared.TopK(8); err != nil {
			return err
		}
		rep.Metrics["t1-"+warm] = reg.Snapshot()
	}
	return write(out, rep)
}

// runScale emits the scaling suite: warm noise-fixpoint runs over
// gen.Scale circuits from 1k to 100k nets (10x steps), the evidence
// that the flat-grid kernel's per-net cost stays flat as circuits grow
// two orders of magnitude past the paper's largest benchmark. Each
// measurement is one full fixpoint run on a pooled (warm) model; the
// nsPerNet column in the result name makes near-linearity readable at
// a glance, and the metrics snapshots record the evaluation counts the
// per-net cost divides over. -quick stops at 10k nets.
func runScale(out string, quick bool) error {
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = sizes[:2]
	}
	rep := newReport()
	rep.Metrics = map[string]*obs.Snapshot{}
	for _, n := range sizes {
		c, err := gen.Scale(n)
		if err != nil {
			return err
		}
		m := noise.NewModel(c)
		// One untimed run warms the engine pool so the measurement is
		// the steady-state cost, not first-run arena growth.
		if _, err := m.Run(nil); err != nil {
			return err
		}
		measure(&rep, fmt.Sprintf("scale_fixpoint/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		last := &rep.Results[len(rep.Results)-1]
		fmt.Printf("%-34s %12.1f ns/net\n", last.Name, last.NsPerOp/float64(n))
		reg := obs.New()
		if _, err := m.WithObs(reg).Run(nil); err != nil {
			return err
		}
		rep.Metrics[fmt.Sprintf("n%d", n)] = reg.Snapshot()
	}
	return write(out, rep)
}

func run(out string, quick bool) error {
	models := map[string]*noise.Model{}
	for _, name := range []string{"i1", "i3"} {
		c, err := gen.BuildPaper(name)
		if err != nil {
			return err
		}
		models[name] = noise.NewModel(c)
	}
	t1c, err := gen.Build(gen.Spec{Name: "t1", Gates: 30, Couplings: 60, Seed: 77})
	if err != nil {
		return err
	}
	t1 := noise.NewModel(t1c)

	type bench struct {
		name string
		slow bool
		fn   func(b *testing.B)
	}
	fixpoint := func(m *noise.Model) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	enumeration := func(m *noise.Model, elim bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			opt := core.Options{NoRescore: true}
			for i := 0; i < b.N; i++ {
				var err error
				if elim {
					_, err = core.TopKElimination(m, 10, opt)
				} else {
					_, err = core.TopKAddition(m, 10, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	benches := []bench{
		{name: "noise_fixpoint/i1", fn: fixpoint(models["i1"])},
		{name: "noise_fixpoint/i3", fn: fixpoint(models["i3"])},
	}
	for _, w := range []int{1, 2, 4, 8} {
		benches = append(benches, bench{
			name: fmt.Sprintf("noise_fixpoint_workers/i3-w%d", w),
			fn:   fixpoint(models["i3"].WithWorkers(w)),
		})
	}
	benches = append(benches,
		bench{name: "table1_bruteforce/t1-k2", slow: true, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bruteforce.Addition(t1, 2, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		bench{name: "table1_proposed/t1-k2", slow: true, fn: func(b *testing.B) {
			b.ReportAllocs()
			opt := core.Options{SlackFrac: 1, NoRescore: true}
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKAddition(t1, 2, opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		bench{name: "table2a_addition/i1-k10", slow: true, fn: enumeration(models["i1"], false)},
		bench{name: "table2a_addition/i3-k10", slow: true, fn: enumeration(models["i3"], false)},
		bench{name: "table2b_elimination/i1-k10", slow: true, fn: enumeration(models["i1"], true)},
	)

	rep := newReport()
	for _, bm := range benches {
		if quick && bm.slow {
			continue
		}
		measure(&rep, bm.name, bm.fn)
	}

	rep.Metrics = map[string]*obs.Snapshot{}
	for _, name := range []string{"i1", "i3"} {
		reg := obs.New()
		if _, err := models[name].WithObs(reg).Run(nil); err != nil {
			return err
		}
		rep.Metrics[name] = reg.Snapshot()
	}
	return write(out, rep)
}
