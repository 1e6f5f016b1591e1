package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topkagg"
)

func TestLoadCircuitValidation(t *testing.T) {
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", "", "", ""); err == nil {
		t.Fatal("must require a source")
	}
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "x.ckt", "", "", "i1"); err == nil {
		t.Fatal("must reject multiple sources")
	}
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "x.ckt", "", "x.spef", ""); err == nil {
		t.Fatal("-spef must pair with -verilog")
	}
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", "", "", "i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", "", "", "nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestLoadCircuitFromNetlist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckt")
	src := "circuit c\noutput y\ngate g1 INV_X1 a -> y\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCircuit(topkagg.DefaultLibrary(), path, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "c" {
		t.Fatalf("name = %q", c.Name)
	}
}

func TestLoadCircuitFromVerilogAndSPEF(t *testing.T) {
	dir := t.TempDir()
	vpath := filepath.Join(dir, "c.v")
	spath := filepath.Join(dir, "c.spef")
	vsrc := `module c (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2_X1 g1 (.A(a), .B(b), .Y(n1));
  INV_X1 g2 (.A(n1), .Y(y));
endmodule
`
	ssrc := `*SPEF "IEEE 1481-1998"
*C_UNIT 1 FF
*R_UNIT 1 KOHM
*D_NET n1 6
*CAP
1 n1 6
2 n1 b 1.5
*END
`
	if err := os.WriteFile(vpath, []byte(vsrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, []byte(ssrc), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCircuit(topkagg.DefaultLibrary(), "", vpath, spath, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCouplings() != 1 {
		t.Fatalf("couplings = %d", c.NumCouplings())
	}
	n1, _ := c.NetByName("n1")
	if c.Net(n1).Cgnd != 6 {
		t.Fatal("SPEF parasitics not applied")
	}
	// Verilog without SPEF also loads.
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", vpath, "", ""); err != nil {
		t.Fatal(err)
	}
	// Missing files error cleanly.
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", filepath.Join(dir, "nope.v"), "", ""); err == nil {
		t.Fatal("missing verilog must error")
	}
	if _, err := loadCircuit(topkagg.DefaultLibrary(), "", vpath, filepath.Join(dir, "nope.spef"), ""); err == nil {
		t.Fatal("missing spef must error")
	}
}

func TestEmitJSON(t *testing.T) {
	c, err := topkagg.ParseNetlistString(`circuit j
output y
gate g1 INV_X1 a -> n1
gate g2 INV_X1 n1 -> y
gate h1 INV_X1 b -> m1
couple n1 m1 2.0
`)
	if err != nil {
		t.Fatal(err)
	}
	m := topkagg.NewModel(c)
	res, err := topkagg.TopKAddition(m, 1, topkagg.ExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, c, "add", res); err != nil {
		t.Fatal(err)
	}
	var out jsonResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out.Circuit != "j" || out.Mode != "add" || len(out.PerK) != 1 {
		t.Fatalf("JSON content wrong: %+v", out)
	}
	if out.PerK[0].K != 1 || len(out.PerK[0].Couplings) != 1 {
		t.Fatalf("perK wrong: %+v", out.PerK)
	}
	if out.PerK[0].Couplings[0].NetA != "n1" || out.PerK[0].Couplings[0].NetB != "m1" {
		t.Fatalf("coupling names wrong: %+v", out.PerK[0].Couplings[0])
	}
}

// writeTestFiles lays out a small netlist and the named batch files in
// a temp dir and returns their paths keyed by name.
func writeTestFiles(t *testing.T, batches map[string]string) (ckt string, paths map[string]string) {
	t.Helper()
	dir := t.TempDir()
	ckt = filepath.Join(dir, "c.ckt")
	src := `circuit c
output y
gate g1 NAND2_X1 a b -> n1
gate g2 INV_X1 n1 -> n2
gate g3 INV_X1 n2 -> y
gate h1 INV_X1 p -> m1
gate h2 INV_X1 q -> m2
couple n1 m1 2.5
couple n2 m2 1.8
couple y m1 1.2
`
	if err := os.WriteFile(ckt, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	paths = map[string]string{}
	for name, content := range batches {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}
	return ckt, paths
}

// TestRunFlags drives the whole command through run() per flag
// combination, checking exit codes and output for the new -stats,
// -workers and -batch paths including their error cases.
func TestRunFlags(t *testing.T) {
	ckt, batches := writeTestFiles(t, map[string]string{
		"good.json":   `[{"op":"add","k":2},{"op":"elim","net":"y","k":2},{"op":"whatif","fix":[0,1]}]`,
		"empty.json":  `[]`,
		"badop.json":  `[{"op":"subtract","k":2}]`,
		"badnet.json": `[{"op":"add","net":"nosuch","k":2}]`,
		"badfix.json": `[{"op":"add","k":2},{"op":"whatif","fix":[99]}]`,
		"notjson.txt": `this is not json`,
	})
	tests := []struct {
		name       string
		args       []string
		wantCode   int
		wantOut    []string // substrings of stdout
		wantErr    string   // substring of stderr ("" = must be empty)
		jsonOutput bool     // stdout must parse as a JSON array
	}{
		{
			name:     "stats single mode",
			args:     []string{"-netlist", ckt, "-k", "2", "-stats"},
			wantCode: 0,
			wantOut:  []string{"top-2 add set", "prune-dom", "dig-hit", "dig-fb", "max-width", "envelope cache:"},
		},
		{
			name:     "metrics shows prune histogram and digest counters",
			args:     []string{"-netlist", ckt, "-k", "2", "-metrics"},
			wantCode: 0,
			wantOut: []string{
				"core.topk.prune_ns",
				"core.topk.digest_hits",
				"core.topk.envcache_misses",
			},
		},
		{
			name:     "metrics single mode",
			args:     []string{"-netlist", ckt, "-k", "2", "-metrics"},
			wantCode: 0,
			wantOut: []string{
				"engine metrics:",
				"noise.fixpoint.sweeps",
				"noise.fixpoint.worklist_depth",
				"core.topk.candidates",
				"sta.incremental.cone_size",
				"span.noise.run",
				"span.core.topk",
			},
		},
		{
			name:     "metrics batch mode",
			args:     []string{"-netlist", ckt, "-batch", batches["good.json"], "-metrics"},
			wantCode: 0,
			wantOut: []string{
				"engine metrics:",
				"serve.queries",
				"serve.query_ns/addition",
				"serve.batch_size",
				"noise.incremental.runs",
			},
		},
		{
			name:     "debug endpoint announce",
			args:     []string{"-netlist", ckt, "-k", "1", "-debug-addr", "127.0.0.1:0"},
			wantCode: 0,
			wantOut:  []string{"debug endpoint on http://127.0.0.1:"},
		},
		{
			name:     "debug endpoint bad address",
			args:     []string{"-netlist", ckt, "-k", "1", "-debug-addr", "nosuchhost.invalid:99999"},
			wantCode: 1,
			wantErr:  "debug endpoint",
		},
		{
			name:     "negative workers",
			args:     []string{"-netlist", ckt, "-batch", batches["good.json"], "-workers", "-3"},
			wantCode: 1,
			wantErr:  "-workers must be >= 0",
		},
		{
			name:     "empty batch",
			args:     []string{"-netlist", ckt, "-batch", batches["empty.json"]},
			wantCode: 1,
			wantErr:  "contains no queries",
		},
		{
			name:     "missing batch file",
			args:     []string{"-netlist", ckt, "-batch", "nope.json"},
			wantCode: 1,
			wantErr:  "nope.json",
		},
		{
			name:     "malformed batch file",
			args:     []string{"-netlist", ckt, "-batch", batches["notjson.txt"]},
			wantCode: 1,
			wantErr:  "notjson.txt",
		},
		{
			name:     "unknown batch op",
			args:     []string{"-netlist", ckt, "-batch", batches["badop.json"]},
			wantCode: 1,
			wantErr:  `unknown op "subtract"`,
		},
		{
			name:     "unknown batch net",
			args:     []string{"-netlist", ckt, "-batch", batches["badnet.json"]},
			wantCode: 1,
			wantErr:  `no net "nosuch"`,
		},
		{
			name:     "batch query failure",
			args:     []string{"-netlist", ckt, "-batch", batches["badfix.json"]},
			wantCode: 1,
			wantOut:  []string{"error:", "no coupling 99"},
			wantErr:  "1 of 2 batch queries failed",
		},
		{
			name:     "good batch with stats and workers",
			args:     []string{"-netlist", ckt, "-batch", batches["good.json"], "-workers", "2", "-stats"},
			wantCode: 0,
			wantOut: []string{
				"batch: 3 queries", "(workers=2)",
				"[0] addition circuit k=2: delay",
				"[1] elimination net y k=2: delay",
				"[2] whatif circuit fix=[0 1]: delay",
				"1 fixpoint run(s)",
			},
		},
		{
			name:       "batch json output",
			args:       []string{"-netlist", ckt, "-batch", batches["good.json"], "-json"},
			wantCode:   0,
			jsonOutput: true,
		},
		{
			name:     "bad flag",
			args:     []string{"-nosuchflag"},
			wantCode: 2,
		},
		{
			name:     "retired exact-prune flag",
			args:     []string{"-netlist", ckt, "-k", "2", "-exact-prune"},
			wantCode: 2,
			wantErr:  "flag provided but not defined: -exact-prune",
		},
		{
			name:     "retired exact-waveforms flag",
			args:     []string{"-netlist", ckt, "-k", "2", "-exact-waveforms"},
			wantCode: 2,
			wantErr:  "flag provided but not defined: -exact-waveforms",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			if tc.wantErr == "" && tc.wantCode == 0 && stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			if tc.jsonOutput {
				var out []jsonBatchResp
				if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
					t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
				}
				if len(out) != 3 || out[0].Error != "" || out[0].DelayNs <= 0 {
					t.Fatalf("batch JSON content wrong: %+v", out)
				}
				if out[2].DelayNs <= 0 || len(out[2].PerK) != 0 {
					t.Fatalf("whatif JSON wrong: %+v", out[2])
				}
			}
		})
	}
}

// TestBatchDefaultsK: a batch entry without "k" inherits the -k flag.
func TestBatchDefaultsK(t *testing.T) {
	ckt, batches := writeTestFiles(t, map[string]string{
		"nok.json": `[{"op":"add"}]`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-netlist", ckt, "-k", "2", "-batch", batches["nok.json"]}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "k=2") {
		t.Fatalf("batch must inherit -k: %s", stdout.String())
	}
}

// TestBudgetExhaustedSingle: a work budget too small for even one
// cardinality yields the timeout exit code and a degraded-result
// warning, not a crash or a silent success.
func TestBudgetExhaustedSingle(t *testing.T) {
	ckt, _ := writeTestFiles(t, nil)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-netlist", ckt, "-k", "2", "-budget", "1"}, &stdout, &stderr)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitTimeout, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "no cardinality completed within the budget") {
		t.Fatalf("stdout missing budget notice:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "work-budget") {
		t.Fatalf("stderr missing degradation reason:\n%s", stderr.String())
	}
}

// TestTimeoutExpiredSingle: an immediately-expiring timeout surfaces as
// the timeout exit code with a typed deadline error on stderr.
func TestTimeoutExpiredSingle(t *testing.T) {
	ckt, _ := writeTestFiles(t, nil)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-netlist", ckt, "-k", "2", "-timeout", "1ns"}, &stdout, &stderr)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitTimeout, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "deadline") {
		t.Fatalf("stderr missing deadline reason:\n%s", stderr.String())
	}
}

// TestBudgetSweepReachesDegradedAndComplete: growing the work budget
// walks the exit codes monotonically from timeout (nothing finished)
// through degraded (a best-effort prefix printed) to success, and the
// degraded run reports its partial curve.
func TestBudgetSweepReachesDegradedAndComplete(t *testing.T) {
	ckt, _ := writeTestFiles(t, nil)
	seen := map[int]bool{}
	for b := int64(1); b < 10000; b++ {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-netlist", ckt, "-k", "2", "-budget", fmt.Sprint(b)}, &stdout, &stderr)
		seen[code] = true
		if code == exitDegraded {
			if !strings.Contains(stderr.String(), "degraded result (work-budget)") {
				t.Fatalf("degraded run missing stderr notice:\n%s", stderr.String())
			}
		}
		if code == exitOK {
			if stderr.Len() != 0 {
				t.Fatalf("complete run must not warn: %s", stderr.String())
			}
			break
		}
		if code != exitTimeout && code != exitDegraded {
			t.Fatalf("budget=%d: unexpected exit %d\nstderr:\n%s", b, code, stderr.String())
		}
	}
	for _, want := range []int{exitTimeout, exitDegraded, exitOK} {
		if !seen[want] {
			t.Fatalf("exit code %d never seen across the sweep (saw %v)", want, seen)
		}
	}
}

// TestBatchWithBudget: per-query limits apply inside a batch; stopped
// top-k queries degrade to partial responses (exit code degraded)
// while unaffected queries still answer completely.
func TestBatchWithBudget(t *testing.T) {
	ckt, batches := writeTestFiles(t, map[string]string{
		"mix.json": `[{"op":"add","k":2},{"op":"whatif","fix":[0]}]`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-netlist", ckt, "-batch", batches["mix.json"], "-budget", "1"}, &stdout, &stderr)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitDegraded, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "degraded (work-budget)") {
		t.Fatalf("stderr missing per-query degradation:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "whatif circuit fix=[0]: delay") {
		t.Fatalf("unlimited whatif must still answer:\n%s", stdout.String())
	}
}

// TestBatchJSONCarriesDegradation: -json batch output marks partial
// responses and their reason.
func TestBatchJSONCarriesDegradation(t *testing.T) {
	ckt, batches := writeTestFiles(t, map[string]string{
		"one.json": `[{"op":"add","k":2}]`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-netlist", ckt, "-batch", batches["one.json"], "-budget", "1", "-json"}, &stdout, &stderr)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitDegraded, stderr.String())
	}
	var out []jsonBatchResp
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if len(out) != 1 || !out[0].Partial || out[0].Degraded != "work-budget" {
		t.Fatalf("JSON missing degradation marks: %+v", out)
	}
}

// TestNegativeLimitFlags: invalid limit values are rejected up front.
func TestNegativeLimitFlags(t *testing.T) {
	ckt, _ := writeTestFiles(t, nil)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-netlist", ckt, "-budget", "-5"}, &stdout, &stderr); code != exitErr {
		t.Fatalf("negative budget: exit %d, want %d", code, exitErr)
	}
	stderr.Reset()
	if code := run([]string{"-netlist", ckt, "-timeout", "-1s"}, &stdout, &stderr); code != exitErr {
		t.Fatalf("negative timeout: exit %d, want %d", code, exitErr)
	}
}
