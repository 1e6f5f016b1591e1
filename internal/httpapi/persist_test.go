package httpapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"topkagg/internal/core"
	"topkagg/internal/faultinject"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
	"topkagg/internal/serve"
	"topkagg/internal/snapshot"
)

// newPersistServer boots a Server attached to a state directory and
// returns it with its test listener and the boot-restore outcomes.
func newPersistServer(t *testing.T, dir string) (*Server, *httptest.Server, []ModelRestore) {
	t.Helper()
	srv := NewServer(Config{})
	outs, err := srv.OpenState(dir)
	if err != nil {
		t.Fatalf("OpenState(%s): %v", dir, err)
	}
	srv.SetReady(true)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, outs
}

// snapPath is the model's snapshot file inside the state directory.
func snapPath(dir, name string) string { return filepath.Join(dir, name+".snap") }

// assertServes runs every query against the server and requires status
// 200 with bytes identical to want — the zero-failed-requests half of
// the recovery contract.
func assertServes(t *testing.T, ts *httptest.Server, model string, qrs []QueryRequest, want [][]byte, label string) {
	t.Helper()
	for i, qr := range qrs {
		status, body := post(t, ts, "/v1/models/"+model+"/query", qr)
		if status != http.StatusOK {
			t.Fatalf("%s: query %d: status %d: %s", label, i, status, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("%s: query %d (%s): differs from cold reference\n got: %s\nwant: %s",
				label, i, qr.Op, body, want[i])
		}
	}
}

// TestPersistWarmRestart is the recovery happy path over the full HTTP
// surface: upload, warm the caches with queries, snapshot, boot a new
// server over the same state directory — the model is restored warm
// and every response is byte-identical to a cold in-process analyzer.
func TestPersistWarmRestart(t *testing.T) {
	dir := t.TempDir()
	c := testCircuit(t, 31)
	qrs := e2eQueries(c)
	ref := serve.NewAnalyzer(noise.NewModel(c), core.Options{})
	want := make([][]byte, len(qrs))
	for i, qr := range qrs {
		want[i] = wireBytes(t, c, ref.Do(toServeQuery(t, c, qr)))
	}

	srvA, tsA, outs := newPersistServer(t, dir)
	if len(outs) != 0 {
		t.Fatalf("fresh state dir restored %d models", len(outs))
	}
	uploadNetlist(t, tsA, "m", c)
	assertServes(t, tsA, "m", qrs, want, "first server")
	if err := srvA.SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	if _, err := os.Stat(snapPath(dir, "m")); err != nil {
		t.Fatalf("snapshot file missing after SaveAll: %v", err)
	}

	_, tsB, outs := newPersistServer(t, dir)
	if len(outs) != 1 || !outs[0].Warm || outs[0].Err != nil {
		t.Fatalf("restart outcomes: %+v", outs)
	}
	assertServes(t, tsB, "m", qrs, want, "restored server")
}

// TestPersistCorruptTailRebuilds drives the quarantine-and-rebuild
// ladder: damage to the warm sections of a snapshot (tail bit flip,
// tail truncation) is detected by the CRCs, the file is quarantined,
// and the model is rebuilt cold from its persisted design source —
// with zero failed requests and responses byte-identical to cold.
func TestPersistCorruptTailRebuilds(t *testing.T) {
	c := testCircuit(t, 33)
	qrs := e2eQueries(c)
	ref := serve.NewAnalyzer(noise.NewModel(c), core.Options{})
	want := make([][]byte, len(qrs))
	for i, qr := range qrs {
		want[i] = wireBytes(t, c, ref.Do(toServeQuery(t, c, qr)))
	}

	damage := []struct {
		name string
		hurt func(t *testing.T, path string)
	}{
		{"tail bit flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-12] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"tail truncation", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)*3/4], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, dmg := range damage {
		t.Run(dmg.name, func(t *testing.T) {
			dir := t.TempDir()
			srvA, tsA, _ := newPersistServer(t, dir)
			uploadNetlist(t, tsA, "m", c)
			assertServes(t, tsA, "m", qrs, want, "warm server")
			if err := srvA.SaveAll(); err != nil {
				t.Fatal(err)
			}
			// The warm save must be strictly larger than the sources-only
			// upload save, so tail damage lands in the analyzer sections.
			dmg.hurt(t, snapPath(dir, "m"))

			_, tsB, outs := newPersistServer(t, dir)
			if len(outs) != 1 {
				t.Fatalf("outcomes: %+v", outs)
			}
			o := outs[0]
			if o.Warm || !o.Rebuilt || o.Quarantined == "" || o.Err == nil {
				t.Fatalf("outcome not rebuilt-from-source: %+v", o)
			}
			if !snapshot.IsCorrupt(o.Err) {
				t.Errorf("damage reported as %v, want typed corruption", o.Err)
			}
			if _, err := os.Stat(o.Quarantined); err != nil {
				t.Errorf("quarantined evidence missing: %v", err)
			}
			assertServes(t, tsB, "m", qrs, want, "rebuilt server")
			// The rebuild re-persisted the model: a second restart is warm
			// (sources intact, no warm analyzers yet — still a full decode).
			_, tsC, outs := newPersistServer(t, dir)
			if len(outs) != 1 || !outs[0].Warm {
				t.Fatalf("post-rebuild restart outcomes: %+v", outs)
			}
			assertServes(t, tsC, "m", qrs, want, "second restart")
		})
	}
}

// TestPersistCorruptHeadLosesModelNotServer: damage before the design
// source leaves nothing to rebuild from — the model is lost and says
// so with a typed format error, but the server boots, quarantines the
// file, and keeps serving everything else. A file whose header names
// format version 1 (written before the layout change of version 2)
// takes the same path: v1 files are not migrated, and their models
// must be uploaded again.
func TestPersistCorruptHeadLosesModelNotServer(t *testing.T) {
	damages := []struct {
		name   string
		damage func(data []byte)
	}{
		{"meta bit flip", func(data []byte) {
			data[len(snapshot.Magic)+4+3] ^= 0x01 // inside the meta section frame
		}},
		{"version 1 header", func(data []byte) {
			binary.LittleEndian.PutUint32(data[len(snapshot.Magic):], 1)
		}},
	}
	for _, tc := range damages {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := testCircuit(t, 35)
			srvA, tsA, _ := newPersistServer(t, dir)
			uploadNetlist(t, tsA, "keep", c)
			uploadNetlist(t, tsA, "lost", c)
			if err := srvA.SaveAll(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(snapPath(dir, "lost"))
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(data)
			if err := os.WriteFile(snapPath(dir, "lost"), data, 0o644); err != nil {
				t.Fatal(err)
			}

			_, tsB, outs := newPersistServer(t, dir)
			if len(outs) != 2 {
				t.Fatalf("outcomes: %+v", outs)
			}
			for _, o := range outs {
				switch o.Name {
				case "keep":
					if !o.Warm {
						t.Errorf("keep: %+v", o)
					}
				case "lost":
					if o.Warm || o.Rebuilt || o.Quarantined == "" || !snapshot.IsCorrupt(o.Err) {
						t.Errorf("lost: %+v", o)
					}
					if _, err := os.Stat(o.Quarantined); err != nil {
						t.Errorf("quarantine evidence missing: %v", err)
					}
				}
			}
			if _, err := os.Stat(snapPath(dir, "lost")); !os.IsNotExist(err) {
				t.Errorf("damaged file left in the state directory: %v", err)
			}
			status, _ := post(t, tsB, "/v1/models/keep/query", QueryRequest{Op: "addition", K: 1})
			if status != http.StatusOK {
				t.Errorf("surviving model: status %d", status)
			}
			resp, err := tsB.Client().Get(tsB.URL + "/v1/models/lost")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("lost model still registered: status %d", resp.StatusCode)
			}
		})
	}
}

// TestPersistTruncationSweep boots a server over every coarse prefix of
// a warm snapshot file: no truncation point may panic the boot or
// leave a model serving from bad state — each boot yields warm,
// rebuilt-from-source, or cleanly lost, and a present model answers
// queries byte-identically to cold.
func TestPersistTruncationSweep(t *testing.T) {
	base := t.TempDir()
	c := testCircuit(t, 37)
	qr := QueryRequest{Op: "addition", K: 2}
	ref := serve.NewAnalyzer(noise.NewModel(c), core.Options{})
	want := wireBytes(t, c, ref.Do(toServeQuery(t, c, qr)))

	seedDir := filepath.Join(base, "seed")
	srvA := NewServer(Config{})
	if _, err := srvA.OpenState(seedDir); err != nil {
		t.Fatal(err)
	}
	srvA.SetReady(true)
	tsA := httptest.NewServer(srvA)
	uploadNetlist(t, tsA, "m", c)
	status, body := post(t, tsA, "/v1/models/m/query", qr)
	if status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("warm server: status %d", status)
	}
	if err := srvA.SaveAll(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	full, err := os.ReadFile(snapPath(seedDir, "m"))
	if err != nil {
		t.Fatal(err)
	}

	step := len(full)/24 + 1
	for n := 0; n <= len(full); n += step {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath(dir, "m"), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts, outs := newPersistServer(t, dir)
		if len(outs) != 1 {
			t.Fatalf("cut %d: outcomes %+v", n, outs)
		}
		o := outs[0]
		if o.Warm || o.Rebuilt {
			status, body := post(t, ts, "/v1/models/m/query", qr)
			if status != http.StatusOK {
				t.Fatalf("cut %d: query status %d: %s", n, status, body)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("cut %d: response differs from cold", n)
			}
		} else if o.Err == nil {
			t.Errorf("cut %d: model lost without an error", n)
		}
	}
	// Sanity: the untruncated file restores warm.
	dir := filepath.Join(base, "whole")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir, "m"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, outs := newPersistServer(t, dir)
	if len(outs) != 1 || !outs[0].Warm {
		t.Fatalf("whole file outcomes: %+v", outs)
	}
}

// TestPersistInjectedWriteFault: an injected snapshot-write failure
// must not fail the upload (the model is live in memory), must count as
// a save error, and must leave the previously published snapshot
// intact — the atomic-rename protocol under an error mid-encode.
func TestPersistInjectedWriteFault(t *testing.T) {
	needProbes(t)
	dir := t.TempDir()
	c := testCircuit(t, 39)
	srv, ts, _ := newPersistServer(t, dir)
	uploadNetlist(t, ts, "m", c)
	if err := srv.SaveAll(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath(dir, "m"))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.NewPlan(1).Add(faultinject.SiteSnapshotWrite,
		faultinject.Rule{Every: 1, Err: errors.New("disk on fire")}))
	t.Cleanup(faultinject.Disarm)
	uploadNetlist(t, ts, "m", c) // replace upload; persistence fails quietly
	if err := srv.SaveAll(); err == nil {
		t.Error("SaveAll under injected write fault reported success")
	}
	faultinject.Disarm()

	after, err := os.ReadFile(snapPath(dir, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save disturbed the previously published snapshot")
	}
	status, _ := post(t, ts, "/v1/models/m/query", QueryRequest{Op: "addition", K: 1})
	if status != http.StatusOK {
		t.Errorf("model unusable after failed save: status %d", status)
	}
}

// TestPersistDeleteAndPreload: deleting a model removes its snapshot
// (no resurrection on the next boot), and Preload models without
// upload material are skipped by persistence rather than breaking it.
func TestPersistDeleteAndPreload(t *testing.T) {
	dir := t.TempDir()
	c := testCircuit(t, 41)
	srv, ts, _ := newPersistServer(t, dir)
	uploadNetlist(t, ts, "gone", c)
	if err := srv.Preload("bare", "netlist", c); err != nil {
		t.Fatal(err)
	}
	if err := srv.PreloadUpload("boot", &UploadRequest{Netlist: netlist.String(c)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapPath(dir, "bare")); !os.IsNotExist(err) {
		t.Errorf("bare Preload model was persisted: %v", err)
	}
	if _, err := os.Stat(snapPath(dir, "boot")); err != nil {
		t.Errorf("PreloadUpload model not persisted: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/gone", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapPath(dir, "gone")); !os.IsNotExist(err) {
		t.Errorf("snapshot survived model deletion: %v", err)
	}

	_, _, outs := newPersistServer(t, dir)
	names := map[string]bool{}
	for _, o := range outs {
		names[o.Name] = o.Warm
	}
	if names["gone"] {
		t.Error("deleted model resurrected on boot")
	}
	if !names["boot"] {
		t.Errorf("persisted preload missing on boot: %+v", outs)
	}
}

// TestReadyzLadder pins the readiness surface: 503 until SetReady,
// 200 while serving, 503 again from the moment draining starts —
// while /healthz stays 200 throughout (the process is always alive).
func TestReadyzLadder(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	if status, retry := get("/readyz"); status != http.StatusServiceUnavailable || retry == "" {
		t.Errorf("before SetReady: /readyz %d (Retry-After %q), want 503 with hint", status, retry)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Errorf("before SetReady: /healthz %d, want 200", status)
	}

	srv.SetReady(true)
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Errorf("after SetReady: /readyz %d, want 200", status)
	}

	srv.Drain()
	if status, _ := get("/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("draining: /readyz %d, want 503", status)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Errorf("draining: /healthz %d, want 200", status)
	}
}
