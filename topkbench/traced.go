package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/httpapi"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
	"topkagg/internal/obs"
	"topkagg/internal/serve"
)

// The traced run works in one process with no sockets. After the same
// set-up it replays the timed list in two passes, alternated request by
// request so that a change of machine phase hits both alike:
//
//	(a) the request through httpapi.Server.ServeHTTP into a recorder;
//	(b) the same request answered by calling each layer's public entry
//	    point directly, in topkd's order, one span per call.
//
// httpapi.residual_ms is (a) minus the self times of (b)'s layer spans:
// validation, admission, the registry, serve dispatch and budget
// polling. The layer self times plus the residual therefore add up to
// (a); what can fail is that the layers exceed the whole, which
// residualTolerance bounds.

// residualTolerance bounds how far pass (b)'s layer spans may exceed
// pass (a)'s whole request, as a share of it. More than timing noise
// means pass (b) does work topkd does not, and the run fails.
const residualTolerance = 0.05

// snapshotSaves is how many SaveModel calls time the snapshot layer.
const snapshotSaves = 15

// layerOrder lists the layer spans in the order topkd reaches them.
var layerOrder = []string{"httpapi.decode", "netlist.parse", "noise.fixpoint", "core.prepare",
	"core.topk", "noise.mask", "noise.incremental", "httpapi.encode"}

// span is one call into a layer during pass (b).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"` // index in the replayed list, set-up first
	ID     int    `json:"id"`
	Parent int    `json:"parent"`  // -1 for a request's root span
	Start  int64  `json:"startNs"` // since the traced run began
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	req   int
	root  int
	spans []span
}

func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// span opens a span under the current request and returns its closer.
func (t *tracer) span(name string) func() {
	id := t.open(name, t.root)
	return func() { t.finish(id) }
}

// selfNs returns each span's duration minus the part its children cover.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		d := s.End - s.Start
		self[s.ID] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// layerStats accumulates what the layers report about their own work.
type layerStats struct {
	topk, candidates, unique, prunedDom int64
	digestHits, digestFallbacks         int64
	envHits, envMisses                  int64
	rescore                             time.Duration
	fixpoints, iterations               int64
	incremental, incrementalFull        int64
	affectedFrac                        float64
	parseBytes                          int64
}

func (s *layerStats) addResult(r *core.Result) {
	s.topk++
	if r.Stats == nil {
		return
	}
	for _, k := range r.Stats.PerK {
		s.candidates += int64(k.Candidates)
		s.unique += int64(k.Candidates - k.Duplicates)
		s.prunedDom += int64(k.PrunedDominance)
		s.digestHits += int64(k.DigestHits)
		s.digestFallbacks += int64(k.DigestFallbacks)
	}
	s.envHits += int64(r.Stats.EnvCacheHits)
	s.envMisses += int64(r.Stats.EnvCacheMisses)
	s.rescore += r.Stats.RescoreElapsed
}

type prepKey struct {
	elim bool
	net  circuit.NetID
}

// layers is pass (b). It holds what topkd holds for the live model —
// circuit, noise model (with metrics on, as topkd runs it), fixpoint and
// preparations, memoized by (mode, target) as serve memoizes them.
type layers struct {
	tr    *tracer
	st    *layerStats
	reg   *obs.Registry
	c     *circuit.Circuit
	m     *noise.Model
	full  *noise.Analysis
	preps map[prepKey]*core.Shared
}

// run answers request i under a root span and returns the body topkd
// would send (nil for an upload).
func (l *layers) run(i int, r *request) ([]byte, error) {
	l.tr.req = i
	l.tr.root = l.tr.open("request", -1)
	defer l.tr.finish(l.tr.root)
	switch r.kind {
	case kindUpload:
		return nil, l.upload(string(r.body))
	case kindSweep:
		var sr httpapi.SweepRequest
		if err := l.decode(r.body, &sr); err != nil {
			return nil, err
		}
		var out []byte
		for j, net := range sr.Nets {
			line, err := l.query(&httpapi.QueryRequest{Op: sr.Op, Net: net, K: sr.K}, j)
			if err != nil {
				return nil, err
			}
			out = append(out, line...)
		}
		return out, nil
	}
	var qr httpapi.QueryRequest
	if err := l.decode(r.body, &qr); err != nil {
		return nil, err
	}
	return l.query(&qr, -1)
}

func (l *layers) decode(body []byte, v any) error {
	defer l.tr.span("httpapi.decode")()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (l *layers) upload(text string) error {
	end := l.tr.span("netlist.parse")
	c, err := netlist.ParseString(text, cell.Default())
	end()
	if err != nil {
		return err
	}
	l.st.parseBytes += int64(len(text))
	l.c, l.m, l.full, l.preps = c, noise.NewModel(c).WithObs(l.reg), nil, map[prepKey]*core.Shared{}
	return nil
}

func (l *layers) fullAnalysis() (*noise.Analysis, error) {
	if l.full == nil {
		end := l.tr.span("noise.fixpoint")
		an, err := l.m.Run(nil)
		end()
		if err != nil {
			return nil, err
		}
		l.full = an
		l.st.fixpoints++
		l.st.iterations += int64(an.Iterations)
	}
	return l.full, nil
}

func (l *layers) shared(elim bool, net circuit.NetID) (*core.Shared, error) {
	key := prepKey{elim, net}
	if s := l.preps[key]; s != nil {
		return s, nil
	}
	full, err := l.fullAnalysis()
	if err != nil {
		return nil, err
	}
	prepare := core.PrepareAdditionFrom
	if elim {
		prepare = core.PrepareEliminationFrom
	}
	end := l.tr.span("core.prepare")
	s, err := prepare(l.m, full, net, core.Options{})
	end()
	if err != nil {
		return nil, err
	}
	l.preps[key] = s
	return s, nil
}

// query answers one top-k or what-if query and encodes it as topkd
// does: a sweep record when index >= 0.
func (l *layers) query(qr *httpapi.QueryRequest, index int) ([]byte, error) {
	q, err := toQuery(l.c, qr)
	if err != nil {
		return nil, err
	}
	resp, err := l.answer(q)
	if err != nil {
		return nil, err
	}
	defer l.tr.span("httpapi.encode")()
	return encodeAnswer(l.c, resp, index)
}

func (l *layers) answer(q serve.Query) (serve.Response, error) {
	resp := serve.Response{Query: q}
	if q.Op == serve.WhatIf {
		full, err := l.fullAnalysis()
		if err != nil {
			return resp, err
		}
		end := l.tr.span("noise.mask")
		mask := noise.AllMask(l.c)
		for _, id := range q.Fix {
			mask[id] = false
		}
		end()
		end = l.tr.span("noise.incremental")
		an, st, err := l.m.RunIncremental(full, nil, mask)
		end()
		if err != nil {
			return resp, err
		}
		l.st.incremental++
		if st.Full {
			l.st.incrementalFull++
		}
		l.st.affectedFrac += float64(st.Affected) / float64(l.c.NumNets())
		if an.ConvergenceErr() != nil {
			resp.Degraded = serve.DegradedNotConverged
		}
		if q.Net == serve.WholeCircuit {
			resp.Delay = an.CircuitDelay()
		} else {
			resp.Delay = an.Timing.Window(q.Net).LAT
		}
		return resp, nil
	}
	s, err := l.shared(q.Op == serve.Elimination, q.Net)
	if err != nil {
		return resp, err
	}
	end := l.tr.span("core.topk")
	res, err := s.TopK(q.K)
	end()
	if err != nil {
		return resp, err
	}
	l.st.addResult(res)
	resp.Result = res
	if s.FullAnalysis().ConvergenceErr() != nil {
		resp.Degraded = serve.DegradedNotConverged
	}
	return resp, nil
}

// serveHTTP is pass (a): request r through the in-process server. It
// returns the status, the body and the time ServeHTTP took.
func serveHTTP(srv *httpapi.Server, r *request) (int, []byte, time.Duration) {
	hr := httptest.NewRequest(r.method(), r.path(), bytes.NewReader(r.body))
	if r.kind != kindUpload {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// tracedResult is what the traced run reports.
type tracedResult struct {
	metrics           map[string]metric
	attempted, failed int
	additive          bool // the layer spans fit within the whole request
}

// spanAgg totals the self time and count of one layer's spans.
type spanAgg struct {
	ns int64
	n  int
}

func (a spanAgg) per(unit time.Duration) float64 {
	return ratio(float64(a.ns), float64(a.n)*float64(unit))
}

// runTraced replays the set-up and the timed list in process, checks
// every answer of both passes against the oracle, and derives the
// per-layer metrics. Runtime and wire figures come from u, the untraced
// run of the same list.
func runTraced(p *plan, o *oracle, u *untraced, outDir string, seed int64, log io.Writer) (*tracedResult, error) {
	reg := obs.New()
	srv := httpapi.NewServer(httpapi.Config{MaxInFlight: 64, MaxQueue: 128, Obs: reg}) // topkd's defaults
	tr := &tracer{t0: time.Now()}
	warm, timed := &layerStats{}, &layerStats{}
	l := &layers{tr: tr, st: warm, reg: obs.New()}
	reqs := append([]request{p.upload(0)}, p.warmup...)
	nWarm := len(reqs)
	reqs = append(reqs, p.timed...)
	res := &tracedResult{attempted: len(reqs)}
	check := func(i, status int, a, b []byte, berr error) {
		r := &reqs[i]
		var err error
		switch {
		case status != http.StatusOK:
			err = fmt.Errorf("pass (a): status %d: %.200s", status, a)
		case berr != nil:
			err = fmt.Errorf("pass (b): %w", berr)
		case r.kind == kindUpload:
			err = o.checkUpload(r, a)
		default:
			var want []byte
			if want, err = o.expect(r); err == nil {
				if !bytes.Equal(a, want) {
					err = fmt.Errorf("pass (a) answer differs from the oracle")
				} else if !bytes.Equal(b, want) {
					err = fmt.Errorf("pass (b) answer differs from the oracle")
				}
			}
		}
		if err != nil {
			res.failed++
			if res.failed <= 5 {
				fmt.Fprintf(log, "traced request %d: %v\n", i, err)
			}
		}
	}

	// Set-up: pass (a) first, then pass (b) alone, so that the live heap
	// pass (b) adds is that of its model and preparations.
	statusA, bodyA := make([]int, nWarm), make([][]byte, nWarm)
	for i := 0; i < nWarm; i++ {
		statusA[i], bodyA[i], _ = serveHTTP(srv, &reqs[i])
	}
	heap0 := liveHeapBytes()
	bodyB, errB := make([][]byte, nWarm), make([]error, nWarm)
	for i := 0; i < nWarm; i++ {
		bodyB[i], errB[i] = l.run(i, &reqs[i])
	}
	prepHeap := liveHeapBytes() - heap0
	for i := 0; i < nWarm; i++ {
		check(i, statusA[i], bodyA[i], bodyB[i], errB[i])
	}

	l.st = timed
	before := reg.Snapshot().Counters
	n := len(reqs) - nWarm
	reqNs := make([]int64, n)
	respBytes := 0
	for i := nWarm; i < len(reqs); i++ {
		status, a, d := serveHTTP(srv, &reqs[i])
		b, err := l.run(i, &reqs[i])
		reqNs[i-nWarm] = int64(d)
		respBytes += len(a)
		check(i, status, a, b, err)
	}
	after := reg.Snapshot().Counters

	self := selfNs(tr.spans)
	layerNs := make([]int64, n)
	all, tm := map[string]spanAgg{}, map[string]spanAgg{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			continue
		}
		a := all[s.Name]
		a.ns, a.n = a.ns+self[s.ID], a.n+1
		all[s.Name] = a
		if s.Req >= nWarm {
			t := tm[s.Name]
			t.ns, t.n = t.ns+self[s.ID], t.n+1
			tm[s.Name] = t
			layerNs[s.Req-nWarm] += self[s.ID]
		}
	}
	var reqTotal, residTotal int64
	for j := range reqNs {
		reqTotal += reqNs[j]
		residTotal += reqNs[j] - layerNs[j]
	}
	reqMs := float64(reqTotal) / 1e6 / float64(n)
	residMs := float64(residTotal) / 1e6 / float64(n)
	res.additive = residMs >= -residualTolerance*reqMs
	fmt.Fprintf(log, "traced %s: %d timed requests; pass (a) %.4f ms per request =\n", p.workload, n, reqMs)
	for _, name := range layerOrder {
		ms := float64(tm[name].ns) / 1e6 / float64(n)
		fmt.Fprintf(log, "  %-18s %9.4f ms %6.1f%%  %d calls\n", name, ms, 100*ratio(ms, reqMs), tm[name].n)
	}
	fmt.Fprintf(log, "  %-18s %9.4f ms %6.1f%%  validation, admission, registry, serve dispatch\n",
		"residual", residMs, 100*ratio(residMs, reqMs))
	if !res.additive {
		fmt.Fprintf(log, "traced %s: layer spans exceed the whole request by %.1f%% (tolerance %.0f%%)\n",
			p.workload, -100*residMs/reqMs, 100*residualTolerance)
	}

	saveMs, saveBytes, err := saveCost(p.designs[0].text, filepath.Join(outDir, fmt.Sprintf("state-%d", os.Getpid())))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	spansPath := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", p.workload, seed))
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "traced %s: %d spans written to %s\n", p.workload, len(tr.spans), spansPath)

	var lat []float64
	for i := range u.timed {
		lat = append(lat, u.timed[i].ms())
	}
	done := float64(u.completed)
	s := timed
	// Preparation, fixpoint and parsing run mostly in the set-up of the
	// read-only workloads, so their figures cover set-up and timed list.
	prep, fix, parse := all["core.prepare"], all["noise.fixpoint"], all["netlist.parse"]
	hits := float64(after["serve.prep_hits"] - before["serve.prep_hits"])
	misses := float64(after["serve.prep_misses"] - before["serve.prep_misses"])
	res.metrics = map[string]metric{
		"core.topk_ms":                    {tm["core.topk"].per(time.Millisecond), "ms"},
		"core.candidates_per_query":       {ratio(float64(s.candidates), float64(s.topk)), "count"},
		"core.pruned_dominance_frac":      {ratio(float64(s.prunedDom), float64(s.unique)), "frac"},
		"core.digest_hit_ratio":           {ratio(float64(s.digestHits), float64(s.digestHits+s.digestFallbacks)), "frac"},
		"core.envcache_hit_ratio":         {ratio(float64(s.envHits), float64(s.envHits+s.envMisses)), "frac"},
		"core.rescore_ms":                 {ratio(msOf(s.rescore), float64(s.topk)), "ms"},
		"core.prepare_ms":                 {prep.per(time.Millisecond), "ms"},
		"core.prepare_calls":              {float64(prep.n), "count"},
		"core.prep_heap_mb":               {float64(prepHeap) / 1e6, "MB"},
		"noise.fixpoint_ms":               {fix.per(time.Millisecond), "ms"},
		"noise.fixpoint_iterations":       {ratio(float64(warm.iterations+s.iterations), float64(warm.fixpoints+s.fixpoints)), "count"},
		"noise.mask_us":                   {tm["noise.mask"].per(time.Microsecond), "us"},
		"noise.incremental_ms":            {tm["noise.incremental"].per(time.Millisecond), "ms"},
		"noise.incremental_affected_frac": {ratio(s.affectedFrac, float64(s.incremental)), "frac"},
		"noise.incremental_full_frac":     {ratio(float64(s.incrementalFull), float64(s.incremental)), "frac"},
		"netlist.parse_ms":                {parse.per(time.Millisecond), "ms"},
		"netlist.parse_mb_per_s":          {ratio(float64(warm.parseBytes+s.parseBytes)/1e6, float64(parse.ns)/1e9), "MB/s"},
		"snapshot.save_disk_ms":           {saveMs, "ms"},
		"snapshot.bytes":                  {saveBytes, "bytes"},
		"httpapi.request_ms":              {reqMs, "ms"},
		"httpapi.decode_us":               {tm["httpapi.decode"].per(time.Microsecond), "us"},
		"httpapi.encode_us":               {tm["httpapi.encode"].per(time.Microsecond), "us"},
		"httpapi.response_bytes":          {ratio(float64(respBytes), float64(n)), "bytes"},
		"httpapi.residual_ms":             {residMs, "ms"},
		"serve.prep_hit_ratio":            {ratio(hits, hits+misses), "frac"},
		"serve.fixpoint_runs":             {float64(after["serve.fixpoint_runs"] - before["serve.fixpoint_runs"]), "count"},
		"wire.overhead_ms":                {mean(lat) - reqMs, "ms"},
		"runtime.alloc_kb_per_req":        {float64(u.mem.TotalAlloc) / 1e3 / done, "KB"},
		"runtime.gc_per_kreq":             {float64(u.mem.NumGC) * 1e3 / done, "1/kreq"},
		"runtime.gc_pause_ms":             {float64(u.mem.PauseTotalNs) / 1e6, "ms"},
	}
	return res, nil
}

// saveCost times httpapi.Server.SaveModel of a design whose state
// directory is dir, on the disk the checkout is on, and returns the
// median save time and the bytes written per save.
func saveCost(text []byte, dir string) (float64, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	reg := obs.New()
	srv := httpapi.NewServer(httpapi.Config{Obs: reg})
	if _, err := srv.OpenState(dir); err != nil {
		return 0, 0, err
	}
	if err := srv.PreloadUpload(modelName, &httpapi.UploadRequest{Netlist: string(text)}); err != nil {
		return 0, 0, err
	}
	times := make([]float64, snapshotSaves)
	for i := range times {
		start := time.Now()
		if err := srv.SaveModel(modelName); err != nil {
			return 0, 0, err
		}
		times[i] = msOf(time.Since(start))
	}
	c := reg.Snapshot().Counters
	return median(times), ratio(float64(c["snapshot.save_bytes"]), float64(c["snapshot.saves"])), nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
