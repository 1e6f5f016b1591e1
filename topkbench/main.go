// Command topkbench is the repository's benchmark. It launches the
// topkd built from the same checkout, drives it over loopback with one
// of three seeded workloads, checks answers byte for byte against an
// in-process oracle and prints one JSON result line. With -trace 1 it
// also replays the workload in process and splits each request's time
// into layers. NOTES.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/httpapi"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
	"topkagg/internal/serve"
)

const (
	// setups is how many times a run boots and warms topkd; setup_s is
	// their median.
	setups = 5
	// maxConns bounds the connections to topkd: the benchmark was sized
	// on a 2-core machine, and topkd's callers each wait for their reply.
	maxConns = 2
	// clockTick is the unit of utime and stime in /proc/<pid>/stat
	// (USER_HZ, 100 on Linux).
	clockTick = 10 * time.Millisecond
	// How many answers a replayed list checks against the oracle: a
	// sample of a list on one design, or every answer on a sample of the
	// designs of a list that spans many, so the oracle builds few models.
	checkSamples   = 200
	designsChecked = 16
	// tracedSeconds caps the --seconds a traced run sizes its lists for.
	tracedSeconds = 8
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated designs and request lists")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sizes the request list")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	topkd := fs.String("topkd", "", "topkd binary to launch")
	out := fs.String("out", ".bench_build", "directory for span files and snapshot state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *topkd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "topkbench: want -topkd, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	size := *seconds
	if *trace == 1 {
		// Each traced request runs three times (topkd, pass (a), pass (b))
		// and is checked twice, so a traced run keeps its list short.
		size = min(size, tracedSeconds)
	}
	p, err := buildPlan(*workload, *seed, size)
	if err != nil {
		fmt.Fprintln(stderr, "topkbench:", err)
		return 2
	}
	res, err := measure(p, *seed, *topkd, *out, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "topkbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "topkbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload against topkd and, with trace, in process,
// checking the answers it samples.
func measure(p *plan, seed int64, topkd, outDir string, trace bool, log io.Writer) (*result, error) {
	n := setups
	if trace {
		n = 1 // a traced run does not report setup_s
	}
	u, err := runUntraced(p, topkd, n, !trace)
	if err != nil {
		return nil, err
	}
	o := &oracle{designs: p.designs, cur: -1}
	rng := rand.New(rand.NewSource(seed))
	res := &result{Attempted: len(p.timed)}
	res.Failed = o.verify(p.timed, u.timed, sample(p.timed, rng), log)
	if u.edits != nil {
		res.Attempted += len(p.edits)
		res.Failed += o.verify(p.edits, u.edits, sample(p.edits, rng), log)
	}
	ok := u.guardErr == nil
	if !ok {
		fmt.Fprintln(log, u.guardErr)
	}
	if trace {
		t, err := runTraced(p, o, u, outDir, seed, log)
		if err != nil {
			return nil, err
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Metrics = t.metrics
		ok = ok && t.additive
	} else if res.Metrics, err = endToEnd(p, u, log); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s seed %d: failed_frac %g (%d failed of %d attempted)\n",
		p.workload, seed, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.Correct = ok && res.Failed == 0
	return res, nil
}

// endToEnd derives the user-visible metrics of an untraced run.
func endToEnd(p *plan, u *untraced, log io.Writer) (map[string]metric, error) {
	lat := make([]float64, len(u.timed))
	for i := range u.timed {
		lat[i] = u.timed[i].ms()
	}
	var rps, cpu, p50, p99 []float64
	for _, s := range u.slices {
		done := float64(s.completed)
		rps = append(rps, done/s.elapsed.Seconds())
		cpu = append(cpu, msOf(s.cpu)/done)
		for _, pc := range []struct {
			q   float64
			dst *[]float64
		}{{0.50, &p50}, {0.99, &p99}} {
			v, err := percentile(lat[s.lo:s.hi], pc.q)
			if err != nil {
				return nil, err
			}
			*pc.dst = append(*pc.dst, v)
		}
	}
	// The edit phase of the read-only workloads has a part per chunk;
	// eco_reload's edits, from its timed list, are cut per slice.
	turn, parts := turnarounds(p.timed, u.timed), len(u.slices)
	if u.edits != nil {
		turn, parts = turnarounds(p.edits, u.edits), timedChunks(len(p.timed))
	}
	turnP95, err := partPercentiles(turn, 0.95, parts)
	if err != nil {
		return nil, err
	}
	// The turnaround median goes to the log only (NOTES.md).
	fmt.Fprintf(log, "%s: %d timed requests in %.3f s, %d slices, p99 per slice %.3f ms; %d edit turnarounds (median %.3f ms), p95 per part %.3f ms; set-ups %.3f s\n",
		p.workload, len(u.timed), u.elapsed.Seconds(), len(u.slices), p99, len(turn), median(turn), turnP95, u.setups)
	return map[string]metric{
		"throughput_rps":         {iqm(rps), "1/s"},
		"latency_p50_ms":         {iqm(p50), "ms"},
		"latency_p99_ms":         {iqm(p99), "ms"},
		"server_cpu_ms_per_req":  {iqm(cpu), "ms"},
		"heap_live_mb":           {float64(u.heapLive) / 1e6, "MB"},
		"setup_s":                {median(u.setups), "s"},
		"edit_turnaround_p95_ms": {iqm(turnP95), "ms"},
	}, nil
}

// daemon is one running topkd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	client  *http.Client
	exited  chan error // cmd.Wait's result, sent once the process has ended
	stopped bool
}

// startDaemon launches topkd on a free loopback port and returns once
// /readyz answers 200.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// topkd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start topkd: %w", err)
	}
	d := &daemon{
		cmd: cmd,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns, DisableCompression: true},
			Timeout:   60 * time.Second, // a hung request fails the run instead of stalling it
		},
		exited: make(chan error, 1),
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "topkd listening on "); ok {
				select {
				case addr <- strings.TrimSuffix(a, "/"):
				default:
				}
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.exited:
		d.stopped = true
		return nil, fmt.Errorf("topkd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("topkd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := d.getJSON("/readyz", nil); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("topkd not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks topkd to drain and exit, kills it if it has not exited
// within 15 s, and returns once the process has ended.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// send issues one request and reads its response to the last byte.
func (d *daemon) send(r *request) (int, []byte, error) {
	req, err := http.NewRequest(r.method(), d.base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.kind != kindUpload {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON decodes a GET response into v, or discards it when v is nil.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memStats is the part of topkd's runtime.MemStats the benchmark reads
// from /debug/vars.
type memStats struct {
	HeapAlloc    uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func (d *daemon) memstats() (memStats, error) {
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	err := d.getJSON("/debug/vars", &v)
	return v.Memstats, err
}

// liveHeap forces two collections through the heap-profile endpoint and
// returns HeapAlloc. After one, garbage of the cycle it interrupted can
// still count as live.
func (d *daemon) liveHeap() (uint64, error) {
	for i := 0; i < 2; i++ {
		if err := d.getJSON("/debug/pprof/heap?gc=1", nil); err != nil {
			return 0, err
		}
	}
	ms, err := d.memstats()
	return ms.HeapAlloc, err
}

// counters returns topkd's /debug/metrics counters.
func (d *daemon) counters() (map[string]int64, error) {
	var v struct {
		Counters map[string]int64 `json:"counters"`
	}
	err := d.getJSON("/debug/metrics", &v)
	return v.Counters, err
}

// remove deletes a model from topkd's registry.
func (d *daemon) remove(model string) error {
	req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/models/"+model, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("DELETE model %s: status %d", model, resp.StatusCode)
	}
	return err
}

// probe is what the benchmark reads from topkd around a timed chunk.
type probe struct {
	counters map[string]int64
	mem      memStats
	cpu      time.Duration
}

// probe reads topkd's counters, memstats and, last, its CPU time, so that
// the CPU spent answering the first two falls outside a chunk.
func (d *daemon) probe() (probe, error) {
	var pr probe
	var err error
	if pr.counters, err = d.counters(); err != nil {
		return pr, err
	}
	if pr.mem, err = d.memstats(); err != nil {
		return pr, err
	}
	pr.cpu, err = d.cpu()
	return pr, err
}

// cpu returns topkd's user plus system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := cpuTicks(string(data))
	return time.Duration(ticks) * clockTick, err
}

// cpuTicks parses utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its last closing parenthesis.
func cpuTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// outcome is one request's result in a replay.
type outcome struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
}

func (o *outcome) ok() bool    { return o.err == nil && o.status == http.StatusOK }
func (o *outcome) ms() float64 { return msOf(o.end.Sub(o.start)) }

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// replay sends reqs in list order from clients closed-loop clients: a
// client sends the next unsent request as soon as it has read its
// previous reply to the last byte.
func (d *daemon) replay(reqs []request, clients int) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.start = time.Now()
				o.status, o.body, o.err = d.send(&reqs[i])
				o.end = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// timedSlice is p.timed[lo:hi], replayed in one or more chunks.
type timedSlice struct {
	lo, hi    int
	completed int           // requests answered 200
	elapsed   time.Duration // sum over its chunks
	cpu       time.Duration // topkd user+system CPU over its chunks
}

// untraced is what a run against the topkd process measured.
type untraced struct {
	setups    []float64 // seconds from launch to the end of warm-up
	timed     []outcome
	slices    []timedSlice
	completed int           // timed requests answered 200
	elapsed   time.Duration // sum over the chunks
	mem       memStats      // growth of topkd's memstats counters over the chunks
	heapLive  uint64        // after two forced GCs at the end of the run
	guardErr  error
	edits     []outcome // the edit phase, when run
}

// runUntraced boots and warms topkd setups times, then replays the timed
// list on the last instance in chunks, reading its CPU, memory and
// counters around each; with withEdits, a part of the plan's edit phase
// follows each chunk. It ends with topkd's live heap.
func runUntraced(p *plan, topkd string, setups int, withEdits bool) (*untraced, error) {
	u := &untraced{}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(topkd); err != nil {
			return nil, err
		}
		if err := d.warm(p); err != nil {
			return nil, err
		}
		u.setups = append(u.setups, time.Since(start).Seconds())
	}

	// The timed list is replayed in chunks, and on the read-only workloads
	// a part of the edit phase follows each chunk, so that the edit phase
	// spans the run as the slices do (stats.go). Its uploads go to their
	// own model, leaving the timed phase's model and caches as they were.
	cycles := 0
	if withEdits {
		cycles = len(p.edits) / 2 // (upload, first answer) pairs
	}
	nt, chunks := len(p.timed), timedChunks(len(p.timed))
	per := chunks / timedSlices(nt) // chunks per slice
	rise := map[string]int64{}
	for c := 0; c < chunks; c++ {
		if c%per == 0 {
			u.slices = append(u.slices, timedSlice{lo: c * nt / chunks})
		}
		s := &u.slices[len(u.slices)-1]
		lo, hi := c*nt/chunks, (c+1)*nt/chunks
		before, err := d.probe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		u.timed = append(u.timed, d.replay(p.timed[lo:hi], p.clients)...)
		elapsed := time.Since(start)
		after, err := d.probe()
		if err != nil {
			return nil, err
		}
		s.hi = hi
		s.elapsed += elapsed
		s.cpu += after.cpu - before.cpu
		for name, v := range after.counters {
			rise[name] += v - before.counters[name]
		}
		u.mem.TotalAlloc += after.mem.TotalAlloc - before.mem.TotalAlloc
		u.mem.NumGC += after.mem.NumGC - before.mem.NumGC
		u.mem.PauseTotalNs += after.mem.PauseTotalNs - before.mem.PauseTotalNs
		for j := lo; j < hi; j++ {
			if u.timed[j].ok() {
				s.completed++
				u.completed++
			}
		}
		u.elapsed += elapsed
		if cycles > 0 {
			u.edits = append(u.edits, d.replay(p.edits[2*(c*cycles/chunks):2*((c+1)*cycles/chunks)], 1)...)
			// A collection the edit part started is not billed to the
			// next chunk.
			if err := d.getJSON("/debug/pprof/heap?gc=1", nil); err != nil {
				return nil, err
			}
		}
	}
	if u.completed == 0 {
		return nil, fmt.Errorf("no timed request completed (first: status %d, %v)", u.timed[0].status, u.timed[0].err)
	}
	if cycles > 0 {
		if err := d.remove(editModel); err != nil {
			return nil, err
		}
	} else {
		u.edits = nil
	}
	var err error
	if u.heapLive, err = d.liveHeap(); err != nil {
		return nil, err
	}
	u.guardErr = guard(p.timed, rise)
	return u, nil
}

// warm uploads the base design and replays the warm-up list. Any failure
// ends the run: a set-up that did not complete would time other work.
func (d *daemon) warm(p *plan) error {
	up := p.upload(0)
	if status, body, err := d.send(&up); err != nil || status != http.StatusOK {
		return fmt.Errorf("set-up upload: status %d, %v: %.200s", status, err, body)
	}
	for i, o := range d.replay(p.warmup, p.clients) {
		if !o.ok() {
			return fmt.Errorf("warm-up request %d: status %d, %v: %.200s", i, o.status, o.err, o.body)
		}
	}
	return nil
}

// guard fails when the timed phase did cold work: any preparation or
// fixpoint beyond the one of each that an upload's first answer needs.
func guard(timed []request, rise map[string]int64) error {
	uploads := int64(0)
	for i := range timed {
		if timed[i].kind == kindUpload {
			uploads++
		}
	}
	for _, name := range []string{"serve.prep_misses", "serve.fixpoint_runs"} {
		if got := rise[name]; got != uploads {
			return fmt.Errorf("warm-phase guard: %s rose by %d over the timed phase, want %d (one per upload)", name, got, uploads)
		}
	}
	return nil
}

// turnarounds returns, for every answer that ends an edit, the time from
// sending the upload before it to that answer's last byte, in ms.
func turnarounds(reqs []request, outs []outcome) []float64 {
	var ms []float64
	upload := -1
	for i := range reqs {
		switch {
		case reqs[i].kind == kindUpload:
			upload = i
		case reqs[i].endsEdit && upload >= 0:
			ms = append(ms, msOf(outs[i].end.Sub(outs[upload].start)))
		}
	}
	return ms
}

// oracle computes in process the exact bytes topkd must answer, per the
// wire-equivalence contract: httpapi.ToWire(c, serve.Analyzer.Do(q)),
// marshalled as topkd marshals it, on a circuit parsed from the netlist
// text topkd received. It keeps one design's model at a time.
type oracle struct {
	designs []design
	cur     int
	c       *circuit.Circuit
	a       *serve.Analyzer
}

func (o *oracle) use(d int) error {
	if d == o.cur {
		return nil
	}
	c, err := netlist.ParseString(string(o.designs[d].text), cell.Default())
	if err != nil {
		return fmt.Errorf("design %d: %w", d, err)
	}
	o.cur, o.c, o.a = d, c, serve.NewAnalyzer(noise.NewModel(c), core.Options{})
	return nil
}

// expect returns the body topkd must send for a query or sweep.
func (o *oracle) expect(r *request) ([]byte, error) {
	if err := o.use(r.design); err != nil {
		return nil, err
	}
	if r.kind == kindQuery {
		return o.answer(&r.query, -1)
	}
	var out []byte
	for i, net := range r.sweep.Nets {
		line, err := o.answer(&httpapi.QueryRequest{Op: r.sweep.Op, Net: net, K: r.sweep.K}, i)
		if err != nil {
			return nil, err
		}
		out = append(out, line...)
	}
	return out, nil
}

func (o *oracle) answer(qr *httpapi.QueryRequest, index int) ([]byte, error) {
	q, err := toQuery(o.c, qr)
	if err != nil {
		return nil, err
	}
	return encodeAnswer(o.c, o.a.Do(q), index)
}

// checkUpload checks that topkd registered the uploaded design.
func (o *oracle) checkUpload(r *request, body []byte) error {
	var v struct {
		Model httpapi.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("upload reply: %w", err)
	}
	if want := o.designs[r.design].couplings; v.Model.Couplings != want {
		return fmt.Errorf("upload of design %d registered %d couplings, want %d", r.design, v.Model.Couplings, want)
	}
	return nil
}

// verify checks one replayed list: every request must have succeeded,
// every upload must have registered its design, and every sampled
// answer must equal the oracle's bytes. It returns how many failed.
func (o *oracle) verify(reqs []request, outs []outcome, sampled []bool, log io.Writer) int {
	failed := 0
	for i := range reqs {
		r, out := &reqs[i], &outs[i]
		var err error
		switch {
		case !out.ok():
			err = fmt.Errorf("status %d, %v: %.200s", out.status, out.err, out.body)
		case r.kind == kindUpload:
			err = o.checkUpload(r, out.body)
		case sampled[i]:
			var want []byte
			if want, err = o.expect(r); err == nil && !bytes.Equal(out.body, want) {
				err = fmt.Errorf("answer differs from the in-process oracle:\n got %.300s\nwant %.300s", out.body, want)
			}
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(log, "request %d (%s %s): %v\n", i, r.method(), r.path(), err)
			}
		}
	}
	return failed
}

// sample marks the requests whose answers verify compares with the
// oracle, drawn by rng.
func sample(reqs []request, rng *rand.Rand) []bool {
	marks := make([]bool, len(reqs))
	var designs []int
	seen := map[int]bool{}
	for i := range reqs {
		if d := reqs[i].design; !seen[d] {
			seen[d] = true
			designs = append(designs, d)
		}
	}
	if len(designs) == 1 {
		for _, i := range rng.Perm(len(reqs))[:min(checkSamples, len(reqs))] {
			marks[i] = true
		}
		return marks
	}
	picked := map[int]bool{}
	for _, j := range rng.Perm(len(designs))[:min(designsChecked, len(designs))] {
		picked[designs[j]] = true
	}
	for i := range reqs {
		marks[i] = picked[reqs[i].design]
	}
	return marks
}

// toQuery converts a wire query as topkd's validation does; the
// benchmark generates only valid ones.
func toQuery(c *circuit.Circuit, qr *httpapi.QueryRequest) (serve.Query, error) {
	op, ok := serve.ParseOp(qr.Op)
	if !ok {
		return serve.Query{}, fmt.Errorf("unknown op %q", qr.Op)
	}
	q := serve.Query{Op: op, Net: serve.WholeCircuit, K: qr.K}
	if qr.Net != "" {
		id, ok := c.NetByName(qr.Net)
		if !ok {
			return serve.Query{}, fmt.Errorf("no net %q", qr.Net)
		}
		q.Net = id
	}
	for _, id := range qr.Fix {
		q.Fix = append(q.Fix, circuit.CouplingID(id))
	}
	return q, nil
}

// encodeAnswer marshals a response as topkd writes it: a sweep record
// when index >= 0, else the bare response; newline-terminated.
func encodeAnswer(c *circuit.Circuit, resp serve.Response, index int) ([]byte, error) {
	w, err := httpapi.ToWire(c, resp)
	if err != nil {
		return nil, err
	}
	var v any = w
	if index >= 0 {
		v = httpapi.SweepRecord{Index: index, QueryResponse: w}
	}
	data, err := json.Marshal(v)
	return append(data, '\n'), err
}
