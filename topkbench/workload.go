package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"topkagg/internal/circuit"
	"topkagg/internal/gen"
	"topkagg/internal/httpapi"
	"topkagg/internal/netlist"
)

// modelName is the registry name every workload uploads its design to;
// the edit phase of the read-only workloads uploads to editModel.
const (
	modelName = "bench"
	editModel = "bench-edit"
)

// Request list sizes per second of --seconds. On a 2-core VM the timed
// phase lasts about --seconds on topk_signoff, 0.4 of it on whatif_eco
// and 1.5 times it on eco_reload: at --seconds 20 each timed list holds
// three or more slices of sliceRequests (stats.go), and whatif_eco, whose
// requests are steady, no more than it needs. The minimums keep ten
// samples beyond p99 (latency) and p95 (edit turnaround) on short runs.
const (
	signoffPerSecond = 150
	whatifPerSecond  = 1000
	ecoPerSecond     = 38 // edit cycles
	minRequests      = 1000
	minEdits         = 200
	// ecoDesigns caps the distinct edited designs eco_reload generates;
	// its cycles upload them in turn. topkd keeps no cache across
	// uploads (the warm-phase guard counts one fixpoint per upload), and
	// the cap keeps the benchmark's own memory near 100 MB.
	ecoDesigns = 200
)

var workloadNames = []string{"topk_signoff", "whatif_eco", "eco_reload"}

// Request kinds.
const (
	kindQuery = iota
	kindSweep
	kindUpload
)

// request is one HTTP request of a workload's fixed list.
type request struct {
	kind  int
	model string
	body  []byte
	// design indexes plan.designs: the design live when the request is
	// sent or, for an upload, the design it uploads.
	design int
	query  httpapi.QueryRequest // kindQuery
	sweep  httpapi.SweepRequest // kindSweep
	// endsEdit marks the first answer after an upload; its last byte
	// ends that upload's edit turnaround.
	endsEdit bool
}

func (r *request) method() string {
	if r.kind == kindUpload {
		return "PUT"
	}
	return "POST"
}

func (r *request) path() string {
	switch r.kind {
	case kindQuery:
		return "/v1/models/" + r.model + "/query"
	case kindSweep:
		return "/v1/models/" + r.model + "/sweep"
	}
	return "/v1/models/" + r.model
}

// design is one netlist a workload uploads.
type design struct {
	text      []byte
	couplings int
}

// plan is everything one run sends to topkd, generated from the seed.
type plan struct {
	workload string
	clients  int      // closed-loop clients in the timed phase
	designs  []design // designs[0] is the unedited base
	// warmup follows the upload of designs[0] in every set-up. Each is
	// long enough that process-start jitter is a small share of setup_s.
	warmup []request
	timed  []request
	// edits runs beside the timed phase, one part after each chunk, on
	// workloads whose timed traffic makes no edits, so that every
	// workload reports an edit turnaround.
	edits []request
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshalled here
	}
	return data
}

func query(d int, qr httpapi.QueryRequest) request {
	return request{kind: kindQuery, model: modelName, body: mustJSON(qr), design: d, query: qr}
}

func sweep(d int, sr httpapi.SweepRequest) request {
	return request{kind: kindSweep, model: modelName, body: mustJSON(sr), design: d, sweep: sr}
}

func (p *plan) upload(d int) request {
	return request{kind: kindUpload, model: modelName, body: p.designs[d].text, design: d}
}

// buildPlan generates the workload's designs and request lists. The
// same (workload, seed, seconds) always yields the same bytes.
func buildPlan(workload string, seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "topk_signoff":
		return signoffPlan(rng, seconds)
	case "whatif_eco":
		return whatifPlan(rng, seconds)
	case "eco_reload":
		return ecoPlan(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

func basePlan(name string, c *circuit.Circuit, clients int) *plan {
	return &plan{
		workload: name,
		clients:  clients,
		designs:  []design{{text: []byte(netlist.String(c)), couplings: c.NumCouplings()}},
	}
}

func drivenNets(c *circuit.Circuit) []string {
	var out []string
	for id := 0; id < c.NumNets(); id++ {
		if n := c.Net(circuit.NetID(id)); n.Driver != circuit.NoGate {
			out = append(out, n.Name)
		}
	}
	return out
}

// stratified picks one net from each of n equal slices of nets. The
// generator numbers nets level by level, so the picks span the circuit's
// depth and the seed moves the work per request much less than n
// independent picks would.
func stratified(nets []string, n int, rng *rand.Rand) []string {
	out := make([]string, n)
	for i := range out {
		lo, hi := i*len(nets)/n, (i+1)*len(nets)/n
		out[i] = nets[lo+rng.Intn(hi-lo)]
	}
	return out
}

// fixSet draws 1-3 distinct coupling IDs below n, sorted.
func fixSet(rng *rand.Rand, n int) []int {
	want := 1 + rng.Intn(3)
	var ids []int
	for len(ids) < want {
		id := rng.Intn(n)
		if !containsInt(ids, id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

var topkOps = [2]string{"addition", "elimination"}

// signoffPlan: the paper's query. Top-k addition and elimination on i3,
// half on the circuit outputs and half on 8 seeded nets, k 1-5, one
// request in ten a sweep over 3 of the nets. Every (op, target, k)
// combination appears equally often; the seed picks the nets and the
// order.
func signoffPlan(rng *rand.Rand, seconds int) (*plan, error) {
	c, err := gen.BuildPaper("i3")
	if err != nil {
		return nil, err
	}
	p := basePlan("topk_signoff", c, 1)
	nets := stratified(drivenNets(c), 8, rng)
	for _, op := range topkOps {
		for _, t := range append([]string{""}, nets...) {
			p.warmup = append(p.warmup, query(0, httpapi.QueryRequest{Op: op, Net: t, K: 5}))
		}
	}
	n := max(minRequests, signoffPerSecond*seconds)
	sweeps := n / 10
	for j := 0; j < n-sweeps; j++ {
		qr := httpapi.QueryRequest{Op: topkOps[j%2], K: 1 + (j/4)%5}
		if (j/2)%2 == 1 {
			qr.Net = nets[(j/20)%len(nets)]
		}
		p.timed = append(p.timed, query(0, qr))
	}
	for j := 0; j < sweeps; j++ {
		// Sweeps rotate through the nets three at a time. One worker
		// runs the sweep on the request's own goroutine, as a query
		// runs, so the traced run can attribute its time.
		picked := []string{nets[(3*j)%8], nets[(3*j+1)%8], nets[(3*j+2)%8]}
		p.timed = append(p.timed, sweep(0, httpapi.SweepRequest{Op: topkOps[j%2], Nets: picked, K: 1 + j%5, Workers: 1}))
	}
	rng.Shuffle(len(p.timed), func(i, j int) { p.timed[i], p.timed[j] = p.timed[j], p.timed[i] })
	return p, p.addEditPhase(rng, func(d int) request {
		return query(d, httpapi.QueryRequest{Op: "addition", K: 2})
	})
}

// whatifPlan: the router/ECO loop. What-ifs on i3 from 2 clients, each
// fixing 1-3 seeded couplings, half on the circuit and half on one net.
func whatifPlan(rng *rand.Rand, seconds int) (*plan, error) {
	c, err := gen.BuildPaper("i3")
	if err != nil {
		return nil, err
	}
	p := basePlan("whatif_eco", c, 2)
	nets := drivenNets(c)
	whatif := func(j int) request {
		qr := httpapi.QueryRequest{Op: "whatif", Fix: fixSet(rng, c.NumCouplings())}
		if j%2 == 1 {
			qr.Net = nets[rng.Intn(len(nets))]
		}
		return query(0, qr)
	}
	for j := 0; j < 1000; j++ {
		p.warmup = append(p.warmup, whatif(j))
	}
	n := max(minRequests, whatifPerSecond*seconds)
	for j := 0; j < n; j++ {
		p.timed = append(p.timed, whatif(j))
	}
	return p, p.addEditPhase(rng, func(d int) request {
		return query(d, httpapi.QueryRequest{Op: "whatif", Fix: fixSet(rng, p.designs[d].couplings)})
	})
}

// ecoPlan: writes beside reads on gen.Scale(2000). Each cycle uploads a
// seeded edit of the base design (the next of at most ecoDesigns), asks
// addition top-2 on the circuit (ending the edit turnaround) and runs two
// what-ifs.
func ecoPlan(rng *rand.Rand, seconds int) (*plan, error) {
	c, err := gen.Scale(2000)
	if err != nil {
		return nil, err
	}
	p := basePlan("eco_reload", c, 1)
	nets := drivenNets(c)
	uploads := 0
	cycle := func(upload bool) ([]request, error) {
		var reqs []request
		d := 0
		if upload {
			if len(p.designs) <= ecoDesigns {
				if err := p.addDesign(rng); err != nil {
					return nil, err
				}
			}
			d = 1 + uploads%ecoDesigns
			uploads++
			reqs = append(reqs, p.upload(d))
		}
		first := query(d, httpapi.QueryRequest{Op: "addition", K: 2})
		first.endsEdit = upload
		cc := p.designs[d].couplings
		reqs = append(reqs, first, query(d, httpapi.QueryRequest{Op: "whatif", Fix: fixSet(rng, cc)}))
		return append(reqs, query(d, httpapi.QueryRequest{Op: "whatif", Net: nets[rng.Intn(len(nets))], Fix: fixSet(rng, cc)})), nil
	}
	for i := 0; i < 10; i++ {
		reqs, err := cycle(i > 0)
		if err != nil {
			return nil, err
		}
		p.warmup = append(p.warmup, reqs...)
	}
	for i := 0; i < max(minEdits, ecoPerSecond*seconds); i++ {
		reqs, err := cycle(true)
		if err != nil {
			return nil, err
		}
		p.timed = append(p.timed, reqs...)
	}
	return p, nil
}

// addEditPhase appends cycles of (upload an edited base, first answer)
// on editModel to p.edits, sliceEdits for each chunk of the timed list.
func (p *plan) addEditPhase(rng *rand.Rand, first func(d int) request) error {
	for i := 0; i < sliceEdits*timedChunks(len(p.timed)); i++ {
		if err := p.addDesign(rng); err != nil {
			return err
		}
		d := len(p.designs) - 1
		up, ans := p.upload(d), first(d)
		up.model, ans.model, ans.endsEdit = editModel, editModel, true
		p.edits = append(p.edits, up, ans)
	}
	return nil
}

func (p *plan) addDesign(rng *rand.Rand) error {
	d, err := editDesign(p.designs[0].text, rng)
	if err != nil {
		return err
	}
	p.designs = append(p.designs, d)
	return nil
}

// editDesign returns base with 1% of its couplings dropped and another
// 1% resized by a factor in [0.5, 1.5), as an ECO round would.
func editDesign(base []byte, rng *rand.Rand) (design, error) {
	lines := strings.SplitAfter(string(base), "\n")
	var couples []int
	for i, l := range lines {
		if strings.HasPrefix(l, "couple ") {
			couples = append(couples, i)
		}
	}
	n := max(1, len(couples)/100)
	if 2*n > len(couples) {
		return design{}, fmt.Errorf("edit: design has only %d couplings", len(couples))
	}
	const (
		keep = iota
		drop
		resize
	)
	action := make([]int8, len(lines))
	perm := rng.Perm(len(couples))
	for _, j := range perm[:n] {
		action[couples[j]] = drop
	}
	for _, j := range perm[n : 2*n] {
		action[couples[j]] = resize
	}
	var sb strings.Builder
	sb.Grow(len(base))
	for i, l := range lines {
		switch action[i] {
		case keep:
			sb.WriteString(l)
		case resize:
			f := strings.Fields(l)
			if len(f) != 4 {
				return design{}, fmt.Errorf("edit: malformed coupling line %q", l)
			}
			cc, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return design{}, fmt.Errorf("edit: %v", err)
			}
			fmt.Fprintf(&sb, "couple %s %s %g\n", f[1], f[2], cc*(0.5+rng.Float64()))
		}
	}
	return design{text: []byte(sb.String()), couplings: len(couples) - n}, nil
}
