package core

import (
	"fmt"

	"topkagg/internal/circuit"
	"topkagg/internal/noise"
	"topkagg/internal/snapshot"
	"topkagg/internal/waveform"
)

// Snapshot codec for the prepared enumeration state (DESIGN.md §13).
//
// What is serialized is exactly the read-only output of newPrepared:
// victim selection, topological victim levels, dominance intervals,
// primary-aggressor envelopes with their scores, and the elimination
// scoring totals. Every float travels as its IEEE-754 bit pattern and
// every envelope breakpoint is restored verbatim (waveform.Restore, no
// Eps re-merging), so the restored prepared state is bit-identical to
// the encoded one. What is NOT serialized is pure cache: the Rule-1
// set-envelope intern table and the per-aggSet digests are rebuilt
// lazily and are excluded from the determinism surface (PR 5), so
// their absence cannot change a single response byte.
//
// The caller (internal/serve) owns section framing: EncodeShared
// appends to the encoder's current section, DecodeShared consumes the
// decoder's current section. The fixpoint analysis and Options are
// shared across every preparation of one Analyzer and are serialized
// once at that layer, then passed back in here.

// EncodeOptions appends the enumeration options to the current
// section. Options shape the prepared state (victim selection, active
// mask), so a restored Analyzer must run under bit-identical options.
func EncodeOptions(e *snapshot.Encoder, opt Options) {
	e.Int(opt.MaxListWidth)
	e.Int(opt.MaxExtend)
	e.Int(opt.MaxHigherOrder)
	e.F64(opt.SlackFrac)
	e.Bool(opt.NoDominance)
	e.Bool(opt.NoPseudo)
	e.Bool(opt.NoRescore)
	e.Int(opt.VerifyTop)
	e.Bool(opt.Active != nil)
	if opt.Active != nil {
		e.Bools(opt.Active)
	}
}

// DecodeOptions reads back what EncodeOptions wrote.
func DecodeOptions(d *snapshot.Decoder, c *circuit.Circuit) (Options, error) {
	var opt Options
	opt.MaxListWidth = d.Int()
	opt.MaxExtend = d.Int()
	opt.MaxHigherOrder = d.Int()
	opt.SlackFrac = d.FiniteF64()
	opt.NoDominance = d.Bool()
	opt.NoPseudo = d.Bool()
	opt.NoRescore = d.Bool()
	opt.VerifyTop = d.Int()
	if d.Bool() {
		opt.Active = d.Bools()
		if d.Err() == nil && len(opt.Active) != c.NumCouplings() {
			return Options{}, fmt.Errorf("core: restore: active mask covers %d of %d couplings", len(opt.Active), c.NumCouplings())
		}
	}
	return opt, d.Err()
}

func encodePWL(e *snapshot.Encoder, w waveform.PWL) {
	pts := w.Points()
	e.U32(uint32(len(pts)))
	for _, p := range pts {
		e.F64(p.T)
		e.F64(p.V)
	}
}

func decodePWL(d *snapshot.Decoder) (waveform.PWL, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return waveform.PWL{}, d.Err()
	}
	if n > d.Remaining()/16 {
		return waveform.PWL{}, fmt.Errorf("core: restore: envelope claims %d points", n)
	}
	if n == 0 {
		return waveform.PWL{}, nil
	}
	pts := make([]waveform.Point, n)
	for i := range pts {
		pts[i].T = d.F64()
		pts[i].V = d.F64()
	}
	if err := d.Err(); err != nil {
		return waveform.PWL{}, err
	}
	return waveform.Restore(pts)
}

// Elimination reports whether the shared state was prepared for the
// elimination problem (false = addition). Snapshot restore uses it to
// re-key the preparation cache.
func (s *Shared) Elimination() bool { return s.p.mode == elimination }

// EncodeShared appends one preparation's full warm state to the
// current section.
func (s *Shared) EncodeShared(e *snapshot.Encoder) {
	p := s.p
	e.U8(uint8(p.mode))
	e.I64(int64(p.target))
	e.Int(p.c.NumNets())
	e.Int(p.c.NumCouplings())
	e.U32(uint32(len(p.victims)))
	for _, v := range p.victims {
		e.I64(int64(v))
	}
	e.U32(uint32(len(p.levels)))
	for _, lv := range p.levels {
		e.U32(uint32(len(lv)))
		for _, v := range lv {
			e.I64(int64(v))
		}
	}
	e.F64s(p.domLo)
	e.F64s(p.domHi)
	// Primary envelopes, framed in victim order (map iteration order
	// is randomized; snapshots of identical state must be stable).
	nPrim := 0
	for _, v := range p.victims {
		if len(p.prim[v]) > 0 {
			nPrim++
		}
	}
	e.U32(uint32(nPrim))
	for _, v := range p.victims {
		list := p.prim[v]
		if len(list) == 0 {
			continue
		}
		e.I64(int64(v))
		e.U32(uint32(len(list)))
		for _, pa := range list {
			e.I64(int64(pa.id))
			e.F64(pa.score)
			encodePWL(e, pa.env)
		}
	}
	if p.mode == elimination {
		nTot := 0
		for _, v := range p.victims {
			if !p.totalEnv[v].IsZero() {
				nTot++
			}
		}
		e.U32(uint32(nTot))
		for _, v := range p.victims {
			if p.totalEnv[v].IsZero() {
				continue
			}
			e.I64(int64(v))
			encodePWL(e, p.totalEnv[v])
		}
		e.F64s(p.propShift)
		e.F64s(p.totalDN)
	}
}

// DecodeShared reads one preparation back against a freshly built
// model and its restored fixpoint analysis. Every index is
// bounds-checked and every float validated, so arbitrary bytes yield
// a typed error, never a panic or a half-populated Shared — the value
// is constructed only after the whole section decoded cleanly.
func DecodeShared(d *snapshot.Decoder, m *noise.Model, full *noise.Analysis, opt Options) (*Shared, error) {
	c := m.C
	nNets, nCoup := c.NumNets(), c.NumCouplings()
	fail := func(format string, args ...any) (*Shared, error) {
		return nil, fmt.Errorf("core: restore: "+format, args...)
	}

	md := mode(d.U8())
	if d.Err() == nil && md != addition && md != elimination {
		return fail("unknown mode %d", md)
	}
	target := circuit.NetID(d.I64())
	if d.Err() == nil && target != WholeCircuit && (int(target) < 0 || int(target) >= nNets) {
		return fail("target %d out of range", target)
	}
	if gotNets, gotCoup := d.Int(), d.Int(); d.Err() == nil && (gotNets != nNets || gotCoup != nCoup) {
		return fail("prepared for %d nets / %d couplings, circuit has %d / %d", gotNets, gotCoup, nNets, nCoup)
	}

	nv := int(d.U32())
	if nv > d.Remaining()/8 || (d.Err() == nil && nv > nNets) {
		return fail("victim count %d out of range", nv)
	}
	victims := make([]circuit.NetID, 0, nv)
	isVictim := make([]bool, nNets)
	for i := 0; i < nv; i++ {
		v := circuit.NetID(d.I64())
		if d.Err() != nil {
			break
		}
		if int(v) < 0 || int(v) >= nNets || isVictim[v] {
			return fail("victim %d invalid or duplicated", v)
		}
		isVictim[v] = true
		victims = append(victims, v)
	}

	nl := int(d.U32())
	if d.Err() == nil && nl > nNets+1 {
		return fail("level count %d out of range", nl)
	}
	levels := make([][]circuit.NetID, 0, nl)
	leveled := 0
	for i := 0; i < nl && d.Err() == nil; i++ {
		n := int(d.U32())
		if n > d.Remaining()/8 {
			return fail("level %d claims %d victims", i, n)
		}
		lv := make([]circuit.NetID, 0, n)
		for j := 0; j < n; j++ {
			v := circuit.NetID(d.I64())
			if d.Err() != nil {
				break
			}
			if int(v) < 0 || int(v) >= nNets || !isVictim[v] {
				return fail("level %d lists non-victim %d", i, v)
			}
			lv = append(lv, v)
		}
		leveled += len(lv)
		levels = append(levels, lv)
	}
	if d.Err() == nil && leveled != len(victims) {
		return fail("levels partition %d of %d victims", leveled, len(victims))
	}

	domLo := d.FiniteF64s()
	domHi := d.FiniteF64s()
	if d.Err() == nil && (len(domLo) != nNets || len(domHi) != nNets) {
		return fail("dominance intervals cover %d/%d of %d nets", len(domLo), len(domHi), nNets)
	}

	np := int(d.U32())
	if d.Err() == nil && np > len(victims) {
		return fail("primary table lists %d of %d victims", np, len(victims))
	}
	prim := make(map[circuit.NetID][]primAgg, np)
	primIdx := make(map[circuit.NetID]map[circuit.CouplingID]int, np)
	for i := 0; i < np && d.Err() == nil; i++ {
		v := circuit.NetID(d.I64())
		if d.Err() != nil {
			break
		}
		if int(v) < 0 || int(v) >= nNets || !isVictim[v] {
			return fail("primaries for non-victim %d", v)
		}
		if _, dup := prim[v]; dup {
			return fail("primaries for victim %d repeated", v)
		}
		n := int(d.U32())
		if n > d.Remaining()/20 || (d.Err() == nil && n > nCoup) {
			return fail("victim %d claims %d primaries", v, n)
		}
		list := make([]primAgg, 0, n)
		idx := make(map[circuit.CouplingID]int, n)
		for j := 0; j < n; j++ {
			id := circuit.CouplingID(d.I64())
			score := d.FiniteF64()
			env, err := decodePWL(d)
			if err != nil {
				return nil, fmt.Errorf("core: restore: victim %d primary %d: %w", v, j, err)
			}
			if int(id) < 0 || int(id) >= nCoup {
				return fail("victim %d primary coupling %d out of range", v, id)
			}
			if _, dup := idx[id]; dup {
				return fail("victim %d primary coupling %d repeated", v, id)
			}
			idx[id] = len(list)
			list = append(list, primAgg{id: id, env: env, score: score})
		}
		prim[v] = list
		primIdx[v] = idx
	}

	var totalEnv []waveform.PWL
	var propShift, totalDN []float64
	if d.Err() == nil && md == elimination {
		totalEnv = make([]waveform.PWL, nNets)
		nt := int(d.U32())
		if d.Err() == nil && nt > len(victims) {
			return fail("totals list %d of %d victims", nt, len(victims))
		}
		seen := make(map[circuit.NetID]bool, nt)
		for i := 0; i < nt && d.Err() == nil; i++ {
			v := circuit.NetID(d.I64())
			if d.Err() != nil {
				break
			}
			if int(v) < 0 || int(v) >= nNets || !isVictim[v] || seen[v] {
				return fail("total envelope for invalid victim %d", v)
			}
			seen[v] = true
			env, err := decodePWL(d)
			if err != nil {
				return nil, fmt.Errorf("core: restore: victim %d total envelope: %w", v, err)
			}
			totalEnv[v] = env
		}
		propShift = d.FiniteF64s()
		totalDN = d.FiniteF64s()
		if d.Err() == nil && (len(propShift) != nNets || len(totalDN) != nNets) {
			return fail("elimination totals cover %d/%d of %d nets", len(propShift), len(totalDN), nNets)
		}
	}

	if err := d.Err(); err != nil {
		return nil, err
	}
	if !d.AtEnd() {
		return fail("%d trailing bytes in preparation section", d.Remaining())
	}

	p := &prepared{
		m:        m,
		c:        c,
		opt:      opt,
		mode:     md,
		base:     full.Base,
		full:     full,
		target:   target,
		victims:  victims,
		levels:   levels,
		isVictim: isVictim,
		domLo:    domLo,
		domHi:    domHi,
		prim:     prim,
		primIdx:  primIdx,
		envc:     newEnvCache(),
	}
	if md == addition {
		p.aggWin = p.base.Windows
	} else {
		p.aggWin = full.Timing.Windows
		p.totalEnv = totalEnv
		p.propShift = propShift
		p.totalDN = totalDN
	}
	return &Shared{p: p}, nil
}
