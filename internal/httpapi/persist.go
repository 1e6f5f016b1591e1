package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"topkagg/internal/core"
	"topkagg/internal/serve"
	"topkagg/internal/snapshot"
)

// Model persistence (DESIGN.md §13).
//
// Each persisted model is one snapshot container of the store's state
// directory. The design source travels FIRST, before any warm state,
// so the recovery ladder degrades gracefully tail-first: a file whose
// warm sections are truncated or bit-flipped still yields its upload
// material, and the model is rebuilt cold from source while the
// corrupt file is quarantined. Only a file whose leading sections are
// damaged loses the model — and then the server boots without it
// rather than crashing or serving from bad state.
//
// Container layout:
//
//	meta      name, source label, creation time
//	sources   the verbatim upload material (netlist/verilog/spef/liberty)
//	analyzer* zero or more warm Analyzer containers (serve.Snapshot),
//	          one per enumeration preset, embedded as opaque blobs
//	end       explicit terminator; its absence = tail truncation

// Section kinds of the model container. Distinct from the analyzer
// container's kinds (which live inside the embedded blobs) purely for
// debuggability of hexdumps.
const (
	secModelMeta     = 0x10
	secModelSources  = 0x11
	secModelAnalyzer = 0x12
	secModelEnd      = 0xFF
)

// encodeModel writes one model's full persistent state: design source
// plus every built analyzer's warm caches.
func encodeModel(e *snapshot.Encoder, md *model) error {
	e.Begin()
	e.String(md.name)
	e.String(md.source)
	e.I64(md.created.UnixNano())
	if err := e.Flush(secModelMeta); err != nil {
		return err
	}
	e.Begin()
	e.String(md.src.Netlist)
	e.String(md.src.Verilog)
	e.String(md.src.SPEF)
	e.String(md.src.Liberty)
	if err := e.Flush(secModelSources); err != nil {
		return err
	}
	pool := md.analyzerSnapshot()
	for _, exact := range []bool{false, true} { // deterministic order
		a := pool[exact]
		if a == nil {
			continue
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			return err
		}
		e.Begin()
		e.Bool(exact)
		e.Blob(buf.Bytes())
		if err := e.Flush(secModelAnalyzer); err != nil {
			return err
		}
	}
	e.Begin()
	return e.Flush(secModelEnd)
}

// SaveModel snapshots one model to the state directory. A no-op when
// persistence is off, the model is gone, or the model carries no
// upload material (bare Preload).
func (s *Server) SaveModel(name string) error {
	if s.store == nil {
		return nil
	}
	md, ok := s.reg.get(name)
	if !ok || md.src == nil {
		return nil
	}
	_, err := s.store.Save(name, func(e *snapshot.Encoder) error {
		return encodeModel(e, md)
	})
	return err
}

// SaveAll snapshots every persistable model (the periodic timer and
// the shutdown drain call this). Models are saved independently; the
// first failure is reported after all have been attempted.
func (s *Server) SaveAll() error {
	if s.store == nil {
		return nil
	}
	var first error
	for _, info := range s.reg.list() {
		if err := s.SaveModel(info.Name); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", info.Name, err)
		}
	}
	return first
}

// ModelRestore reports one model file's fate during boot restore.
type ModelRestore struct {
	// Name is the model name.
	Name string
	// Warm means the full file decoded: design source and every warm
	// analyzer restored.
	Warm bool
	// Rebuilt means the warm state was damaged but the design source
	// was salvaged: the model was rebuilt cold and re-persisted, and
	// the damaged file quarantined.
	Rebuilt bool
	// Quarantined is the quarantine path of a damaged file ("" when the
	// file was clean).
	Quarantined string
	// Err is the decode failure that triggered quarantine, nil when
	// Warm.
	Err error
}

// OpenState attaches a state directory to the server and restores
// every model persisted in it. From now on uploads, deletes and
// SaveAll/SaveModel keep the directory in sync. Boot never fails on a
// damaged snapshot: corrupt files are quarantined with their evidence
// preserved, models whose design source survived are rebuilt cold, and
// the returned outcomes say exactly what happened to each.
func (s *Server) OpenState(dir string) ([]ModelRestore, error) {
	store, err := snapshot.Open(dir, s.cfg.Obs)
	if err != nil {
		return nil, err
	}
	s.store = store
	rebuilt := map[string]bool{}
	outcomes := store.Load(func(name string, dec *snapshot.Decoder) error {
		salvaged, err := s.restoreModel(name, dec)
		if salvaged {
			rebuilt[name] = true
		}
		return err
	})
	outs := make([]ModelRestore, 0, len(outcomes))
	for _, o := range outcomes {
		mr := ModelRestore{
			Name:        o.Name,
			Warm:        o.Restored,
			Rebuilt:     rebuilt[o.Name],
			Quarantined: o.Quarantined,
			Err:         o.Err,
		}
		if mr.Rebuilt {
			// The damaged file is quarantined; re-persist the rebuilt
			// model so its source also survives the NEXT crash.
			_ = s.SaveModel(o.Name)
		}
		outs = append(outs, mr)
	}
	return outs, nil
}

// restoreModel decodes one model file and registers what it holds.
// Any malformed input — truncation, bit flips, adversarial bytes —
// yields a typed error (the store then quarantines the file), never a
// panic, and never a model serving from partially-validated state:
// registration happens only after the sections feeding it validated in
// full. salvaged reports that the design source was good and the model
// was registered cold despite a later corrupt section.
func (s *Server) restoreModel(name string, dec *snapshot.Decoder) (salvaged bool, err error) {
	fail := func(format string, args ...any) (bool, error) {
		return false, fmt.Errorf("httpapi: restore %s: "+format, append([]any{name}, args...)...)
	}
	kind, err := dec.Next()
	if err != nil {
		return false, truncated(err)
	}
	if kind != secModelMeta {
		return fail("leading section is kind %#x, want meta", kind)
	}
	gotName := dec.String()
	source := dec.String()
	createdNS := dec.I64()
	if err := dec.Err(); err != nil {
		return false, err
	}
	if gotName != name {
		return fail("file holds model %q", gotName)
	}
	if !dec.AtEnd() {
		return fail("%d trailing bytes in meta section", dec.Remaining())
	}

	kind, err = dec.Next()
	if err != nil {
		return false, truncated(err)
	}
	if kind != secModelSources {
		return fail("section kind %#x where sources expected", kind)
	}
	up := &UploadRequest{
		Netlist: dec.String(),
		Verilog: dec.String(),
		SPEF:    dec.String(),
		Liberty: dec.String(),
	}
	if err := dec.Err(); err != nil {
		return false, err
	}
	if !dec.AtEnd() {
		return fail("%d trailing bytes in sources section", dec.Remaining())
	}
	c, rebuiltSource, aerr := buildCircuit(up)
	if aerr != nil {
		return fail("sources: %v", aerr)
	}
	if rebuiltSource != source {
		return fail("sources rebuild as %q, meta claims %q", rebuiltSource, source)
	}
	md := s.reg.build(name, source, c, up, time.Unix(0, createdNS))

	// The design source is good. From here on, damage costs only the
	// warm caches: register the model cold, report the error, let the
	// store quarantine the file.
	cold := func(err error) (bool, error) {
		s.reg.insert(md)
		return true, err
	}
	coldf := func(format string, args ...any) (bool, error) {
		return cold(fmt.Errorf("httpapi: restore %s: "+format, append([]any{name}, args...)...))
	}
	analyzers := map[bool]*serve.Analyzer{}
	for {
		kind, err := dec.Next()
		if err != nil {
			return cold(truncated(err))
		}
		if kind == secModelEnd {
			if !dec.AtEnd() {
				return coldf("end section carries %d bytes", dec.Remaining())
			}
			break
		}
		if kind != secModelAnalyzer {
			return coldf("unknown section kind %#x", kind)
		}
		exact := dec.Bool()
		blob := dec.Blob()
		if err := dec.Err(); err != nil {
			return cold(err)
		}
		if !dec.AtEnd() {
			return coldf("%d trailing bytes in analyzer section", dec.Remaining())
		}
		if _, dup := analyzers[exact]; dup {
			return coldf("duplicate analyzer preset (exact=%v)", exact)
		}
		a, err := serve.RestoreAnalyzer(bytes.NewReader(blob), md.m)
		if err != nil {
			return coldf("analyzer (exact=%v): %w", exact, err)
		}
		want := core.Options{}
		if exact {
			want = core.Exact()
		}
		if !optionsEqual(a.Options(), want) {
			return coldf("analyzer (exact=%v) restored with foreign options", exact)
		}
		analyzers[exact] = a
	}
	if _, err := dec.Next(); err != io.EOF {
		return coldf("data after end section")
	}
	for exact, a := range analyzers {
		md.installAnalyzer(exact, a)
	}
	s.reg.insert(md)
	return false, nil
}

// truncated maps a clean EOF between sections to a typed corruption
// error: a valid model file always ends with an explicit end section.
func truncated(err error) error {
	if err == io.EOF {
		return &snapshot.FormatError{Msg: "model container truncated before end section"}
	}
	return err
}

// optionsEqual compares enumeration options field by field (Options
// has a slice, so == does not apply).
func optionsEqual(a, b core.Options) bool {
	if a.MaxListWidth != b.MaxListWidth || a.MaxExtend != b.MaxExtend ||
		a.MaxHigherOrder != b.MaxHigherOrder || a.SlackFrac != b.SlackFrac ||
		a.NoDominance != b.NoDominance || a.NoPseudo != b.NoPseudo ||
		a.NoRescore != b.NoRescore || a.VerifyTop != b.VerifyTop ||
		len(a.Active) != len(b.Active) ||
		(a.Active == nil) != (b.Active == nil) {
		return false
	}
	for i := range a.Active {
		if a.Active[i] != b.Active[i] {
			return false
		}
	}
	return true
}
