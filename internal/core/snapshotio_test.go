package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"topkagg/internal/gen"
	"topkagg/internal/noise"
	"topkagg/internal/snapshot"
)

// snapPrepared builds a model + fixpoint analysis + prepared state for
// one mode over a small seeded circuit.
func snapPrepared(t *testing.T, elim bool, opt Options) (*noise.Model, *noise.Analysis, *Shared) {
	t.Helper()
	c, err := gen.Build(gen.Spec{Name: "snapio", Gates: 14, Couplings: 18, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	m := noise.NewModel(c)
	full, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var s *Shared
	if elim {
		s, err = PrepareEliminationFrom(m, full, WholeCircuit, opt)
	} else {
		s, err = PrepareAdditionFrom(m, full, WholeCircuit, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m, full, s
}

// frameShared serializes one preparation into a single framed section
// and returns the whole container bytes (magic header + section).
func frameShared(t *testing.T, s *Shared) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e.Begin()
	s.EncodeShared(e)
	if err := e.Flush(1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeShared reads the single framed preparation section back.
func decodeShared(data []byte, m *noise.Model, full *noise.Analysis, opt Options) (*Shared, error) {
	d, err := snapshot.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if _, err := d.Next(); err != nil {
		return nil, err
	}
	return DecodeShared(d, m, full, opt)
}

// TestSharedSnapshotRoundTrip pins the in-package restore-equivalence
// contract for both modes: the decoded preparation carries bit-equal
// state and answers TopK identically to the original.
func TestSharedSnapshotRoundTrip(t *testing.T) {
	for _, elim := range []bool{false, true} {
		name := "addition"
		if elim {
			name = "elimination"
		}
		t.Run(name, func(t *testing.T) {
			m, full, s := snapPrepared(t, elim, Options{})
			got, err := decodeShared(frameShared(t, s), m, full, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Elimination() != elim {
				t.Fatalf("Elimination() = %v, want %v", got.Elimination(), elim)
			}

			p, q := s.p, got.p
			if !reflect.DeepEqual(p.victims, q.victims) || !reflect.DeepEqual(p.levels, q.levels) {
				t.Error("victims/levels differ after round trip")
			}
			if !reflect.DeepEqual(p.domLo, q.domLo) || !reflect.DeepEqual(p.domHi, q.domHi) {
				t.Error("dominance intervals differ after round trip")
			}
			for _, v := range p.victims {
				a, b := p.prim[v], q.prim[v]
				if len(a) != len(b) {
					t.Fatalf("victim %d: %d vs %d primaries", v, len(a), len(b))
				}
				for i := range a {
					if a[i].id != b[i].id || a[i].score != b[i].score ||
						!reflect.DeepEqual(a[i].env.Points(), b[i].env.Points()) {
						t.Fatalf("victim %d primary %d differs", v, i)
					}
				}
			}
			if elim {
				if !reflect.DeepEqual(p.propShift, q.propShift) || !reflect.DeepEqual(p.totalDN, q.totalDN) {
					t.Error("elimination totals differ after round trip")
				}
			}

			want, err := s.TopK(3)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.TopK(3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.PerK, have.PerK) {
				t.Errorf("restored TopK PerK differs:\nwant %+v\nhave %+v", want.PerK, have.PerK)
			}
		})
	}
}

// TestOptionsRoundTrip covers every Options field including the
// active-coupling mask, plus the wrong-circuit mask rejection.
func TestOptionsRoundTrip(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "snapio", Gates: 8, Couplings: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, c.NumCouplings())
	active[0], active[2] = true, true
	opts := []Options{
		{},
		{MaxListWidth: 7, MaxExtend: 2, MaxHigherOrder: 1, SlackFrac: 0.25,
			NoDominance: true, NoPseudo: true, NoRescore: true,
			VerifyTop: 4, Active: active},
	}
	for i, opt := range opts {
		var buf bytes.Buffer
		e, err := snapshot.NewEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		e.Begin()
		EncodeOptions(e, opt)
		if err := e.Flush(1); err != nil {
			t.Fatal(err)
		}
		d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOptions(d, c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, opt) {
			t.Errorf("case %d: round trip %+v != %+v", i, got, opt)
		}
	}

	// The same encoded mask must be rejected against a circuit with a
	// different coupling count.
	var buf bytes.Buffer
	e, _ := snapshot.NewEncoder(&buf)
	e.Begin()
	EncodeOptions(e, opts[1])
	if err := e.Flush(1); err != nil {
		t.Fatal(err)
	}
	other, err := gen.Build(gen.Spec{Name: "snapio2", Gates: 12, Couplings: 14, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOptions(d, other); err == nil {
		t.Error("mask for 6 couplings accepted against a 14-coupling circuit")
	}
}

// TestDecodeSharedRejectsWrongCircuit pins the shape check: a
// preparation snapshotted from one circuit must not restore against a
// model with different net/coupling counts.
func TestDecodeSharedRejectsWrongCircuit(t *testing.T) {
	_, _, s := snapPrepared(t, false, Options{})
	data := frameShared(t, s)

	c2, err := gen.Build(gen.Spec{Name: "other", Gates: 22, Couplings: 30, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	m2 := noise.NewModel(c2)
	full2, err := m2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeShared(data, m2, full2, Options{}); err == nil {
		t.Fatal("preparation restored against the wrong circuit")
	}
}

// reframe rebuilds the single-section container with the payload
// truncated by cut bytes and a freshly computed (valid) CRC, so the
// truncation reaches DecodeShared instead of being caught by the
// section checksum.
func reframe(t *testing.T, data []byte, resize func([]byte) []byte) []byte {
	t.Helper()
	off := len(snapshot.Magic) + 4 // magic + version word
	kind := data[off]
	n := int(binary.LittleEndian.Uint32(data[off+1:]))
	payload := resize(data[off+9 : off+9+n])
	out := append([]byte(nil), data[:off]...)
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	sum := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	sum.Write([]byte{kind})
	sum.Write(payload)
	out = binary.LittleEndian.AppendUint32(out, sum.Sum32())
	return append(out, payload...)
}

// TestDecodeSharedTruncationSweep feeds DecodeShared every 16-byte
// truncation of a valid preparation payload (re-framed with a valid
// CRC so the decoder's semantic checks are what fires): each must
// return a typed error, never panic, never succeed.
func TestDecodeSharedTruncationSweep(t *testing.T) {
	for _, elim := range []bool{false, true} {
		m, full, s := snapPrepared(t, elim, Options{})
		data := frameShared(t, s)
		payloadLen := int(binary.LittleEndian.Uint32(data[len(snapshot.Magic)+5:]))
		for cut := 1; cut < payloadLen; cut += 16 {
			short := reframe(t, data, func(p []byte) []byte { return p[:len(p)-cut] })
			if _, err := decodeShared(short, m, full, Options{}); err == nil {
				t.Fatalf("elim=%v: payload truncated by %d bytes decoded cleanly", elim, cut)
			}
		}
		// Extra trailing bytes must be rejected too (AtEnd check).
		grown := reframe(t, data, func(p []byte) []byte {
			return append(append([]byte(nil), p...), 0, 0, 0, 0, 0, 0, 0, 0)
		})
		if _, err := decodeShared(grown, m, full, Options{}); err == nil {
			t.Fatalf("elim=%v: payload with trailing garbage decoded cleanly", elim)
		}
	}
}
