// Package snapshot is the crash-safe warm-state persistence layer:
// a versioned, checksummed binary container format (section-framed
// payloads, CRC-32C per section), atomic file replacement (temp file +
// fsync + rename + directory fsync), quarantine of corrupt files, and
// a per-model store whose only index is the directory itself: one
// <model>.snap file per persisted model, plus quarantine/. The engine
// layers (core, serve, httpapi) encode their warm state through the
// Encoder/Decoder primitives defined here; this package knows nothing
// about what the payloads mean.
//
// Durability ladder (DESIGN.md §13): a snapshot file is either the
// complete previous version or the complete new version — never a torn
// mix — because writes go to a temp file that is fsynced before an
// atomic rename. Corruption that slips past the filesystem (bit rot,
// truncation, operator error) is detected by the per-section CRCs at
// restore; the decoder then fails with a typed *FormatError, the store
// quarantines the file, and the caller rebuilds from the design source
// (which is framed as the first section precisely so it survives
// tail truncation).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic and version of the container format. Decoders refuse other
// magics and every other version with a typed error. Any change to the
// layout of the container or of a payload an engine layer encodes
// bumps the version deliberately, never silently (DESIGN.md §13 lists
// what each version changed).
const (
	Magic   = "tksnap\x00\x01"
	Version = 2
)

// Section size cap: no single section may claim more than 1 GiB. The
// cap bounds decoder allocations against adversarial or corrupt length
// fields long before any real payload gets near it (a 1M-net window
// section is ~24 MB).
const maxSectionBytes = 1 << 30

// castagnoli is the CRC-32C table used for every section checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sectionSum is the frame checksum: CRC-32C over the kind byte
// followed by the payload.
func sectionSum(kind uint8, payload []byte) uint32 {
	sum := crc32.Checksum([]byte{kind}, castagnoli)
	return crc32.Update(sum, castagnoli, payload)
}

// FormatError is the typed error for every way a snapshot can fail to
// decode: bad magic, unsupported version, truncation, checksum
// mismatch, out-of-range values. Callers branch on it (errors.As) to
// distinguish "this file is corrupt — quarantine and rebuild" from
// I/O errors.
type FormatError struct {
	// Offset is the byte offset at which decoding failed, when known.
	Offset int64
	// Msg describes the failure.
	Msg string
}

func (e *FormatError) Error() string {
	if e.Offset > 0 {
		return fmt.Sprintf("snapshot: invalid format at byte %d: %s", e.Offset, e.Msg)
	}
	return "snapshot: invalid format: " + e.Msg
}

// ErrCorrupt is the sentinel every *FormatError matches via errors.Is,
// so callers can classify without caring about offsets or messages.
var ErrCorrupt = errors.New("snapshot: corrupt")

// Is makes errors.Is(err, ErrCorrupt) true for this type.
func (e *FormatError) Is(target error) bool { return target == ErrCorrupt }

// IsCorrupt reports whether err is a snapshot format error (as opposed
// to an I/O error or a semantic rebuild failure).
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

func formatErr(off int64, format string, args ...any) *FormatError {
	return &FormatError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Encoder writes the container: a header followed by framed sections.
// Section payloads are buffered in memory and flushed with a length
// and CRC-32C prefix, so a reader can verify integrity before
// interpreting a single payload byte. Encoders are not safe for
// concurrent use.
type Encoder struct {
	w   io.Writer
	buf []byte // current section payload
	n   int64  // bytes written to w
	err error
}

// NewEncoder writes the container header and returns the encoder.
func NewEncoder(w io.Writer) (*Encoder, error) {
	e := &Encoder{w: w}
	var hdr [len(Magic) + 4]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[len(Magic):], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: write header: %w", err)
	}
	e.n = int64(len(hdr))
	return e, nil
}

// Bytes written so far (header + flushed sections).
func (e *Encoder) Bytes() int64 { return e.n }

// Begin starts a new section; primitives append to it until Flush.
func (e *Encoder) Begin() { e.buf = e.buf[:0] }

// Flush frames the buffered section under the given kind tag:
// [kind u8][len u32][crc32c u32][payload]. The checksum covers the
// kind byte and the payload, so a bit flip anywhere in the frame —
// tag, length, or body — is detected (a flipped length misaligns the
// checksummed span, which fails the same way). The faultinject site
// SiteSnapshotWrite fires once per section so chaos tests can inject
// write errors and delays at every framing boundary.
func (e *Encoder) Flush(kind uint8) error {
	if e.err != nil {
		return e.err
	}
	if err := fireWriteProbe(); err != nil {
		e.err = err
		return err
	}
	if len(e.buf) > maxSectionBytes {
		e.err = fmt.Errorf("snapshot: section %d payload %d bytes exceeds cap", kind, len(e.buf))
		return e.err
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(e.buf)))
	binary.LittleEndian.PutUint32(hdr[5:], sectionSum(kind, e.buf))
	if _, err := e.w.Write(hdr[:]); err != nil {
		e.err = fmt.Errorf("snapshot: write section: %w", err)
		return e.err
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = fmt.Errorf("snapshot: write section: %w", err)
		return e.err
	}
	e.n += int64(len(hdr) + len(e.buf))
	return nil
}

// Payload primitives. All integers are little-endian fixed width;
// floats are IEEE-754 bit patterns, so every value round-trips
// bit-exactly.

func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

func (e *Encoder) Int(v int) { e.I64(int64(v)) }

func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob embeds an opaque byte string — e.g. a nested container written
// by another layer's encoder — under a length prefix.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

func (e *Encoder) Ints(vs []int) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(int64(v))
	}
}

func (e *Encoder) Bools(vs []bool) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Bool(v)
	}
}

// Decoder reads the container back. Every primitive returns typed
// *FormatError values on truncation or out-of-range content and the
// decoder goes sticky-failed, so callers may decode a whole section
// and check the error once at the end.
type Decoder struct {
	r   io.Reader
	off int64 // container offset of the current section's payload

	buf []byte // current verified section payload
	pos int    // read cursor within buf
	err error
}

// NewDecoder validates the header and returns the decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: r}
	hdr := make([]byte, len(Magic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, formatErr(0, "short header: %v", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, formatErr(0, "bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[len(Magic):]); v != Version {
		return nil, formatErr(int64(len(Magic)), "unsupported version %d (want %d)", v, Version)
	}
	d.off = int64(len(hdr))
	return d, nil
}

// Next reads the next section frame, verifies its CRC and makes its
// payload current. io.EOF (untyped) marks a clean end of container;
// every other failure is a *FormatError. The faultinject site
// SiteSnapshotRestore fires once per section so chaos tests can
// inject read-side corruption at every framing boundary.
func (d *Decoder) Next() (kind uint8, err error) {
	if d.err != nil {
		return 0, d.err
	}
	if err := fireRestoreProbe(); err != nil {
		d.err = err
		return 0, err
	}
	var hdr [9]byte
	if _, err := io.ReadFull(d.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, formatErr(d.off, "short section header: %v", err)
	}
	if _, err := io.ReadFull(d.r, hdr[1:]); err != nil {
		return 0, formatErr(d.off, "short section header: %v", err)
	}
	kind = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	sum := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxSectionBytes {
		return 0, formatErr(d.off, "section %d claims %d bytes (cap %d)", kind, n, maxSectionBytes)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return 0, formatErr(d.off, "truncated section %d (%d bytes claimed): %v", kind, n, err)
	}
	if got := sectionSum(kind, d.buf); got != sum {
		return 0, formatErr(d.off, "section %d checksum mismatch (got %08x want %08x)", kind, got, sum)
	}
	d.off += int64(len(hdr)) + int64(n)
	d.pos = 0
	return kind, nil
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread bytes of the current section.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// AtEnd reports whether the current section is fully consumed —
// decoders check it after reading a section to reject trailing junk.
func (d *Decoder) AtEnd() bool { return d.pos == len(d.buf) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = formatErr(d.off, format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("section underrun: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool out of range")
		return false
	}
}

func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Decoder) I64() int64 { return int64(d.U64()) }

func (d *Decoder) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// FiniteF64 decodes a float and rejects NaN/±Inf: warm state written
// by the engine is finite by construction (sta and the waveform layer
// reject non-finite values), so a non-finite figure can only mean
// corruption that happened to keep the CRC valid — better refused than
// served.
func (d *Decoder) FiniteF64() float64 {
	v := d.F64()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float")
		return 0
	}
	return v
}

// len32 decodes a length prefix, bounds-checked against the bytes the
// section can still supply (elemSize is the minimum encoding size of
// one element), so corrupt lengths cannot drive huge allocations.
func (d *Decoder) len32(elemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && int(n) > d.Remaining()/elemSize {
		d.fail("length %d exceeds section capacity", n)
		return 0
	}
	return int(n)
}

func (d *Decoder) String() string {
	n := d.len32(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads back an embedded byte string. The returned slice is a
// copy, valid after the decoder moves to the next section.
func (d *Decoder) Blob() []byte {
	n := d.len32(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *Decoder) F64s() []float64 {
	n := d.len32(8)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// FiniteF64s is F64s rejecting non-finite elements.
func (d *Decoder) FiniteF64s() []float64 {
	n := d.len32(8)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.FiniteF64()
	}
	return out
}

func (d *Decoder) Ints() []int {
	n := d.len32(8)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

func (d *Decoder) Bools() []bool {
	n := d.len32(1)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}
