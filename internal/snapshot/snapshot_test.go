package snapshot

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"topkagg/internal/faultinject"
	"topkagg/internal/obs"
)

// encodeSample writes a small two-section container exercising every
// primitive.
func encodeSample(e *Encoder) error {
	e.Begin()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.U64(1 << 40)
	e.I64(-12345)
	e.Int(42)
	e.F64(math.Pi)
	e.String("hello, snapshot")
	e.Blob([]byte{1, 2, 3})
	e.F64s([]float64{1.5, -2.5, 0})
	e.Ints([]int{-1, 0, 7})
	e.Bools([]bool{true, false, true})
	if err := e.Flush(1); err != nil {
		return err
	}
	e.Begin()
	e.String("second section")
	if err := e.Flush(2); err != nil {
		return err
	}
	e.Begin()
	return e.Flush(0xFF)
}

func sampleBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := encodeSample(e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(sampleBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	kind, err := d.Next()
	if err != nil || kind != 1 {
		t.Fatalf("Next = %d, %v; want 1, nil", kind, err)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip broken")
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.F64s(); len(got) != 3 || got[0] != 1.5 || got[1] != -2.5 || got[2] != 0 {
		t.Errorf("F64s = %v", got)
	}
	if got := d.Ints(); len(got) != 3 || got[0] != -1 || got[2] != 7 {
		t.Errorf("Ints = %v", got)
	}
	if got := d.Bools(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("Bools = %v", got)
	}
	if !d.AtEnd() || d.Err() != nil {
		t.Fatalf("after section 1: AtEnd=%v Err=%v", d.AtEnd(), d.Err())
	}
	kind, err = d.Next()
	if err != nil || kind != 2 {
		t.Fatalf("Next = %d, %v; want 2, nil", kind, err)
	}
	if got := d.String(); got != "second section" {
		t.Errorf("String = %q", got)
	}
	kind, err = d.Next()
	if err != nil || kind != 0xFF {
		t.Fatalf("Next = %d, %v; want end section", kind, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next after end = %v, want io.EOF", err)
	}
}

// TestFiniteF64Rejected pins the NaN/Inf validation decoders rely on.
func TestFiniteF64Rejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		e, _ := NewEncoder(&buf)
		e.Begin()
		e.F64(v)
		if err := e.Flush(1); err != nil {
			t.Fatal(err)
		}
		d, _ := NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		d.FiniteF64()
		if d.Err() == nil {
			t.Errorf("FiniteF64 accepted %v", v)
		}
	}
}

// TestBitFlipsDetected flips every byte of a valid container in turn;
// the CRC (or the header/frame validation) must reject every mutant —
// and none may panic.
func TestBitFlipsDetected(t *testing.T) {
	orig := sampleBytes(t)
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		if err := drain(mut); err == nil {
			t.Fatalf("flip at byte %d of %d went undetected", i, len(orig))
		}
	}
}

// TestTruncationDetected cuts the container at every length; decoding
// must end in an error or in a stream whose explicit end section never
// arrived (io.EOF early) — never a clean full read, never a panic.
func TestTruncationDetected(t *testing.T) {
	orig := sampleBytes(t)
	for n := 0; n < len(orig); n++ {
		if err := drain(orig[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(orig))
		}
	}
}

// drain decodes a container to completion the way restore layers do:
// sections until the 0xFF terminator, each read in full. It returns
// nil only for a well-formed container.
func drain(data []byte) error {
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		kind, err := d.Next()
		if err == io.EOF {
			return &FormatError{Msg: "no end section"}
		}
		if err != nil {
			return err
		}
		if kind == 0xFF {
			if !d.AtEnd() {
				return &FormatError{Msg: "payload in end section"}
			}
			return nil
		}
		// Consume the payload as strings-or-bytes; primitive mix doesn't
		// matter for frame integrity, only that Remaining drains.
		for !d.AtEnd() && d.Err() == nil {
			d.U8()
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
}

func TestFormatErrorIsCorrupt(t *testing.T) {
	err := error(&FormatError{Offset: 9, Msg: "boom"})
	if !IsCorrupt(err) {
		t.Fatal("FormatError must satisfy IsCorrupt")
	}
	if IsCorrupt(errors.New("plain")) {
		t.Fatal("plain errors are not corruption")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.snap")
	n, err := WriteFileAtomic(path, encodeSample)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != n {
		t.Fatalf("reported %d bytes, file has %d", n, len(data))
	}
	if err := drain(data); err != nil {
		t.Fatalf("written container does not decode: %v", err)
	}
	// Failed writes must leave the previous file byte-identical and no
	// temp litter.
	if _, err := WriteFileAtomic(path, func(e *Encoder) error {
		e.Begin()
		e.String("partial state that must never be published")
		if err := e.Flush(1); err != nil {
			return err
		}
		return errors.New("injected encode failure")
	}); err == nil {
		t.Fatal("encode failure must fail the write")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, after) {
		t.Fatal("failed write disturbed the published file")
	}
	assertNoTemps(t, dir)
}

// TestWriteFileAtomicInjectedFault drives the snapshot.write probe: an
// injected error at the second section must abort the encode, keep the
// previous snapshot intact, and remove the temp file.
func TestWriteFileAtomicInjectedFault(t *testing.T) {
	if !faultinject.Enabled() {
		t.Skip("probes compiled out")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.snap")
	if _, err := WriteFileAtomic(path, encodeSample); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	boom := errors.New("torn write")
	faultinject.Arm(faultinject.NewPlan(1).Add(faultinject.SiteSnapshotWrite,
		faultinject.Rule{On: 2, Err: boom}))
	defer faultinject.Disarm()
	_, err := WriteFileAtomic(path, encodeSample)
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("torn write disturbed the published file")
	}
	assertNoTemps(t, dir)
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	q1, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original file still present after quarantine")
	}
	data, err := os.ReadFile(q1)
	if err != nil || string(data) != "garbage" {
		t.Fatalf("evidence not preserved: %q, %v", data, err)
	}
	// Repeated corruption of the same name must not overwrite evidence.
	if err := os.WriteFile(path, []byte("garbage2"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("second quarantine overwrote the first")
	}
}

// TestSyncDirErrors drives the snapshot.syncdir probe in place of the
// directory fsync. EIO must fail Save, Remove and Quarantine with an
// error that still matches syscall.EIO, and the failed Save must leave
// one complete snapshot and no temp file. EINVAL and ENOTSUP mean the
// filesystem cannot fsync a directory, so all three calls succeed.
func TestSyncDirErrors(t *testing.T) {
	if !faultinject.Enabled() {
		t.Skip("probes compiled out")
	}
	for _, tc := range []struct {
		name  string
		errno syscall.Errno
		fail  bool
	}{
		{"EIO", syscall.EIO, true},
		{"EINVAL", syscall.EINVAL, false},
		{"ENOTSUP", syscall.ENOTSUP, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save("m", encodeSample); err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, "bad.snap")
			if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.NewPlan(1).Add(faultinject.SiteSnapshotSyncDir,
				faultinject.Rule{Err: tc.errno}))
			defer faultinject.Disarm()
			check := func(op string, err error) {
				t.Helper()
				if tc.fail && !errors.Is(err, syscall.EIO) {
					t.Fatalf("%s: got %v, want an error matching EIO", op, err)
				}
				if !tc.fail && err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}

			_, err = st.Save("m", encodeSample)
			check("Save", err)
			data, err := os.ReadFile(filepath.Join(dir, "m.snap"))
			if err != nil {
				t.Fatal(err)
			}
			if err := drain(data); err != nil {
				t.Fatalf("snapshot after Save does not decode: %v", err)
			}
			assertNoTemps(t, dir)

			_, err = Quarantine(bad)
			check("Quarantine", err)
			check("Remove", st.Remove("m"))
		})
	}
}

// TestStoreSaveLoadRemove walks a state directory through save, boot
// and delete. The directory is its own index: after every step it
// holds exactly one .snap file per live model and nothing else, and a
// MANIFEST.json left behind by the version-1 store is neither read nor
// reported.
func TestStoreSaveLoadRemove(t *testing.T) {
	dir := t.TempDir()
	assertFiles := func(step string, want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("after %s: directory holds %v, want %v", step, got, want)
		}
	}
	st, err := Open(dir, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"beta", "alpha"} {
		if _, err := st.Save(name, encodeSample); err != nil {
			t.Fatal(err)
		}
	}
	assertFiles("Save", "alpha.snap", "beta.snap")
	// Leave an orphan temp (simulated kill -9 mid-write) for the sweep.
	orphan := filepath.Join(dir, tmpPrefix+"alpha.snap.123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	outs := st2.Load(func(name string, dec *Decoder) error {
		got = append(got, name)
		for {
			kind, err := dec.Next()
			if err != nil {
				return err
			}
			if kind == 0xFF {
				return nil
			}
			for !dec.AtEnd() && dec.Err() == nil {
				dec.U8()
			}
			if err := dec.Err(); err != nil {
				return err
			}
		}
	})
	if len(outs) != 2 || !outs[0].Restored || !outs[1].Restored {
		t.Fatalf("outcomes = %+v", outs)
	}
	// Boot order is sorted by name, independent of save order.
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("restore order = %v, want [alpha beta]", got)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan temp survived the sweep")
	}

	if err := st2.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "alpha.snap")); !os.IsNotExist(err) {
		t.Fatal("Remove left the snapshot file")
	}
	// Removing a never-saved model is fine.
	if err := st2.Remove("ghost"); err != nil {
		t.Fatal(err)
	}
	assertFiles("Remove", "beta.snap")

	// A manifest from a version-1 directory, naming the removed model
	// and one that never had a file, must not bring either back.
	manifest := []byte(`{"formatVersion":1,"models":[` +
		`{"name":"alpha","file":"alpha.snap"},{"name":"ghost","file":"ghost.snap"}]}`)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs = st3.Load(func(name string, dec *Decoder) error { return drainDecoder(dec) })
	if len(outs) != 1 || outs[0].Name != "beta" || !outs[0].Restored {
		t.Fatalf("boot over a leftover manifest: outcomes = %+v", outs)
	}
}

// TestStoreLoadQuarantinesCorrupt corrupts one stored file; Load must
// quarantine it and restore the healthy one, and the next boot must
// find only the healthy file.
func TestStoreLoadQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"good", "bad"} {
		if _, err := st.Save(name, encodeSample); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "bad.snap")
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs := st2.Load(func(name string, dec *Decoder) error { return drainDecoder(dec) })
	byName := map[string]LoadOutcome{}
	for _, o := range outs {
		byName[o.Name] = o
	}
	if !byName["good"].Restored {
		t.Fatalf("good model not restored: %+v", byName["good"])
	}
	bad := byName["bad"]
	if bad.Restored || bad.Quarantined == "" || bad.Err == nil {
		t.Fatalf("bad model outcome = %+v", bad)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place")
	}
	if _, err := os.Stat(bad.Quarantined); err != nil {
		t.Fatalf("quarantine evidence missing: %v", err)
	}

	// Third boot: only the good model remains, no error outcomes.
	st3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs = st3.Load(func(name string, dec *Decoder) error { return drainDecoder(dec) })
	if len(outs) != 1 || outs[0].Name != "good" || !outs[0].Restored {
		t.Fatalf("post-quarantine boot outcomes = %+v", outs)
	}
}

func drainDecoder(d *Decoder) error {
	for {
		kind, err := d.Next()
		if err == io.EOF {
			return &FormatError{Msg: "no end section"}
		}
		if err != nil {
			return err
		}
		if kind == 0xFF {
			return nil
		}
		for !d.AtEnd() && d.Err() == nil {
			d.U8()
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
}

// TestDecoderPrimitiveRejections pins the decoder's per-primitive
// validation: out-of-range bools, non-finite float slices, and
// over-claimed lengths all turn into sticky typed errors.
func TestDecoderPrimitiveRejections(t *testing.T) {
	frame := func(fill func(e *Encoder)) *Decoder {
		t.Helper()
		var buf bytes.Buffer
		e, err := NewEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		e.Begin()
		fill(e)
		if err := e.Flush(1); err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// FiniteF64s round-trips finite values…
	d := frame(func(e *Encoder) { e.F64s([]float64{1.5, -0.25, 0}) })
	vs := d.FiniteF64s()
	if d.Err() != nil || len(vs) != 3 || vs[0] != 1.5 || vs[1] != -0.25 || vs[2] != 0 {
		t.Fatalf("FiniteF64s = %v, err %v", vs, d.Err())
	}
	if !d.AtEnd() {
		t.Fatal("decoder not at section end")
	}

	// …and rejects NaN in the middle of a slice.
	d = frame(func(e *Encoder) { e.F64s([]float64{1, math.NaN(), 3}) })
	d.FiniteF64s()
	if !IsCorrupt(d.Err()) {
		t.Errorf("NaN in FiniteF64s: err = %v, want corrupt", d.Err())
	}

	// A bool byte outside {0,1} is corruption, not data.
	d = frame(func(e *Encoder) { e.U8(2) })
	d.Bool()
	if !IsCorrupt(d.Err()) {
		t.Errorf("bool byte 2: err = %v, want corrupt", d.Err())
	}

	// A length claiming more elements than the section holds fails
	// before any allocation.
	d = frame(func(e *Encoder) { e.U32(1 << 30) })
	d.FiniteF64s()
	if !IsCorrupt(d.Err()) {
		t.Errorf("over-claimed length: err = %v, want corrupt", d.Err())
	}
}

// TestFormatErrorStrings pins the two message shapes (with and
// without a byte offset).
func TestFormatErrorStrings(t *testing.T) {
	withOff := &FormatError{Offset: 17, Msg: "bad section"}
	if got := withOff.Error(); got != "snapshot: invalid format at byte 17: bad section" {
		t.Errorf("with offset: %q", got)
	}
	noOff := &FormatError{Msg: "bad magic"}
	if got := noOff.Error(); got != "snapshot: invalid format: bad magic" {
		t.Errorf("without offset: %q", got)
	}
}

// TestStoreDir pins the accessor daemons log quarantine paths against.
func TestStoreDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", s.Dir(), dir)
	}
}
