package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"topkagg/internal/obs"
)

// snapExt is the per-model snapshot file extension. Model names are
// restricted to [A-Za-z0-9._-] by the registry, so name+ext is a safe
// filename.
const snapExt = ".snap"

// Store manages one state directory: one snapshot file per model,
// quarantine of corrupt files, and the snapshot.* metrics. The
// directory itself is the index — the *.snap files in it are exactly
// the persisted models, so there is no separate manifest to keep in
// step. All methods are safe for concurrent use; per-model writes are
// serialized by the store lock, restores happen once at boot.
type Store struct {
	dir string
	mu  sync.Mutex

	saves, saveErrors, restores, corruptions, quarantines *obs.Counter
	saveBytes                                             *obs.Counter
	encodeNS, decodeNS                                    *obs.Histogram
}

// Open creates (if needed) and opens a state directory. reg, when
// non-nil, receives the snapshot.* metrics.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: state dir: %w", err)
	}
	s := &Store{dir: dir}
	if reg != nil {
		s.saves = reg.Counter("snapshot.saves")
		s.saveErrors = reg.Counter("snapshot.save_errors")
		s.saveBytes = reg.Counter("snapshot.save_bytes")
		s.restores = reg.Counter("snapshot.restores")
		s.corruptions = reg.Counter("snapshot.corruptions_detected")
		s.quarantines = reg.Counter("snapshot.quarantines")
		s.encodeNS = reg.Histogram("snapshot.encode_ns")
		s.decodeNS = reg.Histogram("snapshot.decode_ns")
	}
	return s, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+snapExt) }

// Save atomically writes one model's snapshot file. encode receives a
// fresh Encoder positioned after the container header; it frames
// whatever sections the caller's layer defines.
func (s *Store) Save(name string, encode func(*Encoder) error) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	n, err := WriteFileAtomic(s.path(name), encode)
	if err != nil {
		if s.saveErrors != nil {
			s.saveErrors.Inc()
		}
		return 0, err
	}
	if s.saves != nil {
		s.saves.Inc()
		s.saveBytes.Add(n)
		s.encodeNS.Observe(int64(time.Since(start)))
	}
	return n, nil
}

// Remove deletes a model's snapshot file and fsyncs the directory, so
// a deleted model cannot come back at the next boot. A missing file is
// fine — the model may never have been saved.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(s.path(name)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("snapshot: remove: %w", err)
	}
	return syncDir(s.dir)
}

// LoadOutcome classifies one model file's fate during Load.
type LoadOutcome struct {
	// Name is the model name (derived from the file name).
	Name string
	// Restored reports a fully successful restore.
	Restored bool
	// Quarantined holds the quarantine path of a corrupt file ("" when
	// the file decoded cleanly).
	Quarantined string
	// Err is the decode/restore failure, nil on success.
	Err error
}

// Load drives boot-time restore: it sweeps temp files orphaned by a
// crash mid-write, then decodes every *.snap file in the directory
// (in file-name order, so boot order is deterministic) through the
// restore callback. Other files are ignored. A file whose decode or restore fails
// is quarantined — moved aside with its evidence preserved — and boot
// continues; the server never crashes on, and never serves from, bad
// state. The callback may have salvaged a prefix (e.g. rebuilt the
// model from the design-source section before a later warm section
// went bad); that salvage lives in the callback's own state and is
// not undone by the quarantine.
func (s *Store) Load(restore func(name string, dec *Decoder) error) []LoadOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A directory that cannot be listed restores what ReadDir did
	// return, so boot proceeds as over an empty one; entries come
	// sorted by file name.
	entries, _ := os.ReadDir(s.dir)
	var outs []LoadOutcome
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			// Orphan of a crash mid-write: the rename never happened,
			// so it holds no published state.
			os.Remove(filepath.Join(s.dir, e.Name()))
			continue
		}
		name, ok := strings.CutSuffix(e.Name(), snapExt)
		if !ok || name == "" {
			continue
		}
		out := LoadOutcome{Name: name}
		out.Restored, out.Quarantined, out.Err = s.loadOne(name, restore)
		outs = append(outs, out)
	}
	return outs
}

func (s *Store) loadOne(name string, restore func(string, *Decoder) error) (restored bool, quarantined string, err error) {
	start := time.Now()
	path := s.path(name)
	f, err := os.Open(path)
	if err != nil {
		return false, "", err
	}
	defer f.Close()
	dec, err := NewDecoder(f)
	if err == nil {
		err = restore(name, dec)
	}
	if err != nil {
		if s.corruptions != nil && IsCorrupt(err) {
			s.corruptions.Inc()
		}
		f.Close()
		q, qerr := Quarantine(path)
		if qerr == nil {
			if s.quarantines != nil {
				s.quarantines.Inc()
			}
			return false, q, err
		}
		// Could not even move it aside; leave it, report the original
		// failure. The model is still not served from bad state.
		return false, "", fmt.Errorf("%w (quarantine also failed: %v)", err, qerr)
	}
	if s.restores != nil {
		s.restores.Inc()
		s.decodeNS.Observe(int64(time.Since(start)))
	}
	return true, "", nil
}
