package snapshot

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// WriteFileAtomic publishes the bytes produced by encode at path with
// all-or-nothing visibility: the payload goes to a temp file in the
// same directory, is fsynced, closed, renamed over path, and the
// directory is fsynced so the rename itself is durable. A crash — or
// an injected write error — at any point leaves either the previous
// file or the new one, never a torn mix; the temp file is removed on
// failure (a temp file orphaned by kill -9 is swept by Store.Load). A
// failed directory fsync is reported even though the new file is
// already in place, because its rename may not survive power loss.
func WriteFileAtomic(path string, encode func(*Encoder) error) (written int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+".*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	enc, err := NewEncoder(bw)
	if err != nil {
		return 0, err
	}
	if err = encode(enc); err != nil {
		return 0, err
	}
	if err = bw.Flush(); err != nil {
		return 0, fmt.Errorf("snapshot: flush: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return 0, fmt.Errorf("snapshot: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return 0, fmt.Errorf("snapshot: close: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("snapshot: rename: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return 0, err
	}
	return enc.Bytes(), nil
}

// tmpPrefix marks in-flight temp files so Load can sweep orphans left
// by a crash mid-write.
const tmpPrefix = ".tmp."

// syncDir fsyncs a directory so a completed rename survives power
// loss. Filesystems that cannot fsync a directory at all (EINVAL or
// ENOTSUP, as on some network mounts) degrade to rename-only
// durability rather than failing the snapshot; any other error, such
// as EIO, is reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: open dir: %w", err)
	}
	defer d.Close()
	err = fireSyncDirProbe()
	if err == nil {
		err = d.Sync()
	}
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("snapshot: fsync dir: %w", err)
	}
	return nil
}

// quarantineSeq disambiguates quarantine names minted within one
// nanosecond tick (or on filesystems with coarse clocks).
var quarantineSeq atomic.Int64

// Quarantine moves a corrupt file into the quarantine/ subdirectory of
// its parent, named with a timestamp so repeated corruption of the
// same model never overwrites earlier evidence. It returns the
// quarantine path for logging.
func Quarantine(path string) (string, error) {
	dir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: quarantine dir: %w", err)
	}
	name := filepath.Base(path) + "." + strconv.FormatInt(time.Now().UnixNano(), 10) +
		"-" + strconv.FormatInt(quarantineSeq.Add(1), 10) + ".corrupt"
	dst := filepath.Join(dir, name)
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("snapshot: quarantine: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return dst, err
	}
	return dst, nil
}
