package snapshot

import "topkagg/internal/faultinject"

// fireWriteProbe fires the snapshot.write faultinject site once per
// framed section; an armed Err rule aborts the encode with that error,
// which the atomic-write protocol must absorb without disturbing the
// previously published file.
func fireWriteProbe() error { return faultinject.FireErr(faultinject.SiteSnapshotWrite) }

// fireRestoreProbe fires the snapshot.restore site once per section
// read; an armed Err rule makes the decode fail as if the payload had
// been corrupted, driving the quarantine-and-rebuild ladder.
func fireRestoreProbe() error { return faultinject.FireErr(faultinject.SiteSnapshotRestore) }

// fireSyncDirProbe fires the snapshot.syncdir site once per directory
// fsync; an armed Err rule replaces the fsync's own result, modelling
// an I/O error (EIO) or a filesystem that cannot fsync directories.
func fireSyncDirProbe() error { return faultinject.FireErr(faultinject.SiteSnapshotSyncDir) }
