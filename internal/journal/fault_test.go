package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// faultFS is the operating system's file system with a fault put in: once
// failOn names an operation ("syncdir", or "writeat" on a file it opened),
// that operation fails with err, on every path, without touching the disk.
// Appenders race through it, so the fault is read under mu. An operation
// with no fault point yet is osFS's own.
type faultFS struct {
	osFS
	mu  sync.Mutex
	op  string
	err error
}

func (fs *faultFS) failOn(op string, err error) {
	fs.mu.Lock()
	fs.op, fs.err = op, err
	fs.mu.Unlock()
}

// fault returns the error the operation op fails with, or nil.
func (fs *faultFS) fault(op string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if op == fs.op {
		return fs.err
	}
	return nil
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: f, fs: fs}, nil
}

func (fs *faultFS) SyncDir(path string) error {
	if err := fs.fault("syncdir"); err != nil {
		return err
	}
	return fs.osFS.SyncDir(path)
}

// faultFile is a file opened through a faultFS.
type faultFile struct {
	file
	fs *faultFS
}

func (f *faultFile) WriteAt(b []byte, off int64) (int, error) {
	if err := f.fs.fault("writeat"); err != nil {
		return 0, err
	}
	return f.file.WriteAt(b, off)
}

// openFaulty opens the journal in dir on a faultFS with no fault set.
func openFaulty(t *testing.T, dir string) (*Journal, *faultFS) {
	t.Helper()
	fs := &faultFS{}
	j, _, err := open(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, fs
}

// TestFailedDirSyncKeepsSegments: a snapshot whose directory sync fails is
// not known durable, so Snapshot returns the error and removes none of the
// segments it would have covered; the journal appends on, and a later
// snapshot covers them all.
func TestFailedDirSyncKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	// Two segments, as a journal that also rotated on size left them.
	writeSegment(t, dir, 1, "a", "b")
	writeSegment(t, dir, 3, "c")
	j, fs := openFaulty(t, dir)
	defer j.Close()
	appendAll(t, j, "d")
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments before the snapshot = %v (%v), want 2", segs, err)
	}
	before := make([][]byte, len(segs))
	for i, seg := range segs {
		if before[i], err = os.ReadFile(seg); err != nil {
			t.Fatal(err)
		}
	}

	errSync := errors.New("injected directory sync failure")
	fs.failOn("syncdir", errSync)
	if err := j.Snapshot([]byte("state-abcd")); !errors.Is(err, errSync) {
		t.Fatalf("Snapshot with a failing directory sync = %v, want %v", err, errSync)
	}
	for i, seg := range segs {
		after, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("covered segment %s gone after a failed snapshot: %v", seg, err)
		}
		if !bytes.Equal(before[i], after) {
			t.Errorf("covered segment %s changed after a failed snapshot", seg)
		}
	}
	if st := j.Stats(); st.Snapshots != 0 || st.SnapshotSeq != 0 || st.Segments != 2 {
		t.Errorf("stats after the failed snapshot = %+v, want no snapshot and both segments", st)
	}

	fs.failOn("", nil)
	appendAll(t, j, "e")
	if err := j.Snapshot([]byte("state-abcde")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if string(rec.Snapshot) != "state-abcde" || rec.SnapshotSeq != 5 || len(rec.Records) != 0 {
		t.Errorf("recovered snapshot %q at seq %d and records %v, want \"state-abcde\" at 5 and none", rec.Snapshot, rec.SnapshotSeq, payloads(rec.Records))
	}
}
