package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func appendAll(t *testing.T, j *Journal, payloads ...string) []uint64 {
	t.Helper()
	seqs := make([]uint64, 0, len(payloads))
	for _, p := range payloads {
		seq, err := j.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func payloads(records []Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		out[i] = string(r.Payload)
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walPath returns the single live wal segment (fails if there are several).
func walPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("wal segments = %v (err %v), want exactly 1", matches, err)
	}
	return matches[0]
}

// logicalEnd returns the length of the header and records at the start of
// the wal segment at path: where the next record goes, and where a presized
// segment's zero tail begins.
func logicalEnd(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(EncodeRecords(records)))
}

// writeAt writes data into the file at path at offset off, as a crash that
// let only some sectors of a write reach the disk would leave it.
func writeAt(t *testing.T, path string, off int64, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// closedWith opens a journal in dir, appends payloads and closes it,
// returning the path of its one segment.
func closedWith(t *testing.T, dir string, payloads ...string) string {
	t.Helper()
	j, _ := openT(t, dir)
	appendAll(t, j, payloads...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return walPath(t, dir)
}

// crossingPayloads returns distinct 64 KiB payloads, one more than a
// presize step holds.
func crossingPayloads() []string {
	out := make([]string, segmentStep/(64<<10)+1)
	for i := range out {
		out[i] = fmt.Sprintf("%02d", i) + strings.Repeat("x", 64<<10-2)
	}
	return out
}

// fileSize returns the length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// snapshotWithSuffix journals "a" and "b", snapshots them, journals "c",
// closes, and returns the snapshot's path.
func snapshotWithSuffix(t *testing.T, dir string) string {
	t.Helper()
	j, _ := openT(t, dir)
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte("state-after-ab")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v (err %v), want exactly 1", snaps, err)
	}
	return snaps[0]
}

// TestReplay is the table the recovery protocol is pinned by: each case
// prepares a journal directory (possibly mangling it the way a crash
// would) and states exactly what Open must recover. A segment the journal
// writes is presized, so a crash tears it at its logical end, not at EOF;
// the cases that cut or extend a segment at EOF build it by hand in the
// layout of a segment that ends at EOF, as releases before presizing left
// it.
func TestReplay(t *testing.T) {
	cases := []struct {
		name      string
		prepare   func(t *testing.T, dir string)
		want      []string // recovered payloads, snapshot first if any
		snap      string   // expected snapshot payload
		torn      bool
		truncated int64 // expected Recovered.TruncatedBytes
		wantErr   bool
		errHas    string // required substring of the Open error
	}{
		{
			name: "empty-directory",
			prepare: func(t *testing.T, dir string) {
			},
			want: nil,
		},
		{
			// A clean Close leaves the zero tail of a presized segment,
			// which is the end of the log, not a tear.
			name: "clean-shutdown",
			prepare: func(t *testing.T, dir string) {
				if size := fileSize(t, closedWith(t, dir, "a", "b", "c")); size != segmentStep {
					t.Fatalf("segment size %d, want presized to %d", size, segmentStep)
				}
			},
			want: []string{"a", "b", "c"},
		},
		{
			name: "no-close-still-durable",
			prepare: func(t *testing.T, dir string) {
				// A kill -9 after Append returns loses nothing: Append is
				// post-fsync. Simulate by never calling Close.
				j, _ := openT(t, dir)
				appendAll(t, j, "a", "b")
				_ = j // leaked on purpose; the file is already synced
			},
			want: []string{"a", "b"},
		},
		{
			name: "torn-final-record",
			prepare: func(t *testing.T, dir string) {
				// Chop mid-frame at EOF: the final record loses its tail.
				size := writeSegment(t, dir, 1, "a", "b", "victim")
				if err := os.Truncate(walPath(t, dir), size-3); err != nil {
					t.Fatal(err)
				}
			},
			want:      []string{"a", "b"},
			torn:      true,
			truncated: int64(frameSize + len("victim") - 3),
		},
		{
			name: "garbage-tail",
			prepare: func(t *testing.T, dir string) {
				writeSegment(t, dir, 1, "a")
				f, err := os.OpenFile(walPath(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want:      []string{"a"},
			torn:      true,
			truncated: 7,
		},
		{
			// Only a prefix of the final frame reached the disk: the rest
			// of it reads as the zero tail.
			name: "presized-zeroed-final-frame-tail",
			prepare: func(t *testing.T, dir string) {
				path := closedWith(t, dir, "a", "b", "victim")
				writeAt(t, path, logicalEnd(t, path)-3, make([]byte, 3))
			},
			want:      []string{"a", "b"},
			torn:      true,
			truncated: int64(frameSize + len("victim") - 3),
		},
		{
			// The final frame's payload reached the disk and its header
			// did not.
			name: "presized-zero-header-then-payload",
			prepare: func(t *testing.T, dir string) {
				path := closedWith(t, dir, "a", "b")
				writeAt(t, path, logicalEnd(t, path)+frameSize, []byte("victim"))
			},
			want:      []string{"a", "b"},
			torn:      true,
			truncated: int64(frameSize + len("victim")),
		},
		{
			name: "presized-garbage-after-zero-tail",
			prepare: func(t *testing.T, dir string) {
				path := closedWith(t, dir, "a")
				writeAt(t, path, logicalEnd(t, path)+100, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			},
			want:      []string{"a"},
			torn:      true,
			truncated: 107,
		},
		{
			// The appends cross the first presize step: the segment grows
			// by one step and replays whole.
			name: "presized-growth-across-step",
			prepare: func(t *testing.T, dir string) {
				if size := fileSize(t, closedWith(t, dir, crossingPayloads()...)); size != 2*segmentStep {
					t.Fatalf("segment size %d, want %d", size, 2*segmentStep)
				}
			},
			want: crossingPayloads(),
		},
		{
			// Segment creation persisted the presized length but not the
			// header: nothing was appended to it, so it is dropped like a
			// header-less segment, not refused.
			name: "presized-header-lost",
			prepare: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "wal-00000000000000000001.log")
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, segmentStep); err != nil {
					t.Fatal(err)
				}
			},
			torn: true,
		},
		{
			name: "snapshot-plus-suffix",
			prepare: func(t *testing.T, dir string) {
				j, _ := openT(t, dir)
				appendAll(t, j, "a", "b")
				if err := j.Snapshot([]byte("state-after-ab")); err != nil {
					t.Fatal(err)
				}
				appendAll(t, j, "c", "d")
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			},
			snap: "state-after-ab",
			want: []string{"c", "d"},
		},
		{
			name: "snapshot-plus-torn-suffix",
			prepare: func(t *testing.T, dir string) {
				// What a journal that snapshotted after "a" left, its
				// suffix segment chopped at EOF.
				if err := writeSnapshot(osFS{}, filepath.Join(dir, "snap-00000000000000000001.snap"), []byte("state-after-a")); err != nil {
					t.Fatal(err)
				}
				size := writeSegment(t, dir, 2, "b", "victim")
				if err := os.Truncate(walPath(t, dir), size-2); err != nil {
					t.Fatal(err)
				}
			},
			snap:      "state-after-a",
			want:      []string{"b"},
			torn:      true,
			truncated: int64(frameSize + len("victim") - 2),
		},
		{
			name: "version-skew",
			prepare: func(t *testing.T, dir string) {
				j, _ := openT(t, dir)
				appendAll(t, j, "a")
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				path := walPath(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[5] = Version + 7 // a future format
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
		},
		{
			name: "torn-header",
			prepare: func(t *testing.T, dir string) {
				// A crash can leave a segment shorter than its header; the
				// shell must be dropped, not appended to.
				if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.log"), []byte("BLZ"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			torn:      true,
			truncated: 3,
		},
		{
			// Snapshot deleted the segments holding "a" and "b", so no
			// older state can stand in for an undecodable snapshot:
			// recovering only "c" would lose them silently.
			name: "corrupt-newest-snapshot",
			prepare: func(t *testing.T, dir string) {
				path := snapshotWithSuffix(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
			errHas:  "snap-00000000000000000002.snap",
		},
		{
			// The same loss by hand: the segment left starts at seq 3.
			name: "snapshot-deleted",
			prepare: func(t *testing.T, dir string) {
				if err := os.Remove(snapshotWithSuffix(t, dir)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
			errHas:  "wal-00000000000000000003.log",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.prepare(t, dir)
			j, rec, err := Open(dir)
			if tc.wantErr {
				if err == nil {
					j.Close()
					t.Fatal("Open succeeded, want error")
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Errorf("Open error %q does not name %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if got := payloads(rec.Records); !equal(got, tc.want) {
				t.Errorf("recovered %v, want %v", got, tc.want)
			}
			if string(rec.Snapshot) != tc.snap {
				t.Errorf("snapshot %q, want %q", rec.Snapshot, tc.snap)
			}
			if rec.Torn != tc.torn || rec.TruncatedBytes != tc.truncated {
				t.Errorf("torn = %v, truncated %d bytes; want %v, %d", rec.Torn, rec.TruncatedBytes, tc.torn, tc.truncated)
			}
			// The journal must be writable after any recovery, and a
			// second recovery must see old + new records.
			appendAll(t, j, "post-recovery")
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rec2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if got, want := payloads(rec2.Records), append(append([]string(nil), tc.want...), "post-recovery"); !equal(got, want) {
				t.Errorf("post-recovery replay %v, want %v", got, want)
			}
		})
	}
}

// TestSeqsSurviveReopen: seqs keep increasing across restarts, and the
// snapshot seq floor holds even when the suffix is empty.
func TestSeqsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	seqs := appendAll(t, j, "a", "b")
	if seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("seqs = %v, want [1 2]", seqs)
	}
	if err := j.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if rec.SnapshotSeq != 2 {
		t.Errorf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
	}
	seqs = appendAll(t, j2, "c")
	if seqs[0] != 3 {
		t.Errorf("post-reopen seq = %d, want 3", seqs[0])
	}
}

// TestSnapshotCompaction: snapshotting drops covered segments and stale
// snapshots so the directory stays bounded.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	defer j.Close()
	for round := 0; round < 3; round++ {
		appendAll(t, j, "x", "y")
		if err := j.Snapshot([]byte(fmt.Sprintf("snap-%d", round))); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Errorf("snapshots on disk = %v, want exactly 1", snaps)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Errorf("segments on disk = %v, want exactly 1", wals)
	}
	st := j.Stats()
	if st.Snapshots != 3 || st.SnapshotSeq != 6 {
		t.Errorf("stats = %+v, want 3 snapshots covering seq 6", st)
	}
}

// TestHeaderlessSegmentSparesEarlierTail: Open drops a later segment whose
// header a crash tore and truncates nothing else — the clean segment
// before it keeps its presized zero tail, and appends go on into it.
func TestHeaderlessSegmentSparesEarlierTail(t *testing.T) {
	dir := t.TempDir()
	path := closedWith(t, dir, "a")
	shell := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 2))
	if err := os.WriteFile(shell, []byte("BLZ"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec := openT(t, dir)
	defer j.Close()
	if got := payloads(rec.Records); !rec.Torn || rec.TruncatedBytes != 3 || !equal(got, []string{"a"}) {
		t.Errorf("recovered %v, torn %v, %d bytes truncated; want [a], true, 3", got, rec.Torn, rec.TruncatedBytes)
	}
	if _, err := os.Stat(shell); !os.IsNotExist(err) {
		t.Errorf("header-less segment still there after Open (stat: %v)", err)
	}
	if size := fileSize(t, path); size != segmentStep {
		t.Errorf("clean segment is %d bytes after Open, want its presized %d", size, segmentStep)
	}
	appendAll(t, j, "b")
	if size := fileSize(t, path); size != segmentStep {
		t.Errorf("clean segment is %d bytes after an append, want %d: the append regrew it", size, segmentStep)
	}
}

// TestOpenKeepsNewestSnapshot: a crash between a snapshot and the removal
// of the one it replaced leaves two snapshots. Open recovers from the
// newest and removes the older, so the next Snapshot has only one to
// replace.
func TestOpenKeepsNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	appendAll(t, j, "a")
	if err := j.Snapshot([]byte("state-after-a")); err != nil {
		t.Fatal(err)
	}
	older := filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", 1))
	data, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "b")
	if err := j.Snapshot([]byte("state-after-ab")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, data, 0o644); err != nil { // the removal the crash cut off
		t.Fatal(err)
	}

	j, rec := openT(t, dir)
	defer j.Close()
	if string(rec.Snapshot) != "state-after-ab" || rec.SnapshotSeq != 2 || len(rec.Records) != 0 {
		t.Errorf("recovered snapshot %q at seq %d and %d records, want \"state-after-ab\" at seq 2 and none",
			rec.Snapshot, rec.SnapshotSeq, len(rec.Records))
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 || filepath.Base(snaps[0]) != fmt.Sprintf("snap-%020d.snap", 2) {
		t.Errorf("snapshots on disk after Open = %v (err %v), want the seq-2 one alone", snaps, err)
	}
}

// TestOpenRemovesStaleSnapshotTemp: a crash between a snapshot's write and
// its rename leaves snap-<seq>.snap.tmp behind. Open recovers as if the
// file were not there, and removes it.
func TestOpenRemovesStaleSnapshotTemp(t *testing.T) {
	clean, stale := t.TempDir(), t.TempDir()
	snapshotWithSuffix(t, clean)
	snapshotWithSuffix(t, stale)
	tmp := filepath.Join(stale, fmt.Sprintf("snap-%020d.snap.tmp", 3))
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	jc, want := openT(t, clean)
	defer jc.Close()
	js, got := openT(t, stale)
	defer js.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %+v beside a stale temp file, want %+v", got, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale temp file still there after Open (stat: %v)", err)
	}
}

// TestFailedSnapshotRemovesTemp: a snapshot whose rename fails leaves no
// temp file behind.
func TestFailedSnapshotRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	defer j.Close()
	appendAll(t, j, "a")
	// A directory where the snapshot goes makes the rename fail.
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", 1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("state")); err == nil {
		t.Fatal("Snapshot over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left after a failed snapshot: %v", tmps)
	}
}

// writeSegment writes wal-<first>.log holding payloads as records first,
// first+1, ... (a header alone when payloads is empty), as a journal that
// also rotated on size left its full segments, and returns its size.
func writeSegment(t *testing.T, dir string, first uint64, payloads ...string) int64 {
	t.Helper()
	var recs []Record
	for i, p := range payloads {
		recs = append(recs, Record{Seq: first + uint64(i), Payload: []byte(p)})
	}
	data := EncodeRecords(recs)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.log", first)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

// TestSegmentRotationByBytes: the segments a byte-capped journal left on
// disk — several full ones, none torn — replay as one record stream in
// order, count exactly in Stats, and appends resume with the next seq.
func TestSegmentRotationByBytes(t *testing.T) {
	dir := t.TempDir()
	var want []string
	var wantBytes int64
	for first := uint64(1); first <= 40; first += 8 {
		var seg []string
		for seq := first; seq < first+8; seq++ {
			seg = append(seg, fmt.Sprintf("record-%02d-xxxxxxxxxxxxxxxx", seq))
		}
		want = append(want, seg...)
		wantBytes += writeSegment(t, dir, first, seg...)
	}

	j, rec := openT(t, dir)
	defer j.Close()
	if rec.Torn {
		t.Error("clean multi-segment journal reported torn")
	}
	if !equal(payloads(rec.Records), want) {
		t.Fatalf("recovered %d records %v, want %d", len(rec.Records), payloads(rec.Records), len(want))
	}
	if st := j.Stats(); st.Segments != 5 || st.Bytes != wantBytes {
		t.Errorf("Stats segments %d, bytes %d; want 5, %d", st.Segments, st.Bytes, wantBytes)
	}
	if seqs := appendAll(t, j, "after"); seqs[0] != 41 {
		t.Errorf("post-recovery seq = %d, want 41", seqs[0])
	}
}

// TestSegmentRotationThenSnapshot: a byte-capped journal rotated after every
// commit, so its active segment may be a bare header already named
// wal-<next-seq>. A snapshot must reuse that name without tripping over the
// file, and drop every pre-snapshot segment.
func TestSegmentRotationThenSnapshot(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, "a")
	writeSegment(t, dir, 2, "b")
	writeSegment(t, dir, 3)

	j, _ := openT(t, dir)
	if err := j.Snapshot([]byte("state")); err != nil {
		t.Fatalf("snapshot after rotation: %v", err)
	}
	if got := filepath.Base(walPath(t, dir)); got != fmt.Sprintf("wal-%020d.log", 3) {
		t.Errorf("live segment %s, want wal-<3>", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if string(rec.Snapshot) != "state" || rec.SnapshotSeq != 2 {
		t.Fatalf("recovered snapshot %q at seq %d, want \"state\" at 2", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("records after snapshot: %v", payloads(rec.Records))
	}
}

// TestOpenLegacySegments: a directory holding several segments — what a
// journal that also rotated on size left between two snapshots — replays
// across all of them in order, reports exact sizes, resumes at the next
// seq, and is folded back into one segment by the next snapshot.
func TestOpenLegacySegments(t *testing.T) {
	dir := t.TempDir()
	var want []string
	encode := func(first, last uint64) []byte {
		var recs []Record
		for seq := first; seq <= last; seq++ {
			p := fmt.Sprintf("record-%02d", seq)
			want = append(want, p)
			recs = append(recs, Record{Seq: seq, Payload: []byte(p)})
		}
		return EncodeRecords(recs)
	}
	files := [][]byte{encode(1, 3), encode(4, 6), encode(7, 8)}
	torn := appendFrame(nil, 9, []byte("torn-away"))[:frameSize+2]
	var wantBytes int64
	for i, first := range []int{1, 4, 7} {
		wantBytes += int64(len(files[i]))
		data := files[i]
		if i == len(files)-1 {
			data = append(data, torn...)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.log", first)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j, rec := openT(t, dir)
	defer j.Close()
	if !equal(payloads(rec.Records), want) {
		t.Fatalf("recovered %v, want %v", payloads(rec.Records), want)
	}
	if !rec.Torn || rec.TruncatedBytes != int64(len(torn)) {
		t.Errorf("torn = %v, truncated %d bytes; want true, %d", rec.Torn, rec.TruncatedBytes, len(torn))
	}
	if st := j.Stats(); st.Segments != 3 || st.Bytes != wantBytes {
		t.Errorf("Stats segments %d, bytes %d; want 3, %d", st.Segments, st.Bytes, wantBytes)
	}
	if seqs := appendAll(t, j, "after"); seqs[0] != 9 {
		t.Errorf("post-recovery seq = %d, want 9", seqs[0])
	}
	if st := j.Stats(); st.Bytes != wantBytes+int64(frameSize+len("after")) {
		t.Errorf("Stats.Bytes after an append = %d, want %d", st.Bytes, wantBytes+int64(frameSize+len("after")))
	}

	if err := j.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	walPath(t, dir)
	if st := j.Stats(); st.Segments != 1 || st.Bytes != headerSize {
		t.Errorf("Stats after the snapshot: segments %d, bytes %d; want 1, %d", st.Segments, st.Bytes, headerSize)
	}
}

// TestConcurrentAppend hammers Append from many goroutines: every record
// must survive, in an order consistent per goroutine. How many fsyncs that
// takes depends on the scheduler; TestGroupCommit pins the batching.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := j.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appended != workers*per {
		t.Errorf("appended = %d, want %d", st.Appended, workers*per)
	}
	if st.Lag != 0 {
		t.Errorf("lag = %d after quiescence, want 0", st.Lag)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if len(rec.Records) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), workers*per)
	}
	// Per-goroutine order must be preserved (the service relies on this
	// for per-session op order).
	next := map[string]int{}
	for _, r := range rec.Records {
		var w, i int
		if _, err := fmt.Sscanf(string(r.Payload), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad payload %q", r.Payload)
		}
		key := fmt.Sprintf("w%d", w)
		if i != next[key] {
			t.Fatalf("worker %d: record %d arrived before %d", w, i, next[key])
		}
		next[key]++
	}
}

// queueAppends starts one appender per payload while the test holds
// commitMu, and returns once every frame is queued, with a channel that
// yields each appender's payload, seq and error after it returns.
func queueAppends(j *Journal, payloads ...string) <-chan appended {
	out := make(chan appended, len(payloads))
	j.mu.Lock()
	base := j.nextSeq - 1
	j.mu.Unlock()
	for _, p := range payloads {
		go func() {
			seq, err := j.Append([]byte(p))
			out <- appended{p, seq, err}
		}()
	}
	for queued := uint64(0); queued < uint64(len(payloads)); {
		runtime.Gosched()
		j.mu.Lock()
		queued = j.nextSeq - 1 - base
		j.mu.Unlock()
	}
	return out
}

type appended struct {
	payload string
	seq     uint64
	err     error
}

// TestGroupCommit: appenders that queue while a commit holds commitMu are
// carried by one write and one fsync, and a Close that races a queued
// appender flushes its frame, whichever of the two commits.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	j.commitMu.Lock()
	var queued []string
	for i := 0; i < 8; i++ {
		queued = append(queued, fmt.Sprintf("g%d", i))
	}
	done := queueAppends(j, queued...)
	j.commitMu.Unlock()
	bySeq := map[uint64]string{}
	for range queued {
		a := <-done
		if a.err != nil {
			t.Fatal(a.err)
		}
		bySeq[a.seq] = a.payload
	}
	if st := j.Stats(); st.Appended != 8 || st.Fsyncs != 1 || st.Lag != 0 {
		t.Errorf("stats = %+v, want 8 appended in 1 fsync, lag 0", st)
	}

	j.commitMu.Lock()
	last := queueAppends(j, "last")
	closed := make(chan error)
	go func() { closed <- j.Close() }()
	j.commitMu.Unlock()
	if a := <-last; a.err != nil {
		t.Errorf("queued append racing Close = %v, want nil", a.err)
	} else {
		bySeq[a.seq] = a.payload
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("late")); err != ErrClosed {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if len(rec.Records) != len(bySeq) {
		t.Fatalf("recovered %v, want %d records", payloads(rec.Records), len(bySeq))
	}
	for _, r := range rec.Records {
		if string(r.Payload) != bySeq[r.Seq] {
			t.Errorf("seq %d holds %q, but its Append returned it for %q", r.Seq, r.Payload, bySeq[r.Seq])
		}
	}
}

// TestAppendAfterClose pins the ErrClosed contract.
func TestAppendAfterClose(t *testing.T) {
	j, _ := openT(t, t.TempDir())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("x")); err != ErrClosed {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("double Close = %v, want nil", err)
	}
}

// TestFailedCommitBreaksJournal: the first failed write sticks. The
// failing append, appends queued behind it and every later append and
// snapshot return that error, and nothing more reaches the segment — a
// batch written after a failed one could be acknowledged and then dropped
// by recovery's torn-tail truncation.
func TestFailedCommitBreaksJournal(t *testing.T) {
	dir := t.TempDir()
	j, fs := openFaulty(t, dir)
	appendAll(t, j, "a")
	path := walPath(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errWrite := errors.New("injected write failure")
	fs.failOn("writeat", errWrite)

	_, first := j.Append([]byte("b"))
	if !errors.Is(first, errWrite) {
		t.Fatalf("append through a failing write = %v, want %v", first, errWrite)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := j.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != first {
					t.Errorf("append after a failed commit = %v, want %v", err, first)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Snapshot([]byte("state")); err != first {
		t.Errorf("snapshot after a failed commit = %v, want %v", err, first)
	}
	// The fault is gone, and still nothing is written: the failure stuck.
	fs.failOn("", nil)
	if _, err := j.Append([]byte("c")); err != first {
		t.Errorf("append once writes work again = %v, want %v", err, first)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("the segment changed after the failed commit")
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if got := payloads(rec.Records); !equal(got, []string{"a"}) || rec.Torn {
		t.Errorf("recovered %v (torn %v), want [a] untorn", got, rec.Torn)
	}
}

// TestFailedRotationBreaksJournal: a Snapshot whose new segment cannot be
// created has already closed the active one, so the rotation's error
// sticks: later appends and snapshots return it, Close does not close the
// segment twice, and the durable snapshot recovers with no record lost.
func TestFailedRotationBreaksJournal(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	appendAll(t, j, "a")
	squatter := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 2))
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	rotation := j.Snapshot([]byte("state"))
	if rotation == nil {
		t.Fatal("snapshot rotated onto an existing name")
	}
	if st := j.Stats(); st.SnapshotSeq != 1 || st.Snapshots != 1 || st.Segments != 0 || st.Bytes != 0 {
		t.Errorf("stats after the failed rotation = %+v, want the snapshot at seq 1 and no segment", st)
	}
	if _, err := j.Append([]byte("b")); err != rotation {
		t.Errorf("append after a failed rotation = %v, want %v", err, rotation)
	}
	if err := j.Snapshot([]byte("state-b")); err != rotation {
		t.Errorf("snapshot after a failed rotation = %v, want %v", err, rotation)
	}
	if err := j.Close(); err != nil {
		t.Errorf("Close after a failed rotation = %v, want nil", err)
	}

	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if string(rec.Snapshot) != "state" || rec.SnapshotSeq != 1 || len(rec.Records) != 0 || rec.Torn {
		t.Errorf("recovered snapshot %q at seq %d, records %v, torn %v; want \"state\" at 1 and nothing else", rec.Snapshot, rec.SnapshotSeq, payloads(rec.Records), rec.Torn)
	}
	if seqs := appendAll(t, j2, "b"); seqs[0] != 2 {
		t.Errorf("post-recovery seq = %d, want 2", seqs[0])
	}
}

// TestPresizedCounters: Stats.Bytes counts headers and records, not the
// length a segment is sized ahead to, and Recovered.TruncatedBytes counts
// a torn tail through its last nonzero byte, not the zero tail after it;
// truncation leaves no byte past the logical end.
func TestPresizedCounters(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	appendAll(t, j, "a", "bb", "ccc")
	want := int64(headerSize + 3*frameSize + len("abbccc"))
	if st := j.Stats(); st.Bytes != want {
		t.Errorf("Stats.Bytes = %d, want %d", st.Bytes, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(t, dir)
	if size := fileSize(t, path); size != segmentStep {
		t.Fatalf("segment size %d, want %d", size, segmentStep)
	}

	j, rec := openT(t, dir)
	if st := j.Stats(); st.Bytes != want || rec.Torn || rec.TruncatedBytes != 0 {
		t.Errorf("clean reopen: Stats.Bytes %d, torn %v, truncated %d; want %d, false, 0", st.Bytes, rec.Torn, rec.TruncatedBytes, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	writeAt(t, path, want+10, []byte{1, 2, 3, 4, 5})
	j, rec = openT(t, dir)
	defer j.Close()
	if st := j.Stats(); st.Bytes != want || !rec.Torn || rec.TruncatedBytes != 15 {
		t.Errorf("torn reopen: Stats.Bytes %d, torn %v, truncated %d; want %d, true, 15", st.Bytes, rec.Torn, rec.TruncatedBytes, want)
	}
	if size := fileSize(t, path); size != want {
		t.Errorf("segment size after truncation %d, want %d", size, want)
	}
	appendAll(t, j, "d")
	if st := j.Stats(); st.Bytes != want+frameSize+1 {
		t.Errorf("Stats.Bytes after an append = %d, want %d", st.Bytes, want+frameSize+1)
	}
}

// TestOversizeRecord: payloads beyond MaxRecordBytes are rejected up front.
func TestOversizeRecord(t *testing.T) {
	j, _ := openT(t, t.TempDir())
	defer j.Close()
	if _, err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversize Append succeeded, want error")
	}
}

// TestEncodeDecodeRecords pins the wire round trip the fuzzer explores.
func TestEncodeDecodeRecords(t *testing.T) {
	in := []Record{{Seq: 1, Payload: []byte("a")}, {Seq: 2, Payload: nil}, {Seq: 9, Payload: bytes.Repeat([]byte{0}, 1024)}}
	out, torn, err := DecodeRecords(EncodeRecords(in))
	if err != nil || torn {
		t.Fatalf("DecodeRecords: torn=%v err=%v", torn, err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}
