// Package journal is the durability substrate under blazes/service: an
// append-only record log with group-commit fsync batching, periodic
// snapshots, and snapshot+replay recovery. The journal stores opaque
// payloads — the service serializes its own session op records — and owns
// only the on-disk discipline: framing, checksums, atomic snapshot
// replacement, and corrupt-tail truncation.
//
// On-disk layout (all files live in one directory):
//
//	wal-<first-seq>.log    the record segment
//	snap-<seq>.snap        a snapshot covering every record with Seq <= seq
//
// The journal writes one segment at a time and only Snapshot starts a new
// one, at wal-<seq+1>, after the snapshot and its directory entry are
// durable; the segments it covers are deleted then. Recovery still replays
// every wal-*.log in seq order, so a directory holding several (written by
// a release that also rotated on size) opens unchanged. Open refuses a
// directory it cannot rebuild in full: an undecodable newest snapshot, or
// a first segment that starts after the newest snapshot's seq + 1 (the
// snapshot covering the gap is gone).
//
// Every file starts with an 8-byte header: the magic "BLZJ", a kind byte
// ('W' for wal segments, 'S' for snapshots), a format version byte, and
// two reserved zero bytes. A file whose version byte is newer than this
// package understands is rejected with ErrVersionSkew — refusing to guess
// at a future format beats silently dropping its records.
//
// Records are length-prefixed frames:
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) over seq + payload
//	uint64 LE  seq
//	[]byte     payload
//
// The active segment is sized ahead of its records in steps of
// segmentStep bytes, and records are written at the logical end, so an
// append's fsync commits data without a file-size change; the bytes past
// the logical end are zero. One end-of-log rule covers that layout and a
// segment that ends at EOF (as releases before presizing wrote them):
// records end at the first frame that does not decode, and the segment is
// torn only if some byte after that frame is nonzero. A torn tail — a short
// write from a crash mid-append — is reported in Recovered.Torn and
// truncated away on open so no stale byte survives past the logical end.
// Appends are durable when Append returns. The journal has no goroutine of
// its own: each appender queues its frame and then commits on its own
// goroutine, one at a time. The appender that commits writes every frame
// queued so far with one fsync (group commit), and an appender whose frame
// an earlier commit carried returns without writing, so a kill -9 can lose
// only records whose Append had not yet returned. The first failed write,
// fsync or segment rotation breaks the journal for good: every later
// Append returns that error and nothing more is written.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// Version is the current on-disk format version.
	Version = 1

	headerSize = 8
	frameSize  = 16 // length + crc + seq, before the payload

	kindWAL  = 'W'
	kindSnap = 'S'

	// MaxRecordBytes bounds a single record payload; a length prefix
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 64 << 20

	// segmentStep is how far ahead of its records the active segment is
	// sized. Growing a file makes its fsync commit the new size as well as
	// the data (about 78 µs against 54 µs for a 486-byte record on ext4,
	// EXPERIMENTS.md), so a segment grows only when a batch crosses the
	// sized length: once per step, not once per append. Open reads the
	// whole zero tail: about 0.2 ms at this step against 0.8 ms at 1 MiB
	// on the same ext4 disk.
	segmentStep = 256 << 10
)

var magic = [4]byte{'B', 'L', 'Z', 'J'}

// ErrVersionSkew marks a file written by a newer format version.
var ErrVersionSkew = errors.New("journal: file format version is newer than supported")

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Record is one replayed journal entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Recovered describes what Open found on disk.
type Recovered struct {
	// Snapshot is the newest snapshot payload (nil if none) and
	// SnapshotSeq the record seq it covers.
	Snapshot    []byte
	SnapshotSeq uint64
	// Records are the journal records with Seq > SnapshotSeq, in order.
	Records []Record
	// Torn reports that a corrupt tail was found and truncated away;
	// TruncatedBytes counts the bytes dropped: from the end of the last
	// good frame through the last nonzero byte, so a presized segment's
	// zero tail is not counted.
	Torn           bool
	TruncatedBytes int64
}

// Stats is a point-in-time snapshot of the journal's counters, surfaced by
// the service's /v1/stats endpoint.
type Stats struct {
	// LastSeq is the highest assigned record seq; SyncedSeq the highest
	// seq known durable. Lag = LastSeq - SyncedSeq is the group-commit
	// queue depth.
	LastSeq   uint64 `json:"last_seq"`
	SyncedSeq uint64 `json:"synced_seq"`
	Lag       uint64 `json:"lag"`
	// Appended counts records accepted this process; Fsyncs the batch
	// commits that made them durable (Appended/Fsyncs is the achieved
	// group-commit batching factor).
	Appended uint64 `json:"appended"`
	Fsyncs   uint64 `json:"fsyncs"`
	// SnapshotSeq is the seq covered by the newest snapshot; Snapshots
	// counts snapshot writes this process.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Snapshots   uint64 `json:"snapshots"`
	// Segments and Bytes describe the live wal files; Bytes counts their
	// headers and records, not the length a segment is sized ahead to.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// Journal is an open journal directory. Append is safe for concurrent use.
//
// Two locks, always taken commitMu before mu. commitMu serializes the
// writers of the files: a commit, Snapshot and Close. mu guards the fields
// below it; f, size and sized change only under both, so the holder of
// commitMu reads them without mu. A commit releases mu across its write and
// fsync, so appenders queue their frames meanwhile.
type Journal struct {
	dir string
	fs  fileSystem

	commitMu sync.Mutex

	mu       sync.Mutex
	f        file      // active wal segment, the last of segments; nil after a failed rotation
	size     int64     // f's logical end: its header and records
	sized    int64     // f's length on disk, size plus a zero tail
	segments []segment // live wal files, oldest first
	sealed   int64     // logical bytes in the live segments before f (only Open finds any)
	nextSeq  uint64    // seq the next Append gets
	closed   bool
	err      error  // the first failed write, fsync or rotation; nothing is written after it
	pending  []byte // frames of the records after synced, in seq order, not yet written

	synced      uint64 // highest seq known durable
	appended    uint64
	fsyncs      uint64
	snapshotSeq uint64
	snapshots   uint64
}

type segment struct {
	firstSeq uint64
	path     string
}

// Open opens (or creates) the journal in dir and returns everything needed
// to rebuild state: the newest snapshot plus the record suffix after it. A
// corrupt tail is truncated; a file from a future format version fails
// with ErrVersionSkew. An undecodable newest snapshot, or a first segment
// that starts past the records the snapshot covers, fails naming the file:
// Snapshot deleted what came before it, so no older state can stand in.
// Once nothing is refused, snapshots older than the newest are removed.
func Open(dir string) (*Journal, *Recovered, error) {
	return open(osFS{}, dir)
}

// open is Open on the file system fsys.
func open(fsys fileSystem, dir string) (*Journal, *Recovered, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	snaps, wals, tmps, err := scanDir(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	for _, tmp := range tmps {
		_ = fsys.Remove(tmp) // a snapshot a crash cut short of its rename
	}

	rec := &Recovered{}
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		if rec.Snapshot, err = readSnapshot(fsys, newest.path); err != nil {
			return nil, nil, fmt.Errorf("journal: %s: %w", newest.path, err)
		}
		rec.SnapshotSeq = newest.firstSeq
	}
	if len(wals) > 0 && wals[0].firstSeq > rec.SnapshotSeq+1 {
		return nil, nil, fmt.Errorf("journal: %s starts at seq %d, but no snapshot covers the records before it (newest snapshot seq %d)", wals[0].path, wals[0].firstSeq, rec.SnapshotSeq)
	}

	j := &Journal{dir: dir, fs: fsys, nextSeq: 1, snapshotSeq: rec.SnapshotSeq}

	// Replay wal segments in order. Records at or below the snapshot seq
	// are already folded into the snapshot; a torn record ends the
	// journal — everything after it (including later segments, which a
	// correct writer cannot have produced) is unreachable.
	var (
		good, length int64 // logical bytes and length on disk of the last live segment
		cut          bool  // the last live segment has a torn tail to truncate
	)
	for i, seg := range wals {
		records, goodBytes, tornBytes, size, err := readSegment(fsys, seg.path)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %s: %w", seg.path, err)
		}
		for _, r := range records {
			if r.Seq > rec.SnapshotSeq {
				rec.Records = append(rec.Records, r)
			}
			if r.Seq >= j.nextSeq {
				j.nextSeq = r.Seq + 1
			}
		}
		if goodBytes < headerSize {
			// The crash tore even the file header; nothing in the segment
			// is recoverable, so drop the file rather than appending to a
			// header-less shell.
			_ = fsys.Remove(seg.path)
		} else {
			j.segments = append(j.segments, seg)
			j.sealed += good // the segment kept before this one is sealed
			good, length, cut = goodBytes, size, tornBytes > 0
		}
		if goodBytes >= headerSize && tornBytes == 0 {
			continue
		}
		rec.Torn = true
		rec.TruncatedBytes += tornBytes
		// Later segments are unreachable past a torn record — a correct
		// writer cannot have produced them.
		for _, later := range wals[i+1:] {
			if data, err := fsys.ReadFile(later.path); err == nil {
				rec.TruncatedBytes += int64(dataEnd(data))
			}
			_ = fsys.Remove(later.path)
		}
		break
	}
	if rec.SnapshotSeq >= j.nextSeq {
		j.nextSeq = rec.SnapshotSeq + 1
	}
	j.synced = j.nextSeq - 1

	// Open the active segment: write on at the logical end of the last
	// live one, cutting its torn tail away first, or start a fresh segment
	// at the next seq.
	if len(j.segments) > 0 {
		last := j.segments[len(j.segments)-1]
		f, err := fsys.OpenFile(last.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		if cut {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", last.path, err)
			}
			length = good
		}
		j.f, j.size, j.sized = f, good, length
	} else if err := j.openSegmentLocked(j.nextSeq); err != nil {
		return nil, nil, err
	}
	// Every refusal is behind us: the snapshots older than the newest (a
	// crash between a snapshot and the removal of the one it replaced
	// leaves two) can go, so Snapshot finds at most one to replace.
	for _, old := range snaps[:max(len(snaps)-1, 0)] {
		_ = fsys.Remove(old.path)
	}
	return j, rec, nil
}

// openSegmentLocked creates a fresh wal segment whose first record will be
// firstSeq, sizes it one step ahead, and makes its header, its length and
// its directory entry durable before any record goes in. A crash can leave
// the length on disk without the header; Open drops such an all-zero
// segment like a header-less one. Caller holds j.mu (or is still
// single-threaded in Open).
func (j *Journal) openSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(j.dir, fmt.Sprintf("wal-%020d.log", firstSeq))
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	hdr := fileHeader(kindWAL)
	sized, err := write(f, hdr[:], 0, 0)
	if err == nil {
		err = syncDir(j.fs, j.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	j.f, j.size, j.sized = f, headerSize, sized
	j.segments = append(j.segments, segment{firstSeq: firstSeq, path: path})
	return nil
}

// Append durably appends one record and returns its seq: when Append
// returns nil, the record has been fsynced. Concurrent appenders share
// fsyncs (group commit).
func (j *Journal) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if j.err != nil {
		j.mu.Unlock()
		return 0, j.err
	}
	seq := j.nextSeq
	j.nextSeq++
	j.pending = appendFrame(j.pending, seq, payload)
	j.mu.Unlock()

	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	return seq, j.commit(seq)
}

// commit makes every record through seq durable; the caller holds
// commitMu. If an earlier commit carried seq it returns at once; otherwise
// it takes every queued frame and writes them as one batch. A failure
// breaks the journal: the batch's bytes may be partly on disk, and after a
// failed fsync the kernel may have dropped pages it reported written, so no
// later batch may be written or acknowledged.
func (j *Journal) commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.synced >= seq {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	batch, last := j.pending, j.nextSeq-1
	j.pending = nil
	j.mu.Unlock() // appenders queue their frames while this batch is written
	sized, err := write(j.f, batch, j.size, j.sized)
	j.mu.Lock()
	if err != nil {
		j.err = err
		return err
	}
	j.size += int64(len(batch))
	j.sized = sized
	j.appended += last - j.synced
	j.synced = last
	j.fsyncs++
	if len(j.pending) == 0 && cap(batch) <= segmentStep {
		j.pending = batch[:0] // no appender came in meanwhile: reuse the buffer
	}
	return nil
}

// write writes buf at off in f and fsyncs, first growing f by a step if buf
// would cross its sized length, and returns f's new length on disk.
func write(f file, buf []byte, off, sized int64) (int64, error) {
	if end := off + int64(len(buf)); end > sized {
		sized = (end/segmentStep + 1) * segmentStep
		if err := f.Truncate(sized); err != nil {
			return 0, fmt.Errorf("journal: presize: %w", err)
		}
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("journal: fsync: %w", err)
	}
	return sized, nil
}

// Snapshot atomically records a state snapshot covering every record
// appended so far, rotates to a fresh wal segment, and deletes the
// segments and snapshots the new snapshot obsoletes. The caller guarantees
// payload reflects all records it has successfully appended.
func (j *Journal) Snapshot(payload []byte) error {
	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.err != nil {
		return j.err
	}
	seq := j.nextSeq - 1

	// writeSnapshot returns only once the snapshot and its directory entry
	// are durable; until then the segments it replaces are the only copy.
	if err := writeSnapshot(j.fs, snapshotPath(j.dir, seq), payload); err != nil {
		return err
	}
	prev := j.snapshotSeq
	j.snapshotSeq = seq
	j.snapshots++

	// Rotate: records after the snapshot go to a fresh segment, and every
	// wholly-covered old segment can go. Old segments are removed before
	// the new one opens: with nothing appended since the last snapshot the
	// active segment is already named wal-<seq+1>, and O_EXCL would refuse
	// to reuse the name while the file exists. Once the active segment is
	// closed a failure breaks the journal: there is nothing left to append
	// to.
	err := j.f.Close()
	j.f = nil
	for _, seg := range j.segments {
		_ = j.fs.Remove(seg.path)
	}
	j.segments, j.sealed, j.size = nil, 0, 0
	if err != nil {
		j.err = fmt.Errorf("journal: %w", err)
	} else if err := j.openSegmentLocked(seq + 1); err != nil {
		j.err = err
	}
	if j.err != nil {
		return j.err
	}
	// Drop the snapshot this one supersedes, the only other one on disk:
	// Open leaves no more. When none came before, the name matches no file.
	if prev != seq {
		_ = j.fs.Remove(snapshotPath(j.dir, prev))
	}
	return nil
}

// snapshotPath names the snapshot covering every record through seq.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", seq))
}

// Stats returns current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	last := j.nextSeq - 1 // never below synced: a commit syncs through the last seq it saw
	return Stats{
		LastSeq:     last,
		SyncedSeq:   j.synced,
		Lag:         last - j.synced,
		Appended:    j.appended,
		Fsyncs:      j.fsyncs,
		SnapshotSeq: j.snapshotSeq,
		Snapshots:   j.snapshots,
		Segments:    len(j.segments),
		Bytes:       j.size + j.sealed,
	}
}

// Close flushes pending appends and closes the journal. Further Appends
// fail with ErrClosed.
func (j *Journal) Close() error {
	j.commitMu.Lock()
	defer j.commitMu.Unlock()
	j.mu.Lock()
	closed, last := j.closed, j.nextSeq-1
	j.closed = true
	j.mu.Unlock()
	if closed {
		return nil
	}
	// The appenders of the pending frames read the outcome from synced and
	// err once they hold commitMu.
	_ = j.commit(last)
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// ---- encoding ----

func fileHeader(kind byte) [headerSize]byte {
	var h [headerSize]byte
	copy(h[:4], magic[:])
	h[4] = kind
	h[5] = Version
	return h
}

func checkHeader(h []byte, kind byte) error {
	if len(h) < headerSize || [4]byte(h[:4]) != magic || h[4] != kind {
		return fmt.Errorf("not a journal file (bad magic)")
	}
	if h[5] > Version {
		return fmt.Errorf("%w (file version %d, supported %d)", ErrVersionSkew, h[5], Version)
	}
	if h[5] == 0 {
		return fmt.Errorf("not a journal file (version 0)")
	}
	if h[6] != 0 || h[7] != 0 {
		// Reserved bytes are written as zero in every version this
		// package produces; anything else is not our file.
		return fmt.Errorf("not a journal file (reserved header bytes set)")
	}
	return nil
}

// appendFrame appends one record frame (length, crc, seq, payload) to dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	n := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the crc, once the rest is in
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[n+4:], crc32.ChecksumIEEE(dst[n+8:]))
	return dst
}

// decodeFile checks that data is a journal file of the given kind and
// walks its frames, returning the decoded records and the length of the
// clean prefix, header included: the offset of the first torn or corrupt
// frame, len(data) when the tail is clean. Data shorter than a header is
// io.ErrUnexpectedEOF.
func decodeFile(data []byte, kind byte) (records []Record, goodBytes int, err error) {
	if len(data) < headerSize {
		return nil, 0, io.ErrUnexpectedEOF
	}
	if err := checkHeader(data, kind); err != nil {
		return nil, 0, err
	}
	off := headerSize
	for {
		rest := data[off:]
		if len(rest) < frameSize {
			return records, off, nil // the end, or a torn length prefix
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > MaxRecordBytes || int(n) > len(rest)-frameSize {
			return records, off, nil // absurd length or torn payload
		}
		end := frameSize + int(n)
		if crc32.ChecksumIEEE(rest[8:end]) != binary.LittleEndian.Uint32(rest[4:8]) {
			return records, off, nil // bit rot or torn write
		}
		seq := binary.LittleEndian.Uint64(rest[8:16])
		payload := make([]byte, n)
		copy(payload, rest[frameSize:end])
		records = append(records, Record{Seq: seq, Payload: payload})
		off += end
	}
}

// readSegment decodes one wal file. goodBytes is the clean prefix length,
// header included, and 0 for a segment with no header; tornBytes counts
// the bytes after it through the last nonzero one, so a presized
// segment's zero tail is clean and a segment is torn when tornBytes > 0 or
// it has no header. size is the file's length as read.
func readSegment(fsys fileSystem, path string) (records []Record, goodBytes, tornBytes, size int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	end := dataEnd(data)
	if len(data) < headerSize || end == 0 {
		// A crash can leave a segment shorter than its header, or presized
		// before its header reached the disk; nothing in it is recoverable.
		return nil, 0, int64(end), int64(len(data)), nil
	}
	records, good, err := decodeFile(data, kindWAL)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return records, int64(good), max(int64(end-good), 0), int64(len(data)), nil
}

// zeroBlock is what dataEnd compares a zero tail against, a block at a time.
var zeroBlock [4096]byte

// dataEnd returns the length of data without its trailing zero bytes.
func dataEnd(data []byte) int {
	for len(data) > 0 {
		n := min(len(data), len(zeroBlock))
		if !bytes.Equal(data[len(data)-n:], zeroBlock[:n]) {
			break
		}
		data = data[:len(data)-n]
	}
	for len(data) > 0 && data[len(data)-1] == 0 {
		data = data[:len(data)-1]
	}
	return len(data)
}

// writeSnapshot writes payload to path atomically: temp file, fsync,
// rename, directory fsync. A failure removes the temp file; Open removes
// one a crash left behind.
func writeSnapshot(fsys fileSystem, path string, payload []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	hdr := fileHeader(kindSnap)
	_, err = f.WriteAt(appendFrame(hdr[:], 0, payload), 0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func syncDir(fsys fileSystem, path string) error {
	if err := fsys.SyncDir(path); err != nil {
		return fmt.Errorf("journal: directory sync: %w", err)
	}
	return nil
}

// readSnapshot decodes a snapshot file's payload.
func readSnapshot(fsys fileSystem, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	records, good, err := decodeFile(data, kindSnap)
	if err != nil {
		return nil, err
	}
	if len(records) != 1 || good != len(data) {
		return nil, fmt.Errorf("corrupt snapshot")
	}
	return records[0].Payload, nil
}

// scanDir lists snapshot and wal files, sorted by their embedded seq, and
// the snapshot temp files a crash left behind.
func scanDir(fsys fileSystem, dir string) (snaps, wals []segment, tmps []string, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				wals = append(wals, segment{firstSeq: seq, path: filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
				snaps = append(snaps, segment{firstSeq: seq, path: filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap.tmp"):
			tmps = append(tmps, filepath.Join(dir, name))
		}
	}
	sort.Slice(wals, func(i, k int) bool { return wals[i].firstSeq < wals[k].firstSeq })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i].firstSeq < snaps[k].firstSeq })
	return snaps, wals, tmps, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(s, 10, 64)
	return seq, err == nil
}

// EncodeRecords renders records into wal wire format (header + frames) —
// the fuzzer's round-trip oracle and a convenience for tests that build
// journal files by hand.
func EncodeRecords(records []Record) []byte {
	hdr := fileHeader(kindWAL)
	out := append([]byte(nil), hdr[:]...)
	for _, r := range records {
		out = appendFrame(out, r.Seq, r.Payload)
	}
	return out
}

// DecodeRecords parses wal wire format produced by EncodeRecords (or a
// prefix of a wal file). It never panics on arbitrary input: it returns
// the longest decodable prefix and whether the tail was torn, which it is
// when some byte after that prefix is nonzero. Inputs from a future format
// version fail with ErrVersionSkew; inputs that are not journal data at
// all fail with a plain error.
func DecodeRecords(data []byte) (records []Record, torn bool, err error) {
	records, good, err := decodeFile(data, kindWAL)
	if err != nil {
		return nil, false, err
	}
	return records, good < dataEnd(data), nil
}
