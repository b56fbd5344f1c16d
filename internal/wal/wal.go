// Package wal is a segmented, CRC-framed, append-only write-ahead log for
// gateway ops. Every ingested event (and stream-clock advance) is framed
// and appended before it mutates detector state, so a process that dies
// between checkpoints can replay the tail and recover losslessly: the
// checkpoint carries the sequence number of the last op it covers, replay
// skips everything at or below it, and the stitched run is bit-identical
// to one that never crashed.
//
// On-disk layout: a directory of segment files named by the first sequence
// number they hold (%016x.wal). Each segment starts with an 8-byte magic +
// 8-byte first-seq header, followed by framed records:
//
//	[seq:8][len:4][crc:4][payload:len]
//
// The CRC (Castagnoli) covers seq, len, and payload, so a torn tail, a
// truncated length field, or a bit flip all fail closed. A torn or corrupt
// record ends replay at the last good record — exactly the prefix that was
// durably applied — and the log self-repairs by truncating the garbage so
// the next append continues a clean chain.
package wal

import (
	"bufio"
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

	"repro/internal/telemetry"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

var segMagic = [8]byte{'D', 'I', 'C', 'E', 'W', 'A', 'L', '1'}

const (
	segHeaderSize  = 16 // magic + first seq
	frameHeader    = 16 // seq + len + crc
	maxRecordSize  = 1 << 20
	defaultSegSize = 512 << 10
	defaultBatch   = 64
	scanBufSize    = 64 << 10 // read size of a segment scan
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs every Options.BatchEvery appends (and on rotation
	// and Close): bounded loss, amortized flush cost. The zero value,
	// because it is the default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at the cost of one disk flush per op.
	SyncAlways
	// SyncNever leaves flushing to the OS except on rotation and Close:
	// fastest, loses the page-cache tail on power failure (a clean process
	// kill loses nothing — the kernel still has the writes).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy maps the -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "never", "none":
		return SyncNever, nil
	default:
		return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|never)", s)
	}
}

// Options configures a log at Open.
type Options struct {
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 512 KiB). Rotation bounds what a checkpoint can
	// truncate and keeps any one replay file small.
	SegmentSize int64
	// BatchEvery is the append count between fsyncs under SyncBatch
	// (default 64).
	BatchEvery int
	// Telemetry registers the dice_wal_* instruments; nil leaves the log
	// uninstrumented (all instruments are nil-safe).
	Telemetry *telemetry.Registry
}

// WAL metric names.
const (
	metricAppends   = "dice_wal_appends_total"
	metricBytes     = "dice_wal_append_bytes_total"
	metricSyncs     = "dice_wal_syncs_total"
	metricRotations = "dice_wal_rotations_total"
	metricSegments  = "dice_wal_segments"
	metricTruncated = "dice_wal_truncated_segments_total"
	metricReplayed  = "dice_wal_replayed_records_total"
	metricCorrupt   = "dice_wal_corrupt_records_total"
)

type metrics struct {
	appends   *telemetry.Counter
	bytes     *telemetry.Counter
	syncs     *telemetry.Counter
	rotations *telemetry.Counter
	segments  *telemetry.Gauge
	truncated *telemetry.Counter
	replayed  *telemetry.Counter
	corrupt   *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) metrics {
	if reg == nil {
		return metrics{}
	}
	return metrics{
		appends:   reg.Counter(metricAppends, "Records appended to the WAL."),
		bytes:     reg.Counter(metricBytes, "Bytes appended to the WAL (frames included)."),
		syncs:     reg.Counter(metricSyncs, "fsync calls issued by the WAL."),
		rotations: reg.Counter(metricRotations, "Segment rotations."),
		segments:  reg.Gauge(metricSegments, "Segment files currently on disk."),
		truncated: reg.Counter(metricTruncated, "Segments deleted after a covering checkpoint."),
		replayed:  reg.Counter(metricReplayed, "Records applied during replay."),
		corrupt:   reg.Counter(metricCorrupt, "Torn or corrupt records discarded at open/replay."),
	}
}

// segment is one on-disk file: its path, the first sequence it holds, and
// its current byte size.
type segment struct {
	path     string
	firstSeq uint64
	size     int64
}

// Log is a segmented append-only WAL. All methods are safe for concurrent
// use; appends are serialized internally so record order on disk is the
// order Append returns in.
type Log struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	segs     []segment // sorted by firstSeq; last is active
	active   *os.File
	seq      uint64 // last assigned sequence number (0 = empty log)
	unsynced int
	closed   bool
	met      metrics
	scratch  []byte
}

// Open opens (or creates) the log in dir, validating segment headers and
// repairing a torn tail: the active segment is scanned record by record
// and truncated at the first frame that fails its CRC, so a crash mid-
// append never poisons the chain.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegSize
	}
	if opts.BatchEvery <= 0 {
		opts.BatchEvery = defaultBatch
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, met: newMetrics(opts.Telemetry)}
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.met.segments.Set(int64(len(l.segs)))
	return l, nil
}

// scan discovers segments, validates headers, and repairs the tail.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: readdir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("wal: stat %s: %w", name, err)
		}
		l.segs = append(l.segs, segment{path: filepath.Join(l.dir, name), firstSeq: first, size: info.Size()})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].firstSeq < l.segs[j].firstSeq })
	if len(l.segs) == 0 {
		return nil
	}
	// Validate every header cheaply; fully scan only the active (last)
	// segment to find the durable tail and repair torn bytes.
	for i := range l.segs {
		if err := l.checkHeader(&l.segs[i]); err != nil {
			return err
		}
	}
	tail := &l.segs[len(l.segs)-1]
	last, goodSize, err := l.scanSegment(tail, 0, nil)
	if err != nil {
		return err
	}
	if goodSize < tail.size {
		l.met.corrupt.Inc()
		if err := os.Truncate(tail.path, goodSize); err != nil {
			return fmt.Errorf("wal: repair %s: %w", tail.path, err)
		}
		tail.size = goodSize
	}
	if last == 0 {
		// Empty tail segment: its first record will be firstSeq, so the
		// last assigned seq is one below.
		l.seq = tail.firstSeq - 1
	} else {
		l.seq = last
	}
	return nil
}

func (l *Log) checkHeader(s *segment) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: short header: %w", s.path, err)
	}
	if [8]byte(hdr[:8]) != segMagic {
		return fmt.Errorf("wal: %s: bad magic %q", s.path, hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != s.firstSeq {
		return fmt.Errorf("wal: %s: header first seq %d does not match name", s.path, got)
	}
	return nil
}

// scanSegment walks one segment's records, calling fn (when non-nil) for
// each valid frame, and returns the last valid seq seen (0 if none) plus
// the byte offset just past it. A CRC mismatch, short frame, or sequence
// discontinuity ends the scan without error: everything after the last
// good record is garbage by definition of an append-only log. The file is
// read through a buffer, so a record costs no system call of its own;
// offsets come from frame sizes, not from the file position.
func (l *Log) scanSegment(s *segment, after uint64, fn func(seq uint64, payload []byte) error) (uint64, int64, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(segHeaderSize, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReaderSize(f, scanBufSize)
	var (
		hdr     [frameHeader]byte
		payload []byte
		last    uint64
		off     = int64(segHeaderSize)
		want    = s.firstSeq
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return last, off, nil // clean EOF or torn header: stop at last good
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		n := binary.LittleEndian.Uint32(hdr[8:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if seq != want || n > maxRecordSize {
			return last, off, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return last, off, nil
		}
		sum := crc32.Update(0, castagnoli, hdr[0:12])
		sum = crc32.Update(sum, castagnoli, payload)
		if sum != crc {
			return last, off, nil
		}
		if fn != nil && seq > after {
			if err := fn(seq, payload); err != nil {
				return last, off, err
			}
		}
		last = seq
		off += int64(frameHeader) + int64(n)
		want = seq + 1
	}
}

// LastSeq returns the sequence number of the last appended record (0 for
// an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns the number of segment files on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append frames payload as a one-record AppendBatch and returns the
// record's sequence number. The payload is copied before Append returns;
// the caller may reuse its buffer.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch frames every payload as its own record, makes one file
// write for the whole batch, and applies the sync policy once at the end,
// so fsync cost amortizes across the batch (SyncAlways: one flush per
// batch; SyncBatch: the unsynced count advances by the batch size). It
// returns the sequence number of the last record. Replay sees records, not
// batches, so how ops were grouped never changes recovery. Rotation is
// checked after the batch, so a segment may overshoot SegmentSize by at
// most one batch.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payloads) == 0 {
		return l.seq, nil
	}
	need := 0
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return 0, fmt.Errorf("wal: record %d bytes exceeds limit %d", len(p), maxRecordSize)
		}
		need += frameHeader + len(p)
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	if cap(l.scratch) < need {
		l.scratch = make([]byte, need)
	}
	buf := l.scratch[:0]
	seq := l.seq
	for _, p := range payloads {
		seq++
		off := len(buf)
		buf = buf[:off+frameHeader+len(p)]
		binary.LittleEndian.PutUint64(buf[off:off+8], seq)
		binary.LittleEndian.PutUint32(buf[off+8:off+12], uint32(len(p)))
		copy(buf[off+frameHeader:], p)
		sum := crc32.Update(0, castagnoli, buf[off:off+12])
		sum = crc32.Update(sum, castagnoli, p)
		binary.LittleEndian.PutUint32(buf[off+12:off+16], sum)
	}
	if _, err := l.active.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append batch: %w", err)
	}
	l.seq = seq
	tail := &l.segs[len(l.segs)-1]
	tail.size += int64(need)
	l.met.appends.Add(int64(len(payloads)))
	l.met.bytes.Add(int64(need))
	l.unsynced += len(payloads)
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncBatch:
		if l.unsynced >= l.opts.BatchEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	if tail.size >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes the active segment to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.active == nil || l.unsynced == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = 0
	l.met.syncs.Inc()
	return nil
}

// ensureActiveLocked opens the tail segment for appending, creating the
// first segment of an empty log.
func (l *Log) ensureActiveLocked() error {
	if l.active != nil {
		return nil
	}
	if len(l.segs) == 0 {
		return l.newSegmentLocked(l.seq + 1)
	}
	tail := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: open active: %w", err)
	}
	// The repaired size, not the file end: scan() truncated torn bytes,
	// but another process could in principle have appended since.
	if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.active = f
	return nil
}

func (l *Log) newSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%016x.wal", firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq, size: segHeaderSize})
	l.active = f
	l.met.segments.Set(int64(len(l.segs)))
	// Make the new file itself durable: fsync the directory so the name
	// survives a power failure (same contract as checkpoint renames).
	return SyncDir(l.dir)
}

// rotateLocked seals the active segment (flush + close) and starts a new
// one whose first record will be seq+1.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.active = nil
	l.met.rotations.Inc()
	return l.newSegmentLocked(l.seq + 1)
}

// Replay streams every durable record with sequence number greater than
// after, in order, into fn. It stops without error at the first torn or
// corrupt frame (counted), mirroring Open's repair semantics. Replay of
// the active segment is safe while the log is open as long as no Append
// runs concurrently — the caller serializes recovery before ingest.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	return l.walk(after, func(seq uint64, payload []byte) error {
		l.met.replayed.Inc()
		return fn(seq, payload)
	})
}

// ExportTail collects copies of every durable record with sequence number
// greater than after, in order — the WAL half of a tenant handoff envelope:
// the receiving node appends these frames to its own log and replays them
// on top of the shipped checkpoint. Like Replay, the export stops silently
// at the first torn or corrupt frame (counted), so it ships exactly the
// prefix a local recovery would have applied. Safe while the log is open as
// long as no Append runs concurrently — the exporter drains ingest first.
func (l *Log) ExportTail(after uint64) ([][]byte, error) {
	var out [][]byte
	err := l.walk(after, func(_ uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walk feeds every durable record past after to fn, segment by segment,
// stopping without error (counted as corrupt) where the chain breaks: a
// sequence gap between segments, or a non-empty segment with no valid
// record, means what follows is not a continuation of the applied prefix.
func (l *Log) walk(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	var prevLast uint64
	for i, s := range segs {
		if i > 0 && s.firstSeq != prevLast+1 {
			l.met.corrupt.Inc()
			return nil
		}
		last, _, err := l.scanSegment(&s, after, fn)
		if err != nil {
			return err
		}
		if last == 0 && s.size > segHeaderSize {
			l.met.corrupt.Inc()
			return nil
		}
		if last != 0 {
			prevLast = last
		} else {
			prevLast = s.firstSeq - 1
		}
	}
	return nil
}

// SkipTo advances an empty log's sequence counter so its first append is
// assigned seq+1 — how an adopting node continues a migrated tenant's
// sequence space instead of restarting at 1, keeping the shipped
// checkpoint's WALSeq meaningful against the new node's log. It refuses on
// a log that already holds records.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.segs) != 0 || l.seq != 0 {
		return fmt.Errorf("wal: SkipTo(%d) on non-empty log (last seq %d)", seq, l.seq)
	}
	l.seq = seq
	return nil
}

// TruncateThrough deletes sealed segments whose every record has sequence
// number <= seq — called after a checkpoint covering seq has been made
// durable. The active segment is never deleted, so the log always keeps a
// valid chain tail.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	n := 0
	for len(l.segs)-n >= 2 && l.segs[n+1].firstSeq-1 <= seq {
		if err := os.Remove(l.segs[n].path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		n++
	}
	if n == 0 {
		return nil
	}
	l.segs = append(l.segs[:0], l.segs[n:]...)
	l.met.truncated.Add(int64(n))
	l.met.segments.Set(int64(len(l.segs)))
	return SyncDir(l.dir)
}

// Close flushes and closes the active segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// SyncDir fsyncs a directory so renames/creates/removes within it are
// durable. Required on POSIX: fsyncing a file does not persist its name —
// checkpoint writers share this helper for their post-rename sync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
