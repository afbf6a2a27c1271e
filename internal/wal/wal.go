// Package wal implements the append-only write-ahead journal behind
// gloved's durability layer (DESIGN.md Sec. 13). The log is a sequence
// of numbered segment files (wal-00000001.log, wal-00000002.log, ...)
// each holding length-prefixed CRC32C-framed records:
//
//	[len u32 LE][crc32c u32 LE][kind u8][payload]
//
// where len = 1+len(payload) and the checksum covers kind+payload.
// Appends go to the newest segment and rotate to a fresh segment once
// the current one passes Options.SegmentBytes. Commit provides
// group-commit fsync batching: concurrent committers share a single
// fsync covering every write that preceded it.
//
// A frame's payload may be handed to Append in parts (a header and a
// body, say); the checksum runs over the parts in order and they are
// written without first being joined into one buffer. A failed or short
// write poisons the Log: every later Append, Commit and Compact returns
// that error, so nothing is ever appended behind a partial frame.
//
// Recovery (Open) tolerates a torn tail — a trailing frame whose bytes
// were only partially written before a crash — by truncating the last
// segment at the tear and reporting it. A fully-present frame whose
// checksum does not match is corruption, not a tear, and fails Open.
//
// Compact writes a snapshot frame as the first record of a fresh
// segment and deletes every older segment; replay starts at the newest
// segment that begins with a snapshot, so a crash between the snapshot
// write and the deletes is harmless (the extra segments are simply
// ignored and removed by the next compaction).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Frame kinds. Snapshot frames only ever appear as the first record of
// a segment written by Compact.
const (
	KindRecord   byte = 0
	KindSnapshot byte = 1
)

const (
	headerSize = 8
	// MaxFrameBytes bounds a single frame; a length prefix beyond it is
	// structural corruption, not a large record.
	MaxFrameBytes = 1 << 30
)

// ErrCorrupt reports a structurally invalid or checksum-failing frame
// in the interior of the journal — unlike a torn tail, this is not
// recoverable by truncation.
var ErrCorrupt = errors.New("wal: corrupt frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// Fsync enables fsync on Commit (and on segment rotation). When
	// false, Commit is a no-op and durability is limited to what the OS
	// page cache provides.
	Fsync bool
	// SegmentBytes is the rotation threshold; a segment that reaches it
	// is closed and a new one started. Defaults to 4 MiB.
	SegmentBytes int64
	// OnSync, when non-nil, observes the duration of every fsync.
	OnSync func(time.Duration)
	// OnAppend, when non-nil, observes the framed size in bytes of
	// every appended record.
	OnAppend func(int)
}

// Recovery is what Open replayed from disk.
type Recovery struct {
	// Snapshot is the payload of the newest snapshot frame, or nil if
	// the journal has never been compacted.
	Snapshot []byte
	// Records holds every record payload appended after that snapshot,
	// in append order.
	Records [][]byte
	// TornTail reports that the last segment ended in a partially
	// written frame, which was truncated away.
	TornTail bool
	// TornBytes is the number of bytes dropped by the truncation.
	TornBytes int64
}

// Frame is one decoded journal record.
type Frame struct {
	Kind    byte
	Payload []byte
}

// segmentFile is what a Log needs of the segment file it appends to.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Log is an open write-ahead journal. All methods are safe for
// concurrent use.
type Log struct {
	dir string
	opt Options

	mu         sync.Mutex
	cond       *sync.Cond
	f          segmentFile
	scratch    []byte // a frame header and the parts written with it
	seq        int    // sequence number of the current segment
	size       int64  // bytes in the current segment
	otherBytes int64  // bytes in older live segments
	numSegs    int    // live segments including the current one
	writeSeq   uint64
	syncSeq    uint64
	syncing    bool
	// failed is the first write or fsync error; once set, the segment's
	// tail is unknown and the Log refuses every further append.
	failed error
	closed bool
}

func segName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// Decode scans a segment's bytes and returns the complete frames, the
// number of bytes consumed, whether a torn (partially written) trailing
// frame was dropped, and a non-nil error wrapping ErrCorrupt if an
// interior frame is structurally invalid or fails its checksum.
func Decode(data []byte) (frames []Frame, n int64, torn bool, err error) {
	for {
		rest := int64(len(data)) - n
		if rest == 0 {
			return frames, n, false, nil
		}
		if rest < headerSize {
			return frames, n, true, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[n:]))
		sum := binary.LittleEndian.Uint32(data[n+4:])
		if length == 0 || length > MaxFrameBytes {
			return frames, n, false, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, length, n)
		}
		if rest < headerSize+length {
			return frames, n, true, nil
		}
		body := data[n+headerSize : n+headerSize+length]
		if crc32.Checksum(body, crcTable) != sum {
			return frames, n, false, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, n)
		}
		payload := make([]byte, length-1)
		copy(payload, body[1:])
		frames = append(frames, Frame{Kind: body[0], Payload: payload})
		n += headerSize + length
	}
}

// frameHeader returns the length, checksum and kind that precede a
// frame whose payload is the concatenation of parts, and the frame's
// total size.
func frameHeader(kind byte, parts [][]byte) ([headerSize + 1]byte, int) {
	var hdr [headerSize + 1]byte
	hdr[8] = kind
	length := 1
	sum := crc32.Checksum(hdr[8:9], crcTable)
	for _, p := range parts {
		length += len(p)
		sum = crc32.Update(sum, crcTable, p)
	}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(length))
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	return hdr, headerSize + length
}

// AppendFrame appends the wire encoding of one frame to buf.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	hdr, _ := frameHeader(kind, [][]byte{payload})
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// writeFrameLocked writes one frame in at most two writes: the frame
// header with every payload part but the last copied behind it, then
// the last part, a frame's body, as it is. A failed write leaves a
// partial frame behind, so it poisons the Log. Caller holds l.mu.
func (l *Log) writeFrameLocked(hdr []byte, parts [][]byte) error {
	buf := append(l.scratch[:0], hdr...)
	var last []byte
	if n := len(parts); n > 0 {
		for _, p := range parts[:n-1] {
			buf = append(buf, p...)
		}
		last = parts[n-1]
	}
	l.scratch = buf[:0]
	if err := l.writeLocked(buf); err != nil {
		return err
	}
	return l.writeLocked(last)
}

func (l *Log) writeLocked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if _, err := l.f.Write(p); err != nil {
		return l.poisonLocked(err)
	}
	return nil
}

// poisonLocked records the Log's first failure and returns it; every
// later append, commit and compaction returns it too. Caller holds l.mu.
func (l *Log) poisonLocked(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: log unusable: %w", err)
	}
	return l.failed
}

// usableLocked reports why the Log can take no more frames, or nil.
// Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return errors.New("wal: closed")
	}
	return l.failed
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens (creating if necessary) the journal in dir, replays it,
// truncates any torn tail, and positions the log for appends.
func Open(dir string, opt Options) (*Log, *Recovery, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil && segName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)

	l := &Log{dir: dir, opt: opt}
	l.cond = sync.NewCond(&l.mu)
	rec := &Recovery{}

	if len(seqs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, nil, err
		}
		return l, rec, nil
	}

	type segment struct {
		seq    int
		frames []Frame
		size   int64
	}
	var segs []segment
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		frames, n, torn, err := Decode(data)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", segName(seq), err)
		}
		if torn {
			if i != len(seqs)-1 {
				return nil, nil, fmt.Errorf("%w: torn frame in non-final segment %s", ErrCorrupt, segName(seq))
			}
			rec.TornTail = true
			rec.TornBytes = int64(len(data)) - n
			if err := os.Truncate(path, n); err != nil {
				return nil, nil, err
			}
		}
		segs = append(segs, segment{seq: seq, frames: frames, size: n})
	}

	// Replay starts at the newest segment that begins with a snapshot
	// frame; anything older is pre-compaction history.
	base := 0
	for i, s := range segs {
		if len(s.frames) > 0 && s.frames[0].Kind == KindSnapshot {
			base = i
		}
	}
	for i := base; i < len(segs); i++ {
		for j, f := range segs[i].frames {
			if f.Kind == KindSnapshot {
				if i == base && j == 0 {
					rec.Snapshot = f.Payload
					continue
				}
				return nil, nil, fmt.Errorf("%w: snapshot frame in segment interior (%s)", ErrCorrupt, segName(segs[i].seq))
			}
			rec.Records = append(rec.Records, f.Payload)
		}
	}

	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segName(last.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l.f = f
	l.seq = last.seq
	l.size = last.size
	l.numSegs = len(segs)
	for _, s := range segs[:len(segs)-1] {
		l.otherBytes += s.size
	}
	return l, rec, nil
}

// createSegment opens a fresh segment file as the current one. Caller
// must hold l.mu (or own the log exclusively, as in Open).
func (l *Log) createSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if l.opt.Fsync {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	if l.f != nil {
		l.otherBytes += l.size
		l.f.Close()
	}
	l.f = f
	l.seq = seq
	l.size = 0
	l.numSegs++
	return nil
}

// Append writes one record frame, whose payload is the concatenation
// of parts, to the journal. The write lands in the OS page cache; call
// Commit to make it (and everything before it) durable. Rotation to a
// new segment happens after the append that crosses SegmentBytes.
func (l *Log) Append(parts ...[]byte) error {
	hdr, size := frameHeader(KindRecord, parts)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if faultinject.Armed("wal.append.partial") {
		// Simulate a crash mid-write: half the frame reaches the disk,
		// the rest never does.
		frame := append([]byte(nil), hdr[:]...)
		for _, p := range parts {
			frame = append(frame, p...)
		}
		l.f.Write(frame[:len(frame)/2])
		l.f.Sync()
		faultinject.Kill()
	}
	if err := l.writeFrameLocked(hdr[:], parts); err != nil {
		return err
	}
	l.size += int64(size)
	l.writeSeq++
	if l.opt.OnAppend != nil {
		l.opt.OnAppend(size)
	}
	if l.size >= l.opt.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked closes the current segment (fsyncing it first so a
// later Commit never needs the closed file) and starts the next one.
func (l *Log) rotateLocked() error {
	if l.opt.Fsync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return l.poisonLocked(err)
		}
		if l.opt.OnSync != nil {
			l.opt.OnSync(time.Since(start))
		}
	}
	l.syncSeq = l.writeSeq
	l.cond.Broadcast()
	return l.createSegment(l.seq + 1)
}

// Commit makes every previously appended record durable. Concurrent
// commits batch: one fsync covers all writes that preceded it, and
// callers whose writes are already covered return without a new fsync.
// Without Options.Fsync it only reports a failure that poisoned the Log.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.opt.Fsync {
		return l.failed
	}
	target := l.writeSeq
	for l.syncSeq < target && l.failed == nil {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		f := l.f
		upto := l.writeSeq
		l.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		d := time.Since(start)
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.poisonLocked(err)
		}
		if upto > l.syncSeq {
			l.syncSeq = upto
		}
		if l.opt.OnSync != nil {
			l.opt.OnSync(d)
		}
		l.cond.Broadcast()
	}
	return l.failed
}

// Compact writes a snapshot, the concatenation of parts, as the sole
// frame of a brand-new segment, fsyncs it, and deletes every older
// segment. Replay after Compact starts from the snapshot. Crash-safe:
// until the new segment is durable the old ones still exist, and replay
// always picks the newest snapshot-led segment.
func (l *Log) Compact(parts ...[]byte) error {
	hdr, size := frameHeader(KindSnapshot, parts)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.createSegment(l.seq + 1); err != nil {
		return err
	}
	l.numSegs = 1
	l.otherBytes = 0
	if err := l.writeFrameLocked(hdr[:], parts); err != nil {
		return err
	}
	l.size = int64(size)
	l.writeSeq++
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(err)
	}
	if l.opt.OnSync != nil {
		l.opt.OnSync(time.Since(start))
	}
	l.syncSeq = l.writeSeq
	l.cond.Broadcast()
	if err := syncDir(l.dir); err != nil {
		return err
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var s int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &s); err == nil && segName(s) == e.Name() && s < l.seq {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// Size reports the number of live segments and their total bytes.
func (l *Log) Size() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.numSegs, l.otherBytes + l.size
}

// Close fsyncs (when enabled) and closes the journal.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.opt.Fsync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	return err
}
