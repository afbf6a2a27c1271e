// Package colstore is the memory-bounded columnar record store behind
// the service registry's large-dataset tier. Records are decomposed
// into flat per-column arenas — latitude, longitude and minute as
// float64 columns, the subscriber identifier dictionary-encoded into a
// uint32 column — held in fixed-size chunks. Sealed chunks can spill to
// an unlinked temporary file under an explicit resident-byte budget
// with LRU replacement, so a nation-scale feed streams through a small,
// configurable working set instead of a []Record that must fit in RAM.
//
// The store is exposed to the pipeline only through Views: snapshots are
// O(1) and frozen (appends never mutate rows a view can see), window
// splits, user shards and Concat are row-index selections over the
// shared columns, and fingerprint building streams straight from the
// columns. Every derived operation is bit-identical to its cdr.Table
// reference (SplitByWindow, BuildDataset, cdr.ShardOfUser) — positions
// and timestamps are stored as the exact float64 values that arrived, so
// CSV round-trips are byte-identical (pinned by the equivalence tests).
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/cdr"
)

// DefaultChunkRecords is the chunk size used when Options.ChunkRecords
// is not positive: 8192 records, i.e. 224 KiB of column data per chunk
// (3 float64 columns + 1 uint32 column), large enough to amortize spill
// I/O and small enough for fine-grained budget control.
const DefaultChunkRecords = 8192

// bytesPerRecord is the column footprint of one record: three float64
// columns plus the uint32 user-dictionary column.
const bytesPerRecord = 3*8 + 4

// ErrTooManyRecords is returned by AppendStream when admitting the next
// record would exceed the caller's record allowance. The stream stops
// without buffering the offending record and the store is rolled back.
var ErrTooManyRecords = errors.New("colstore: record cap exceeded")

// Counters accumulates spill-path activity. They are cumulative and
// never reset, so a single Counters value shared across every store of
// a registry backs monotone service counters even as datasets come and
// go.
type Counters struct {
	// Faults counts chunk fault-ins (reads from the spill file).
	Faults atomic.Int64
	// Spills counts chunk spill-outs (writes to the spill file; a chunk
	// evicted twice writes only once, its on-disk copy is immutable).
	Spills atomic.Int64
}

// Options configures a Store.
type Options struct {
	// ChunkRecords is the number of records per column chunk; <= 0 uses
	// DefaultChunkRecords.
	ChunkRecords int
	// ByteBudget caps the resident column bytes; sealed chunks beyond
	// the budget spill to disk, least recently used first. 0 disables
	// spilling (everything stays resident).
	ByteBudget int64
	// SpillDir is the directory holding the spill file ("" uses the
	// system temp directory). The file is unlinked at creation, so its
	// space is reclaimed when the store is garbage collected or the
	// process exits, whichever comes first.
	SpillDir string
	// Counters, when non-nil, receives the store's cumulative spill
	// accounting (shared across stores by the registry).
	Counters *Counters
}

// chunk is one fixed-size segment of the column arenas. Chunks seal
// when full; sealed chunks are immutable and therefore spillable. The
// unsealed tail chunk is always resident.
type chunk struct {
	lat, lon, minute []float64
	user             []uint32

	n        int   // records in the chunk
	sealed   bool  // full, immutable from here on
	resident bool  // column slices are populated
	spilled  bool  // an immutable on-disk copy exists at off
	off      int64 // spill-file offset, valid when spilled
	pins     int   // active readers; pinned chunks are not evictable
	tick     int64 // LRU clock value of the last touch
}

// Store is a columnar record store. All methods are safe for concurrent
// use; appends are serialized against each other, while readers
// (snapshot views) only take the chunk lock briefly to pin chunks.
type Store struct {
	opt  Options
	meta cdr.Meta

	// appendMu serializes whole AppendStream calls so their atomic
	// commit-or-rollback semantics hold without blocking readers for
	// the duration of a stream.
	appendMu sync.Mutex

	mu     sync.Mutex
	chunks []*chunk
	// n and users are the published record count and dictionary length:
	// everything readers (Snapshot, Len, Users, Stats) see. An append in
	// flight writes rows and dictionary entries beyond them and publishes
	// both at once when it ends, so a rollback only ever touches rows no
	// reader can reference.
	n        int
	users    int
	dict     []string // user id -> identifier, including staged entries
	dictIdx  map[string]uint32
	resident int64 // resident column bytes
	clock    int64 // LRU clock
	spill    *os.File
	spillEnd int64 // allocation cursor in the spill file
}

// New returns an empty store for a dataset with the given metadata.
func New(meta cdr.Meta, opt Options) *Store {
	if opt.ChunkRecords <= 0 {
		opt.ChunkRecords = DefaultChunkRecords
	}
	return &Store{
		opt:     opt,
		meta:    meta,
		dictIdx: make(map[string]uint32),
	}
}

// Meta returns the dataset metadata.
func (s *Store) Meta() cdr.Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// SetSpanDays updates the nominal recording span (appends can extend
// it). Snapshots taken before the change keep the old value.
func (s *Store) SetSpanDays(days int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta.SpanDays = days
}

// Len returns the committed record count — the authoritative figure the
// registry enforces its record cap against.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Users returns the number of distinct subscribers ever committed.
func (s *Store) Users() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.users
}

// Stats is a point-in-time snapshot of the store's footprint.
type Stats struct {
	Records        int
	Users          int
	Chunks         int
	ResidentChunks int
	SpilledChunks  int   // chunks currently on disk only
	ResidentBytes  int64 // resident column bytes
}

// Stats returns the store's current footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Records:       s.n,
		Users:         s.users,
		Chunks:        len(s.chunks),
		ResidentBytes: s.resident,
	}
	for _, c := range s.chunks {
		if c.resident {
			st.ResidentChunks++
		} else {
			st.SpilledChunks++
		}
	}
	return st
}

// Close releases the spill file. Views faulting a spilled chunk after
// Close fail; the registry only closes stores at daemon shutdown, and a
// store dropped without Close is cleaned up by the runtime (the spill
// file is unlinked at creation and the descriptor has a finalizer).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spill == nil {
		return nil
	}
	err := s.spill.Close()
	s.spill = nil
	return err
}

// AppendStream consumes records from next until io.EOF and commits them
// atomically: any decode/validation error from next, any spill failure,
// or exceeding room rolls the store back to its pre-call state. room
// caps the records admitted by this call (< 0 means unlimited); when
// the stream holds more, the call fails with ErrTooManyRecords without
// buffering past the cap. Readers see none of the records until the
// stream has ended and all of them at once afterwards.
func (s *Store) AppendStream(next func() (cdr.Record, error), room int) (added int, err error) {
	s.appendMu.Lock()
	p, err := s.stage(next, room)
	if err != nil {
		return 0, err
	}
	p.Publish()
	return p.Added, nil
}

// Pending is an append staged by Stage: its rows are in the store but
// invisible to every reader until Publish, and Discard removes them.
// Exactly one of the two must be called; other appends to the store
// wait until then.
type Pending struct {
	s         *Store
	n0, dict0 int
	tail      *chunk // pre-append partial tail, pinned while staged
	Added     int    // records the append holds
	Records   int    // store records once published
	Users     int    // store subscribers once published
}

// Stage streams records from next until io.EOF into the store without
// publishing them, so the caller can make the append durable elsewhere
// first and then Publish or Discard it. limit bounds the published
// total (< 0 = unbounded); the room is derived from the published count
// after appends are serialized, so the bound holds under concurrent
// appends. On any error the store is already rolled back and nothing is
// pending.
func (s *Store) Stage(next func() (cdr.Record, error), limit int) (*Pending, error) {
	s.appendMu.Lock()
	room := -1
	if limit >= 0 {
		s.mu.Lock()
		room = max(0, limit-s.n)
		s.mu.Unlock()
	}
	return s.stage(next, room)
}

// stage is the body of the append entry points. The caller holds
// s.appendMu; stage releases it on error, the returned Pending when it
// is published or discarded.
func (s *Store) stage(next func() (cdr.Record, error), room int) (*Pending, error) {
	s.mu.Lock()
	p := &Pending{s: s, n0: s.n, dict0: s.users}
	if s.n%s.opt.ChunkRecords != 0 {
		// The partial tail may fill and seal under this append; pinning it
		// keeps it resident, so a rollback can truncate it in place.
		p.tail = s.chunks[len(s.chunks)-1]
		p.tail.pins++
	}
	s.mu.Unlock()
	for {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err == nil && room >= 0 && p.Added >= room {
			err = ErrTooManyRecords
		}
		if err == nil {
			s.mu.Lock()
			err = s.appendLocked(rec)
			s.mu.Unlock()
		}
		if err != nil {
			p.Discard()
			return nil, err
		}
		p.Added++
	}
	s.mu.Lock()
	p.Records, p.Users = p.n0+p.Added, len(s.dict)
	s.mu.Unlock()
	return p, nil
}

// Publish makes the staged records visible to readers.
func (p *Pending) Publish() {
	s := p.s
	s.mu.Lock()
	s.n, s.users = p.Records, p.Users
	p.unpinLocked()
	s.mu.Unlock()
	s.appendMu.Unlock()
}

// Discard rolls the store back to its state before the staged append.
func (p *Pending) Discard() {
	s := p.s
	s.mu.Lock()
	s.rollbackLocked(p.n0, p.dict0)
	p.unpinLocked()
	s.mu.Unlock()
	s.appendMu.Unlock()
}

func (p *Pending) unpinLocked() {
	if p.tail != nil {
		p.tail.pins--
	}
}

// Append validates and commits a batch of records atomically (the
// cdr.Table.Append analogue, used by tests and direct embedders).
func (s *Store) Append(recs ...cdr.Record) error {
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("colstore: appended record %d: %w", i, err)
		}
	}
	i := 0
	_, err := s.AppendStream(func() (cdr.Record, error) {
		if i == len(recs) {
			return cdr.Record{}, io.EOF
		}
		r := recs[i]
		i++
		return r, nil
	}, -1)
	return err
}

// appendLocked commits one record. Caller holds s.mu.
func (s *Store) appendLocked(r cdr.Record) error {
	var tail *chunk
	if len(s.chunks) > 0 {
		if c := s.chunks[len(s.chunks)-1]; !c.sealed {
			tail = c
		}
	}
	if tail == nil {
		tail = &chunk{
			lat:      make([]float64, 0, s.opt.ChunkRecords),
			lon:      make([]float64, 0, s.opt.ChunkRecords),
			minute:   make([]float64, 0, s.opt.ChunkRecords),
			user:     make([]uint32, 0, s.opt.ChunkRecords),
			resident: true,
		}
		s.chunks = append(s.chunks, tail)
		s.resident += s.chunkBytes()
		if err := s.evictLocked(); err != nil {
			return err
		}
	}
	id, ok := s.dictIdx[r.User]
	if !ok {
		if len(s.dict) >= math.MaxUint32 {
			return fmt.Errorf("colstore: user dictionary overflow")
		}
		id = uint32(len(s.dict))
		s.dict = append(s.dict, r.User)
		s.dictIdx[r.User] = id
	}
	// The tail chunk's backing arrays are preallocated at full chunk
	// capacity, so these appends never reallocate: slice headers read by
	// concurrent views (under s.mu) stay valid and element writes land
	// beyond any committed row a view can reference.
	tail.lat = append(tail.lat, r.Pos.Lat)
	tail.lon = append(tail.lon, r.Pos.Lon)
	tail.minute = append(tail.minute, r.Minute)
	tail.user = append(tail.user, id)
	tail.n++
	if tail.n == s.opt.ChunkRecords {
		tail.sealed = true
		return s.evictLocked()
	}
	return nil
}

// rollbackLocked restores the store to exactly n0 records and dict0
// dictionary entries, undoing a staged append. Nothing beyond the
// published n0 rows was ever visible, so dropping the newer chunks and
// truncating the tail never invalidates a reader. Caller holds s.mu.
func (s *Store) rollbackLocked(n0, dict0 int) {
	keepChunks := (n0 + s.opt.ChunkRecords - 1) / s.opt.ChunkRecords
	for _, c := range s.chunks[keepChunks:] {
		if c.resident {
			s.resident -= s.chunkBytes()
		}
		// A spilled copy of a dropped chunk leaves a hole in the spill
		// file; the file is temporary and appends rarely fail, so the
		// space is simply not reused.
	}
	s.chunks = s.chunks[:keepChunks]
	if k := n0 % s.opt.ChunkRecords; k != 0 || n0 == 0 {
		if len(s.chunks) > 0 {
			// The pre-append tail was partial and stayed pinned while the
			// append was staged, so it is resident and truncatable in place.
			c := s.chunks[len(s.chunks)-1]
			c.lat = c.lat[:k]
			c.lon = c.lon[:k]
			c.minute = c.minute[:k]
			c.user = c.user[:k]
			c.n = k
			c.sealed = false
		}
	}
	for _, u := range s.dict[dict0:] {
		delete(s.dictIdx, u)
	}
	s.dict = s.dict[:dict0]
}

// chunkBytes is the resident footprint of one chunk's columns. Chunks
// preallocate full capacity, so the footprint is constant per chunk.
func (s *Store) chunkBytes() int64 {
	return int64(s.opt.ChunkRecords) * bytesPerRecord
}

// evictLocked spills least-recently-used sealed chunks until the
// resident bytes fit the budget. Pinned chunks and the unsealed tail
// are never evicted, so a budget smaller than the pinned set degrades
// to keeping everything needed resident rather than failing. Caller
// holds s.mu.
func (s *Store) evictLocked() error {
	if s.opt.ByteBudget <= 0 {
		return nil
	}
	for s.resident > s.opt.ByteBudget {
		var victim *chunk
		for _, c := range s.chunks {
			if !c.resident || !c.sealed || c.pins > 0 {
				continue
			}
			if victim == nil || c.tick < victim.tick {
				victim = c
			}
		}
		if victim == nil {
			return nil
		}
		if err := s.spillLocked(victim); err != nil {
			return err
		}
		victim.lat, victim.lon, victim.minute, victim.user = nil, nil, nil, nil
		victim.resident = false
		s.resident -= s.chunkBytes()
	}
	return nil
}

// spillLocked ensures the chunk has an on-disk copy. Sealed chunks are
// immutable, so a chunk evicted more than once writes only on the first
// eviction. Caller holds s.mu.
func (s *Store) spillLocked(c *chunk) error {
	if c.spilled {
		return nil
	}
	if s.spill == nil {
		// The configured spill directory may not exist yet (e.g. a fresh
		// gloved -data-dir whose spill/ subdirectory is created lazily).
		if s.opt.SpillDir != "" {
			if err := os.MkdirAll(s.opt.SpillDir, 0o755); err != nil {
				return fmt.Errorf("colstore: creating spill dir: %w", err)
			}
		}
		f, err := os.CreateTemp(s.opt.SpillDir, "colstore-*.spill")
		if err != nil {
			return fmt.Errorf("colstore: creating spill file: %w", err)
		}
		// Unlink immediately: the descriptor keeps the file alive, and
		// the space is reclaimed no matter how the process ends.
		if err := os.Remove(f.Name()); err != nil {
			f.Close()
			return fmt.Errorf("colstore: unlinking spill file: %w", err)
		}
		s.spill = f
	}
	buf := encodeChunk(c)
	off := s.spillEnd
	if _, err := s.spill.WriteAt(buf, off); err != nil {
		return fmt.Errorf("colstore: spilling chunk: %w", err)
	}
	s.spillEnd += int64(len(buf))
	c.off = off
	c.spilled = true
	if s.opt.Counters != nil {
		s.opt.Counters.Spills.Add(1)
	}
	return nil
}

// faultLocked loads a spilled chunk back into memory and re-applies the
// budget (which may evict a colder chunk instead). Caller holds s.mu.
func (s *Store) faultLocked(c *chunk) error {
	if c.resident {
		return nil
	}
	if s.spill == nil {
		return fmt.Errorf("colstore: faulting chunk after Close")
	}
	buf := make([]byte, int(s.chunkBytes()))
	if _, err := s.spill.ReadAt(buf, c.off); err != nil {
		return fmt.Errorf("colstore: faulting chunk: %w", err)
	}
	decodeChunk(c, buf, s.opt.ChunkRecords)
	c.resident = true
	s.resident += s.chunkBytes()
	if s.opt.Counters != nil {
		s.opt.Counters.Faults.Add(1)
	}
	return s.evictLocked()
}

// cols is a borrowed reference to one chunk's column slices.
type cols struct {
	lat, lon, minute []float64
	user             []uint32
}

// acquire pins chunk ci and returns its columns; release unpins. While
// pinned the chunk cannot be evicted, so the returned slices stay valid
// outside the lock. Spilled chunks fault in (only sealed full chunks
// ever spill, so every fault restores a complete chunk).
func (s *Store) acquire(ci int) (cols, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chunks[ci]
	// Pin before faulting: the fault re-applies the byte budget, and the
	// pin keeps the freshly loaded chunk itself off the victim list.
	c.pins++
	s.clock++
	c.tick = s.clock
	if err := s.faultLocked(c); err != nil {
		c.pins--
		return cols{}, nil, err
	}
	release := func() {
		s.mu.Lock()
		c.pins--
		s.mu.Unlock()
	}
	return cols{lat: c.lat, lon: c.lon, minute: c.minute, user: c.user}, release, nil
}

// encodeChunk serializes a sealed chunk's columns: the three float64
// columns then the uint32 column, little-endian, fixed width (sealed
// chunks are always full).
func encodeChunk(c *chunk) []byte {
	n := len(c.lat)
	buf := make([]byte, n*bytesPerRecord)
	o := 0
	for _, col := range [][]float64{c.lat, c.lon, c.minute} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(v))
			o += 8
		}
	}
	for _, v := range c.user {
		binary.LittleEndian.PutUint32(buf[o:], v)
		o += 4
	}
	return buf
}

// decodeChunk rebuilds a full chunk's columns from its encoding.
func decodeChunk(c *chunk, buf []byte, n int) {
	f := make([]float64, 3*n)
	o := 0
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[o:]))
		o += 8
	}
	u := make([]uint32, n)
	for i := range u {
		u[i] = binary.LittleEndian.Uint32(buf[o:])
		o += 4
	}
	c.lat = f[0*n : 1*n : 1*n]
	c.lon = f[1*n : 2*n : 2*n]
	c.minute = f[2*n : 3*n : 3*n]
	c.user = u
}
