package cdr

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
)

// Source is the read seam between dataset storage and the anonymization
// pipeline. Registry snapshots are views of the columnar store
// (internal/colstore), which serves every operation by streaming over
// column chunks without ever materializing []Record; *Table implements
// it too, as the type of windows fused from several fragments by
// MaterializeTable. Everything downstream of a registry snapshot —
// planning, sharding, window splitting, fingerprint building — consumes
// this interface instead of a concrete type.
//
// Implementations must be safe for concurrent readers: a snapshot is
// shared by every shard worker of a job. All derived sources (windows,
// shards) observe exactly the rows of the parent source, in the parent's
// record order, so the byte-identity guarantees of the windowed release
// driver carry over unchanged.
type Source interface {
	// TableMeta returns the dataset metadata the per-record formats do
	// not carry (projection center, nominal recording span).
	TableMeta() Meta

	// NumRecords returns the number of records in the source.
	NumRecords() int

	// NumUsers returns the number of distinct subscribers.
	NumUsers() int

	// EachRecord streams every record in order. A non-nil error from fn
	// stops the iteration and is returned unchanged.
	EachRecord(fn func(Record) error) error

	// BuildDataset converts the records into a core fingerprint dataset,
	// exactly as Table.BuildDataset does (same projection, same grid
	// snapping, users emitted in sorted pseudo-identifier order).
	BuildDataset() (*core.Dataset, error)

	// TailWindows is the window cursor of the release pipeline: it
	// partitions only the records at positions [fromRecord, NumRecords())
	// into windows of duration d, with the index/interval semantics of
	// Table.SplitByWindow; TailWindows(0, d) is the full split. The
	// returned slices are window *fragments* — the window executor
	// accumulates fragments per index across appends and concatenates
	// them (in arrival order) when a window closes, which reproduces
	// exactly the record order a full split of the final feed assigns
	// that window, because appends only ever extend the record sequence.
	// Empty fragments are omitted; fragments are sorted by index.
	TailWindows(fromRecord int, d time.Duration) ([]SourceWindow, error)

	// UserShards partitions the source into at most n disjoint sources
	// by the stable user hash of ShardOfUser, never splitting a
	// subscriber. Empty shards are dropped.
	UserShards(n int, seed uint64) []Source
}

// Meta is the dataset-level metadata shared by every Source
// implementation.
type Meta struct {
	// Center is the projection center used when building fingerprints.
	Center geo.LatLon
	// SpanDays is the nominal duration of the recording period.
	SpanDays int
}

// SourceWindow is one time slice of a source produced by TailWindows —
// the Source-level analogue of Window.
type SourceWindow struct {
	// Index is the window's position on the absolute time axis: window i
	// covers minutes [i*w, (i+1)*w).
	Index int
	// StartMinute and EndMinute delimit the half-open window interval.
	StartMinute, EndMinute float64
	// Source holds the window's records in input order.
	Source Source
}

// ShardOfUser returns the shard a subscriber is assigned to by the
// user-hash sharding scheme — shared by Table.ShardByUser and the
// columnar store so both produce identical shard assignments.
func ShardOfUser(user string, shards int, seed uint64) int {
	return int(userHash(user, seed) % uint64(shards))
}

// *Table implements Source directly; the methods below delegate to the
// existing table operations.

// TableMeta returns the table's dataset metadata.
func (t *Table) TableMeta() Meta {
	return Meta{Center: t.Center, SpanDays: t.SpanDays}
}

// NumRecords returns the number of records in the table.
func (t *Table) NumRecords() int { return len(t.Records) }

// NumUsers returns the number of distinct subscribers (Users).
func (t *Table) NumUsers() int { return t.Users() }

// EachRecord streams the table's records in order.
func (t *Table) EachRecord(fn func(Record) error) error {
	for _, r := range t.Records {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// TailWindows implements the streaming window cursor over the in-memory
// table: only Records[fromRecord:] are bucketed.
func (t *Table) TailWindows(fromRecord int, d time.Duration) ([]SourceWindow, error) {
	if fromRecord < 0 || fromRecord > len(t.Records) {
		return nil, fmt.Errorf("cdr: tail cursor %d out of range [0, %d]", fromRecord, len(t.Records))
	}
	wins, err := splitWindows(t.Records[fromRecord:], t.Center, d)
	if err != nil {
		return nil, err
	}
	out := make([]SourceWindow, len(wins))
	for i, w := range wins {
		out[i] = SourceWindow{
			Index:       w.Index,
			StartMinute: w.StartMinute,
			EndMinute:   w.EndMinute,
			Source:      w.Table,
		}
	}
	return out, nil
}

// MaterializeTable collects a source's records into a plain in-memory
// table carrying the source's metadata — the step a follow executor uses
// to fuse accumulated window fragments into one runnable window.
func MaterializeTable(srcs ...Source) (*Table, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("cdr: materialize of zero sources")
	}
	meta := srcs[0].TableMeta()
	total := 0
	for _, s := range srcs {
		total += s.NumRecords()
	}
	t := &Table{
		Records:  make([]Record, 0, total),
		Center:   meta.Center,
		SpanDays: meta.SpanDays,
	}
	for _, s := range srcs {
		if err := s.EachRecord(func(r Record) error {
			t.Records = append(t.Records, r)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// UserShards is ShardByUser lifted to the Source interface.
func (t *Table) UserShards(n int, seed uint64) []Source {
	shards := t.ShardByUser(n, seed)
	out := make([]Source, len(shards))
	for i, s := range shards {
		out[i] = s
	}
	return out
}

// WriteSourceCSV streams a source's records in the raw 4-column CSV
// format, byte-identical to WriteCSV over an equivalent in-memory table
// (both format floats with strconv's shortest exact representation, so
// any backend storing positions and times as float64 round-trips
// identically).
func WriteSourceCSV(w io.Writer, s Source) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "lat", "lon", "minute"}); err != nil {
		return err
	}
	row := make([]string, 4)
	if err := s.EachRecord(func(r Record) error {
		row[0] = r.User
		row[1] = strconv.FormatFloat(r.Pos.Lat, 'f', -1, 64)
		row[2] = strconv.FormatFloat(r.Pos.Lon, 'f', -1, 64)
		row[3] = strconv.FormatFloat(r.Minute, 'f', -1, 64)
		return cw.Write(row)
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
