package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/geo"
)

// Registry holds the datasets the service can anonymize, each in its own
// columnar store (internal/colstore). Ingestion is streaming: records
// are decoded and validated one at a time off the wire straight into the
// store's column chunks, so a multi-gigabyte operator feed never forces a
// []Record or a second copy of the raw body. Datasets are append-only after
// creation (POST /v1/datasets/{id}/records), modeling a continuous
// operator feed; running jobs read copy-on-write snapshots and are
// never affected by appends.
type Registry struct {
	// MaxRecords bounds a dataset's total record count (0 = unlimited).
	// The bound is enforced while streaming, against the store's own
	// committed count inside its append critical section, so an oversized
	// upload fails early, never buffers past the cap, and concurrent
	// appends cannot double-admit.
	MaxRecords int

	// ColumnarByteBudget caps the resident column bytes of each dataset;
	// chunks beyond the budget spill to disk (0 = everything stays
	// resident).
	ColumnarByteBudget int64
	// ColumnarSpillDir holds the columnar spill files ("" = system temp
	// directory).
	ColumnarSpillDir string

	mu     sync.Mutex
	seq    int
	infos  map[string]DatasetInfo
	stores map[string]*colstore.Store
	order  []string
	tel    *Telemetry
	jrnl   *Journal

	// watch holds one broadcast channel per dataset with subscribers,
	// closed and replaced on every append (and on delete) — the wake
	// primitive behind follow jobs. Lazily created by Watch.
	watch map[string]chan struct{}

	// colCounters accumulates spill-path activity across every store ever
	// owned by this registry; shared so the exported fault and
	// spill counters stay monotone as datasets come and go.
	colCounters colstore.Counters
}

// attachTelemetry wires the registry's dataset gauges; NewManager calls
// it so the plain NewRegistry/NewManager wiring is instrumented without
// signature changes. The first telemetry wins; the current totals are
// pushed immediately so gauges are correct even when datasets were
// ingested before the manager existed.
func (g *Registry) attachTelemetry(tel *Telemetry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tel != nil || tel == nil {
		return
	}
	g.tel = tel
	tel.registerColstore(
		func() float64 { return float64(g.colstoreStats().ResidentBytes) },
		func() float64 { return float64(g.colstoreStats().SpilledChunks) },
		func() float64 { return float64(g.colCounters.Faults.Load()) },
		func() float64 { return float64(g.colCounters.Spills.Load()) },
	)
	g.publishTotalsLocked()
}

// AttachJournal starts journaling every registry mutation. Call it
// AFTER Restore: the restore replays journaled CSV through the normal
// ingest paths, and those must not re-journal what they are replaying.
func (g *Registry) AttachJournal(jl *Journal) {
	g.mu.Lock()
	g.jrnl = jl
	g.mu.Unlock()
}

// seqNum exposes the dataset ID counter for journal checkpoints, so a
// restore never reissues the ID of a deleted dataset.
func (g *Registry) seqNum() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seq
}

// Restore rebuilds the registry from a journal replay by streaming each
// recovered dataset's CSV ops through the normal ingest and append
// paths (so span extension and validation behave exactly as they did
// when the bytes first arrived). Must run
// before AttachJournal and before the daemon serves traffic.
func (g *Registry) Restore(st *RecoveredState) error {
	for _, d := range st.Datasets {
		if err := g.restoreDataset(d); err != nil {
			return fmt.Errorf("service: restore dataset %s: %w", d.ID, err)
		}
	}
	g.mu.Lock()
	if st.DatasetSeq > g.seq {
		g.seq = st.DatasetSeq
	}
	g.publishTotalsLocked()
	g.mu.Unlock()
	return nil
}

func (g *Registry) restoreDataset(d *RecoveredDataset) error {
	if len(d.Ops) == 0 {
		return fmt.Errorf("journal entry without record CSV")
	}
	if _, err := g.ingest(bytes.NewReader(d.Ops[0]), d.Name, d.Center, d.SpanDays, d.ID); err != nil {
		return err
	}
	for _, op := range d.Ops[1:] {
		if _, err := g.Append(d.ID, bytes.NewReader(op)); err != nil {
			return err
		}
	}
	g.mu.Lock()
	if info, ok := g.infos[d.ID]; ok {
		info.CreatedAt = d.CreatedAt
		info.UpdatedAt = d.UpdatedAt
		g.infos[d.ID] = info
	}
	g.mu.Unlock()
	return nil
}

// colstoreStats sums the live stores' footprints for the exported
// gauges.
func (g *Registry) colstoreStats() colstore.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sum colstore.Stats
	for _, st := range g.stores {
		s := st.Stats()
		sum.SpilledChunks += s.SpilledChunks
		sum.ResidentBytes += s.ResidentBytes
	}
	return sum
}

// publishTotalsLocked pushes the dataset count and record total to the
// gauges. Caller holds g.mu.
func (g *Registry) publishTotalsLocked() {
	records := 0
	for _, id := range g.order {
		records += g.infos[id].Records
	}
	g.tel.datasetTotals(len(g.order), records)
}

// countingReader counts bytes consumed from an ingestion body so the
// ingest-bytes counter reflects actual wire volume.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewRegistry returns an empty dataset registry.
func NewRegistry() *Registry {
	return &Registry{
		infos:  make(map[string]DatasetInfo),
		stores: make(map[string]*colstore.Store),
		watch:  make(map[string]chan struct{}),
	}
}

// Watch returns a channel closed the next time the dataset changes (an
// append lands or the dataset is deleted), plus whether the dataset
// exists. Follow jobs take the channel BEFORE snapshotting: any append
// racing the snapshot closes this channel, so the subscriber can sleep
// on it without ever missing records. Each wake consumes the channel —
// call Watch again for the next cycle.
func (g *Registry) Watch(id string) (<-chan struct{}, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.infos[id]; !ok {
		return nil, false
	}
	ch, ok := g.watch[id]
	if !ok {
		ch = make(chan struct{})
		g.watch[id] = ch
	}
	return ch, true
}

// wakeLocked broadcasts a dataset change to its watchers (close and
// replace on the next Watch). Caller holds g.mu.
func (g *Registry) wakeLocked(id string) {
	if ch, ok := g.watch[id]; ok {
		close(ch)
		delete(g.watch, id)
	}
}

// Close releases every store's spill file; called at daemon
// shutdown after the manager has stopped all jobs.
func (g *Registry) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	for _, st := range g.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ingest streams a raw record CSV into a new registered dataset. center
// and spanDays are the table metadata the CSV format does not carry.
func (g *Registry) Ingest(r io.Reader, name string, center geo.LatLon, spanDays int) (DatasetInfo, error) {
	return g.ingest(r, name, center, spanDays, "")
}

// journalTee wraps an ingestion body so the raw CSV is retained for the
// journal; when no journal is attached the body streams through
// untouched and nothing is buffered.
func (g *Registry) journalTee(r io.Reader) (io.Reader, *bytes.Buffer) {
	g.mu.Lock()
	jl := g.jrnl
	g.mu.Unlock()
	if jl == nil {
		return r, nil
	}
	var raw bytes.Buffer
	return io.TeeReader(r, &raw), &raw
}

// ingest is Ingest plus an optional forced ID, used by Restore to
// reissue the exact IDs the journal recorded.
func (g *Registry) ingest(r io.Reader, name string, center geo.LatLon, spanDays int, forcedID string) (DatasetInfo, error) {
	if !center.Valid() {
		return DatasetInfo{}, fmt.Errorf("service: invalid dataset center %v", center)
	}
	if spanDays <= 0 {
		return DatasetInfo{}, fmt.Errorf("service: span_days = %d, need > 0", spanDays)
	}
	r, raw := g.journalTee(r)
	cr := &countingReader{r: r}
	rr := cdr.NewRecordReader(cr)
	store := colstore.New(cdr.Meta{Center: center, SpanDays: spanDays}, g.colstoreOptions())
	added, err := store.AppendStream(rr.Next, g.recordCap())
	if err != nil {
		return DatasetInfo{}, g.capErr(err)
	}
	if added == 0 {
		return DatasetInfo{}, fmt.Errorf("service: dataset is empty")
	}

	g.mu.Lock()
	now := time.Now().UTC()
	info := DatasetInfo{
		ID:        g.nextIDLocked(forcedID),
		Name:      name,
		Records:   store.Len(),
		Users:     store.Users(),
		SpanDays:  spanDays,
		Version:   1,
		Center:    center,
		CreatedAt: now,
		UpdatedAt: now,
	}
	g.infos[info.ID] = info
	g.stores[info.ID] = store
	g.order = append(g.order, info.ID)
	if err := g.journalCreateLocked(info, raw); err != nil {
		delete(g.infos, info.ID)
		delete(g.stores, info.ID)
		g.order = g.order[:len(g.order)-1]
		g.mu.Unlock()
		return DatasetInfo{}, err
	}
	g.tel.ingested(added, cr.n)
	g.publishTotalsLocked()
	jl := g.jrnl
	g.mu.Unlock()
	if err := jl.commit(); err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// nextIDLocked issues the next dataset ID, or adopts a forced one
// (journal restore) while keeping the counter ahead of it.
func (g *Registry) nextIDLocked(forced string) string {
	if forced == "" {
		g.seq++
		return fmt.Sprintf("ds-%06d", g.seq)
	}
	if n := idNum("ds-%06d", forced); n > g.seq {
		g.seq = n
	}
	return forced
}

// journalCreateLocked journals a dataset creation inside the registry
// critical section, so journal order always matches ID issue order even
// under concurrent ingests. Caller holds g.mu and fsyncs after release.
func (g *Registry) journalCreateLocked(info DatasetInfo, raw *bytes.Buffer) error {
	if g.jrnl == nil || raw == nil {
		return nil
	}
	return g.jrnl.datasetCreated(info, raw.Bytes())
}

// colstoreOptions assembles the per-store options of a new dataset.
func (g *Registry) colstoreOptions() colstore.Options {
	return colstore.Options{
		ByteBudget: g.ColumnarByteBudget,
		SpillDir:   g.ColumnarSpillDir,
		Counters:   &g.colCounters,
	}
}

// recordCap is MaxRecords as the store's bound on its published total
// (< 0 = unbounded).
func (g *Registry) recordCap() int {
	if g.MaxRecords > 0 {
		return g.MaxRecords
	}
	return -1
}

// capErr translates the store's cap violation into the registry's
// record-cap error.
func (g *Registry) capErr(err error) error {
	if errors.Is(err, colstore.ErrTooManyRecords) {
		return fmt.Errorf("service: dataset exceeds %d records", g.MaxRecords)
	}
	return err
}

// journalAppendLocked journals an append inside the registry critical
// section so journal order matches the dataset's version order. Caller
// holds g.mu.
func (g *Registry) journalAppendLocked(id string, raw *bytes.Buffer, at time.Time) error {
	if g.jrnl == nil || raw == nil {
		return nil
	}
	return g.jrnl.datasetAppended(id, raw.Bytes(), at)
}

// commitAppend fsyncs a journaled append before it is acknowledged. The
// registry.append.committed crash point fires after the fsync: the
// mutation is durable but the client never saw the 200 — re-sending it
// after recovery would double-apply, which is exactly what the crash
// e2e matrix pins down.
func (g *Registry) commitAppend(jl *Journal) error {
	if err := jl.commit(); err != nil {
		return err
	}
	if jl != nil {
		faultinject.Crash("registry.append.committed")
	}
	return nil
}

// Append streams additional records onto a registered dataset and bumps
// its version. The append is atomic: the records are staged invisibly in
// the dataset's store and published only once the whole body has
// decoded and the journal holds it. A decode error, a record-cap
// violation or a journal failure discards them and leaves the dataset,
// its metadata and every snapshot untouched.
func (g *Registry) Append(id string, r io.Reader) (DatasetInfo, error) {
	g.mu.Lock()
	store, ok := g.stores[id]
	g.mu.Unlock()
	if !ok {
		return DatasetInfo{}, fmt.Errorf("service: unknown dataset %q", id)
	}
	r, raw := g.journalTee(r)
	cr := &countingReader{r: r}
	rr := cdr.NewRecordReader(cr)
	maxMinute := 0.0
	next := func() (cdr.Record, error) {
		rec, err := rr.Next()
		if err == nil && rec.Minute > maxMinute {
			maxMinute = rec.Minute
		}
		return rec, err
	}
	p, err := store.Stage(next, g.recordCap())
	if err != nil {
		return DatasetInfo{}, g.capErr(err)
	}
	if p.Added == 0 {
		p.Discard()
		return DatasetInfo{}, fmt.Errorf("service: append without records")
	}

	// Journal, then publish or discard, all under g.mu: SnapshotSource
	// always returns a view and an info of the same version.
	g.mu.Lock()
	info, ok := g.infos[id]
	if !ok {
		// Deleted while the stream was in flight.
		p.Discard()
		g.mu.Unlock()
		return DatasetInfo{}, fmt.Errorf("service: unknown dataset %q", id)
	}
	info.Records = p.Records
	info.Users = p.Users
	info.Version++
	info.UpdatedAt = time.Now().UTC()
	if err := g.journalAppendLocked(id, raw, info.UpdatedAt); err != nil {
		p.Discard()
		g.mu.Unlock()
		return DatasetInfo{}, err
	}
	// Records may extend the recording period; keep the nominal span
	// covering the feed (it feeds rate-based screening downstream).
	if days := int(maxMinute/cdr.MinutesPerDay) + 1; days > info.SpanDays {
		info.SpanDays = days
		store.SetSpanDays(days)
	}
	p.Publish()
	g.infos[id] = info
	g.tel.ingested(p.Added, cr.n)
	g.publishTotalsLocked()
	jl := g.jrnl
	g.mu.Unlock()
	err = g.commitAppend(jl)
	// Wake watchers only once the append is durable, so a woken follow
	// job does not compete with the fsync for CPUs. Watchers subscribe
	// before they snapshot, so a late wake costs at most one spurious
	// re-snapshot and never a missed record.
	g.mu.Lock()
	g.wakeLocked(id)
	g.mu.Unlock()
	if err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// Get returns the metadata of a registered dataset.
func (g *Registry) Get(id string) (DatasetInfo, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	info, ok := g.infos[id]
	return info, ok
}

// SnapshotSource returns a frozen read view of the dataset's records
// together with the metadata of that version: an O(1) view bounded to
// the rows published so far. Later appends never mutate records the
// snapshot can see, so jobs anonymize exactly the version they started
// from.
func (g *Registry) SnapshotSource(id string) (*colstore.View, DatasetInfo, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.stores[id]
	if !ok {
		return nil, DatasetInfo{}, false
	}
	return st.Snapshot(), g.infos[id], true
}

// Delete removes a dataset, journaled and committed before it returns.
// Jobs already holding a snapshot keep running; queued jobs referencing
// the ID fail when they start. The store is unregistered but not closed
// — running jobs may still fault its spilled chunks; the unlinked spill
// file is reclaimed once the last view is garbage collected. A journal
// failure leaves the dataset registered.
func (g *Registry) Delete(id string) error {
	g.mu.Lock()
	if _, ok := g.infos[id]; !ok {
		g.mu.Unlock()
		return api.Errorf(api.CodeDatasetNotFound, "unknown dataset %q", id).With("dataset_id", id)
	}
	if err := g.jrnl.datasetDeleted(id); err != nil {
		g.mu.Unlock()
		return err
	}
	delete(g.infos, id)
	delete(g.stores, id)
	g.order = removeID(g.order, id)
	g.publishTotalsLocked()
	// Wake watchers so follow jobs notice the deletion instead of
	// sleeping forever on a dataset that no longer exists.
	g.wakeLocked(id)
	jl := g.jrnl
	g.mu.Unlock()
	return jl.commit()
}

// List returns all registered datasets in ingestion order.
func (g *Registry) List() []DatasetInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]DatasetInfo, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.infos[id])
	}
	return out
}

// ListPage returns up to limit datasets after the given id (empty =
// from the start) in ingestion order, plus whether more remain — the
// cursor-pagination primitive, copying only the requested page. ok is
// false when after names no current dataset (a stale cursor).
func (g *Registry) ListPage(after string, limit int) (page []DatasetInfo, more, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	start := 0
	if after != "" {
		idx := -1
		for i, id := range g.order {
			if id == after {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, false, false
		}
		start = idx + 1
	}
	end := start + limit
	if end > len(g.order) {
		end = len(g.order)
	}
	for _, id := range g.order[start:end] {
		page = append(page, g.infos[id])
	}
	return page, end < len(g.order), true
}
