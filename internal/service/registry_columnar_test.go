package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// columnarRegistry returns a registry with a small chunk budget so
// spilling is exercised even by test-sized datasets.
func columnarRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.ColumnarByteBudget = 4 * colstore.DefaultChunkRecords * 28
	reg.ColumnarSpillDir = t.TempDir()
	t.Cleanup(func() { reg.Close() })
	return reg
}

// capCSV builds a record CSV with n rows, one subscriber per 5 rows.
func capCSV(n int) string {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "u%04d,7.5%d,-5.5%d,%d\n", i/5, i%10, i%7, i*3)
	}
	return b.String()
}

// TestColumnarRecordCapBoundary pins the record-cap accounting of the
// columnar path: the cap is enforced against the store's own committed
// count, exactly at the boundary, and violations roll back atomically.
func TestColumnarRecordCapBoundary(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}

	// Ingesting exactly MaxRecords succeeds; one more record fails and
	// registers nothing.
	reg := columnarRegistry(t)
	reg.MaxRecords = 50
	if _, err := reg.Ingest(strings.NewReader(capCSV(51)), "over", center, 1); err == nil {
		t.Fatal("ingest above the cap accepted")
	}
	if got := reg.Count(); got != 0 {
		t.Fatalf("failed ingest left %d datasets registered", got)
	}
	info, err := reg.Ingest(strings.NewReader(capCSV(40)), "at", center, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Appending up to exactly the cap succeeds.
	info2, err := reg.Append(info.ID, strings.NewReader(capCSV(10)))
	if err != nil {
		t.Fatalf("append to exactly the cap: %v", err)
	}
	if info2.Records != 50 {
		t.Fatalf("records at cap = %d, want 50", info2.Records)
	}

	// One more record over the cap fails atomically: count, users and
	// version are untouched.
	if _, err := reg.Append(info.ID, strings.NewReader(capCSV(1))); err == nil {
		t.Fatal("append beyond the cap accepted")
	}
	got, ok := reg.Get(info.ID)
	if !ok {
		t.Fatal("dataset disappeared")
	}
	if got.Records != 50 || got.Version != info2.Version || got.Users != info2.Users {
		t.Fatalf("failed append mutated the dataset: %+v vs %+v", got, info2)
	}

	// The snapshot agrees with the authoritative count.
	src, _, ok := reg.SnapshotSource(info.ID)
	if !ok {
		t.Fatal("snapshot failed")
	}
	if src.NumRecords() != 50 {
		t.Fatalf("snapshot holds %d records, want 50", src.NumRecords())
	}
}

// TestColumnarRegistryEquivalence runs a feed through a spilling
// registry and a sharded windowed job, and requires both to match the
// engine reference: the snapshot streams back the ingested CSV byte for
// byte, and every window release equals planShards + runShards over the
// table's own SplitByWindow.
func TestColumnarRegistryEquivalence(t *testing.T) {
	table := synthTable(t, 40, 2)
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}

	reg := columnarRegistry(t)
	if rep := reg.ColstoreReport(); rep == nil || rep.Datasets != 0 {
		t.Fatalf("fresh registry colstore report: %+v, want Datasets: 0", rep)
	}
	info, err := reg.Ingest(bytes.NewReader(raw.Bytes()), "d", table.Center, table.SpanDays)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(table.Records) || info.Users != table.Users() {
		t.Fatalf("metadata diverges: registry %+v, table %d records %d users",
			info, len(table.Records), table.Users())
	}
	src, _, _ := reg.SnapshotSource(info.ID)
	var snap bytes.Buffer
	if err := cdr.WriteRecordsCSV(&snap, src.EachRecord); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), raw.Bytes()) {
		t.Fatal("snapshot CSV differs from the ingested CSV")
	}

	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 2, WindowHours: 24})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	wins, err := table.SplitByWindow(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Windows) != len(wins) {
		t.Fatalf("window counts diverge: job %d, reference %d", len(final.Windows), len(wins))
	}
	var want core.GloveStats
	for i, w := range wins {
		shards := planShards(tableView(t, w.Table), w.Table.Users(), final.Spec.K, final.Spec.Shards)
		out, _, stats, err := runShards(t.Context(), shards, final.Spec, nil, obs.ActiveSpan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(stats)
		got := final.Windows[i]
		if got.Index != w.Index || got.Records != len(w.Table.Records) ||
			got.Users != w.Table.Users() || got.Groups != out.Len() {
			t.Errorf("window %d diverges: job %+v, reference %d records %d users %d groups",
				w.Index, got, len(w.Table.Records), w.Table.Users(), out.Len())
		}
		var ref bytes.Buffer
		if err := cdr.WriteAnonymizedCSV(&ref, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(releaseCSV(t, mgr, st.ID, w.Index), ref.Bytes()) {
			t.Errorf("window %d release differs from the engine reference", w.Index)
		}
	}
	// Kernel call counts depend on worker counts; compare the
	// deterministic parts of the accounting.
	if final.Stats.Merges != want.Merges ||
		final.Stats.SuppressedSamples != want.SuppressedSamples {
		t.Errorf("stats diverge: job %+v, reference %+v", final.Stats, want)
	}

	// The store reports its footprint in the metrics block.
	if rep := reg.ColstoreReport(); rep == nil || rep.Datasets != 1 {
		t.Fatalf("colstore report missing or wrong: %+v", rep)
	}
}

// TestAppendInvisibleToMidStreamSnapshot pins append atomicity against
// concurrent snapshots: rows of an append still streaming are not in a
// snapshot taken meanwhile, so when the stream then fails its rollback
// cannot pull rows out from under that snapshot, and neither can a later
// append reuse their slots.
func TestAppendInvisibleToMidStreamSnapshot(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	info, err := reg.Ingest(strings.NewReader(capCSV(40)), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := sourceCSV(t, reg, info.ID)

	pr, pw := io.Pipe()
	appendErr := make(chan error, 1)
	go func() {
		_, err := reg.Append(info.ID, pr)
		appendErr <- err
	}()
	var rows strings.Builder
	rows.WriteString("user,lat,lon,minute\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&rows, "v%d,7.5,-5.5,%d\n", i, 200+i)
	}
	if _, err := io.WriteString(pw, rows.String()); err != nil {
		t.Fatal(err)
	}
	// The reader takes this partial row only after it has decoded and
	// appended all ten rows above.
	if _, err := io.WriteString(pw, "bad,7.5,-5.5,"); err != nil {
		t.Fatal(err)
	}
	snap, snapInfo, ok := reg.SnapshotSource(info.ID)
	if !ok {
		t.Fatal("snapshot failed")
	}
	if snap.NumRecords() != 40 || snapInfo.Records != 40 || snapInfo.Version != 1 {
		t.Fatalf("mid-stream snapshot holds %d records (info %+v), want the 40 published",
			snap.NumRecords(), snapInfo)
	}
	io.WriteString(pw, "NaN\n")
	pw.Close()
	if err := <-appendErr; err == nil {
		t.Fatal("append with a NaN minute accepted")
	}
	if got, _ := reg.Get(info.ID); got != info {
		t.Fatalf("failed append changed the dataset: %+v, want %+v", got, info)
	}

	if _, err := reg.Append(info.ID, strings.NewReader(capCSV(10))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdr.WriteRecordsCSV(&buf, snap.EachRecord); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("a later append changed the mid-stream snapshot's records")
	}
	if got, _ := reg.Get(info.ID); got.Records != 50 || got.Version != 2 {
		t.Fatalf("append after the failed one: %+v, want 50 records at version 2", got)
	}
}

// TestAppendJournalFailureLeavesDatasetUnchanged pins that an append the
// journal refuses is not applied: the client's error means nothing
// changed, so a retry cannot apply the rows twice.
func TestAppendJournalFailureLeavesDatasetUnchanged(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, t.TempDir(), ManagerOptions{})
	defer crashClose(mgr, reg, jrnl)
	info, err := reg.Ingest(strings.NewReader(capCSV(40)), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := sourceCSV(t, reg, info.ID)

	jrnl.Close()
	if _, err := reg.Append(info.ID, strings.NewReader(capCSV(10))); err == nil {
		t.Fatal("append accepted with the journal closed")
	}
	if got, _ := reg.Get(info.ID); got != info {
		t.Fatalf("refused append changed the dataset: %+v, want %+v", got, info)
	}
	if _, snapInfo, _ := reg.SnapshotSource(info.ID); snapInfo != info {
		t.Fatalf("snapshot info after refused append: %+v, want %+v", snapInfo, info)
	}
	if !bytes.Equal(sourceCSV(t, reg, info.ID), want) {
		t.Fatal("refused append changed the dataset records")
	}
}

// TestColstoreMetricsExposition pins the colstore instruments on a live
// scrape: a budget of one byte forces every sealed chunk to spill, and
// streaming the snapshot back faults them in, so all four series must
// show real traffic on /metrics and in the /v1/metrics colstore block.
func TestColstoreMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.ColumnarByteBudget = 1
	reg.ColumnarSpillDir = t.TempDir()
	t.Cleanup(func() { reg.Close() })
	mgr := NewManager(reg, ManagerOptions{})
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(NewServer(reg, mgr))
	t.Cleanup(srv.Close)

	// One sealed chunk (DefaultChunkRecords) plus a tail.
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	info, err := reg.Ingest(strings.NewReader(capCSV(colstore.DefaultChunkRecords+100)), "m", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	// After ingest the sealed chunk is spilled, not resident.
	fams := scrape(t, srv.URL)
	if got := value(t, fams, "colstore_resident_bytes", nil); got <= 0 {
		t.Errorf("colstore_resident_bytes = %g, want > 0", got)
	}
	if got := value(t, fams, "colstore_spilled_chunks", nil); got < 1 {
		t.Errorf("colstore_spilled_chunks = %g, want >= 1", got)
	}
	if got := value(t, fams, "colstore_chunk_spills_total", nil); got < 1 {
		t.Errorf("colstore_chunk_spills_total = %g, want >= 1", got)
	}

	// Streaming the snapshot back faults the spilled chunk in.
	src, _, ok := reg.SnapshotSource(info.ID)
	if !ok {
		t.Fatal("snapshot failed")
	}
	if err := cdr.WriteRecordsCSV(io.Discard, src.EachRecord); err != nil {
		t.Fatal(err)
	}
	fams = scrape(t, srv.URL)
	if got := value(t, fams, "colstore_chunk_faults_total", nil); got < 1 {
		t.Errorf("colstore_chunk_faults_total = %g, want >= 1", got)
	}

	var rep api.MetricsReport
	getJSON(t, srv.URL+"/v1/metrics", &rep)
	if rep.Colstore == nil {
		t.Fatal("colstore block missing from /v1/metrics")
	}
	if rep.Colstore.Datasets != 1 || rep.Colstore.ChunkSpills < 1 || rep.Colstore.ChunkFaults < 1 {
		t.Errorf("colstore block does not reflect traffic: %+v", rep.Colstore)
	}
}
