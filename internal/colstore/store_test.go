package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

func testMeta() cdr.Meta {
	return cdr.Meta{Center: geo.LatLon{Lat: 7.54, Lon: -5.55}, SpanDays: 9}
}

// testRecords builds a deterministic record set spanning several users,
// chunks, and time windows, with coordinates that exercise non-trivial
// float formatting.
func testRecords(n, users int) []cdr.Record {
	recs := make([]cdr.Record, n)
	for i := range recs {
		recs[i] = cdr.Record{
			User:   fmt.Sprintf("u%03d", i%users),
			Pos:    geo.LatLon{Lat: 7.5 + float64(i%17)*0.013, Lon: -5.5 + float64(i%13)*0.017},
			Minute: float64(i) * 7.3,
		}
	}
	return recs
}

func newTestStore(t *testing.T, recs []cdr.Record, opt Options) *Store {
	t.Helper()
	if opt.SpillDir == "" {
		opt.SpillDir = t.TempDir()
	}
	s := New(testMeta(), opt)
	t.Cleanup(func() { s.Close() })
	if err := s.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return s
}

func viewCSV(t *testing.T, v *View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cdr.WriteRecordsCSV(&buf, v.EachRecord); err != nil {
		t.Fatalf("WriteRecordsCSV: %v", err)
	}
	return buf.Bytes()
}

func tableCSV(t *testing.T, tab *cdr.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, tab); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func tableMeta(tab *cdr.Table) cdr.Meta {
	return cdr.Meta{Center: tab.Center, SpanDays: tab.SpanDays}
}

// shardTable is the table-side reference of View.UserShards: every
// record goes to the shard cdr.ShardOfUser assigns its subscriber, in
// record order, and empty shards are dropped.
func shardTable(tab *cdr.Table, n int, seed uint64) []*cdr.Table {
	buckets := make([][]cdr.Record, n)
	for _, r := range tab.Records {
		b := cdr.ShardOfUser(r.User, n, seed)
		buckets[b] = append(buckets[b], r)
	}
	var out []*cdr.Table
	for _, recs := range buckets {
		if len(recs) > 0 {
			out = append(out, &cdr.Table{Records: recs, Center: tab.Center, SpanDays: tab.SpanDays})
		}
	}
	return out
}

// TestEquivalenceWithTable pins the tentpole invariant: every view
// operation is bit-identical to its in-memory table reference — record
// streams, CSV bytes, fingerprint datasets, window splits
// (SplitByWindow), and user shards (cdr.ShardOfUser).
func TestEquivalenceWithTable(t *testing.T) {
	testEquivalenceWithTable(t, testRecords(1000, 37), testMeta())
}

// TestEquivalenceWithTableSignedZeros runs the same equivalence, bit for
// bit, on the inputs the build's projection memo and skipped sort meet
// at their edges: ±0 latitudes and longitudes around a (0, 0) center
// (distinct memo keys that project alike), and repeated positions and
// minutes (equal sort keys, already in order or not).
func TestEquivalenceWithTableSignedZeros(t *testing.T) {
	testEquivalenceWithTable(t, zeroRecords(600, 11), cdr.Meta{SpanDays: 9})
}

// zeroRecords builds records at ±0 and repeated coordinates around
// (0, 0), with many records per user sharing a minute.
func zeroRecords(n, users int) []cdr.Record {
	zero := []float64{0, math.Copysign(0, -1), 0.0004, -0.0004}
	recs := make([]cdr.Record, n)
	for i := range recs {
		recs[i] = cdr.Record{
			User:   fmt.Sprintf("z%02d", i%users),
			Pos:    geo.LatLon{Lat: zero[i%4], Lon: zero[i/4%4]},
			Minute: float64(i / 40),
		}
	}
	return recs
}

// sameBits reports whether two datasets are equal down to every float's
// bit pattern (reflect.DeepEqual takes -0 == +0).
func sameBits(a, b *core.Dataset) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, f := range a.Fingerprints {
		g := b.Fingerprints[i]
		if f.ID != g.ID || f.Count != g.Count || !reflect.DeepEqual(f.Members, g.Members) || f.Len() != g.Len() {
			return false
		}
		for j, s := range f.Samples {
			o := g.Samples[j]
			for k, v := range [...]float64{s.X, s.DX, s.Y, s.DY, s.T, s.DT} {
				if math.Float64bits(v) != math.Float64bits([...]float64{o.X, o.DX, o.Y, o.DY, o.T, o.DT}[k]) {
					return false
				}
			}
			if s.Weight != o.Weight {
				return false
			}
		}
	}
	return true
}

func testEquivalenceWithTable(t *testing.T, recs []cdr.Record, meta cdr.Meta) {
	table := &cdr.Table{Records: recs, Center: meta.Center, SpanDays: meta.SpanDays}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"resident", Options{ChunkRecords: 128}},
		{"spilling", Options{ChunkRecords: 64, ByteBudget: 3 * 64 * bytesPerRecord}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opt.SpillDir == "" {
				tc.opt.SpillDir = t.TempDir()
			}
			store := New(meta, tc.opt)
			t.Cleanup(func() { store.Close() })
			if err := store.Append(recs...); err != nil {
				t.Fatalf("Append: %v", err)
			}
			view := store.Snapshot()

			if got, want := view.NumRecords(), len(table.Records); got != want {
				t.Fatalf("NumRecords = %d, want %d", got, want)
			}
			if got, want := view.NumUsers(), table.Users(); got != want {
				t.Fatalf("NumUsers = %d, want %d", got, want)
			}
			if got, want := view.TableMeta(), tableMeta(table); got != want {
				t.Fatalf("TableMeta = %+v, want %+v", got, want)
			}
			if got, want := viewCSV(t, view), tableCSV(t, table); !bytes.Equal(got, want) {
				t.Fatalf("CSV round-trip differs between columnar and in-RAM paths")
			}

			vd, err := view.BuildDataset()
			if err != nil {
				t.Fatalf("view BuildDataset: %v", err)
			}
			td, err := table.BuildDataset()
			if err != nil {
				t.Fatalf("table BuildDataset: %v", err)
			}
			if !sameBits(vd, td) {
				t.Fatalf("BuildDataset differs between columnar and in-RAM paths")
			}

			const win = 36 * time.Hour
			vw, err := view.TailWindows(0, win)
			if err != nil {
				t.Fatalf("view TailWindows: %v", err)
			}
			tw, err := table.SplitByWindow(win)
			if err != nil {
				t.Fatalf("table SplitByWindow: %v", err)
			}
			if len(vw) != len(tw) {
				t.Fatalf("TailWindows yields %d windows, want %d", len(vw), len(tw))
			}
			for i := range vw {
				if vw[i].Index != tw[i].Index || vw[i].StartMinute != tw[i].StartMinute || vw[i].EndMinute != tw[i].EndMinute {
					t.Fatalf("window %d bounds differ: %+v vs %+v", i, vw[i], tw[i])
				}
				if got, want := vw[i].View.TableMeta(), tableMeta(tw[i].Table); got != want {
					t.Fatalf("window %d meta = %+v, want %+v", i, got, want)
				}
				if got, want := vw[i].View.NumUsers(), tw[i].Table.Users(); got != want {
					t.Fatalf("window %d users = %d, want %d", i, got, want)
				}
				if got, want := viewCSV(t, vw[i].View), tableCSV(t, tw[i].Table); !bytes.Equal(got, want) {
					t.Fatalf("window %d records differ", i)
				}
			}

			vs := view.UserShards(4, 99)
			ts := shardTable(table, 4, 99)
			if len(vs) != len(ts) {
				t.Fatalf("UserShards yields %d shards, want %d", len(vs), len(ts))
			}
			for i := range vs {
				if got, want := vs[i].NumUsers(), ts[i].Users(); got != want {
					t.Fatalf("shard %d users = %d, want %d", i, got, want)
				}
				if got, want := viewCSV(t, vs[i]), tableCSV(t, ts[i]); !bytes.Equal(got, want) {
					t.Fatalf("shard %d records differ", i)
				}
			}
		})
	}
}

// TestSpillRespectsBudget pins the memory bound: with a budget of three
// chunks, the store spills the rest, every read still sees every
// record, and the resident footprint never exceeds the budget once the
// working set is sealed.
func TestSpillRespectsBudget(t *testing.T) {
	const chunk = 64
	budget := int64(3 * chunk * bytesPerRecord)
	var counters Counters
	recs := testRecords(10*chunk+7, 11)
	s := newTestStore(t, recs, Options{ChunkRecords: chunk, ByteBudget: budget, Counters: &counters})

	st := s.Stats()
	if st.SpilledChunks == 0 {
		t.Fatalf("no chunks spilled under budget %d: %+v", budget, st)
	}
	// The unsealed tail is always resident, so the bound is budget plus
	// at most one chunk.
	if max := budget + int64(chunk*bytesPerRecord); st.ResidentBytes > max {
		t.Fatalf("resident bytes %d exceed budget bound %d", st.ResidentBytes, max)
	}
	if counters.Spills.Load() == 0 {
		t.Fatalf("spill counter not incremented")
	}

	var got []cdr.Record
	if err := s.Snapshot().EachRecord(func(r cdr.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("EachRecord: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("scan over spilled store lost or reordered records")
	}
	if counters.Faults.Load() == 0 {
		t.Fatalf("fault counter not incremented by a scan over spilled chunks")
	}
	if st := s.Stats(); st.ResidentBytes > budget+int64(chunk*bytesPerRecord) {
		t.Fatalf("resident bytes %d exceed budget after scan", st.ResidentBytes)
	}
}

// TestAppendStreamRollback pins the atomicity contract: a mid-stream
// error leaves the store byte-identical to its pre-append state,
// including the user dictionary.
func TestAppendStreamRollback(t *testing.T) {
	recs := testRecords(150, 7)
	s := newTestStore(t, recs, Options{ChunkRecords: 64})
	before := viewCSV(t, s.Snapshot())
	usersBefore := s.Users()

	boom := errors.New("boom")
	extra := testRecords(100, 40) // new users that must be rolled back
	i := 0
	_, err := s.AppendStream(func() (cdr.Record, error) {
		if i == len(extra) {
			return cdr.Record{}, boom
		}
		r := extra[i]
		i++
		return r, nil
	}, -1)
	if !errors.Is(err, boom) {
		t.Fatalf("AppendStream error = %v, want %v", err, boom)
	}
	if got := s.Len(); got != len(recs) {
		t.Fatalf("Len after rollback = %d, want %d", got, len(recs))
	}
	if got := s.Users(); got != usersBefore {
		t.Fatalf("Users after rollback = %d, want %d", got, usersBefore)
	}
	if got := viewCSV(t, s.Snapshot()); !bytes.Equal(got, before) {
		t.Fatalf("records differ after rollback")
	}

	// The rolled-back dictionary entries must be reusable: appending the
	// same users again must succeed and count them once.
	if err := s.Append(extra[:10]...); err != nil {
		t.Fatalf("Append after rollback: %v", err)
	}
	if got, want := s.Len(), len(recs)+10; got != want {
		t.Fatalf("Len after re-append = %d, want %d", got, want)
	}
}

// TestAppendStreamRoom pins the cap boundary: exactly room records are
// admitted, one more fails with ErrTooManyRecords and rolls back.
func TestAppendStreamRoom(t *testing.T) {
	s := newTestStore(t, nil, Options{ChunkRecords: 16})
	recs := testRecords(33, 5)
	feed := func(rs []cdr.Record) func() (cdr.Record, error) {
		i := 0
		return func() (cdr.Record, error) {
			if i == len(rs) {
				return cdr.Record{}, io.EOF
			}
			r := rs[i]
			i++
			return r, nil
		}
	}
	added, err := s.AppendStream(feed(recs[:20]), 20)
	if err != nil || added != 20 {
		t.Fatalf("AppendStream at exactly room: added=%d err=%v", added, err)
	}
	if _, err := s.AppendStream(feed(recs[20:]), 12); !errors.Is(err, ErrTooManyRecords) {
		t.Fatalf("AppendStream beyond room: err=%v, want ErrTooManyRecords", err)
	}
	if got := s.Len(); got != 20 {
		t.Fatalf("Len after cap violation = %d, want 20 (rollback)", got)
	}
}

// TestStageInvisibleAndDiscardable pins the staged-append contract: a
// staged append is invisible to every reader until it is published, and
// discarding it restores the store even when it filled the partial tail
// chunk past a budget that spills every other sealed chunk.
func TestStageInvisibleAndDiscardable(t *testing.T) {
	recs := testRecords(120, 9)
	s := newTestStore(t, recs[:40], Options{ChunkRecords: 16, ByteBudget: 16 * bytesPerRecord})
	before := viewCSV(t, s.Snapshot())
	i := 40
	p, err := s.Stage(func() (cdr.Record, error) {
		if i == len(recs) {
			return cdr.Record{}, io.EOF
		}
		i++
		return recs[i-1], nil
	}, -1)
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	if p.Added != 80 || p.Records != 120 {
		t.Fatalf("staged added=%d records=%d, want 80 and 120", p.Added, p.Records)
	}
	snap := s.Snapshot()
	if s.Len() != 40 || s.Stats().Records != 40 || snap.NumRecords() != 40 {
		t.Fatalf("staged rows visible: Len %d, Stats %d, snapshot %d", s.Len(), s.Stats().Records, snap.NumRecords())
	}
	p.Discard()
	if got := viewCSV(t, s.Snapshot()); !bytes.Equal(got, before) {
		t.Fatal("records differ after discard")
	}
	if err := s.Append(recs[40:]...); err != nil {
		t.Fatalf("Append after discard: %v", err)
	}
	if got := viewCSV(t, snap); !bytes.Equal(got, before) {
		t.Fatal("snapshot taken while staged observed later rows")
	}
	if got, want := viewCSV(t, s.Snapshot()), viewCSV(t, newTestStore(t, recs, Options{}).Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("store differs from a fresh one after discard and re-append")
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot
// taken before an append never observes the appended rows, even while
// chunks spill and fault underneath it. A later snapshot cut back to
// the earlier one's record count is that snapshot again — rows, user
// count and dictionary — although the append brought new users.
func TestSnapshotIsolation(t *testing.T) {
	recs := testRecords(200, 9)
	for i := range recs[120:] {
		recs[120+i].User = fmt.Sprintf("n%03d", i%5)
	}
	s := newTestStore(t, recs[:120], Options{ChunkRecords: 32, ByteBudget: 2 * 32 * bytesPerRecord})
	snap := s.Snapshot()
	want := viewCSV(t, snap)
	if err := s.Append(recs[120:]...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := viewCSV(t, snap); !bytes.Equal(got, want) {
		t.Fatalf("snapshot observed appended rows")
	}
	if got, want := snap.NumRecords(), 120; got != want {
		t.Fatalf("snapshot NumRecords = %d, want %d", got, want)
	}
	if got, want := s.Snapshot().NumRecords(), 200; got != want {
		t.Fatalf("fresh snapshot NumRecords = %d, want %d", got, want)
	}
	cut, err := s.Snapshot().Prefix(snap.NumRecords())
	if err != nil {
		t.Fatalf("Prefix: %v", err)
	}
	if !reflect.DeepEqual(cut, snap) {
		t.Fatalf("prefix = %d records, %d users, dict %d; want %d, %d, %d",
			cut.NumRecords(), cut.NumUsers(), len(cut.dict), snap.NumRecords(), snap.NumUsers(), len(snap.dict))
	}
	if _, err := snap.Prefix(snap.NumRecords() + 1); err == nil {
		t.Error("prefix past the snapshot's end accepted")
	}
}

// TestConcurrentReadersAndAppends exercises the pin/evict/append
// machinery under the race detector: several goroutines scan, split and
// shard snapshots while appends land, all over a store small enough
// that every reader faults spilled chunks continuously.
func TestConcurrentReadersAndAppends(t *testing.T) {
	recs := testRecords(600, 23)
	s := newTestStore(t, recs[:300], Options{ChunkRecords: 32, ByteBudget: 2 * 32 * bytesPerRecord})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		snap := s.Snapshot()
		wantLen := snap.NumRecords()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				n := 0
				if err := snap.EachRecord(func(r cdr.Record) error {
					n++
					return nil
				}); err != nil {
					t.Errorf("EachRecord: %v", err)
					return
				}
				if n != wantLen {
					t.Errorf("scan saw %d records, want %d", n, wantLen)
					return
				}
				wins, err := snap.TailWindows(0, 24*time.Hour)
				if err != nil {
					t.Errorf("TailWindows: %v", err)
					return
				}
				views := make([]*View, len(wins))
				for i, w := range wins {
					views[i] = w.View
				}
				if got := Concat(views...).NumRecords(); got != wantLen {
					t.Errorf("Concat of windows holds %d records, want %d", got, wantLen)
					return
				}
				snap.UserShards(3, 7)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 300; i < 600; i += 50 {
			if err := s.Append(recs[i : i+50]...); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := s.Len(); got != 600 {
		t.Fatalf("Len = %d, want 600", got)
	}
}

// TestTailWindowsEquivalence pins the tail cursor to its reference:
// TailWindows(from, d) is SplitByWindow over Records[from:] — same
// windows, records, users and metadata — for every cursor position,
// including cursors that land mid-chunk (the offset arithmetic of the
// chunk-pinning row scan), for both resident and spilling stores.
func TestTailWindowsEquivalence(t *testing.T) {
	recs := testRecords(500, 23)
	meta := testMeta()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"resident", Options{ChunkRecords: 64}},
		{"spilling", Options{ChunkRecords: 64, ByteBudget: 2 * 64 * bytesPerRecord}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := newTestStore(t, recs, tc.opt).Snapshot()
			const win = 12 * time.Hour
			// 0 = full range; 37, 129, 200 land mid-chunk; 448 inside the
			// last partial chunk; 500 = at end.
			for _, from := range []int{0, 37, 64, 129, 200, 448, 500} {
				vf, err := view.TailWindows(from, win)
				if err != nil {
					t.Fatalf("view tail from %d: %v", from, err)
				}
				tail := &cdr.Table{Records: recs[from:], Center: meta.Center, SpanDays: meta.SpanDays}
				tf, err := tail.SplitByWindow(win)
				if err != nil {
					t.Fatalf("table split from %d: %v", from, err)
				}
				if len(vf) != len(tf) {
					t.Fatalf("tail from %d: %d fragments, want %d", from, len(vf), len(tf))
				}
				for i := range vf {
					if vf[i].Index != tf[i].Index || vf[i].StartMinute != tf[i].StartMinute || vf[i].EndMinute != tf[i].EndMinute {
						t.Fatalf("tail from %d fragment %d bounds differ: %+v vs %+v", from, i, vf[i], tf[i])
					}
					if got, want := viewCSV(t, vf[i].View), tableCSV(t, tf[i].Table); !bytes.Equal(got, want) {
						t.Fatalf("tail from %d fragment %d records differ", from, i)
					}
					if got, want := vf[i].View.NumUsers(), tf[i].Table.Users(); got != want {
						t.Fatalf("tail from %d fragment %d users = %d, want %d", from, i, got, want)
					}
					if got, want := vf[i].View.TableMeta(), tableMeta(tf[i].Table); got != want {
						t.Fatalf("tail from %d fragment %d meta = %+v, want %+v", from, i, got, want)
					}
				}
			}
		})
	}
}

// A cursor at record zero is the full split: TailWindows(0, d) is the
// partition SplitByWindow gives, window for window and record for
// record — the windowed executor's frozen mode buckets its snapshot
// this way. A cursor at the end yields no fragments and no error.
func TestTailWindowsFullRangeMatchesWindowSplit(t *testing.T) {
	meta := testMeta()
	rec := func(user string, minute float64) cdr.Record {
		return cdr.Record{User: user, Pos: meta.Center, Minute: minute}
	}
	recs := []cdr.Record{rec("a", 5), rec("b", 65), rec("c", 185), rec("d", 70)}
	tab := &cdr.Table{Records: recs, Center: meta.Center, SpanDays: meta.SpanDays}
	split, err := tab.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	view := newTestStore(t, recs, Options{}).Snapshot()
	tail, err := view.TailWindows(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(split) {
		t.Fatalf("%d tail windows vs %d split windows", len(tail), len(split))
	}
	for i := range split {
		if tail[i].Index != split[i].Index ||
			tail[i].StartMinute != split[i].StartMinute ||
			tail[i].EndMinute != split[i].EndMinute {
			t.Fatalf("window %d header differs: %+v vs %+v", i, tail[i], split[i])
		}
		var got []cdr.Record
		if err := tail[i].View.EachRecord(func(r cdr.Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, split[i].Table.Records) {
			t.Fatalf("window %d records differ: %+v vs %+v", i, got, split[i].Table.Records)
		}
		if got, want := tail[i].View.TableMeta(), tableMeta(split[i].Table); got != want {
			t.Fatalf("window %d meta = %+v, want %+v", i, got, want)
		}
	}
	empty, err := view.TailWindows(len(recs), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("cursor at end produced %d fragments", len(empty))
	}
}

// Negative and past-end cursors and a zero window length are rejected,
// for both resident and spilling stores.
func TestTailWindowsErrors(t *testing.T) {
	recs := testRecords(200, 7)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"resident", Options{ChunkRecords: 64}},
		{"spilling", Options{ChunkRecords: 64, ByteBudget: 2 * 64 * bytesPerRecord}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := newTestStore(t, recs, tc.opt).Snapshot()
			if _, err := view.TailWindows(-1, time.Hour); err == nil {
				t.Error("negative cursor accepted")
			}
			if _, err := view.TailWindows(len(recs)+1, time.Hour); err == nil {
				t.Error("cursor past end accepted")
			}
			if _, err := view.TailWindows(0, 0); err == nil {
				t.Error("zero duration accepted")
			}
		})
	}
}

// feedRecords builds a feed whose timestamps jump back and forth across
// 6-hour windows and whose subscriber population grows as it goes, so
// fragments of one window span several appends and later snapshots
// carry longer user dictionaries than earlier ones.
func feedRecords(n int) []cdr.Record {
	rng := rand.New(rand.NewSource(5))
	recs := make([]cdr.Record, n)
	for i := range recs {
		recs[i] = cdr.Record{
			User:   fmt.Sprintf("u%03d", rng.Intn(5+i/10)),
			Pos:    geo.LatLon{Lat: 7.5 + rng.Float64()*0.2, Lon: -5.6 + rng.Float64()*0.2},
			Minute: float64(rng.Intn(48 * 60)),
		}
	}
	return recs
}

// TestTailWindowsFragmentsReassemble pins the follow executor's fusion
// step: fragments a tail cursor hands out across a sequence of appends
// and snapshots, fused per window with Concat in arrival order, are the
// window a cold SplitByWindow of the final feed gives — same records,
// users and metadata, and bit-identical fingerprints. Concat keeps
// argument order even against store order: the union of every window
// in descending index order builds the fingerprints of those records in
// that order.
func TestTailWindowsFragmentsReassemble(t *testing.T) {
	recs := feedRecords(400)
	meta := testMeta()
	feed := &cdr.Table{Records: recs, Center: meta.Center, SpanDays: meta.SpanDays}
	const win = 6 * time.Hour
	full, err := feed.SplitByWindow(win)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"resident", Options{ChunkRecords: 64}},
		{"spilling", Options{ChunkRecords: 64, ByteBudget: 2 * 64 * bytesPerRecord}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t, nil, tc.opt)
			// Appends of 37, 0, 113, 140 and 110 records; cuts land
			// mid-chunk, and one append is empty.
			cursors := []int{0, 37, 37, 150, 290, len(recs)}
			frags := map[int][]*View{}
			for c := 0; c+1 < len(cursors); c++ {
				from, to := cursors[c], cursors[c+1]
				if err := s.Append(recs[from:to]...); err != nil {
					t.Fatal(err)
				}
				tail, err := s.Snapshot().TailWindows(from, win)
				if err != nil {
					t.Fatalf("tail from %d: %v", from, err)
				}
				if from == to && len(tail) != 0 {
					t.Fatalf("empty append produced %d fragments", len(tail))
				}
				last := -1
				for _, f := range tail {
					if f.Index <= last {
						t.Fatalf("fragments not sorted by index: %d after %d", f.Index, last)
					}
					last = f.Index
					if f.View.NumRecords() == 0 {
						t.Fatalf("tail from %d emitted empty fragment %d", from, f.Index)
					}
					frags[f.Index] = append(frags[f.Index], f.View)
				}
			}
			if len(frags) != len(full) {
				t.Fatalf("reassembled %d windows, want %d", len(frags), len(full))
			}
			var union []*View
			reversed := &cdr.Table{Center: meta.Center, SpanDays: cdr.WindowSpanDays(win.Minutes())}
			for i := len(full) - 1; i >= 0; i-- {
				w := full[i]
				if len(frags[w.Index]) < 2 {
					t.Fatalf("window %d arrived in %d fragment(s); the feed must spread it", w.Index, len(frags[w.Index]))
				}
				fused := Concat(frags[w.Index]...)
				assertViewEqualsTable(t, fmt.Sprintf("window %d", w.Index), fused, w.Table)
				union = append(union, fused)
				reversed.Records = append(reversed.Records, w.Table.Records...)
			}
			assertViewEqualsTable(t, "union", Concat(union...), reversed)
		})
	}
	if Concat() != nil {
		t.Error("Concat of no views is not nil")
	}
}

// assertViewEqualsTable requires a view to hold exactly the table's
// records, users and metadata, and to build bit-identical fingerprints.
func assertViewEqualsTable(t *testing.T, what string, v *View, tab *cdr.Table) {
	t.Helper()
	if got, want := viewCSV(t, v), tableCSV(t, tab); !bytes.Equal(got, want) {
		t.Fatalf("%s: records differ", what)
	}
	if got, want := v.NumRecords(), len(tab.Records); got != want {
		t.Fatalf("%s: %d records, want %d", what, got, want)
	}
	if got, want := v.NumUsers(), tab.Users(); got != want {
		t.Fatalf("%s: %d users, want %d", what, got, want)
	}
	if got, want := v.TableMeta(), tableMeta(tab); got != want {
		t.Fatalf("%s: meta %+v, want %+v", what, got, want)
	}
	vd, err := v.BuildDataset()
	if err != nil {
		t.Fatalf("%s: view BuildDataset: %v", what, err)
	}
	td, err := tab.BuildDataset()
	if err != nil {
		t.Fatalf("%s: table BuildDataset: %v", what, err)
	}
	if !reflect.DeepEqual(vd, td) {
		t.Fatalf("%s: BuildDataset differs", what)
	}
}
