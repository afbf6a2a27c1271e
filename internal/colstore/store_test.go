package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
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

func sourceCSV(t *testing.T, s cdr.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cdr.WriteSourceCSV(&buf, s); err != nil {
		t.Fatalf("WriteSourceCSV: %v", err)
	}
	return buf.Bytes()
}

// TestEquivalenceWithTable pins the tentpole invariant: the columnar
// backend is bit-identical to the in-memory table for every Source
// operation — record streams, CSV bytes, fingerprint datasets, window
// splits, and user shards.
func TestEquivalenceWithTable(t *testing.T) {
	recs := testRecords(1000, 37)
	meta := testMeta()
	table := &cdr.Table{Records: recs, Center: meta.Center, SpanDays: meta.SpanDays}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"resident", Options{ChunkRecords: 128}},
		{"spilling", Options{ChunkRecords: 64, ByteBudget: 3 * 64 * bytesPerRecord}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := newTestStore(t, recs, tc.opt).Snapshot()

			if got, want := view.NumRecords(), table.NumRecords(); got != want {
				t.Fatalf("NumRecords = %d, want %d", got, want)
			}
			if got, want := view.NumUsers(), table.NumUsers(); got != want {
				t.Fatalf("NumUsers = %d, want %d", got, want)
			}
			if got, want := view.TableMeta(), table.TableMeta(); got != want {
				t.Fatalf("TableMeta = %+v, want %+v", got, want)
			}
			if got, want := sourceCSV(t, view), sourceCSV(t, table); !bytes.Equal(got, want) {
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
			if !reflect.DeepEqual(vd, td) {
				t.Fatalf("BuildDataset differs between columnar and in-RAM paths")
			}

			const win = 36 * time.Hour
			vw, err := view.TailWindows(0, win)
			if err != nil {
				t.Fatalf("view TailWindows: %v", err)
			}
			tw, err := table.TailWindows(0, win)
			if err != nil {
				t.Fatalf("table TailWindows: %v", err)
			}
			if len(vw) != len(tw) {
				t.Fatalf("TailWindows yields %d windows, want %d", len(vw), len(tw))
			}
			for i := range vw {
				if vw[i].Index != tw[i].Index || vw[i].StartMinute != tw[i].StartMinute || vw[i].EndMinute != tw[i].EndMinute {
					t.Fatalf("window %d bounds differ: %+v vs %+v", i, vw[i], tw[i])
				}
				if got, want := vw[i].Source.TableMeta(), tw[i].Source.TableMeta(); got != want {
					t.Fatalf("window %d meta = %+v, want %+v", i, got, want)
				}
				if got, want := vw[i].Source.NumUsers(), tw[i].Source.NumUsers(); got != want {
					t.Fatalf("window %d users = %d, want %d", i, got, want)
				}
				if got, want := sourceCSV(t, vw[i].Source), sourceCSV(t, tw[i].Source); !bytes.Equal(got, want) {
					t.Fatalf("window %d records differ", i)
				}
			}

			vs := view.UserShards(4, 99)
			ts := table.UserShards(4, 99)
			if len(vs) != len(ts) {
				t.Fatalf("UserShards yields %d shards, want %d", len(vs), len(ts))
			}
			for i := range vs {
				if got, want := vs[i].NumUsers(), ts[i].NumUsers(); got != want {
					t.Fatalf("shard %d users = %d, want %d", i, got, want)
				}
				if got, want := sourceCSV(t, vs[i]), sourceCSV(t, ts[i]); !bytes.Equal(got, want) {
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
	before := sourceCSV(t, s.Snapshot())
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
	if got := sourceCSV(t, s.Snapshot()); !bytes.Equal(got, before) {
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
	before := sourceCSV(t, s.Snapshot())
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
	if got := sourceCSV(t, s.Snapshot()); !bytes.Equal(got, before) {
		t.Fatal("records differ after discard")
	}
	if err := s.Append(recs[40:]...); err != nil {
		t.Fatalf("Append after discard: %v", err)
	}
	if got := sourceCSV(t, snap); !bytes.Equal(got, before) {
		t.Fatal("snapshot taken while staged observed later rows")
	}
	if got, want := sourceCSV(t, s.Snapshot()), sourceCSV(t, newTestStore(t, recs, Options{}).Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("store differs from a fresh one after discard and re-append")
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot
// taken before an append never observes the appended rows, even while
// chunks spill and fault underneath it.
func TestSnapshotIsolation(t *testing.T) {
	recs := testRecords(200, 9)
	s := newTestStore(t, recs[:120], Options{ChunkRecords: 32, ByteBudget: 2 * 32 * bytesPerRecord})
	snap := s.Snapshot()
	want := sourceCSV(t, snap)
	if err := s.Append(recs[120:]...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := sourceCSV(t, snap); !bytes.Equal(got, want) {
		t.Fatalf("snapshot observed appended rows")
	}
	if got, want := snap.NumRecords(), 120; got != want {
		t.Fatalf("snapshot NumRecords = %d, want %d", got, want)
	}
	if got, want := s.Snapshot().NumRecords(), 200; got != want {
		t.Fatalf("fresh snapshot NumRecords = %d, want %d", got, want)
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
				if _, err := snap.TailWindows(0, 24*time.Hour); err != nil {
					t.Errorf("TailWindows: %v", err)
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

// TestTailWindowsEquivalence pins the columnar tail cursor to the
// in-memory table's: identical fragments for every cursor position,
// including cursors that land mid-chunk (the offset arithmetic of the
// chunk-pinning row scan), for both resident and spilling stores.
func TestTailWindowsEquivalence(t *testing.T) {
	recs := testRecords(500, 23)
	meta := testMeta()
	table := &cdr.Table{Records: recs, Center: meta.Center, SpanDays: meta.SpanDays}
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
				tf, err := table.TailWindows(from, win)
				if err != nil {
					t.Fatalf("table tail from %d: %v", from, err)
				}
				if len(vf) != len(tf) {
					t.Fatalf("tail from %d: %d fragments, want %d", from, len(vf), len(tf))
				}
				for i := range vf {
					if vf[i].Index != tf[i].Index || vf[i].StartMinute != tf[i].StartMinute || vf[i].EndMinute != tf[i].EndMinute {
						t.Fatalf("tail from %d fragment %d bounds differ: %+v vs %+v", from, i, vf[i], tf[i])
					}
					if got, want := sourceCSV(t, vf[i].Source), sourceCSV(t, tf[i].Source); !bytes.Equal(got, want) {
						t.Fatalf("tail from %d fragment %d records differ", from, i)
					}
				}
			}
			if _, err := view.TailWindows(-1, win); err == nil {
				t.Error("negative cursor accepted")
			}
			if _, err := view.TailWindows(len(recs)+1, win); err == nil {
				t.Error("cursor past end accepted")
			}
		})
	}
}
