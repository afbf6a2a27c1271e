package cdr

import (
	"reflect"
	"testing"
	"time"
)

// collectRecords drains a source into a slice.
func collectRecords(t *testing.T, s Source) []Record {
	t.Helper()
	var recs []Record
	if err := s.EachRecord(func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TailWindows is the streaming cursor: fragments accumulated per window
// index across a sequence of cursor positions, concatenated in arrival
// order, must reproduce exactly what SplitByWindow assigns each window
// over the full feed.
func TestTailWindowsFragmentsReassemble(t *testing.T) {
	// Arrival order interleaves windows: the feed delivers records for
	// windows 0, 2, 0, 1, 3, ... so fragments of one window span several
	// appends and indexes appear out of order within an append.
	recs := []Record{
		windowRec("a", 5), windowRec("b", 130), windowRec("c", 12),
		windowRec("a", 70), windowRec("d", 200), windowRec("b", 45),
		windowRec("e", 61), windowRec("c", 199), windowRec("a", 30),
	}
	tab := windowTable(recs)
	full, err := tab.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// Cursor positions simulating appends of 2, 0, 4 and 3 records. Each
	// iteration sees the table as it stood after the append (recs[:to])
	// and tails from where the previous iteration left off.
	cursors := []int{0, 2, 2, 6, len(recs)}
	byIndex := map[int][]Record{}
	for c := 0; c+1 < len(cursors); c++ {
		from, to := cursors[c], cursors[c+1]
		part := windowTable(recs[:to])
		frags, err := part.TailWindows(from, time.Hour)
		if err != nil {
			t.Fatalf("tail from %d: %v", from, err)
		}
		if from == to && len(frags) != 0 {
			t.Fatalf("empty append produced %d fragments", len(frags))
		}
		last := -1
		for _, f := range frags {
			if f.Index <= last {
				t.Fatalf("fragments not sorted by index: %d after %d", f.Index, last)
			}
			last = f.Index
			if f.Source.NumRecords() == 0 {
				t.Fatalf("tail from %d emitted empty fragment %d", from, f.Index)
			}
			byIndex[f.Index] = append(byIndex[f.Index], collectRecords(t, f.Source)...)
		}
	}

	if len(byIndex) != len(full) {
		t.Fatalf("reassembled %d windows, want %d", len(byIndex), len(full))
	}
	for _, w := range full {
		want := w.Table.Records
		got := byIndex[w.Index]
		if len(got) != len(want) {
			t.Fatalf("window %d reassembled %d records, want %d", w.Index, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %d record %d: %+v != %+v", w.Index, i, got[i], want[i])
			}
		}
	}
}

// A cursor at record zero is the full split: TailWindows(0, d) is the
// partition SplitByWindow gives, window for window and record for
// record — the windowed executor's frozen mode buckets its snapshot
// this way.
func TestTailWindowsFullRangeMatchesWindowSplit(t *testing.T) {
	recs := []Record{windowRec("a", 5), windowRec("b", 65), windowRec("c", 185), windowRec("d", 70)}
	tab := windowTable(recs)
	split, err := tab.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := tab.TailWindows(0, time.Hour)
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
		if got := collectRecords(t, tail[i].Source); !reflect.DeepEqual(got, split[i].Table.Records) {
			t.Fatalf("window %d records differ: %+v vs %+v", i, got, split[i].Table.Records)
		}
		if got, want := tail[i].Source.TableMeta(), split[i].Table.TableMeta(); got != want {
			t.Fatalf("window %d meta = %+v, want %+v", i, got, want)
		}
	}
	// Cursor at the end: no fragments, no error.
	empty, err := tab.TailWindows(len(recs), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("cursor at end produced %d fragments", len(empty))
	}
}

func TestTailWindowsErrors(t *testing.T) {
	tab := windowTable([]Record{windowRec("a", 0)})
	if _, err := tab.TailWindows(-1, time.Hour); err == nil {
		t.Error("negative cursor accepted")
	}
	if _, err := tab.TailWindows(2, time.Hour); err == nil {
		t.Error("cursor past end accepted")
	}
	if _, err := tab.TailWindows(0, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestMaterializeTable(t *testing.T) {
	recs := []Record{windowRec("a", 5), windowRec("b", 30), windowRec("c", 70)}
	tab := windowTable(recs)
	frags, err := tab.TailWindows(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]Source, len(frags))
	for i, f := range frags {
		srcs[i] = f.Source
	}
	m, err := MaterializeTable(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	// Fragments carry per-window metadata (a 1-hour window spans 1 day,
	// not the feed's 3), exactly like cold SplitByWindow windows — the
	// materialized window must preserve it so follow and cold windowed
	// runs build fingerprints from identical tables.
	if m.Center != tab.Center || m.SpanDays != frags[0].Source.TableMeta().SpanDays {
		t.Fatalf("metadata lost: %+v", m)
	}
	if len(m.Records) != len(recs) {
		t.Fatalf("materialized %d records, want %d", len(m.Records), len(recs))
	}
	if _, err := MaterializeTable(); err == nil {
		t.Error("zero sources accepted")
	}
}
