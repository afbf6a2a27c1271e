package cdr

import (
	"testing"
	"time"

	"repro/internal/geo"
)

func windowTable(recs []Record) *Table {
	return &Table{Records: recs, Center: geo.LatLon{Lat: 7.54, Lon: -5.55}, SpanDays: 3}
}

func windowRec(user string, minute float64) Record {
	return Record{User: user, Pos: geo.LatLon{Lat: 7.5, Lon: -5.5}, Minute: minute}
}

func TestAppend(t *testing.T) {
	tab := windowTable(nil)
	if err := tab.Append(windowRec("a", 0), windowRec("b", 10)); err != nil {
		t.Fatal(err)
	}
	if len(tab.Records) != 2 {
		t.Fatalf("appended %d records, want 2", len(tab.Records))
	}

	// A batch with one invalid record must leave the table unchanged.
	err := tab.Append(windowRec("c", 20), Record{User: "", Minute: 30})
	if err == nil {
		t.Fatal("invalid record accepted")
	}
	if len(tab.Records) != 2 {
		t.Fatalf("failed batch still appended: %d records", len(tab.Records))
	}
}

func TestSplitByWindow(t *testing.T) {
	// Two records in window 0, one exactly on the boundary (goes to
	// window 1), none in window 2, one in window 3.
	recs := []Record{
		windowRec("a", 5), windowRec("b", 30), windowRec("a", 60), windowRec("c", 185),
	}
	tab := windowTable(recs)
	wins, err := tab.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3 (empty window omitted)", len(wins))
	}
	wantIdx := []int{0, 1, 3}
	wantLen := []int{2, 1, 1}
	total := 0
	for i, w := range wins {
		if w.Index != wantIdx[i] {
			t.Errorf("window %d has index %d, want %d", i, w.Index, wantIdx[i])
		}
		if len(w.Table.Records) != wantLen[i] {
			t.Errorf("window %d has %d records, want %d", i, len(w.Table.Records), wantLen[i])
		}
		if got := w.EndMinute - w.StartMinute; got != 60 {
			t.Errorf("window %d spans %g minutes, want 60", i, got)
		}
		for _, r := range w.Table.Records {
			if r.Minute < w.StartMinute || r.Minute >= w.EndMinute {
				t.Errorf("window %d [%g, %g) holds record at minute %g",
					i, w.StartMinute, w.EndMinute, r.Minute)
			}
		}
		total += len(w.Table.Records)
	}
	if total != len(recs) {
		t.Errorf("windows hold %d records, want %d", total, len(recs))
	}
	// The boundary record at minute 60 belongs to window 1, not 0.
	if wins[1].Table.Records[0].Minute != 60 {
		t.Errorf("boundary record landed in the wrong window")
	}
}

func TestSplitByWindowSingleWindowPreservesOrder(t *testing.T) {
	recs := []Record{windowRec("b", 3), windowRec("a", 1), windowRec("b", 2), windowRec("c", 50)}
	tab := windowTable(recs)
	wins, err := tab.SplitByWindow(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	for i, r := range wins[0].Table.Records {
		if r != recs[i] {
			t.Fatalf("record %d reordered: %+v != %+v", i, r, recs[i])
		}
	}
}

func TestSplitByWindowRejectsBadDuration(t *testing.T) {
	tab := windowTable([]Record{windowRec("a", 0)})
	for _, d := range []time.Duration{0, -time.Hour} {
		if _, err := tab.SplitByWindow(d); err == nil {
			t.Errorf("duration %v accepted", d)
		}
	}
}
