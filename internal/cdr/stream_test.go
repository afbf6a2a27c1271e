package cdr

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/geo"
)

func streamTestTable() *Table {
	return &Table{
		Center:   geo.LatLon{Lat: 7.5, Lon: -5.5},
		SpanDays: 2,
		Records: []Record{
			{User: "a", Pos: geo.LatLon{Lat: 7.51, Lon: -5.52}, Minute: 10},
			{User: "b", Pos: geo.LatLon{Lat: 7.52, Lon: -5.51}, Minute: 20},
			{User: "a", Pos: geo.LatLon{Lat: 7.53, Lon: -5.50}, Minute: 30},
			{User: "c", Pos: geo.LatLon{Lat: 7.54, Lon: -5.49}, Minute: 40},
		},
	}
}

func TestRecordReaderRoundTrip(t *testing.T) {
	table := streamTestTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	var got []Record
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != len(table.Records) {
		t.Fatalf("read %d records, want %d", len(got), len(table.Records))
	}
	for i, rec := range got {
		if rec != table.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, rec, table.Records[i])
		}
	}
	// EOF is sticky.
	if _, err := rr.Next(); err != io.EOF {
		t.Errorf("post-EOF Next err = %v", err)
	}
}

func TestRecordReaderErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":   "not,a,valid,header\na,1,2,3\n",
		"bad lat":      "user,lat,lon,minute\na,nope,2,3\n",
		"bad lon":      "user,lat,lon,minute\na,1,nope,3\n",
		"bad minute":   "user,lat,lon,minute\na,1,2,nope\n",
		"empty user":   "user,lat,lon,minute\n,1,2,3\n",
		"bad position": "user,lat,lon,minute\na,400,2,3\n",
		"neg time":     "user,lat,lon,minute\na,1,2,-3\n",
		"short row":    "user,lat,lon,minute\na,1,2\n",
	}
	for name, csv := range cases {
		rr := NewRecordReader(strings.NewReader(csv))
		var err error
		for err == nil {
			_, err = rr.Next()
		}
		if err == io.EOF {
			t.Errorf("%s: accepted", name)
			continue
		}
		// Errors are sticky too.
		if _, err2 := rr.Next(); err2 != err {
			t.Errorf("%s: error not sticky: %v then %v", name, err, err2)
		}
	}
}

// Non-finite and out-of-range minutes parse as floats but must not
// become records: a window index int(minute / w) computed from them is
// meaningless or overflows. MaxMinute itself is accepted.
func TestRecordReaderRejectsOutOfRangeMinutes(t *testing.T) {
	for _, minute := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity", "1e300", "100000001", "-0.5"} {
		rr := NewRecordReader(strings.NewReader("user,lat,lon,minute\na,1,2," + minute + "\n"))
		if rec, err := rr.Next(); err == nil {
			t.Errorf("minute %q accepted as %+v", minute, rec)
		} else if !strings.Contains(err.Error(), "outside [0, 1e+08] minutes") {
			t.Errorf("minute %q: unexpected error %v", minute, err)
		}
	}
	rr := NewRecordReader(strings.NewReader("user,lat,lon,minute\na,1,2,100000000\n"))
	if rec, err := rr.Next(); err != nil || rec.Minute != MaxMinute {
		t.Errorf("MaxMinute rejected: %+v, %v", rec, err)
	}
}

func TestRecordsIterator(t *testing.T) {
	table := streamTestTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	var n int
	for rec, err := range Records(&buf) {
		if err != nil {
			t.Fatal(err)
		}
		if rec != table.Records[n] {
			t.Errorf("record %d = %+v, want %+v", n, rec, table.Records[n])
		}
		n++
	}
	if n != len(table.Records) {
		t.Fatalf("iterated %d records, want %d", n, len(table.Records))
	}

	// Early break works.
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, table); err != nil {
		t.Fatal(err)
	}
	n = 0
	for _, err := range Records(&buf2) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break did not stop iteration: %d", n)
	}

	// Errors surface once.
	var errs int
	for _, err := range Records(strings.NewReader("user,lat,lon,minute\na,nope,2,3\n")) {
		if err != nil {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("got %d errors, want 1", errs)
	}
}

func TestReadCSVStillWorks(t *testing.T) {
	table := streamTestTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(table.Records) {
		t.Fatalf("read %d records, want %d", len(recs), len(table.Records))
	}
}

func TestReadAnonymizedCSVRoundTrip(t *testing.T) {
	table := streamTestTable()
	ds, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAnonymizedCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnonymizedCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.TotalSamples() != ds.TotalSamples() {
		t.Errorf("round trip: %d groups / %d samples, want %d / %d",
			got.Len(), got.TotalSamples(), ds.Len(), ds.TotalSamples())
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped dataset invalid: %v", err)
	}
}

func TestReadAnonymizedCSVErrors(t *testing.T) {
	header := "group,count,x,dx,y,dy,t,dt\n"
	cases := map[string]string{
		"bad header":     "nope,count,x,dx,y,dy,t,dt\ng,2,0,1,0,1,0,1\n",
		"bad count":      header + "g,two,0,1,0,1,0,1\n",
		"zero count":     header + "g,0,0,1,0,1,0,1\n",
		"negative count": header + "g,-1,0,1,0,1,0,1\n",
		"bad x":          header + "g,2,nope,1,0,1,0,1\n",
		"count changed":  header + "g,2,0,1,0,1,0,1\ng,3,0,1,0,1,5,1\n",
	}
	for name, csv := range cases {
		if _, err := ReadAnonymizedCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
