package cdr

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzRecordReader pins the raw-record ingest path against hostile
// input. For any byte stream, Next never panics; every record it
// returns passes Record.Validate; once it returns an error (io.EOF
// included) it returns that very error again; and the accepted records,
// re-encoded by WriteRecordsCSV, read back equal — the round trip a
// journal checkpoint (captureState in internal/service) relies on to
// persist a dataset.
//
// It is also a differential test of the reader's own line scanner:
// encoding/csv with four fields a record, each record parsed by
// parseRecord (csvReference), must return the same records bit for bit
// and stop on the same error, message and line included. The seeds
// cover quoted fields, a quote after unquoted lines, CRLF, blank lines,
// a bare \r, no final newline and lines longer than the reader's
// buffer.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzRecordReader -fuzztime 30s ./internal/cdr/
func FuzzRecordReader(f *testing.F) {
	for _, seed := range []string{
		"",
		"user,lat,lon,minute\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\nb,7.6,-5.4,20\n",
		"user,lat,lon,minute\r\na,7.5,-5.5,10\r\n",
		"user,lat,lon,minute\n\"a,b\",7.5,-5.5,10\n\"c\nd\",0,0,0\n\" e\",-0,-0,-0\n",
		"user,lat,lon,minute\na,0x1p-2,1_0.5e0,1e8\n",
		"user,lat,lon,minute\na,NaN,0,0\n",
		"user,lat,lon,minute\na,7.5,-5.5,Inf\n",
		"user,lat,lon,minute\na,91,0,0\n",
		"user,lat,lon,minute\na,7.5,-5.5,100000001\n",
		"user,lat,lon,minute\n,7.5,-5.5,10\n",
		"user,lat,lon,minute\na,7.5,-5.5\n",
		"user,lat,lon,minute\na,7.5,-5.5,10,extra\n",
		"user,lat,lon,minute\n\"a\"b,7.5,-5.5,10\n",
		"user,lat,lon\n",
		"group,x,dx,y,dy,t,dt\n",
		"\"user\",lat,lon,minute\na,7.5,-5.5,10\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\nb,7.6,-5.4,20\n\"c,d\",7.7,-5.3,30\ne,7.8,-5.2,40\n",
		"user,lat,lon,minute\n\na,7.5,-5.5,10\n\n\r\n\nb,7.6,-5.4,20\n\nc,7.6,-5.4\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\r\n\nb,7.6,-5.4,20\n\n\"x\ny\",1,2\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\rb,7.6,-5.4,20\r",
		"user,lat,lon,minute\na,7.5,-5.5,10\r\r\nb,1,2,3\n\r",
		"user,lat,lon,minute\na,7.5,-5.5,10\nb,1,2,3\n\r",
		"user,lat,lon,minute\r\na,7.5,-5.5,10\r\nb,1,2,3\r",
		"user,lat,lon,minute\na,7.5,-5.5,10\nb,7.6,-5.4,20",
		"user,lat,lon,minute\na,7.5,-5.5,10\n\n\nb,7.6,-5.4,20,\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\nb\",7.6,-5.4,20\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\n\"b,7.6,-5.4,20\n",
		"user,lat,lon,minute\n" + strings.Repeat("x", readBufferSize+10) + ",7.5,-5.5,10\na,1,2,3\n",
		"user,lat,lon,minute\na,7.5,-5.5,10\n" + strings.Repeat("y", 2*readBufferSize) + "\",1,2,3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecordReader(bytes.NewReader(data))
		recs, stop := readAll(rr.Next)
		for i, rec := range recs {
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("record %d accepted but invalid: %v", i, verr)
			}
		}
		refRecs, refStop := readAll(csvReference(bytes.NewReader(data)))
		if fmt.Sprint(stop) != fmt.Sprint(refStop) {
			t.Fatalf("reader stopped on %v, encoding/csv on %v", stop, refStop)
		}
		if len(recs) != len(refRecs) {
			t.Fatalf("reader accepted %d records, encoding/csv %d", len(recs), len(refRecs))
		}
		for i, rec := range recs {
			ref := refRecs[i]
			if rec.User != ref.User || math.Float64bits(rec.Pos.Lat) != math.Float64bits(ref.Pos.Lat) ||
				math.Float64bits(rec.Pos.Lon) != math.Float64bits(ref.Pos.Lon) ||
				math.Float64bits(rec.Minute) != math.Float64bits(ref.Minute) {
				t.Fatalf("record %d = %+v, encoding/csv gives %+v", i, rec, ref)
			}
		}
		for i := 0; i < 2; i++ {
			// Identity, not errors.Is: the reader must hand back the
			// error it stopped on, not a new one.
			if rec, err := rr.Next(); err != stop || rec != (Record{}) {
				t.Fatalf("Next after %v returned (%+v, %v)", stop, rec, err)
			}
		}

		var buf bytes.Buffer
		if err := WriteRecordsCSV(&buf, func(fn func(Record) error) error {
			for _, r := range recs {
				if err := fn(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded records unreadable: %v\n%q", err, buf.Bytes())
		}
		if len(back) != len(recs) {
			t.Fatalf("read back %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d read back as %+v, want %+v", i, back[i], recs[i])
			}
		}
	})
}

// readAll drains a record source, returning the records and the error
// it stopped on.
func readAll(next func() (Record, error)) ([]Record, error) {
	var recs []Record
	for {
		rec, err := next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// csvReference reads a record stream the plain way: encoding/csv with
// four fields a record, the header checked, each row parsed by
// parseRecord, lines numbered as RecordReader numbers them.
func csvReference(r io.Reader) func() (Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	line := 1
	header := false
	return func() (Record, error) {
		if !header {
			h, err := cr.Read()
			if err != nil {
				return Record{}, fmt.Errorf("cdr: reading header: %w", err)
			}
			if h[0] != "user" || h[1] != "lat" || h[2] != "lon" || h[3] != "minute" {
				return Record{}, fmt.Errorf("cdr: unexpected header %v", h)
			}
			header = true
		}
		line++
		row, err := cr.Read()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("cdr: line %d: %w", line, err)
		}
		return parseRecord(row[0], row[1], row[2], row[3], line)
	}
}

// FuzzAppendFloat1 pins the release formatter against the standard
// library: appendFloat1 must print every float64 exactly as
// strconv.FormatFloat(v, 'f', 1, 64) does. The seeds cover exactly
// representable ties (0.25, -0.75: half to even), rounding that carries
// into a new digit (9.96, 0.96, 99999.95), the sign of -0.0 and of tiny
// negatives, the |v| < 0.1 shortcut around 0.05, and the fallback for
// huge magnitudes, NaN and infinities.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzAppendFloat1 -fuzztime 30s ./internal/cdr/
func FuzzAppendFloat1(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.25, -0.75, 0.05, math.Nextafter(0.05, 0), -0.01, 0.1,
		math.Nextafter(0.1, 0), 0.15, 0.96, 9.96, -9.95, 99999.95, 123456.75, 1e14 + 0.05,
		math.Nextafter(1e15, 0), 1e15, 1e300, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want := strconv.FormatFloat(v, 'f', 1, 64)
		if got := string(appendFloat1([]byte("x"), v)[1:]); got != want {
			t.Fatalf("appendFloat1(%v) = %q, FormatFloat gives %q", v, got, want)
		}
	})
}

// Every multiple of 1/4 is exactly representable, so k/4 (and k/4 plus
// a tenth of a unit far from a tie) walks the half-to-even ties and the
// carries of every magnitude the release coordinates take.
func TestAppendFloat1Ties(t *testing.T) {
	for k := -100000; k <= 100000; k++ {
		for _, v := range []float64{float64(k) / 4, float64(k)*37.5 + 0.05, float64(k) * 1e9 / 4} {
			if got, want := string(appendFloat1(nil, v)), strconv.FormatFloat(v, 'f', 1, 64); got != want {
				t.Fatalf("appendFloat1(%v) = %q, FormatFloat gives %q", v, got, want)
			}
		}
	}
}
