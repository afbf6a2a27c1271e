package cdr

import (
	"bytes"
	"math"
	"strconv"
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecordReader(bytes.NewReader(data))
		var recs []Record
		var stop error
		for {
			rec, err := rr.Next()
			if err != nil {
				stop = err
				break
			}
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("record %d accepted but invalid: %v", len(recs), verr)
			}
			recs = append(recs, rec)
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
