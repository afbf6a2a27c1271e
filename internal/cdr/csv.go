package cdr

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/core"
)

// CSV formats. Raw CDR tables use the 3-column format
//
//	user,lat,lon,minute
//
// (header required). Anonymized datasets use the generalized 7-column
// format
//
//	group,x,dx,y,dy,t,dt
//
// with planar coordinates in meters and times in minutes, one row per
// published sample, plus a `count` column carrying the group size.

// WriteCSV writes the raw record table.
func WriteCSV(w io.Writer, t *Table) error {
	return WriteRecordsCSV(w, func(fn func(Record) error) error {
		for _, r := range t.Records {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteRecordsCSV writes a record stream in the raw 4-column format.
// each hands every record to its argument in order and returns the
// first error, the shape of colstore.View.EachRecord. Floats use
// strconv's shortest exact representation, so any backend storing
// positions and times as float64 round-trips byte-identically.
func WriteRecordsCSV(w io.Writer, each func(func(Record) error) error) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "lat", "lon", "minute"}); err != nil {
		return err
	}
	row := make([]string, 4)
	if err := each(func(r Record) error {
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

// ReadAnonymizedCSV reads a dataset in the generalized format written by
// WriteAnonymizedCSV, reconstructing one fingerprint per group. Members
// are synthesized as "<group>#<i>" placeholders: the published format
// deliberately does not carry subscriber identities, only crowd sizes.
func ReadAnonymizedCSV(r io.Reader) (*core.Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 8
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("cdr: reading header: %w", err)
	}
	want := []string{"group", "count", "x", "dx", "y", "dy", "t", "dt"}
	for i, h := range want {
		if header[i] != h {
			return nil, fmt.Errorf("cdr: unexpected anonymized header %v", header)
		}
	}
	type group struct {
		count   int
		samples []core.Sample
	}
	groups := make(map[string]*group)
	var order []string
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("cdr: line %d: %w", line, err)
		}
		count, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("cdr: line %d: bad count: %w", line, err)
		}
		if count < 1 {
			return nil, fmt.Errorf("cdr: line %d: group count %d < 1", line, count)
		}
		var vals [6]float64
		for i := 0; i < 6; i++ {
			vals[i], err = strconv.ParseFloat(row[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("cdr: line %d: bad %s: %w", line, want[2+i], err)
			}
		}
		g := groups[row[0]]
		if g == nil {
			g = &group{count: count}
			groups[row[0]] = g
			order = append(order, row[0])
		} else if g.count != count {
			return nil, fmt.Errorf("cdr: line %d: group %s count changed %d -> %d", line, row[0], g.count, count)
		}
		g.samples = append(g.samples, core.Sample{
			X: vals[0], DX: vals[1],
			Y: vals[2], DY: vals[3],
			T: vals[4], DT: vals[5],
			Weight: 1,
		})
	}
	fps := make([]*core.Fingerprint, 0, len(order))
	for _, id := range order {
		g := groups[id]
		members := make([]string, g.count)
		for i := range members {
			members[i] = fmt.Sprintf("%s#%d", id, i)
		}
		f := core.NewFingerprint(id, g.samples)
		f.Count = g.count
		f.Members = members
		fps = append(fps, f)
	}
	return core.NewDataset(fps), nil
}

// WriteAnonymizedCSV writes a k-anonymized dataset in the generalized
// format, one row per (group, sample) pair. Coordinates are printed
// with one decimal, exactly as strconv.FormatFloat(v, 'f', 1, 64) would
// print them (appendFloat1).
func WriteAnonymizedCSV(w io.Writer, d *core.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"group", "count", "x", "dx", "y", "dy", "t", "dt"}); err != nil {
		return err
	}
	row := make([]string, 8)
	var num []byte
	for _, f := range d.Fingerprints {
		row[0] = f.ID
		row[1] = strconv.Itoa(f.Count)
		for _, s := range f.Samples {
			// The six numbers share one string, so a row costs one
			// allocation rather than six.
			var ends [6]int
			num = num[:0]
			for k, v := range [6]float64{s.X, s.DX, s.Y, s.DY, s.T, s.DT} {
				num = appendFloat1(num, v)
				ends[k] = len(num)
			}
			line, start := string(num), 0
			for k, end := range ends {
				row[2+k] = line[start:end]
				start = end
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// pow10 holds the powers of ten appendFloat1 compares magnitudes with.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFloat1 appends v as strconv.AppendFloat(dst, v, 'f', 1, 64)
// does, byte for byte, but faster. Go formats a fixed precision 'f'
// with its multiprecision decimal code, while 'e' with at most 18
// digits takes the fixed-digit Ryu path. So the digits come from 'e',
// with the precision that ends at the tenths digit, and are laid out
// again as 'f'. Both round the exact binary value half to even, so the
// digits agree. Rounding can carry into a new leading digit
// (9.96 -> 1.0e+01), which the layout reads from the exponent.
func appendFloat1(dst []byte, v float64) []byte {
	a := math.Abs(v)
	if !(a < pow10[len(pow10)-1]) { // NaN, ±Inf and huge magnitudes
		return strconv.AppendFloat(dst, v, 'f', 1, 64)
	}
	if math.Signbit(v) {
		dst = append(dst, '-') // -0.0 and -0.01 keep their sign, as in 'f'
	}
	if a < 0.1 {
		// No digit above the tenths: 0.05 is not a float, so every value
		// at or above the float nearest it rounds up.
		if a < 0.05 {
			return append(dst, "0.0"...)
		}
		return append(dst, "0.1"...)
	}
	e := -1 // 10^e <= a < 10^(e+1)
	for a >= pow10[e+1] {
		e++
	}
	var buf [24]byte
	s := strconv.AppendFloat(buf[:0], a, 'e', e+1, 64) // d[.ddd]e±XX
	mark := len(s) - 4
	for s[mark] != 'e' {
		mark--
	}
	x := 0
	for _, c := range s[mark+2:] {
		x = 10*x + int(c-'0')
	}
	if s[mark+1] == '-' {
		x = -x
	}
	// The value is d.ddd × 10^x, with x = e, or e+1 after a carry. Digit
	// k >= 1 sits at s[k+1], behind the point.
	if x < 0 {
		return append(dst, '0', '.', s[0])
	}
	dst = append(dst, s[0])
	dst = append(dst, s[2:x+2]...)
	if x+2 < mark {
		return append(dst, '.', s[x+2])
	}
	return append(dst, '.', '0')
}
