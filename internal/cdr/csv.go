package cdr

import (
	"encoding/csv"
	"fmt"
	"io"
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
// format, one row per (group, sample) pair.
func WriteAnonymizedCSV(w io.Writer, d *core.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"group", "count", "x", "dx", "y", "dy", "t", "dt"}); err != nil {
		return err
	}
	row := make([]string, 8)
	for _, f := range d.Fingerprints {
		for _, s := range f.Samples {
			row[0] = f.ID
			row[1] = strconv.Itoa(f.Count)
			row[2] = strconv.FormatFloat(s.X, 'f', 1, 64)
			row[3] = strconv.FormatFloat(s.DX, 'f', 1, 64)
			row[4] = strconv.FormatFloat(s.Y, 'f', 1, 64)
			row[5] = strconv.FormatFloat(s.DY, 'f', 1, 64)
			row[6] = strconv.FormatFloat(s.T, 'f', 1, 64)
			row[7] = strconv.FormatFloat(s.DT, 'f', 1, 64)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
