package cdr

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"iter"
	"strconv"

	"repro/internal/geo"
)

// readBufferSize is the RecordReader's read buffer: a daily feed append
// of a few hundred kilobytes is read in a handful of calls.
const readBufferSize = 64 << 10

// maxInterned bounds the user IDs a RecordReader keeps to hand out again:
// a feed's subscribers recur on every line, so one string per subscriber
// serves them all.
const maxInterned = 1 << 12

// RecordReader decodes a raw record CSV stream one record at a time, so
// ingestion of an operator-sized feed never needs the whole table in
// memory. The header row is consumed and checked lazily on the first
// Next call.
//
// Lines without a quote, which is every line of a feed whose user IDs
// need no quoting, are split by a 4-field scanner of its own. At the
// first line holding a quote the reader hands that line and the rest of
// the stream to encoding/csv. Either way it accepts, rejects and parses
// exactly what encoding/csv with four fields a record would, with the
// same error messages (FuzzRecordReader checks it).
type RecordReader struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, gathered
	phys int    // physical lines the scanner has consumed

	// cr, once set, reads the rest of the stream; csvLine is the number
	// of lines before its first, so its line numbers can be made the
	// stream's.
	cr      *csv.Reader
	csvLine int

	users map[string]string // user IDs handed out so far (user)

	line   int
	header bool
	err    error
}

// NewRecordReader wraps an io.Reader producing the WriteCSV format
// (user,lat,lon,minute with header).
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{br: bufio.NewReaderSize(r, readBufferSize), line: 1, users: make(map[string]string)}
}

// Next returns the next record. It returns io.EOF after the last record
// and any other error exactly once; subsequent calls repeat the error.
func (rr *RecordReader) Next() (Record, error) {
	if rr.err != nil {
		return Record{}, rr.err
	}
	if !rr.header {
		if err := rr.readHeader(); err != nil {
			rr.err = err
			return Record{}, err
		}
		rr.header = true
	}
	rr.line++
	rec, err := rr.next()
	if err != nil {
		rr.err = err
		return Record{}, err
	}
	return rec, nil
}

func (rr *RecordReader) readHeader() error {
	f, ok, err := rr.scan()
	h := []string{string(f[0]), string(f[1]), string(f[2]), string(f[3])}
	if !ok {
		h, err = rr.csvRead()
	}
	if err != nil {
		return fmt.Errorf("cdr: reading header: %w", err)
	}
	if h[0] != "user" || h[1] != "lat" || h[2] != "lon" || h[3] != "minute" {
		return fmt.Errorf("cdr: unexpected header %v", h)
	}
	return nil
}

func (rr *RecordReader) next() (Record, error) {
	if rr.cr == nil {
		f, ok, err := rr.scan()
		if ok {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			if err != nil {
				return Record{}, fmt.Errorf("cdr: line %d: %w", rr.line, err)
			}
			return parseRecord(rr.user(f[0]), string(f[1]), string(f[2]), string(f[3]), rr.line)
		}
	}
	row, err := rr.csvRead()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("cdr: line %d: %w", rr.line, err)
	}
	return parseRecord(row[0], row[1], row[2], row[3], rr.line)
}

// scan reads the next non-blank line and splits it into its four
// fields, the way encoding/csv reads an unquoted line: \r\n ends a line
// like \n, a \r ending the stream is dropped, and a line without
// exactly four fields is a csv.ErrFieldCount. At a line holding a quote
// it hands that line and the rest of the stream to encoding/csv and
// returns ok false.
func (rr *RecordReader) scan() (f [4][]byte, ok bool, err error) {
	for {
		line, err := rr.readLine()
		if bytes.IndexByte(line, '"') >= 0 {
			rr.handOff(line, err)
			return f, false, nil
		}
		if len(line) > 0 && err == io.EOF {
			err = nil
			line = bytes.TrimSuffix(line, []byte{'\r'})
		}
		if err != nil {
			return f, true, err
		}
		rr.phys++
		if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
			line = line[:n-2]
		} else if n >= 1 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		for i := 0; i < 3; i++ {
			j := bytes.IndexByte(line, ',')
			if j < 0 {
				return f, true, rr.fieldCountErr()
			}
			f[i], line = line[:j], line[j+1:]
		}
		if bytes.IndexByte(line, ',') >= 0 {
			return f, true, rr.fieldCountErr()
		}
		f[3] = line
		return f, true, nil
	}
}

// user returns the user ID b as a string, the same string for every
// line of one subscriber.
func (rr *RecordReader) user(b []byte) string {
	if u, ok := rr.users[string(b)]; ok {
		return u
	}
	u := string(b)
	if len(rr.users) < maxInterned {
		rr.users[u] = u
	}
	return u
}

// fieldCountErr is the error encoding/csv gives a record on the line
// just scanned that has not four fields.
func (rr *RecordReader) fieldCountErr() error {
	return &csv.ParseError{StartLine: rr.phys, Line: rr.phys, Column: 1, Err: csv.ErrFieldCount}
}

// readLine returns the next line, its newline included, as
// encoding/csv reads it.
func (rr *RecordReader) readLine() ([]byte, error) {
	line, err := rr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		rr.long = append(rr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = rr.br.ReadSlice('\n')
			rr.long = append(rr.long, line...)
		}
		line = rr.long
	}
	return line, err
}

// handOff gives encoding/csv the rest of the stream: line, then what
// follows it, or the error that ended it.
func (rr *RecordReader) handOff(line []byte, err error) {
	var rest io.Reader = rr.br
	if err != nil {
		rest = errReader{err}
	}
	rr.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
	rr.cr.FieldsPerRecord = 4
	rr.cr.ReuseRecord = true
	rr.csvLine = rr.phys
	rr.long = nil
}

// csvRead reads a record through encoding/csv, numbering its lines from
// the start of the stream.
func (rr *RecordReader) csvRead() ([]string, error) {
	row, err := rr.cr.Read()
	if pe, ok := err.(*csv.ParseError); ok {
		pe.StartLine += rr.csvLine
		pe.Line += rr.csvLine
	}
	return row, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseRecord parses and validates the fields of record line.
func parseRecord(user, latS, lonS, minS string, line int) (Record, error) {
	lat, err := strconv.ParseFloat(latS, 64)
	if err != nil {
		return Record{}, fmt.Errorf("cdr: line %d: bad lat: %w", line, err)
	}
	lon, err := strconv.ParseFloat(lonS, 64)
	if err != nil {
		return Record{}, fmt.Errorf("cdr: line %d: bad lon: %w", line, err)
	}
	min, err := strconv.ParseFloat(minS, 64)
	if err != nil {
		return Record{}, fmt.Errorf("cdr: line %d: bad minute: %w", line, err)
	}
	rec := Record{User: user, Pos: geo.LatLon{Lat: lat, Lon: lon}, Minute: min}
	if err := rec.Validate(); err != nil {
		return Record{}, fmt.Errorf("cdr: line %d: %w", line, err)
	}
	return rec, nil
}

// Records returns an iterator over the record stream. Iteration stops at
// the first error, which is yielded with a zero Record; a clean end of
// stream yields nothing (io.EOF is not surfaced).
func Records(r io.Reader) iter.Seq2[Record, error] {
	rr := NewRecordReader(r)
	return func(yield func(Record, error) bool) {
		for {
			rec, err := rr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}
