package cdr

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Continuous publication (the operator workflow the paper's Sec. 1
// motivates) releases a long record feed as a sequence of time-windowed
// datasets, each anonymized independently. This file provides the
// building blocks: incremental appends to a growing table and the
// time-window partitioner itself.

// Append validates and appends records to the table in place. The table
// is left unchanged when any record is invalid, so a partially bad batch
// never corrupts an operator feed.
func (t *Table) Append(recs ...Record) error {
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("cdr: appended record %d: %w", i, err)
		}
	}
	t.Records = append(t.Records, recs...)
	return nil
}

// Window is one time slice of a table produced by SplitByWindow.
type Window struct {
	// Index is the window's position on the absolute time axis: window i
	// covers minutes [i*w, (i+1)*w). Indices of consecutive returned
	// windows may jump when an intermediate window holds no records.
	Index int
	// StartMinute and EndMinute delimit the half-open window interval in
	// dataset minutes.
	StartMinute, EndMinute float64
	// Table holds the window's records in input order.
	Table *Table
}

// SplitByWindow partitions the table's records into consecutive time
// windows of duration d, aligned at multiples of d from the dataset
// epoch (minute 0). Records keep their input order within a window, so a
// table whose whole span fits one window yields exactly one window with
// the records unchanged — the property the windowed release driver's
// byte-identity guarantee rests on. Empty windows are omitted; the
// returned windows are sorted by index and partition the records. It is
// the reference colstore.View.TailWindows is tested against.
func (t *Table) SplitByWindow(d time.Duration) ([]Window, error) {
	w := d.Minutes()
	if w <= 0 {
		return nil, fmt.Errorf("cdr: window duration %v, need > 0", d)
	}
	buckets := make(map[int][]Record)
	for _, r := range t.Records {
		idx := int(r.Minute / w)
		buckets[idx] = append(buckets[idx], r)
	}
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)

	spanDays := WindowSpanDays(w)
	out := make([]Window, 0, len(idxs))
	for _, i := range idxs {
		rs := make([]Record, len(buckets[i]))
		copy(rs, buckets[i])
		out = append(out, Window{
			Index:       i,
			StartMinute: float64(i) * w,
			EndMinute:   float64(i+1) * w,
			Table:       &Table{Records: rs, Center: t.Center, SpanDays: spanDays},
		})
	}
	return out, nil
}

// WindowSpanDays converts a window width in minutes to the nominal
// SpanDays stamped on every window, which feeds rate-based screening
// (FilterMinRate): the width rounded up to whole days, at least one.
func WindowSpanDays(w float64) int {
	spanDays := int(math.Ceil(w / MinutesPerDay))
	if spanDays < 1 {
		spanDays = 1
	}
	return spanDays
}
