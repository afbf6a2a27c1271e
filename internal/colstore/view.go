package colstore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

// View is a frozen read view of a store, the one dataset source of the
// anonymization pipeline: a snapshot of the first n committed rows, or
// a row selection derived from snapshots (a time window, a user shard,
// or a Concat of either). Snapshots are O(1) — no rows are copied;
// appends only ever add rows beyond n and never move committed columns,
// so a view's rows are immutable. Views are safe for concurrent readers; they pin
// chunks while scanning so the budget-driven eviction never frees
// columns mid-read.
type View struct {
	s    *Store
	meta cdr.Meta
	// dict is the frozen dictionary prefix covering every user id a row
	// of this view can reference.
	dict []string
	// rows selects the view's records as absolute store rows, in view
	// order (not necessarily ascending: a Concat appends selections);
	// nil means the prefix [0, n).
	rows  []int64
	n     int // record count
	users int // distinct subscribers among the view's rows
	// fail is a sticky error from the row scan that derived this view
	// (UserShards and Concat cannot report one directly); every read
	// surfaces it.
	fail error
}

// Snapshot returns a frozen view of the store's published records. The
// snapshot observes exactly the rows published before the call; rows of
// an append still in flight stay invisible even if it publishes later —
// the registry's copy-on-write contract, at O(1) cost.
func (s *Store) Snapshot() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.users
	return &View{
		s:     s,
		meta:  s.meta,
		dict:  s.dict[:d:d],
		n:     s.n,
		users: d,
	}
}

// TableMeta returns the dataset metadata frozen at snapshot time.
func (v *View) TableMeta() cdr.Meta { return v.meta }

// NumRecords returns the view's record count.
func (v *View) NumRecords() int { return v.n }

// NumUsers returns the number of distinct subscribers in the view.
func (v *View) NumUsers() int { return v.users }

// eachRow streams the view's rows in order, handing fn the raw column
// values. Chunks are pinned for the duration of their scan only.
func (v *View) eachRow(fn func(lat, lon, minute float64, user uint32) error) error {
	return v.eachRowFrom(0, fn)
}

// eachRowFrom streams the view's rows starting at view-relative position
// `from` — the column-store analogue of slicing Records[from:]. In
// prefix mode the scan starts inside the chunk holding row `from`
// instead of walking (and pinning) every chunk before it, which is what
// keeps a follow executor's per-append cost proportional to the appended
// volume rather than the feed size.
func (v *View) eachRowFrom(from int, fn func(lat, lon, minute float64, user uint32) error) error {
	if v.fail != nil {
		return v.fail
	}
	if from >= v.n {
		return nil
	}
	k := v.s.opt.ChunkRecords
	if v.rows == nil {
		off := from % k
		for start := from - off; start < v.n; start += k {
			end := start + k
			if end > v.n {
				end = v.n
			}
			c, release, err := v.s.acquire(start / k)
			if err != nil {
				return err
			}
			for i := off; i < end-start; i++ {
				if err := fn(c.lat[i], c.lon[i], c.minute[i], c.user[i]); err != nil {
					release()
					return err
				}
			}
			release()
			off = 0
		}
		return nil
	}
	cur := -1
	var c cols
	var release func()
	for _, r := range v.rows[from:] {
		ci := int(r) / k
		if ci != cur {
			if release != nil {
				release()
				release = nil
			}
			var err error
			c, release, err = v.s.acquire(ci)
			if err != nil {
				return err
			}
			cur = ci
		}
		i := int(r) % k
		if err := fn(c.lat[i], c.lon[i], c.minute[i], c.user[i]); err != nil {
			release()
			return err
		}
	}
	if release != nil {
		release()
	}
	return nil
}

// EachRecord streams the view's records in order.
func (v *View) EachRecord(fn func(cdr.Record) error) error {
	return v.eachRow(func(lat, lon, minute float64, user uint32) error {
		return fn(cdr.Record{
			User:   v.dict[user],
			Pos:    geo.LatLon{Lat: lat, Lon: lon},
			Minute: minute,
		})
	})
}

// BuildDataset converts the view into a core fingerprint dataset with
// exactly the arithmetic of cdr.Table.BuildDataset — same projection,
// same grid snapping, same per-user sample order (record order), users
// emitted in sorted identifier order — so a view and a table of the
// same records produce bit-identical fingerprints. The conversion
// streams over the columns; no []cdr.Record is ever materialized.
func (v *View) BuildDataset() (*core.Dataset, error) {
	proj, err := geo.NewProjection(v.meta.Center)
	if err != nil {
		return nil, err
	}
	grid := geo.Grid{}
	perUser := make([][]core.Sample, len(v.dict))
	err = v.eachRow(func(lat, lon, minute float64, user uint32) error {
		pt, err := proj.Forward(geo.LatLon{Lat: lat, Lon: lon})
		if err != nil {
			return fmt.Errorf("colstore: user %s: %w", v.dict[user], err)
		}
		box := grid.BoxAround(pt)
		perUser[user] = append(perUser[user], core.Sample{
			X: box.X, DX: box.DX,
			Y: box.Y, DY: box.DY,
			T: minute, DT: 1,
			Weight: 1,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	type userGroup struct {
		name string
		id   uint32
	}
	groups := make([]userGroup, 0, v.users)
	for id, samples := range perUser {
		if len(samples) > 0 {
			groups = append(groups, userGroup{name: v.dict[id], id: uint32(id)})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].name < groups[j].name })
	fps := make([]*core.Fingerprint, 0, len(groups))
	for _, g := range groups {
		fps = append(fps, core.NewFingerprint(g.name, perUser[g.id]))
	}
	return core.NewDataset(fps), nil
}

// Window is one time slice of a view produced by TailWindows.
type Window struct {
	// Index is the window's position on the absolute time axis: window i
	// covers minutes [i*w, (i+1)*w).
	Index int
	// StartMinute and EndMinute delimit the half-open window interval.
	StartMinute, EndMinute float64
	// View holds the window's records in the parent's order.
	View *View
}

// TailWindows is the window cursor of the release pipeline: it buckets
// only the view's rows at positions [fromRecord, NumRecords()) into
// windows of duration d, with the semantics of cdr.Table.SplitByWindow
// over those records — windows align at multiples of d from minute 0,
// rows keep their order, empty windows are omitted, windows are sorted
// by index, and each window's nominal span rounds d up to whole days.
// TailWindows(0, d) is the full split. The windows of a later cursor are
// fragments: because appends only extend the record sequence, the
// Concat of one index's fragments, in arrival order, holds exactly the
// records a full split of the final feed assigns that window.
func (v *View) TailWindows(fromRecord int, d time.Duration) ([]Window, error) {
	if fromRecord < 0 || fromRecord > v.n {
		return nil, fmt.Errorf("colstore: tail cursor %d out of range [0, %d]", fromRecord, v.n)
	}
	w := d.Minutes()
	if w <= 0 {
		return nil, fmt.Errorf("colstore: window duration %v, need > 0", d)
	}
	buckets := make(map[int][]int64)
	row := int64(fromRecord)
	err := v.eachRowFrom(fromRecord, func(_, _, minute float64, _ uint32) error {
		idx := int(minute / w)
		buckets[idx] = append(buckets[idx], v.rowAt(row))
		row++
		return nil
	})
	if err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)

	wm := v.meta
	wm.SpanDays = cdr.WindowSpanDays(w)
	out := make([]Window, 0, len(idxs))
	seen := make([]int32, len(v.dict))
	for stamp, i := range idxs {
		rows := buckets[i]
		out = append(out, Window{
			Index:       i,
			StartMinute: float64(i) * w,
			EndMinute:   float64(i+1) * w,
			View: &View{
				s:     v.s,
				meta:  wm,
				dict:  v.dict,
				rows:  rows,
				n:     len(rows),
				users: v.countUsers(rows, seen, int32(stamp+1)),
			},
		})
	}
	return out, nil
}

// Concat fuses views of one store into a single view holding their rows
// in argument order: a window spread over several appends, or the union
// of a job's committed windows. No row is copied out of the columns. The
// result carries the first view's metadata and the longest dictionary
// (each snapshot's dictionary is a prefix of every later one's), counts
// its distinct users afresh, and keeps the first sticky scan error.
// Concat of one view is that view; of none, nil.
func Concat(views ...*View) *View {
	switch len(views) {
	case 0:
		return nil
	case 1:
		return views[0]
	}
	first := views[0]
	out := &View{s: first.s, meta: first.meta, dict: first.dict}
	for _, v := range views {
		if v.s != first.s {
			panic("colstore: Concat of views over different stores")
		}
		if len(v.dict) > len(out.dict) {
			out.dict = v.dict
		}
		if out.fail == nil {
			out.fail = v.fail
		}
		out.n += v.n
	}
	out.rows = make([]int64, 0, out.n)
	for _, v := range views {
		if v.rows != nil {
			out.rows = append(out.rows, v.rows...)
			continue
		}
		for i := 0; i < v.n; i++ {
			out.rows = append(out.rows, int64(i))
		}
	}
	out.users = out.countUsers(out.rows, make([]int32, len(out.dict)), 1)
	return out
}

// rowAt maps a view-relative row position to an absolute store row.
func (v *View) rowAt(i int64) int64 {
	if v.rows == nil {
		return i
	}
	return v.rows[i]
}

// countUsers counts distinct user ids among the given absolute rows,
// reusing a stamp array across calls (stamp must be unique per call).
func (v *View) countUsers(rows []int64, seen []int32, stamp int32) int {
	sub := &View{s: v.s, dict: v.dict, rows: rows, n: len(rows)}
	users := 0
	// Row data is committed and immutable, so the scan cannot fail other
	// than by a spill I/O error; that error is deferred to the first real
	// read of the window (the count stays a best-effort 0 then).
	_ = sub.eachRow(func(_, _, _ float64, user uint32) error {
		if seen[user] != stamp {
			seen[user] = stamp
			users++
		}
		return nil
	})
	return users
}

// UserShards partitions the view into at most n disjoint views by the
// stable user hash of cdr.ShardOfUser, never splitting a subscriber.
// Each shard keeps the view's record order. Empty shards are dropped.
func (v *View) UserShards(n int, seed uint64) []*View {
	if n <= 1 {
		c := *v
		return []*View{&c}
	}
	assigned := make([]int32, len(v.dict))
	for i := range assigned {
		assigned[i] = -1
	}
	buckets := make([][]int64, n)
	usersPer := make([]int, n)
	row := int64(0)
	scanErr := v.eachRow(func(_, _, _ float64, user uint32) error {
		b := assigned[user]
		if b < 0 {
			b = int32(cdr.ShardOfUser(v.dict[user], n, seed))
			assigned[user] = b
			usersPer[b]++
		}
		buckets[b] = append(buckets[b], v.rowAt(row))
		row++
		return nil
	})
	out := make([]*View, 0, n)
	for b, rows := range buckets {
		if len(rows) == 0 {
			continue
		}
		out = append(out, &View{
			s:     v.s,
			meta:  v.meta,
			dict:  v.dict,
			rows:  rows,
			n:     len(rows),
			users: usersPer[b],
			fail:  scanErr,
		})
	}
	if scanErr != nil && len(out) == 0 {
		c := *v
		c.fail = scanErr
		out = append(out, &c)
	}
	return out
}
