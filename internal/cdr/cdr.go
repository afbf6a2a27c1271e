// Package cdr models movement micro-data extracted from Call Detail
// Records, mirroring the D4D datasets of Sec. 3: each record is one
// network event with a pseudonymous subscriber identifier, the antenna
// position, and a timestamp. The package converts record streams into
// core fingerprint datasets (projecting and discretizing positions as
// the paper does), applies the paper's screening filters, and carves the
// dataset subsets used by the evaluation (timespans for Fig. 10, user
// fractions for Fig. 11, city regions for the abidjan/dakar subsets of
// Table 2).
package cdr

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
)

// MinutesPerDay is the length of a day in the dataset time unit.
const MinutesPerDay = 24 * 60

// MaxMinute is the latest record time accepted, about 190 years past
// the dataset epoch. A record lands in window int(Minute / w) for a
// window of w minutes, and the shortest window a time.Duration can
// express is 1 ns (1/6e10 minute), so window indices stay below 6e18 —
// inside int64 — for every accepted record.
const MaxMinute = 1e8

// Record is one logged mobile-traffic event.
type Record struct {
	User   string     // pseudo-identifier of the subscriber
	Pos    geo.LatLon // antenna position
	Minute float64    // minutes since the dataset epoch
}

// Validate checks structural sanity of a record.
func (r Record) Validate() error {
	if r.User == "" {
		return fmt.Errorf("cdr: record with empty user")
	}
	if !r.Pos.Valid() {
		return fmt.Errorf("cdr: record with invalid position %v", r.Pos)
	}
	// Written so that NaN fails too.
	if !(r.Minute >= 0 && r.Minute <= MaxMinute) {
		return fmt.Errorf("cdr: record time %g outside [0, %g] minutes", r.Minute, MaxMinute)
	}
	return nil
}

// Meta is the dataset metadata the per-record formats do not carry.
type Meta struct {
	// Center is the projection center used when building fingerprints.
	Center geo.LatLon
	// SpanDays is the nominal duration of the recording period.
	SpanDays int
}

// Table is an ordered collection of records with the metadata needed to
// interpret them.
type Table struct {
	Records []Record
	// Center is the projection center used when building fingerprints,
	// typically the centroid of the covered country.
	Center geo.LatLon
	// SpanDays is the nominal duration of the recording period.
	SpanDays int
}

// Validate checks every record.
func (t *Table) Validate() error {
	if !t.Center.Valid() {
		return fmt.Errorf("cdr: invalid table center %v", t.Center)
	}
	for i, r := range t.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("cdr: record %d: %w", i, err)
		}
	}
	return nil
}

// Users returns the number of distinct subscribers in the table.
func (t *Table) Users() int {
	seen := make(map[string]struct{})
	for _, r := range t.Records {
		seen[r.User] = struct{}{}
	}
	return len(seen)
}

// byUser groups record indices per subscriber, preserving order.
func (t *Table) byUser() map[string][]int {
	m := make(map[string][]int)
	for i, r := range t.Records {
		m[r.User] = append(m[r.User], i)
	}
	return m
}

// BuildDataset converts the table into a core fingerprint dataset: each
// position is projected with the Lambert azimuthal equal-area projection
// centered on the table's Center and snapped to the 100 m grid, each
// timestamp becomes a 1 min interval (the paper's maximum granularity).
// Users are emitted in sorted pseudo-identifier order so the result is
// deterministic.
func (t *Table) BuildDataset() (*core.Dataset, error) {
	proj, err := geo.NewProjection(t.Center)
	if err != nil {
		return nil, err
	}
	grid := geo.Grid{}

	groups := t.byUser()
	users := make([]string, 0, len(groups))
	for u := range groups {
		users = append(users, u)
	}
	sort.Strings(users)

	fps := make([]*core.Fingerprint, 0, len(users))
	for _, u := range users {
		idxs := groups[u]
		samples := make([]core.Sample, 0, len(idxs))
		for _, i := range idxs {
			r := t.Records[i]
			pt, err := proj.Forward(r.Pos)
			if err != nil {
				return nil, fmt.Errorf("cdr: user %s: %w", u, err)
			}
			box := grid.BoxAround(pt)
			samples = append(samples, core.Sample{
				X: box.X, DX: box.DX,
				Y: box.Y, DY: box.DY,
				T: r.Minute, DT: 1,
				Weight: 1,
			})
		}
		fps = append(fps, core.NewFingerprint(u, samples))
	}
	return core.NewDataset(fps), nil
}

// FilterMinRate returns a table keeping only subscribers with at least
// minPerDay samples per day on average over the table's span: the
// screening applied to the Ivory Coast dataset ("filtering out users
// that have less than one sample per day", Sec. 3).
func (t *Table) FilterMinRate(minPerDay float64) *Table {
	if t.SpanDays <= 0 {
		return t.clone(t.Records)
	}
	counts := make(map[string]int)
	for _, r := range t.Records {
		counts[r.User]++
	}
	need := minPerDay * float64(t.SpanDays)
	kept := make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if float64(counts[r.User]) >= need {
			kept = append(kept, r)
		}
	}
	return t.clone(kept)
}

// SubsetDays returns a table restricted to the first `days` days of the
// recording period (the timespan sweep of Fig. 10).
func (t *Table) SubsetDays(days int) *Table {
	limit := float64(days) * MinutesPerDay
	kept := make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if r.Minute < limit {
			kept = append(kept, r)
		}
	}
	out := t.clone(kept)
	out.SpanDays = days
	return out
}

// SubsetUserFraction returns a table keeping approximately the given
// fraction of subscribers (the dataset-size sweep of Fig. 11). Selection
// is deterministic: users are kept by a stable hash of their identifier
// mixed with the seed, so nested fractions are monotone (the 25% subset
// is contained in the 50% subset for the same seed).
func (t *Table) SubsetUserFraction(frac float64, seed uint64) *Table {
	if frac >= 1 {
		return t.clone(t.Records)
	}
	if frac <= 0 {
		return t.clone(nil)
	}
	limit := uint64(frac * float64(^uint64(0)>>1))
	kept := make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if userHash(r.User, seed)>>1 <= limit {
			kept = append(kept, r)
		}
	}
	return t.clone(kept)
}

// SubsetRegion returns a table keeping subscribers whose sample centroid
// lies within radiusMeters of the given center — the citywide subsets
// (abidjan, dakar) of Sec. 7.2. Keeping or dropping whole users (rather
// than clipping trajectories) preserves full-length fingerprints.
func (t *Table) SubsetRegion(center geo.LatLon, radiusMeters float64) (*Table, error) {
	proj, err := geo.NewProjection(t.Center)
	if err != nil {
		return nil, err
	}
	cpt, err := proj.Forward(center)
	if err != nil {
		return nil, err
	}

	type acc struct {
		sx, sy float64
		n      int
	}
	accs := make(map[string]*acc)
	for _, r := range t.Records {
		pt, err := proj.Forward(r.Pos)
		if err != nil {
			return nil, err
		}
		a := accs[r.User]
		if a == nil {
			a = &acc{}
			accs[r.User] = a
		}
		a.sx += pt.X
		a.sy += pt.Y
		a.n++
	}
	inside := make(map[string]bool, len(accs))
	for u, a := range accs {
		c := geo.Point{X: a.sx / float64(a.n), Y: a.sy / float64(a.n)}
		inside[u] = c.Dist(cpt) <= radiusMeters
	}
	kept := make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if inside[r.User] {
			kept = append(kept, r)
		}
	}
	return t.clone(kept), nil
}

func (t *Table) clone(records []Record) *Table {
	rs := make([]Record, len(records))
	copy(rs, records)
	return &Table{Records: rs, Center: t.Center, SpanDays: t.SpanDays}
}

// ShardOfUser returns the shard a subscriber is assigned to by the
// service's user-hash sharding: whole subscribers, never split, by a
// stable hash of the identifier mixed with the seed, so assignment is
// deterministic across runs and processes.
func ShardOfUser(user string, shards int, seed uint64) int {
	return int(userHash(user, seed) % uint64(shards))
}

// userHash is a 64-bit FNV-1a hash of the user ID mixed with a seed,
// giving a deterministic, uniform-ish assignment for fraction subsetting.
func userHash(user string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= prime
	}
	// Final avalanche (splitmix64 tail) to decorrelate similar IDs.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Pseudonymize replaces user identifiers with opaque pseudo-identifiers
// derived from a keyed hash, the (inadequate on its own, Sec. 1) first
// step of any release pipeline. The mapping is deterministic for a given
// salt and collision-checked.
func (t *Table) Pseudonymize(salt uint64) (*Table, error) {
	ids := make(map[string]string)
	rev := make(map[string]string)
	out := t.clone(t.Records)
	for i := range out.Records {
		u := out.Records[i].User
		p, ok := ids[u]
		if !ok {
			p = fmt.Sprintf("p%016x", userHash(u, salt))
			if prev, dup := rev[p]; dup && prev != u {
				return nil, fmt.Errorf("cdr: pseudonym collision between %q and %q", prev, u)
			}
			ids[u] = p
			rev[p] = u
		}
		out.Records[i].User = p
	}
	return out, nil
}
