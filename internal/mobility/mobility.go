// Package mobility implements the standard human-mobility analyses the
// paper argues k-anonymized data should still support (Sec. 2.4):
// routine-behavior metrics of individual subscribers (radius of
// gyration, visit frequency, home/work anchors, entropy) and aggregate
// population statistics (spatial density, origin-destination flows,
// diurnal activity profiles). It operates uniformly on raw and
// anonymized datasets — generalized samples contribute their box center
// with their weight — so the same analysis can be scored on both sides
// of an anonymization run (see the utility experiment and the
// commute-study example).
package mobility

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
)

// MinutesPerDay mirrors cdr.MinutesPerDay without importing it.
const minutesPerDay = 24 * 60

// visit is one weighted spatiotemporal observation derived from a
// sample: the box center at the interval midpoint.
type visit struct {
	pos    geo.Point
	minute float64
	weight float64
}

func visitsOf(f *core.Fingerprint) []visit {
	out := make([]visit, 0, len(f.Samples))
	for _, s := range f.Samples {
		out = append(out, visit{
			pos:    geo.Point{X: s.X + s.DX/2, Y: s.Y + s.DY/2},
			minute: s.T + s.DT/2,
			weight: float64(s.Weight),
		})
	}
	return out
}

// RadiusOfGyration returns the weighted radius of gyration of a
// fingerprint in meters: the RMS distance of its visits from their
// centroid — the canonical mobility-range statistic (the paper quotes
// median/mean rog of its datasets in Sec. 7.3).
func RadiusOfGyration(f *core.Fingerprint) float64 {
	vs := visitsOf(f)
	if len(vs) == 0 {
		return 0
	}
	var cx, cy, w float64
	for _, v := range vs {
		cx += v.pos.X * v.weight
		cy += v.pos.Y * v.weight
		w += v.weight
	}
	cx /= w
	cy /= w
	var sum float64
	for _, v := range vs {
		dx, dy := v.pos.X-cx, v.pos.Y-cy
		sum += v.weight * (dx*dx + dy*dy)
	}
	return math.Sqrt(sum / w)
}

// RadiusOfGyrationStats returns the median and mean radius of gyration
// across a dataset, the two numbers Sec. 7.3 reports (1.8 km / 12 km for
// civ, 2 km / 10 km for sen).
func RadiusOfGyrationStats(d *core.Dataset) (median, mean float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	rogs := make([]float64, 0, d.Len())
	var sum float64
	for _, f := range d.Fingerprints {
		r := RadiusOfGyration(f)
		rogs = append(rogs, r)
		sum += r
	}
	sort.Float64s(rogs)
	return rogs[len(rogs)/2], sum / float64(len(rogs))
}

// Anchors are a subscriber's inferred routine locations.
type Anchors struct {
	Home geo.Point
	Work geo.Point
	// HomeSupport and WorkSupport are the visit weights behind each
	// inference; zero support means the class was empty and the overall
	// centroid was used.
	HomeSupport float64
	WorkSupport float64
}

// InferAnchors estimates home (night visits, 22h-7h) and work (weekday
// working-hour visits, 9h-17h) locations as weighted centroids, falling
// back to the overall centroid for empty classes.
func InferAnchors(f *core.Fingerprint) Anchors {
	var hx, hy, hw, wx, wy, ww, ax, ay, aw float64
	for _, v := range visitsOf(f) {
		hour := int(v.minute/60) % 24
		day := int(v.minute / minutesPerDay)
		ax += v.pos.X * v.weight
		ay += v.pos.Y * v.weight
		aw += v.weight
		switch {
		case hour >= 22 || hour < 7:
			hx += v.pos.X * v.weight
			hy += v.pos.Y * v.weight
			hw += v.weight
		case day%7 < 5 && hour >= 9 && hour < 17:
			wx += v.pos.X * v.weight
			wy += v.pos.Y * v.weight
			ww += v.weight
		}
	}
	if aw == 0 {
		return Anchors{}
	}
	avg := geo.Point{X: ax / aw, Y: ay / aw}
	a := Anchors{Home: avg, Work: avg}
	if hw > 0 {
		a.Home = geo.Point{X: hx / hw, Y: hy / hw}
		a.HomeSupport = hw
	}
	if ww > 0 {
		a.Work = geo.Point{X: wx / ww, Y: wy / ww}
		a.WorkSupport = ww
	}
	return a
}

// ActivityProfile returns the dataset's aggregate activity volume per
// hour of day (24 weighted bins): the diurnal load curve operators and
// urbanists read off CDR data. A sample's weight is spread uniformly
// over its time interval, which handles generalized (interval) samples
// correctly: a sample known only to lie within a 3-hour window
// contributes a third of its weight to each covered hour.
func ActivityProfile(d *core.Dataset) [24]float64 {
	var prof [24]float64
	for _, f := range d.Fingerprints {
		for _, s := range f.Samples {
			start, end := s.T, s.T+s.DT
			if end <= start {
				end = start + 1 // degenerate instant: one-minute mass
			}
			total := end - start
			// Walk hour-bin boundaries across the interval.
			for t := start; t < end; {
				next := math.Floor(t/60)*60 + 60
				if next > end {
					next = end
				}
				hour := int(math.Floor(t/60)) % 24
				if hour < 0 {
					hour += 24
				}
				prof[hour] += float64(s.Weight) * (next - t) / total
				t = next
			}
		}
	}
	return prof
}

// SpatialDensity returns the dataset's visit weight per grid cell at
// the given pitch: the population-distribution raster of Sec. 2.4's
// "land use / population distribution" analyses.
func SpatialDensity(d *core.Dataset, cellMeters float64) map[geo.Cell]float64 {
	if cellMeters <= 0 {
		cellMeters = 5000
	}
	grid := geo.Grid{Pitch: cellMeters}
	out := make(map[geo.Cell]float64)
	for _, f := range d.Fingerprints {
		for _, v := range visitsOf(f) {
			out[grid.CellOf(v.pos)] += v.weight
		}
	}
	return out
}

// ODMatrix computes the home-to-work origin-destination flow matrix on
// a coarse grid: cell pair -> number of subscribers commuting between
// them. Group fingerprints contribute their subscriber count.
func ODMatrix(d *core.Dataset, cellMeters float64) map[ODPair]float64 {
	if cellMeters <= 0 {
		cellMeters = 10000
	}
	grid := geo.Grid{Pitch: cellMeters}
	out := make(map[ODPair]float64)
	for _, f := range d.Fingerprints {
		a := InferAnchors(f)
		pair := ODPair{From: grid.CellOf(a.Home), To: grid.CellOf(a.Work)}
		out[pair] += float64(f.Count)
	}
	return out
}

// ODPair is one origin-destination cell pair.
type ODPair struct {
	From geo.Cell
	To   geo.Cell
}

func (p ODPair) String() string {
	return fmt.Sprintf("(%d,%d)->(%d,%d)", p.From.Col, p.From.Row, p.To.Col, p.To.Row)
}

// CosineSimilarity compares two nonnegative weighted maps (densities,
// OD matrices) as vectors; 1 means identical direction. It is the
// utility-preservation score used by the experiment comparing raw and
// anonymized aggregates.
func CosineSimilarity[K comparable](a, b map[K]float64) float64 {
	var dot, na, nb float64
	for k, va := range a {
		dot += va * b[k]
		na += va * va
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// ProfileSimilarity is CosineSimilarity for fixed-size hourly profiles.
func ProfileSimilarity(a, b [24]float64) float64 {
	var dot, na, nb float64
	for i := 0; i < 24; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
