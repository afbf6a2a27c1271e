package mobility

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func fpAt(id string, pts ...[3]float64) *core.Fingerprint {
	samples := make([]core.Sample, len(pts))
	for i, p := range pts {
		samples[i] = core.Sample{
			X: p[0] - 50, DX: 100,
			Y: p[1] - 50, DY: 100,
			T: p[2], DT: 1,
			Weight: 1,
		}
	}
	return core.NewFingerprint(id, samples)
}

func TestRadiusOfGyration(t *testing.T) {
	// All visits in one place: rog 0.
	still := fpAt("still", [3]float64{0, 0, 0}, [3]float64{0, 0, 100})
	if r := RadiusOfGyration(still); r != 0 {
		t.Errorf("stationary rog = %g", r)
	}
	// Two visits 2 km apart: rog = 1 km.
	mover := fpAt("mover", [3]float64{0, 0, 0}, [3]float64{2000, 0, 100})
	if r := RadiusOfGyration(mover); math.Abs(r-1000) > 1e-9 {
		t.Errorf("rog = %g, want 1000", r)
	}
	// Weighted: a weight-3 sample pulls the centroid.
	weighted := fpAt("w", [3]float64{0, 0, 0}, [3]float64{4000, 0, 100})
	weighted.Samples[0].Weight = 3
	r := RadiusOfGyration(weighted)
	// Centroid at 1000; distances 1000 (w3) and 3000 (w1): rms = sqrt((3*1e6+9e6)/4).
	want := math.Sqrt((3*1e6 + 9e6) / 4)
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("weighted rog = %g, want %g", r, want)
	}
	if RadiusOfGyration(&core.Fingerprint{}) != 0 {
		t.Error("empty fingerprint rog != 0")
	}
}

func TestRadiusOfGyrationStats(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{
		fpAt("a", [3]float64{0, 0, 0}, [3]float64{2000, 0, 10}),
		fpAt("b", [3]float64{0, 0, 0}, [3]float64{6000, 0, 10}),
		fpAt("c", [3]float64{0, 0, 0}),
	})
	median, mean := RadiusOfGyrationStats(d)
	if median != 1000 {
		t.Errorf("median = %g, want 1000", median)
	}
	if math.Abs(mean-4000.0/3) > 1e-9 {
		t.Errorf("mean = %g", mean)
	}
	if m, n := RadiusOfGyrationStats(core.NewDataset(nil)); m != 0 || n != 0 {
		t.Error("empty dataset stats != 0")
	}
}

func TestInferAnchors(t *testing.T) {
	// Night visits at (0,0), weekday working-hour visits at (5000,0).
	f := fpAt("u",
		[3]float64{0, 0, 2 * 60},              // day 0, 02:00 -> home
		[3]float64{0, 0, 23 * 60},             // day 0, 23:00 -> home
		[3]float64{5000, 0, 24*60 + 10*60},    // day 1 (weekday), 10:00 -> work
		[3]float64{5000, 0, 2*24*60 + 14*60},  // day 2, 14:00 -> work
		[3]float64{2000, 2000, 24*60 + 19*60}, // evening, neither
	)
	a := InferAnchors(f)
	if a.Home.Dist(geo.Point{X: 0, Y: 0}) > 1 {
		t.Errorf("home = %+v", a.Home)
	}
	if a.Work.Dist(geo.Point{X: 5000, Y: 0}) > 1 {
		t.Errorf("work = %+v", a.Work)
	}
	if a.HomeSupport != 2 || a.WorkSupport != 2 {
		t.Errorf("supports = %g / %g", a.HomeSupport, a.WorkSupport)
	}
}

func TestInferAnchorsFallback(t *testing.T) {
	// Only evening visits: home and work fall back to the centroid.
	f := fpAt("u", [3]float64{1000, 1000, 19 * 60}, [3]float64{3000, 3000, 20 * 60})
	a := InferAnchors(f)
	want := geo.Point{X: 2000, Y: 2000}
	if a.Home.Dist(want) > 1 || a.Work.Dist(want) > 1 {
		t.Errorf("fallback anchors = %+v", a)
	}
	if a.HomeSupport != 0 || a.WorkSupport != 0 {
		t.Error("fallback reported support")
	}
	empty := InferAnchors(&core.Fingerprint{})
	if empty.Home != (geo.Point{}) {
		t.Error("empty fingerprint anchors not zero")
	}
}

func TestVisitEntropy(t *testing.T) {
	// Single cell: zero entropy.
	one := fpAt("one", [3]float64{0, 0, 0}, [3]float64{10, 10, 5})
	if h := VisitEntropy(one, 1000); h != 0 {
		t.Errorf("single-cell entropy = %g", h)
	}
	// Two cells, equal weight: 1 bit.
	two := fpAt("two", [3]float64{0, 0, 0}, [3]float64{5000, 0, 5})
	if h := VisitEntropy(two, 1000); math.Abs(h-1) > 1e-12 {
		t.Errorf("two-cell entropy = %g, want 1", h)
	}
	// Four cells, equal: 2 bits.
	four := fpAt("four",
		[3]float64{0, 0, 0}, [3]float64{5000, 0, 1},
		[3]float64{0, 5000, 2}, [3]float64{5000, 5000, 3})
	if h := VisitEntropy(four, 1000); math.Abs(h-2) > 1e-12 {
		t.Errorf("four-cell entropy = %g, want 2", h)
	}
	// Default pitch path.
	if VisitEntropy(two, 0) <= 0 {
		t.Error("default pitch entropy not positive")
	}
}

func TestTopCells(t *testing.T) {
	f := fpAt("u",
		[3]float64{0, 0, 0}, [3]float64{0, 0, 1}, [3]float64{0, 0, 2},
		[3]float64{5000, 0, 3},
	)
	top := TopCells(f, 1000, 2)
	if len(top) != 2 {
		t.Fatalf("got %d cells", len(top))
	}
	if math.Abs(top[0].Share-0.75) > 1e-12 || math.Abs(top[1].Share-0.25) > 1e-12 {
		t.Errorf("shares = %v", top)
	}
	// n larger than distinct cells.
	all := TopCells(f, 1000, 10)
	if len(all) != 2 {
		t.Errorf("got %d cells for n=10", len(all))
	}
	// Deterministic ordering under ties.
	tied := fpAt("t", [3]float64{0, 0, 0}, [3]float64{5000, 0, 1})
	a := TopCells(tied, 1000, 2)
	b := TopCells(tied, 1000, 2)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("tie ordering not deterministic")
	}
}

func TestActivityProfile(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{
		fpAt("a", [3]float64{0, 0, 8 * 60}, [3]float64{0, 0, 8*60 + 30}),
		fpAt("b", [3]float64{0, 0, 24*60 + 8*60}, [3]float64{0, 0, 20 * 60}),
	})
	prof := ActivityProfile(d)
	if prof[8] != 3 {
		t.Errorf("hour 8 = %g, want 3", prof[8])
	}
	if prof[20] != 1 {
		t.Errorf("hour 20 = %g, want 1", prof[20])
	}
	var total float64
	for _, v := range prof {
		total += v
	}
	if total != 4 {
		t.Errorf("total = %g, want 4", total)
	}
}

func TestSpatialDensity(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{
		fpAt("a", [3]float64{100, 100, 0}, [3]float64{200, 200, 1}),
		fpAt("b", [3]float64{9000, 9000, 0}),
	})
	dens := SpatialDensity(d, 5000)
	if len(dens) != 2 {
		t.Fatalf("got %d cells", len(dens))
	}
	g := geo.Grid{Pitch: 5000}
	if dens[g.CellOf(geo.Point{X: 100, Y: 100})] != 2 {
		t.Error("origin cell weight != 2")
	}
	if SpatialDensity(d, 0) == nil {
		t.Error("default pitch returned nil")
	}
}

func TestODMatrix(t *testing.T) {
	// One group of 3 users commuting cell (0,0) -> far cell; one single
	// user staying put.
	commuters := fpAt("g",
		[3]float64{0, 0, 2 * 60},            // night -> home
		[3]float64{50000, 0, 24*60 + 10*60}, // weekday work hours
	)
	commuters.Count = 3
	commuters.Members = []string{"a", "b", "c"}
	stay := fpAt("s", [3]float64{0, 0, 2 * 60}, [3]float64{0, 0, 24*60 + 10*60})
	d := core.NewDataset([]*core.Fingerprint{commuters, stay})
	od := ODMatrix(d, 10000)
	g := geo.Grid{Pitch: 10000}
	home := g.CellOf(geo.Point{})
	work := g.CellOf(geo.Point{X: 50000})
	if od[ODPair{From: home, To: work}] != 3 {
		t.Errorf("commuter flow = %g, want 3", od[ODPair{From: home, To: work}])
	}
	if od[ODPair{From: home, To: home}] != 1 {
		t.Errorf("stay flow = %g, want 1", od[ODPair{From: home, To: home}])
	}
	if (ODPair{From: home, To: work}).String() == "" {
		t.Error("empty ODPair string")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if s := CosineSimilarity(a, a); math.Abs(s-1) > 1e-12 {
		t.Errorf("self similarity = %g", s)
	}
	orth := map[string]float64{"z": 5}
	if s := CosineSimilarity(a, orth); s != 0 {
		t.Errorf("orthogonal similarity = %g", s)
	}
	if CosineSimilarity(a, map[string]float64{}) != 0 {
		t.Error("empty similarity != 0")
	}
	scaled := map[string]float64{"x": 10, "y": 20}
	if s := CosineSimilarity(a, scaled); math.Abs(s-1) > 1e-12 {
		t.Errorf("scale-invariant similarity = %g", s)
	}
}

func TestProfileSimilarity(t *testing.T) {
	var a, b [24]float64
	for i := range a {
		a[i] = float64(i)
		b[i] = 2 * float64(i)
	}
	if s := ProfileSimilarity(a, b); math.Abs(s-1) > 1e-12 {
		t.Errorf("proportional profiles similarity = %g", s)
	}
	var zero [24]float64
	if ProfileSimilarity(a, zero) != 0 {
		t.Error("zero profile similarity != 0")
	}
}

func TestAnalysesWorkOnAnonymizedData(t *testing.T) {
	// The whole point of the package: the same analyses must run on
	// GLOVE output and produce comparable aggregates.
	rng := rand.New(rand.NewSource(1))
	fps := make([]*core.Fingerprint, 24)
	for i := range fps {
		n := 6 + rng.Intn(6)
		pts := make([][3]float64, n)
		hx, hy := rng.Float64()*20000, rng.Float64()*20000
		for j := range pts {
			pts[j] = [3]float64{hx + rng.NormFloat64()*1000, hy + rng.NormFloat64()*1000,
				rng.Float64() * 7 * minutesPerDay}
		}
		fps[i] = fpAt(string(rune('a'+i)), pts...)
	}
	d := core.NewDataset(fps)
	out, _, err := core.Glove(d, core.GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rawDens := SpatialDensity(d, 10000)
	anonDens := SpatialDensity(out, 10000)
	if sim := CosineSimilarity(rawDens, anonDens); sim < 0.8 {
		t.Errorf("density similarity after GLOVE = %.3f, want >= 0.8", sim)
	}
	if sim := ProfileSimilarity(ActivityProfile(d), ActivityProfile(out)); sim < 0.9 {
		t.Errorf("activity profile similarity = %.3f, want >= 0.9", sim)
	}
	// Total visit weight is conserved by GLOVE (no suppression).
	var rawTotal, anonTotal float64
	for _, w := range rawDens {
		rawTotal += w
	}
	for _, w := range anonDens {
		anonTotal += w
	}
	if rawTotal != anonTotal {
		t.Errorf("visit weight changed: %g -> %g", rawTotal, anonTotal)
	}
}

// VisitEntropy returns the Shannon entropy (bits) of a subscriber's
// visit distribution over grid cells of the given pitch: the
// predictability statistic of the mobility literature. Lower entropy =
// more routine.
func VisitEntropy(f *core.Fingerprint, cellMeters float64) float64 {
	if cellMeters <= 0 {
		cellMeters = 1000
	}
	grid := geo.Grid{Pitch: cellMeters}
	counts := make(map[geo.Cell]float64)
	var total float64
	for _, v := range visitsOf(f) {
		counts[grid.CellOf(v.pos)] += v.weight
		total += v.weight
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		p := c / total
		h -= p * math.Log2(p)
	}
	return h
}

// TopCells returns the n most-visited grid cells of a fingerprint with
// their visit shares, descending — the "top locations" adversary
// knowledge of Zang & Bolot (paper ref. [5]).
func TopCells(f *core.Fingerprint, cellMeters float64, n int) []CellShare {
	if cellMeters <= 0 {
		cellMeters = 1000
	}
	grid := geo.Grid{Pitch: cellMeters}
	counts := make(map[geo.Cell]float64)
	var total float64
	for _, v := range visitsOf(f) {
		counts[grid.CellOf(v.pos)] += v.weight
		total += v.weight
	}
	shares := make([]CellShare, 0, len(counts))
	for c, w := range counts {
		shares = append(shares, CellShare{Cell: c, Share: w / total})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Share != shares[j].Share {
			return shares[i].Share > shares[j].Share
		}
		if shares[i].Cell.Col != shares[j].Cell.Col {
			return shares[i].Cell.Col < shares[j].Cell.Col
		}
		return shares[i].Cell.Row < shares[j].Cell.Row
	})
	if n < len(shares) {
		shares = shares[:n]
	}
	return shares
}

// CellShare is a grid cell with its share of a subscriber's visits.
type CellShare struct {
	Cell  geo.Cell
	Share float64
}
