package synth

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

func smallCfg(users int) Config {
	cfg := CIV(users)
	cfg.NumCities = 8
	cfg.NumAntennas = 160
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := CIV(100).Validate(); err != nil {
		t.Errorf("CIV invalid: %v", err)
	}
	if err := SEN(100).Validate(); err != nil {
		t.Errorf("SEN invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := CIV(10); c.Users = 0; return c }(),
		func() Config { c := CIV(10); c.Days = 0; return c }(),
		func() Config { c := CIV(10); c.Center = geo.LatLon{Lat: 400}; return c }(),
		func() Config { c := CIV(10); c.NumAntennas = 1; return c }(),
		func() Config { c := CIV(10); c.MedianEventsPerDay = 0; return c }(),
		func() Config { c := CIV(10); c.CommuteScaleKm = 0; return c }(),
		func() Config { c := CIV(10); c.RateSigma = -1; return c }(),
		func() Config { c := CIV(10); c.CountryRadiusKm = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := smallCfg(50)
	table, country, pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(country.Cities) != cfg.NumCities {
		t.Errorf("cities = %d", len(country.Cities))
	}
	if len(country.Antennas) != cfg.NumAntennas {
		t.Errorf("antennas = %d", len(country.Antennas))
	}
	if len(pop.Users) != 50 {
		t.Errorf("users = %d", len(pop.Users))
	}
	if table.Users() != 50 {
		t.Errorf("table users = %d (every user must emit at least one record at default rates)", table.Users())
	}
	if table.SpanDays != cfg.Days {
		t.Errorf("span = %d", table.SpanDays)
	}
	for _, r := range table.Records {
		if r.Minute < 0 || r.Minute >= float64(cfg.Days*cdr.MinutesPerDay) {
			t.Fatalf("record outside recording period: %g", r.Minute)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallCfg(20)
	t1, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Records) != len(t2.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(t1.Records), len(t2.Records))
	}
	for i := range t1.Records {
		if t1.Records[i] != t2.Records[i] {
			t.Fatalf("record %d differs across runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := smallCfg(20)
	t1, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	t2, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Records) == len(t2.Records) {
		same := true
		for i := range t1.Records {
			if t1.Records[i] != t2.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestAntennasWithinCountry(t *testing.T) {
	cfg := smallCfg(5)
	_, country, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	limit := cfg.CountryRadiusKm * 1000 * 1.5 // urban Gaussian tails allowed
	for _, a := range country.Antennas {
		if d := a.Pos.Dist(geo.Point{}); d > limit {
			t.Errorf("antenna %d at %.0f km from center", a.ID, d/1000)
		}
		back, err := country.Proj.Forward(a.Geo)
		if err != nil {
			t.Fatal(err)
		}
		if back.Dist(a.Pos) > 1 {
			t.Errorf("antenna %d geo/planar mismatch: %.2f m", a.ID, back.Dist(a.Pos))
		}
	}
}

func TestCityShareZipf(t *testing.T) {
	cfg := smallCfg(5)
	_, country, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i, c := range country.Cities {
		if i > 0 && c.PopShare > country.Cities[i-1].PopShare {
			t.Error("city shares not decreasing")
		}
		total += c.PopShare
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	if country.Cities[0].PopShare < 2*country.Cities[len(country.Cities)-1].PopShare {
		t.Error("no primate-city structure")
	}
}

// Radius of gyration of each user's samples: median should land in the
// low single-digit km, matching the locality the paper reports (1.8-2 km
// medians) and that Sec. 7.3 uses to explain citywide results.
func TestRadiusOfGyrationLocality(t *testing.T) {
	cfg := smallCfg(150)
	table, country, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byUser := make(map[string][]geo.Point)
	for _, r := range table.Records {
		pt, err := country.Proj.Forward(r.Pos)
		if err != nil {
			t.Fatal(err)
		}
		byUser[r.User] = append(byUser[r.User], pt)
	}
	var rogs []float64
	for _, pts := range byUser {
		var cx, cy float64
		for _, p := range pts {
			cx += p.X
			cy += p.Y
		}
		cx /= float64(len(pts))
		cy /= float64(len(pts))
		var sum float64
		for _, p := range pts {
			dx, dy := p.X-cx, p.Y-cy
			sum += dx*dx + dy*dy
		}
		rogs = append(rogs, math.Sqrt(sum/float64(len(pts))))
	}
	sort.Float64s(rogs)
	median := rogs[len(rogs)/2]
	if median < 300 || median > 15000 {
		t.Errorf("median radius of gyration = %.0f m, want spatial locality (0.3-15 km)", median)
	}
	mean := 0.0
	for _, r := range rogs {
		mean += r
	}
	mean /= float64(len(rogs))
	if mean < median {
		t.Errorf("mean rog %.0f < median %.0f: no heavy tail of travellers", mean, median)
	}
}

// Event rates must be heterogeneous (log-normal): the ratio between the
// 90th and 10th percentile of per-user record counts should be large.
func TestRateHeterogeneity(t *testing.T) {
	cfg := smallCfg(200)
	table, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range table.Records {
		counts[r.User]++
	}
	var cs []float64
	for _, c := range counts {
		cs = append(cs, float64(c))
	}
	sort.Float64s(cs)
	p10 := cs[len(cs)/10]
	p90 := cs[len(cs)*9/10]
	if p90/p10 < 2 {
		t.Errorf("rate heterogeneity p90/p10 = %.2f, want >= 2", p90/p10)
	}
}

// The circadian profile must push activity out of the night hours.
func TestCircadianProfile(t *testing.T) {
	cfg := smallCfg(100)
	table, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var night, evening int
	for _, r := range table.Records {
		hour := int(r.Minute/60) % 24
		switch {
		case hour >= 1 && hour < 5:
			night++
		case hour >= 18 && hour < 22:
			evening++
		}
	}
	if night == 0 || evening == 0 {
		t.Skip("not enough records for profile test")
	}
	if float64(evening) < 3*float64(night) {
		t.Errorf("evening/night ratio = %.2f, want >= 3 (circadian profile)", float64(evening)/float64(night))
	}
}

// Burstiness: the inter-event time distribution must have a substantial
// sub-10-minute mass (bursts) and a long tail (overnight gaps).
func TestBurstyInterEventTimes(t *testing.T) {
	cfg := smallCfg(100)
	table, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byUser := make(map[string][]float64)
	for _, r := range table.Records {
		byUser[r.User] = append(byUser[r.User], r.Minute)
	}
	var gaps []float64
	for _, ts := range byUser {
		sort.Float64s(ts)
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i]-ts[i-1])
		}
	}
	sort.Float64s(gaps)
	var short, long int
	for _, g := range gaps {
		if g < 10 {
			short++
		}
		if g > 6*60 {
			long++
		}
	}
	if frac := float64(short) / float64(len(gaps)); frac < 0.1 {
		t.Errorf("burst fraction = %.3f, want >= 0.1", frac)
	}
	if frac := float64(long) / float64(len(gaps)); frac < 0.02 {
		t.Errorf("long-gap fraction = %.3f, want >= 0.02", frac)
	}
}

// Trajectory uniqueness: with full-length knowledge, (almost) every user
// must be unique in the raw dataset — the paper's core premise (Sec. 5.1:
// no user is 2-anonymous).
func TestTrajectoryUniqueness(t *testing.T) {
	cfg := smallCfg(80)
	table, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	unique := 0
	for _, f := range d.Fingerprints {
		if core.MatchCrowd(d, f.Samples) == 1 {
			unique++
		}
	}
	if frac := float64(unique) / float64(d.Len()); frac < 0.95 {
		t.Errorf("only %.0f%% of users unique, want >= 95%%", frac*100)
	}
}

// Home anchors must dominate night-time records.
func TestHomeAnchorAtNight(t *testing.T) {
	cfg := smallCfg(60)
	table, country, pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := make(map[string]geo.LatLon)
	for _, u := range pop.Users {
		home[u.ID] = country.Antennas[u.Home].Geo
	}
	var at, away int
	for _, r := range table.Records {
		hour := int(r.Minute/60) % 24
		if hour >= 7 && hour < 22 {
			continue
		}
		if r.Pos == home[r.User] {
			at++
		} else {
			away++
		}
	}
	if at+away == 0 {
		t.Skip("no night records")
	}
	if frac := float64(at) / float64(at+away); frac < 0.8 {
		t.Errorf("night-at-home fraction = %.2f, want >= 0.8", frac)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0.5, 3, 12, 50} {
		var sum, sum2 float64
		n := 20000
		for i := 0; i < n; i++ {
			v := float64(poisson(rng, mean))
			sum += v
			sum2 += v * v
		}
		m := sum / float64(n)
		v := sum2/float64(n) - m*m
		if math.Abs(m-mean) > 0.1*mean+0.1 {
			t.Errorf("poisson(%g): mean = %g", mean, m)
		}
		if math.Abs(v-mean) > 0.2*mean+0.2 {
			t.Errorf("poisson(%g): var = %g", mean, v)
		}
	}
	if poisson(rng, 0) != 0 {
		t.Error("poisson(0) != 0")
	}
	if poisson(rng, -3) != 0 {
		t.Error("poisson(-3) != 0")
	}
}

func TestSampleIndexWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	weights := []float64{1, 0, 3}
	var counts [3]int
	for i := 0; i < 40000; i++ {
		counts[sampleIndex(rng, weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestRandInDisc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var inside int
	const r = 1000.0
	for i := 0; i < 5000; i++ {
		p := randInDisc(rng, r)
		if d := p.Dist(geo.Point{}); d <= r {
			inside++
		}
	}
	if inside != 5000 {
		t.Errorf("%d / 5000 points outside disc", 5000-inside)
	}
	// Uniformity in area: about a quarter of points within r/2.
	var inner int
	for i := 0; i < 20000; i++ {
		if randInDisc(rng, r).Dist(geo.Point{}) <= r/2 {
			inner++
		}
	}
	if frac := float64(inner) / 20000; frac < 0.2 || frac > 0.3 {
		t.Errorf("inner fraction = %.3f, want ~0.25", frac)
	}
}

func TestVisitSet(t *testing.T) {
	v := newVisitSet()
	v.add(5, 3)
	v.add(9, 1)
	v.add(5, 2)
	if v.len() != 2 {
		t.Errorf("len = %d, want 2", v.len())
	}
	if v.total != 6 {
		t.Errorf("total = %d, want 6", v.total)
	}
	rng := rand.New(rand.NewSource(4))
	var five, nine int
	for i := 0; i < 6000; i++ {
		switch v.sample(rng) {
		case 5:
			five++
		case 9:
			nine++
		default:
			t.Fatal("sampled unknown id")
		}
	}
	ratio := float64(five) / float64(nine)
	if ratio < 4 || ratio > 6.5 {
		t.Errorf("sample ratio = %.2f, want ~5", ratio)
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, _, _, err := Generate(Config{}); err == nil {
		t.Error("Generate accepted zero config")
	}
}
