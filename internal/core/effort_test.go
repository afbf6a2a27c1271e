package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{MaxSpatial: 1, MaxTemporal: 0, WSpatial: 1, WTemporal: 1},
		{MaxSpatial: 0, MaxTemporal: 1, WSpatial: 1, WTemporal: 1},
		{MaxSpatial: 1, MaxTemporal: 1, WSpatial: -1, WTemporal: 1},
		{MaxSpatial: 1, MaxTemporal: 1, WSpatial: 0, WTemporal: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestStretch1D(t *testing.T) {
	cases := []struct {
		a, da, b, db float64
		want         float64
	}{
		{0, 10, 0, 10, 0},   // identical
		{0, 10, 2, 5, 0},    // contained
		{0, 10, -5, 3, 5},   // left stretch only
		{0, 10, 8, 10, 8},   // right stretch only
		{0, 10, -5, 30, 20}, // both sides (5 left + 15 right)
		{0, 10, 20, 5, 15},  // disjoint right: extend right edge 10->25
		{20, 5, 0, 10, 20},  // disjoint left: extend left edge 20->0
		{0, 0, 0, 0, 0},     // degenerate points
		{5, 0, 2, 0, 3},     // point to point
	}
	for i, c := range cases {
		if got := stretch1D(c.a, c.da, c.b, c.db); got != c.want {
			t.Errorf("case %d: stretch1D = %g, want %g", i, got, c.want)
		}
	}
}

func TestSpatialStretchPaperGeometry(t *testing.T) {
	// Two disjoint 100 m cells with a 1 km gap along x (Fig. 2a): each
	// must be stretched 1100 m to cover the other (the gap plus the other
	// cell's extent), so with equal counts φ*_σ = 1100.
	a := Sample{X: 0, DX: 100, Y: 0, DY: 100, Weight: 1}
	b := Sample{X: 1100, DX: 100, Y: 0, DY: 100, Weight: 1}
	if got := SpatialStretch(a, b, 1, 1); got != 1100 {
		t.Errorf("disjoint stretch = %g, want 1100", got)
	}
	// Total overlap (Fig. 2c): zero stretch.
	inner := Sample{X: 10, DX: 10, Y: 10, DY: 10, Weight: 1}
	outer := Sample{X: 0, DX: 100, Y: 0, DY: 100, Weight: 1}
	// inner must stretch to cover outer; outer needs nothing.
	want := (10.0+80+10+80)/2 + 0.0/2
	if got := SpatialStretch(inner, outer, 1, 1); got != want {
		t.Errorf("contained stretch = %g, want %g", got, want)
	}
}

func TestTemporalStretchSymmetric(t *testing.T) {
	a := Sample{T: 0, DT: 1, Weight: 1}
	b := Sample{T: 59, DT: 1, Weight: 1}
	x := TemporalStretch(a, b, 1, 1)
	y := TemporalStretch(b, a, 1, 1)
	if x != y {
		t.Errorf("TemporalStretch asymmetric: %g vs %g", x, y)
	}
	if x != 59 {
		t.Errorf("TemporalStretch = %g, want 59", x)
	}
}

func TestCountWeighting(t *testing.T) {
	// When a hides 3 users and b hides 1, stretching a's sample costs 3x
	// more per meter: the weighted stretch reflects it (Eq. 4).
	a := Sample{X: 0, DX: 100, Y: 0, DY: 100, Weight: 1}
	b := Sample{X: 1100, DX: 100, Y: 0, DY: 100, Weight: 1}
	// Both need 1100 m of stretch (gap + other extent); weights 3/4, 1/4.
	want := 1100*0.75 + 1100*0.25
	if got := SpatialStretch(a, b, 3, 1); got != want {
		t.Errorf("weighted stretch = %g, want %g", got, want)
	}
	// Asymmetric geometry: b contained in a. Only b pays stretch.
	outer := Sample{X: 0, DX: 2000, Y: 0, DY: 2000, Weight: 1}
	inner := Sample{X: 900, DX: 100, Y: 900, DY: 100, Weight: 1}
	innerCost := 900.0 + 1000 + 900 + 1000
	if got := SpatialStretch(outer, inner, 9, 1); got != innerCost*0.1 {
		t.Errorf("weighted contained stretch = %g, want %g", got, innerCost*0.1)
	}
}

func TestSampleEffortRange(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a, b := randSample(rng), randSample(rng)
		na, nb := 1+rng.Intn(10), 1+rng.Intn(10)
		d := p.SampleEffort(a, b, na, nb)
		if d < 0 || d > 1 || math.IsNaN(d) {
			t.Fatalf("SampleEffort = %g outside [0,1] for %+v, %+v", d, a, b)
		}
	}
}

func TestSampleEffortZeroIffIdentical(t *testing.T) {
	p := DefaultParams()
	a := NewSample(1000, 2000, 100, 500, 1)
	if d := p.SampleEffort(a, a, 1, 1); d != 0 {
		t.Errorf("effort of identical samples = %g, want 0", d)
	}
	b := a
	b.X += 1
	if d := p.SampleEffort(a, b, 1, 1); d <= 0 {
		t.Errorf("effort of different samples = %g, want > 0", d)
	}
}

func TestSampleEffortSaturates(t *testing.T) {
	p := DefaultParams()
	a := NewSample(0, 0, 100, 0, 1)
	b := NewSample(1e7, 1e7, 100, 1e6, 1) // absurdly far in space and time
	if d := p.SampleEffort(a, b, 1, 1); d != 1 {
		t.Errorf("saturated effort = %g, want 1", d)
	}
}

func TestSampleEffortPartsSum(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		a, b := randSample(rng), randSample(rng)
		s, tau := p.SampleEffortParts(a, b, 2, 3)
		if d := p.SampleEffort(a, b, 2, 3); math.Abs(s+tau-d) > 1e-12 {
			t.Fatalf("parts %g + %g != total %g", s, tau, d)
		}
	}
}

func TestSampleEffortEquivalenceCalibration(t *testing.T) {
	// The thresholds trade 20 km of space for 8 h of time, i.e. ~0.5 km
	// of spatial generalization weighs the same as ~12 min of temporal
	// generalization (the paper's footnote 3 quotes "~0.5 km and
	// ~15 min" for this equivalence).
	p := DefaultParams()
	a := NewSample(0, 0, 100, 0, 1)
	spatialOnly := Sample{X: 500, DX: 100, Y: 0, DY: 100, T: 0, DT: 1, Weight: 1} // 500 m offset
	temporalOnly := Sample{X: 0, DX: 100, Y: 0, DY: 100, T: 12, DT: 1, Weight: 1} // 12 min offset
	ds := p.SampleEffort(a, spatialOnly, 1, 1)
	dt := p.SampleEffort(a, temporalOnly, 1, 1)
	if math.Abs(ds-dt) > 1e-12 {
		t.Errorf("0.5 km spatial (%g) != 12 min temporal (%g)", ds, dt)
	}
}

func TestFingerprintEffortSymmetric(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		a := randFingerprint(rng, fmt.Sprintf("a%d", i), 1+rng.Intn(20))
		b := randFingerprint(rng, fmt.Sprintf("b%d", i), 1+rng.Intn(20))
		x, y := p.FingerprintEffort(a, b), p.FingerprintEffort(b, a)
		if x != y {
			t.Fatalf("FingerprintEffort asymmetric: %g vs %g", x, y)
		}
		if x < 0 || x > 1 || math.IsNaN(x) {
			t.Fatalf("FingerprintEffort = %g outside [0,1]", x)
		}
	}
}

func TestFingerprintEffortZeroForIdentical(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	a := randFingerprint(rng, "a", 10)
	b := a.Clone()
	b.ID = "b"
	if d := p.FingerprintEffort(a, b); d != 0 {
		t.Errorf("effort between identical fingerprints = %g, want 0", d)
	}
}

func TestFingerprintEffortLongerDominates(t *testing.T) {
	// Eq. 10 averages over the longer fingerprint: a long fingerprint with
	// one far-away extra sample pays for it even against a short one fully
	// covered.
	p := DefaultParams()
	near := NewSample(0, 0, 100, 100, 1)
	far := NewSample(0, 0, 100, 100+400, 1) // 400 min away in time
	short := NewFingerprint("s", []Sample{near})
	long := NewFingerprint("l", []Sample{near, far})
	d := p.FingerprintEffort(long, short)
	// Sample 1 matches at 0; sample 2 pays 400 min of temporal stretch
	// (each side stretches 400): φ*_τ = 400, loss = 400/480, δ = 0.5*400/480.
	want := (0 + 0.5*400.0/480) / 2
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("effort = %g, want %g", d, want)
	}
}

func TestFingerprintEffortMatchesBruteForce(t *testing.T) {
	// The optimized inner loop must agree with a naive implementation of
	// Eq. 10 built from the public SampleEffort.
	p := DefaultParams()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := randFingerprint(rng, "a", 1+rng.Intn(15))
		b := randFingerprint(rng, "b", 1+rng.Intn(15))
		a.Count = 1 + rng.Intn(4)
		b.Count = 1 + rng.Intn(4)
		a.Members = make([]string, a.Count)
		b.Members = make([]string, b.Count)

		directed := func(long, short *Fingerprint) float64 {
			var sum float64
			for _, s := range long.Samples {
				best := math.Inf(1)
				for _, o := range short.Samples {
					if d := p.SampleEffort(s, o, long.Count, short.Count); d < best {
						best = d
					}
				}
				sum += best
			}
			return sum / float64(long.Len())
		}
		var want float64
		switch {
		case a.Len() > b.Len():
			want = directed(a, b)
		case a.Len() < b.Len():
			want = directed(b, a)
		default:
			want = (directed(a, b) + directed(b, a)) / 2
		}
		if got := p.FingerprintEffort(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: optimized %g != brute force %g", trial, got, want)
		}
	}
}

func TestNearestSampleIndex(t *testing.T) {
	p := DefaultParams()
	s := NewSample(0, 0, 100, 100, 1)
	candidates := []Sample{
		NewSample(50000, 50000, 100, 100, 1), // far in space
		NewSample(0, 0, 100, 103, 1),         // 3 min away
		NewSample(0, 0, 100, 2000, 1),        // far in time
	}
	if got := p.NearestSampleIndex(s, 1, candidates, 1); got != 1 {
		t.Errorf("NearestSampleIndex = %d, want 1", got)
	}
}

// The merge matching stage's outward scan must pick exactly what the
// full scan picks, the lowest index among effort ties included. The
// inputs are tie heavy: samples far apart in space and time, whose
// efforts all saturate at exactly 1.0, duplicated samples, and samples
// sharing a start, with queries drawn from the same mix.
func TestNearestSampleSortedMatchesFullScan(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(12))
	sample := func(pool []Sample) Sample {
		switch rng.Intn(4) {
		case 0:
			return Sample{X: float64(rng.Intn(8)) * 50000, DX: 100, DY: 100, T: float64(rng.Intn(8)) * 1000, DT: 1, Weight: 1}
		case 1:
			if len(pool) > 0 {
				return pool[rng.Intn(len(pool))]
			}
		case 2:
			if len(pool) > 0 {
				s := pool[rng.Intn(len(pool))]
				s.X += rng.Float64() * 2000
				s.DT = float64(rng.Intn(4)) * 60
				return s
			}
		}
		return Sample{
			X: rng.Float64() * 3000, DX: float64(rng.Intn(3)) * 200,
			Y: rng.Float64() * 3000, DY: float64(rng.Intn(3)) * 200,
			T: float64(rng.Intn(48)) * 30, DT: float64(rng.Intn(4)) * 60, Weight: 1,
		}
	}
	ties := 0
	for trial := 0; trial < 2000; trial++ {
		var cands []Sample
		for n := 1 + rng.Intn(20); len(cands) < n; {
			cands = append(cands, sample(cands))
		}
		sortSamples(cands)
		tHiMax := make([]float64, len(cands))
		for k, c := range cands {
			tHiMax[k] = c.T + c.DT
			if k > 0 {
				tHiMax[k] = math.Max(tHiMax[k], tHiMax[k-1])
			}
		}
		ns, nc := 1+rng.Intn(4), 1+rng.Intn(4)
		wa, wb := float64(ns)/float64(ns+nc), float64(nc)/float64(ns+nc)
		for q := 0; q < 8; q++ {
			s := sample(cands)
			want := p.NearestSampleIndex(s, ns, cands, nc)
			if got := p.nearestSampleSorted(s, wa, wb, cands, tHiMax); got != want {
				t.Fatalf("trial %d: outward scan picked %d, full scan %d (query %+v, candidates %+v)", trial, got, want, s, cands)
			}
			best := p.SampleEffort(s, cands[want], ns, nc)
			for k := want + 1; k < len(cands); k++ {
				if p.SampleEffort(s, cands[k], ns, nc) == best {
					ties++
					break
				}
			}
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d queries had a tie at the minimum; the inputs no longer exercise the tie-break", ties)
	}
}

// randFingerprint builds a random single-user fingerprint with n samples
// clustered around a random anchor, resembling a (very small) synthetic
// subscriber.
func randFingerprint(rng *rand.Rand, id string, n int) *Fingerprint {
	ax, ay := rng.Float64()*5e4, rng.Float64()*5e4
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{
			X:      ax + rng.NormFloat64()*2000,
			DX:     100,
			Y:      ay + rng.NormFloat64()*2000,
			DY:     100,
			T:      rng.Float64() * 14 * 24 * 60,
			DT:     1,
			Weight: 1,
		}
	}
	return NewFingerprint(id, samples)
}

func BenchmarkFingerprintEffort(b *testing.B) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 50, 150} {
		fa := randFingerprint(rng, "a", n)
		fb := randFingerprint(rng, "b", n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.FingerprintEffort(fa, fb)
			}
		})
	}
}
