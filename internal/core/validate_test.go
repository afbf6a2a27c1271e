package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidateKAnonymity(t *testing.T) {
	good := NewDataset([]*Fingerprint{
		{ID: "g1", Samples: []Sample{NewSample(0, 0, 100, 0, 1)}, Count: 2, Members: []string{"a", "b"}},
		{ID: "g2", Samples: []Sample{NewSample(0, 0, 100, 0, 1)}, Count: 3, Members: []string{"c", "d", "e"}},
	})
	if err := ValidateKAnonymity(good, 2); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	if err := ValidateKAnonymity(good, 3); err == nil {
		t.Error("count-2 group passed k=3 validation")
	}

	inconsistent := NewDataset([]*Fingerprint{
		{ID: "g", Count: 2, Members: []string{"a"}},
	})
	if err := ValidateKAnonymity(inconsistent, 2); err == nil {
		t.Error("inconsistent member list accepted")
	}

	dup := NewDataset([]*Fingerprint{
		{ID: "g1", Count: 2, Members: []string{"a", "b"}},
		{ID: "g2", Count: 2, Members: []string{"b", "c"}},
	})
	if err := ValidateKAnonymity(dup, 2); err == nil {
		t.Error("duplicated subscriber accepted")
	}
}

func TestCheckTruthfulnessDetectsFabrication(t *testing.T) {
	orig := NewDataset([]*Fingerprint{
		NewFingerprint("a", []Sample{NewSample(0, 0, 100, 10, 1)}),
	})
	// Published fingerprint that does NOT cover the original sample.
	published := NewDataset([]*Fingerprint{
		{
			ID:      "g",
			Samples: []Sample{NewSample(5000, 5000, 100, 10, 1)},
			Count:   1,
			Members: []string{"a"},
		},
	})
	rep := CheckTruthfulness(orig, published)
	if rep.Covered != 0 || rep.Suppressed != 1 {
		t.Errorf("report = %+v, want 0 covered / 1 suppressed", rep)
	}
}

func TestCheckTruthfulnessMissing(t *testing.T) {
	orig := NewDataset([]*Fingerprint{
		NewFingerprint("a", []Sample{NewSample(0, 0, 100, 10, 1)}),
	})
	published := NewDataset(nil)
	rep := CheckTruthfulness(orig, published)
	if rep.MissingFP != 1 {
		t.Errorf("MissingFP = %d, want 1", rep.MissingFP)
	}
}

func TestMatchingFingerprintsAttack(t *testing.T) {
	// Raw data: the adversary pins the target uniquely.
	rng := rand.New(rand.NewSource(50))
	d := randDataset(rng, 20, 8)
	target := d.Fingerprints[7]
	matches := MatchingFingerprints(d, target.Samples)
	if len(matches) != 1 || matches[0].ID != target.ID {
		t.Fatalf("raw-data attack matched %d fingerprints", len(matches))
	}
	if crowd := MatchCrowd(d, target.Samples); crowd != 1 {
		t.Fatalf("raw-data crowd = %d, want 1 (unique)", crowd)
	}

	// After GLOVE, the same knowledge matches a crowd of >= k.
	out, _, err := Glove(d, GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	crowd := MatchCrowd(out, target.Samples)
	if crowd < 2 {
		t.Fatalf("GLOVE'd crowd = %d, want >= 2", crowd)
	}
}

func TestMatchCrowdNoMatch(t *testing.T) {
	d := NewDataset([]*Fingerprint{
		NewFingerprint("a", []Sample{NewSample(0, 0, 100, 10, 1)}),
	})
	known := []Sample{NewSample(90000, 0, 100, 10, 1)}
	if crowd := MatchCrowd(d, known); crowd != 0 {
		t.Errorf("crowd = %d, want 0", crowd)
	}
}

func TestFingerprintValidate(t *testing.T) {
	good := NewFingerprint("a", []Sample{NewSample(0, 0, 100, 5, 1), NewSample(0, 0, 100, 1, 1)})
	if err := good.Validate(); err != nil {
		t.Errorf("valid fingerprint rejected: %v", err)
	}
	if good.Samples[0].T > good.Samples[1].T {
		t.Error("NewFingerprint did not sort samples")
	}

	bad := []*Fingerprint{
		{ID: "", Count: 1, Members: []string{""}, Samples: []Sample{NewSample(0, 0, 100, 0, 1)}},
		{ID: "x", Count: 0, Members: nil, Samples: []Sample{NewSample(0, 0, 100, 0, 1)}},
		{ID: "x", Count: 2, Members: []string{"x"}, Samples: []Sample{NewSample(0, 0, 100, 0, 1)}},
		{ID: "x", Count: 1, Members: []string{"x"}, Samples: nil},
		{ID: "x", Count: 1, Members: []string{"x"}, Samples: []Sample{{DX: -1, Weight: 1}}},
		{ID: "x", Count: 1, Members: []string{"x"}, Samples: []Sample{
			NewSample(0, 0, 100, 10, 1), NewSample(0, 0, 100, 5, 1)}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fingerprint %d accepted", i)
		}
	}
}

func TestDatasetValidateAndHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := randDataset(rng, 5, 4)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 || d.Users() != 5 {
		t.Errorf("Len = %d, Users = %d", d.Len(), d.Users())
	}
	if d.TotalSamples() <= 0 {
		t.Error("TotalSamples <= 0")
	}

	dup := NewDataset([]*Fingerprint{d.Fingerprints[0], d.Fingerprints[0]})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := randDataset(rng, 3, 4)
	c := d.Clone()
	c.Fingerprints[0].Samples[0].X += 999
	c.Fingerprints[0].Members[0] = "mutated"
	if d.Fingerprints[0].Samples[0].X == c.Fingerprints[0].Samples[0].X {
		t.Error("clone shares sample storage")
	}
	if d.Fingerprints[0].Members[0] == "mutated" {
		t.Error("clone shares member storage")
	}
}

// The indexed linkage probe must return the scan's match count and
// MatchCrowd for every known trajectory, in particular for known samples whose every bound
// sits exactly on, or one ulp beyond, a published sample's coverEps
// edge, where the box check and Sample.Covers must agree bit for bit.
func TestCoverIndexMatchEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fps []*Fingerprint
	for g := 0; g < 40; g++ {
		samples := make([]Sample, 1+rng.Intn(6))
		for i := range samples {
			samples[i] = Sample{
				X: float64(rng.Intn(8)) * 100.3, DX: float64(1+rng.Intn(3)) * 100.3,
				Y: float64(rng.Intn(8)) * 99.7, DY: float64(1+rng.Intn(3)) * 99.7,
				T: float64(rng.Intn(50)) * 1.7, DT: float64(1+rng.Intn(4)) * 1.3,
				Weight: 1,
			}
		}
		f := NewFingerprint("g", samples)
		f.Count = 2 + rng.Intn(3)
		fps = append(fps, f)
	}
	published := NewDataset(fps)
	idx := NewCoverIndex(published)

	// edge returns v moved to the coverEps edge in direction dir (±1),
	// then nudged by ulps ulps outward (positive) or inward.
	edge := func(v, dir float64, ulps int) float64 {
		e := v + dir*coverEps
		for ; ulps > 0; ulps-- {
			e = math.Nextafter(e, dir*math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			e = math.Nextafter(e, -dir*math.Inf(1))
		}
		return e
	}
	var checked, matched int
	for trial := 0; trial < 4000; trial++ {
		known := make([]Sample, 1+rng.Intn(4))
		for i := range known {
			f := fps[rng.Intn(len(fps))]
			p := f.Samples[rng.Intn(f.Len())]
			ulps := rng.Intn(3) - 1
			s := p
			switch rng.Intn(4) {
			case 0: // the known sample's start on p's start edge
				s.X, s.Y, s.T = edge(p.X, -1, ulps), edge(p.Y, -1, ulps), edge(p.T, -1, ulps)
			case 1: // its end on p's end edge, with a zero extent
				s.X, s.Y, s.T = edge(p.X+p.DX, 1, ulps), edge(p.Y+p.DY, 1, ulps), edge(p.T+p.DT, 1, ulps)
				s.DX, s.DY, s.DT = 0, 0, 0
			case 2: // a sub-box of p
				s.X += p.DX / 3
				s.DX = p.DX / 3
			default: // NaN never covers
				s.T = math.NaN()
			}
			known[i] = s
		}
		want := MatchCrowd(published, known)
		wantGroups := len(MatchingFingerprints(published, known))
		if groups, got := idx.Match(known); groups != wantGroups || got != want {
			t.Fatalf("trial %d: indexed %d groups, crowd %d; scan %d, %d for %+v",
				trial, groups, got, wantGroups, want, known)
		}
		checked++
		if want > 0 {
			matched++
		}
	}
	if matched == 0 || matched == checked {
		t.Errorf("%d of %d trajectories matched; want some of each", matched, checked)
	}
}
