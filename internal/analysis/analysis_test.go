package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func randDataset(rng *rand.Rand, n, maxLen int) *core.Dataset {
	fps := make([]*core.Fingerprint, n)
	for i := range fps {
		m := 1 + rng.Intn(maxLen)
		ax, ay := rng.Float64()*4e4, rng.Float64()*4e4
		samples := make([]core.Sample, m)
		for j := range samples {
			samples[j] = core.Sample{
				X: ax + rng.NormFloat64()*2000, DX: 100,
				Y: ay + rng.NormFloat64()*2000, DY: 100,
				T: rng.Float64() * 20000, DT: 1,
				Weight: 1,
			}
		}
		fps[i] = core.NewFingerprint(fmt.Sprintf("u%03d", i), samples)
	}
	return core.NewDataset(fps)
}

func TestDecomposeComponentsConsistent(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 20, 10)
	rs, err := core.KGapAll(p, d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	decs := Decompose(p, d, rs, 0)
	if len(decs) != 20 {
		t.Fatalf("got %d decompositions", len(decs))
	}
	for _, dec := range decs {
		if len(dec.Total) != len(dec.Spatial) || len(dec.Total) != len(dec.Temporal) {
			t.Fatal("component slices have different lengths")
		}
		if len(dec.Total) == 0 {
			t.Fatal("empty decomposition")
		}
		for i := range dec.Total {
			if math.Abs(dec.Spatial[i]+dec.Temporal[i]-dec.Total[i]) > 1e-12 {
				t.Fatalf("components do not sum: %g + %g != %g",
					dec.Spatial[i], dec.Temporal[i], dec.Total[i])
			}
			if dec.Spatial[i] < 0 || dec.Temporal[i] < 0 {
				t.Fatal("negative component")
			}
		}
	}
}

// The mean of the per-pair efforts in a decomposition must reproduce the
// k-gap: the decomposition is a refinement of Eq. 11.
func TestDecomposeMatchesKGap(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(2))
	d := randDataset(rng, 15, 8)
	rs, err := core.KGapAll(p, d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	decs := Decompose(p, d, rs, 0)
	for i, dec := range decs {
		// For k=2 there is a single neighbour; the mean of the per-sample
		// efforts equals Δ_ab... except for equal-length pairs, where
		// FingerprintEffort averages both directions and the decomposition
		// replays only one. Allow that case a tolerance.
		var sum float64
		for _, v := range dec.Total {
			sum += v
		}
		got := sum / float64(len(dec.Total))
		want := rs[i].KGap
		a := d.Fingerprints[rs[i].Index]
		b := d.Fingerprints[rs[i].Nearest[0]]
		if a.Len() != b.Len() {
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("fingerprint %d: decomposition mean %g != k-gap %g", i, got, want)
			}
		}
	}
}

func TestTemporalRatioAndShare(t *testing.T) {
	dec := &Decomposition{
		Spatial:  []float64{0.1, 0.1},
		Temporal: []float64{0.3, 0.5},
	}
	if s := dec.TemporalShare(); math.Abs(s-0.8) > 1e-12 {
		t.Errorf("share = %g, want 0.8", s)
	}
	empty := &Decomposition{}
	if empty.TemporalShare() != 0 {
		t.Error("empty decomposition share not 0")
	}
}

func TestTWIs(t *testing.T) {
	// Build decompositions with known shapes: exponential-ish temporal,
	// uniform spatial.
	rng := rand.New(rand.NewSource(3))
	var decs []Decomposition
	for i := 0; i < 30; i++ {
		var dec Decomposition
		for j := 0; j < 4000; j++ {
			sp := rng.Float64() * 0.01
			tm := rng.ExpFloat64() * 0.01
			dec.Spatial = append(dec.Spatial, sp)
			dec.Temporal = append(dec.Temporal, tm)
			dec.Total = append(dec.Total, sp+tm)
		}
		decs = append(decs, dec)
	}
	res := TWIs(decs)
	if res.Skipped != 0 {
		t.Errorf("skipped %d", res.Skipped)
	}
	if len(res.Temporal) != 30 {
		t.Fatalf("temporal TWIs = %d", len(res.Temporal))
	}
	// Exponential temporal components: heavy tails (TWI >= 1.5 mostly);
	// uniform spatial: light tails.
	if f := HeavyTailFraction(res.Temporal); f < 0.5 {
		t.Errorf("temporal heavy-tail fraction = %.2f, want >= 0.5", f)
	}
	if f := HeavyTailFraction(res.Spatial); f > 0.2 {
		t.Errorf("spatial heavy-tail fraction = %.2f, want <= 0.2", f)
	}
}

func TestTWIsSkipsDegenerate(t *testing.T) {
	decs := []Decomposition{
		{Total: []float64{1, 1, 1, 1}, Spatial: []float64{1, 1, 1, 1}, Temporal: []float64{1, 1, 1, 1}},
	}
	res := TWIs(decs)
	if res.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", res.Skipped)
	}
}

func TestHeavyTailFractionEmpty(t *testing.T) {
	if HeavyTailFraction(nil) != 0 {
		t.Error("empty fraction != 0")
	}
}

func TestKGapCDFAndAnonymousFraction(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(4))
	d := randDataset(rng, 25, 6)
	cdf, rs, err := KGapCDF(p, d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Len() != 25 {
		t.Errorf("CDF over %d values", cdf.Len())
	}
	// Unique random fingerprints: nobody is 2-anonymous (paper Fig. 3a).
	if f := AnonymousFraction(rs); f != 0 {
		t.Errorf("anonymous fraction = %g, want 0 on raw data", f)
	}
	// Duplicate everything: everyone is 2-anonymous.
	fps := make([]*core.Fingerprint, 0, 2*d.Len())
	for _, f := range d.Fingerprints {
		fps = append(fps, f)
		c := f.Clone()
		c.ID = f.ID + "-dup"
		c.Members = []string{c.ID}
		fps = append(fps, c)
	}
	dd := core.NewDataset(fps)
	_, rs2, err := KGapCDF(p, dd, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := AnonymousFraction(rs2); f != 1 {
		t.Errorf("anonymous fraction = %g, want 1 on duplicated data", f)
	}
	if AnonymousFraction(nil) != 0 {
		t.Error("empty anonymous fraction != 0")
	}
}

func TestKGapCDFArgErrors(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 5, 4)
	if _, _, err := KGapCDF(p, d, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestFormatCDF(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 10, 4)
	cdf, _, err := KGapCDF(p, d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCDF(cdf, 5, "x=%.3f")
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Errorf("FormatCDF produced %d lines, want 5", lines)
	}
	if !strings.Contains(out, "F=1.000") {
		t.Error("missing final CDF point")
	}
}
