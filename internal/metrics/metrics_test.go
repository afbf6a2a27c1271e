package metrics

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleWith(span, dt float64, w int) core.Sample {
	return core.Sample{DX: span, DY: span / 2, DT: dt, Weight: w}
}

func TestMeasureWeightsExpansion(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{
		{
			ID:      "g",
			Count:   2,
			Members: []string{"a", "b"},
			Samples: []core.Sample{
				sampleWith(100, 1, 3),
				sampleWith(2000, 90, 1),
			},
		},
	})
	acc := Measure(d)
	if len(acc.PositionMeters) != 4 || len(acc.TimeMinutes) != 4 {
		t.Fatalf("expanded to %d/%d entries, want 4", len(acc.PositionMeters), len(acc.TimeMinutes))
	}
	var small int
	for _, v := range acc.PositionMeters {
		if v == 100 {
			small++
		}
	}
	if small != 3 {
		t.Errorf("weight-3 sample appears %d times, want 3", small)
	}
}

func TestAccuracyCDFsAndSummary(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{
		{
			ID: "g", Count: 1, Members: []string{"a"},
			Samples: []core.Sample{
				sampleWith(100, 10, 1),
				sampleWith(300, 20, 1),
				sampleWith(500, 30, 1),
				sampleWith(700, 40, 1),
			},
		},
	})
	acc := Measure(d)
	pc, err := acc.PositionCDF()
	if err != nil {
		t.Fatal(err)
	}
	if pc.At(299) != 0.25 || pc.At(700) != 1 {
		t.Errorf("position CDF wrong: F(299)=%g F(700)=%g", pc.At(299), pc.At(700))
	}
	tc, err := acc.TimeCDF()
	if err != nil {
		t.Fatal(err)
	}
	if tc.At(25) != 0.5 {
		t.Errorf("time CDF wrong: F(25)=%g", tc.At(25))
	}
	sum, err := acc.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 4 || sum.MeanPositionM != 400 || sum.MeanTimeMin != 25 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.MedianPositionM != 400 || sum.MedianTimeMin != 25 {
		t.Errorf("medians = %g / %g", sum.MedianPositionM, sum.MedianTimeMin)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	acc := &Accuracy{}
	if _, err := acc.Summarize(); err == nil {
		t.Error("empty accuracy summarized")
	}
}

func randDataset(rng *rand.Rand, n int) *core.Dataset {
	fps := make([]*core.Fingerprint, n)
	for i := range fps {
		m := 3 + rng.Intn(8)
		samples := make([]core.Sample, m)
		for j := range samples {
			samples[j] = core.Sample{
				X: rng.Float64() * 3e4, DX: 100,
				Y: rng.Float64() * 3e4, DY: 100,
				T: rng.Float64() * 10000, DT: 1,
				Weight: 1,
			}
		}
		fps[i] = core.NewFingerprint(string(rune('a'+i%26))+string(rune('0'+i/26)), samples)
	}
	return core.NewDataset(fps)
}

func TestGloveRowAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 12)
	out, st, err := core.Glove(d, core.GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	row, err := GloveRow("test", 2, d, out, st)
	if err != nil {
		t.Fatal(err)
	}
	if row.Algorithm != "GLOVE" || row.Dataset != "test" || row.K != 2 {
		t.Errorf("row identity = %+v", row)
	}
	if row.CreatedSamples != 0 || row.CreatedSamplesPct != 0 {
		t.Error("GLOVE reported created samples")
	}
	if row.DiscardedFingerprints != 0 {
		t.Error("GLOVE discarded fingerprints without suppression")
	}
	if row.MeanPositionErrorM <= 0 || row.MeanTimeErrorMin < 0 {
		t.Errorf("errors = %g / %g", row.MeanPositionErrorM, row.MeanTimeErrorMin)
	}
	if !strings.Contains(row.String(), "GLOVE") {
		t.Error("row String() missing algorithm")
	}
}

func TestGloveRowWithSuppression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 12)
	// Tight thresholds to force some suppression.
	out, st, err := core.Glove(d, core.GloveOptions{
		K:        2,
		Suppress: core.SuppressionThresholds{MaxSpatialMeters: 2000, MaxTemporalMinutes: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalSamples() == 0 {
		t.Skip("suppression removed everything; nothing to measure")
	}
	row, err := GloveRow("test", 2, d, out, st)
	if err != nil {
		t.Fatal(err)
	}
	if row.DeletedSamples != st.SuppressedSamples {
		t.Errorf("deleted = %d, want %d", row.DeletedSamples, st.SuppressedSamples)
	}
	if row.MeanPositionErrorM > 2000 {
		t.Errorf("mean position error %g exceeds suppression threshold", row.MeanPositionErrorM)
	}
}

func TestValidatePublished(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 10)
	out, _, err := core.Glove(d, core.GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePublished(d, out, 2); err != nil {
		t.Errorf("valid publication rejected: %v", err)
	}
	if err := ValidatePublished(d, out, 50); err == nil {
		t.Error("k=50 claim accepted for k=2 publication")
	}
	if err := ValidatePublished(d, d, 2); err == nil {
		t.Error("raw data accepted as 2-anonymous")
	}
}

func TestPct(t *testing.T) {
	if pct(1, 4) != 25 {
		t.Error("pct(1,4) != 25")
	}
	if pct(1, 0) != 0 {
		t.Error("pct with zero whole != 0")
	}
}

// Folding releases' accuracy runs one at a time must summarize bit for
// bit like measuring their concatenation: the same sum in the same
// ascending order, the same quantile ranks. Extents repeat (grid sizes,
// whole minutes), are fractional, or are shared across releases, and
// weights run from 0 to 5.
func TestAccuracyRunsFoldEqualsMeasureOfConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	extent := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return float64(100 * (1 + rng.Intn(4)))
		case 1:
			return float64(rng.Intn(60))
		}
		return rng.Float64() * 1e4
	}
	for trial := 0; trial < 200; trial++ {
		var all []*core.Fingerprint
		var folded AccuracyRuns
		for r := 1 + rng.Intn(5); r > 0; r-- {
			var fps []*core.Fingerprint
			for g := rng.Intn(6); g >= 0; g-- {
				f := &core.Fingerprint{ID: "g", Count: 2}
				for s := 1 + rng.Intn(8); s > 0; s-- {
					f.Samples = append(f.Samples, core.Sample{DX: extent(), DY: extent(), DT: extent(), Weight: rng.Intn(6)})
				}
				fps = append(fps, f)
			}
			folded.Fold(MeasureRuns(core.NewDataset(fps)))
			all = append(all, fps...)
		}
		want, werr := Measure(core.NewDataset(all)).Summarize()
		got, gerr := folded.Summarize()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: errors %v vs %v", trial, gerr, werr)
		}
		// %b prints every float's exact bits, the sign of zero included.
		if fmt.Sprintf("%b", got) != fmt.Sprintf("%b", want) {
			t.Fatalf("trial %d: folded runs %+v, concat %+v", trial, got, want)
		}
	}
}
