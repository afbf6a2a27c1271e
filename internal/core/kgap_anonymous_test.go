package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/synth"
)

// civDataset builds a small synthetic CIV dataset.
func civDataset(t *testing.T, users, days int) *core.Dataset {
	t.Helper()
	cfg := synth.CIV(users)
	cfg.Days = days
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// withDuplicates appends copies of the first n fingerprints, copies
// times each, so that some fingerprints have k-gap exactly zero.
func withDuplicates(d *core.Dataset, n, copies int) *core.Dataset {
	fps := append([]*core.Fingerprint(nil), d.Fingerprints...)
	for c := 0; c < copies; c++ {
		for _, f := range d.Fingerprints[:n] {
			g := f.Clone()
			g.ID = fmt.Sprintf("%s-dup%d", f.ID, c)
			g.Members = []string{g.ID}
			fps = append(fps, g)
		}
	}
	return core.NewDataset(fps)
}

// nearZeroClusters builds well-separated clusters of three fingerprints:
// a base and two copies shifted east and west by a distance whose
// effort is a small multiple of core.AnonymousKGap, so k-gaps fall on
// both sides of the anonymity threshold.
func nearZeroClusters(t *testing.T, p core.Params) *core.Dataset {
	t.Helper()
	fp := func(id string, x0 float64) *core.Fingerprint {
		samples := make([]core.Sample, 4)
		for i := range samples {
			samples[i] = core.Sample{X: x0 + float64(i)*700, DX: 100, Y: float64(i) * 300, DY: 100,
				T: float64(i) * 90, DT: 1, Weight: 1}
		}
		return core.NewFingerprint(id, samples)
	}
	unit := p.FingerprintEffort(fp("a", 0), fp("b", 1)) // effort of a 1 m shift
	if !(unit > 0) {
		t.Fatalf("effort of a 1 m shift is %g", unit)
	}
	var fps []*core.Fingerprint
	for c, mult := range []float64{0.3, 0.5, 0.7, 0.9, 1, 1.1, 1.4, 1.9, 2.2, 3.5, 6} {
		x0 := float64(c) * 1e6
		shift := mult * core.AnonymousKGap / unit
		fps = append(fps,
			fp(fmt.Sprintf("c%d", c), x0),
			fp(fmt.Sprintf("c%d-east", c), x0+shift),
			fp(fmt.Sprintf("c%d-west", c), x0-shift))
	}
	return core.NewDataset(fps)
}

// The thresholded pass must return bit for bit the fraction the full
// k-gap pass gives, across raw and generalized CIV data (so fractions
// span 0 to near 1), exact duplicates, n == k, and weights that do not
// sum to 1 (efforts above 1).
func TestKGapAnonymousFractionEqualsFullPass(t *testing.T) {
	type input struct {
		name string
		d    *core.Dataset
	}
	unnormalized := core.DefaultParams()
	unnormalized.WSpatial, unnormalized.WTemporal = 30, 20
	var inputs []input
	for _, days := range []int{3, 1} {
		d := civDataset(t, 60, days)
		inputs = append(inputs, input{fmt.Sprintf("%dd-raw", days), d})
		for _, l := range generalize.PaperLevels() {
			g, err := generalize.Dataset(d, l)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%dd-gen-%s", days, l), g})
		}
	}
	raw := inputs[0].d
	inputs = append(inputs,
		input{"duplicates", withDuplicates(raw, 12, 4)},
		input{"twins", withDuplicates(raw, 12, 1)},
		input{"near-zero", nearZeroClusters(t, core.DefaultParams())},
		input{"near-zero-weights-30-20", nearZeroClusters(t, unnormalized)},
		input{"n-eq-2", core.NewDataset(raw.Fingerprints[:2])},
		input{"n-eq-3", core.NewDataset(raw.Fingerprints[:3])},
		input{"n-eq-5-duplicates", withDuplicates(core.NewDataset(raw.Fingerprints[:1]), 1, 4)},
	)
	params := []struct {
		name string
		p    core.Params
	}{{"default", core.DefaultParams()}, {"weights-30-20", unnormalized}}

	var strictlyBetween bool
	for _, in := range inputs {
		for _, pp := range params {
			for _, k := range []int{2, 3, 5} {
				if k > in.d.Len() {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/k=%d", in.name, pp.name, k), func(t *testing.T) {
					rs, err := core.KGapAll(pp.p, in.d, k, 2)
					if err != nil {
						t.Fatal(err)
					}
					want := analysis.AnonymousFraction(rs)
					got, _, err := core.KGapAnonymousFraction(pp.p, in.d, k, 2)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("thresholded fraction %v, full pass %v", got, want)
					}
					if want > 0 && want < 1 {
						strictlyBetween = true
					}
				})
			}
		}
	}
	if !strictlyBetween {
		t.Error("no case had an anonymous fraction strictly between 0 and 1")
	}
	// Efforts above the old sentinel of 2 do occur under the
	// unnormalized weights, so the case above exercises them.
	rs, err := core.KGapAll(unnormalized, raw, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var maxGap float64
	for _, r := range rs {
		maxGap = math.Max(maxGap, r.KGap)
	}
	if maxGap <= 2 {
		t.Errorf("largest k-gap under weights 30/20 is %g, want > 2", maxGap)
	}
}

func TestKGapAnonymousFractionArgs(t *testing.T) {
	d := civDataset(t, 10, 1)
	if _, _, err := core.KGapAnonymousFraction(core.DefaultParams(), d, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, _, err := core.KGapAnonymousFraction(core.DefaultParams(), d, d.Len()+1, 1); err == nil {
		t.Error("k > |M| accepted")
	}
	if _, _, err := core.KGapAnonymousFraction(core.Params{}, d, 2, 1); err == nil {
		t.Error("zero params accepted")
	}
}

// The candidate filter of the thresholded pass hands the kernel a
// subset of the pairs; the pass must still return, fingerprint by
// fingerprint, the full thresholded scan's Nearest, Efforts and k-gap,
// across CIV data with duplicated users and near-zero shifts, a zero
// spatial or temporal weight, and ceilings from gloved's up to 1e-5.
func TestKGapFilterEqualsFullThresholdedScan(t *testing.T) {
	raw := civDataset(t, 60, 3)
	gen, err := generalize.Dataset(raw, generalize.PaperLevels()[1])
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		d    *core.Dataset
	}{
		{"raw", raw},
		{"generalized", gen},
		{"duplicates", withDuplicates(raw, 12, 4)},
		{"near-zero", nearZeroClusters(t, core.DefaultParams())},
		{"unequal-lengths", core.NewDataset(append(
			[]*core.Fingerprint{core.NewFingerprint("short", raw.Fingerprints[0].Samples[:1])},
			withDuplicates(raw, 3, 1).Fingerprints...))},
	}
	params := map[string]core.Params{"default": core.DefaultParams()}
	for name, w := range map[string][2]float64{"spatial-0": {0, 0.5}, "temporal-0": {0.5, 0}, "30-20": {30, 20}} {
		p := core.DefaultParams()
		p.WSpatial, p.WTemporal = w[0], w[1]
		params[name] = p
	}
	for _, in := range inputs {
		for pname, p := range params {
			for _, k := range []int{2, 3} {
				for _, ceiling := range []float64{float64(k) * core.AnonymousKGap, 1e-9, 1e-7, 1e-5} {
					applied, err := core.CheckKGapFilter(p, in.d, k, 2, ceiling)
					if err != nil {
						t.Fatalf("%s/%s/k=%d/ceiling=%g: %v", in.name, pname, k, ceiling, err)
					}
					if !applied && ceiling < 1e-5 {
						t.Errorf("%s/%s/k=%d/ceiling=%g: the filter did not run", in.name, pname, k, ceiling)
					}
				}
			}
		}
	}
}
