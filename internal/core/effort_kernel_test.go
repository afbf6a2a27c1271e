package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The pruned kernel must be indistinguishable from the naive Eq. 10
// evaluation wherever it reports an effort: bit-identical values when it
// says "below", and a sound strict verdict when it prunes. Randomized
// over fingerprint lengths (covering the equal-length symmetric-average
// branch), subscriber counts and threshold positions.
func TestQuickFingerprintEffortBelowMatchesNaive(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randFingerprint(rng, "a", 1+rng.Intn(15))
		b := randFingerprint(rng, "b", 1+rng.Intn(15))
		if rng.Intn(3) == 0 {
			// Force the equal-length branch often; Eq. 10 is ambiguous
			// there and the symmetric average must match exactly.
			b = randFingerprint(rng, "b", a.Len())
		}
		a.Count = 1 + rng.Intn(5)
		b.Count = 1 + rng.Intn(5)
		a.Members = make([]string, a.Count)
		b.Members = make([]string, b.Count)
		if rng.Intn(2) == 0 {
			// Spread the pair out so the running-sum abort actually fires.
			dx := rng.Float64() * 1e5
			dt := rng.Float64() * 5e3
			for i := range b.Samples {
				b.Samples[i].X += dx
				b.Samples[i].T += dt
			}
		}
		want := p.FingerprintEffort(a, b)
		// Thresholds straddling the true effort, including the exact
		// value itself (a tie must report below with the exact effort).
		thresholds := []float64{
			math.Inf(1), want, want * 1.5, want * 0.5, want - 1e-3, want + 1e-3, 0, 1,
		}
		for _, thr := range thresholds {
			got, below := p.FingerprintEffortBelow(a, b, thr)
			if below {
				if got != want {
					t.Logf("thr=%g: below with %g, naive %g", thr, got, want)
					return false
				}
				if got > thr {
					t.Logf("thr=%g: below with effort %g above threshold", thr, got)
					return false
				}
			} else {
				if want <= thr {
					t.Logf("thr=%g: pruned but naive effort %g is below", thr, want)
					return false
				}
				if got > want+1e-9 {
					t.Logf("thr=%g: reported bound %g exceeds true effort %g", thr, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(41)); err != nil {
		t.Error(err)
	}
}

// The sorted-scan kernel must stay exact at the saturation plateau:
// fingerprints beyond both φmax thresholds have effort exactly 1, and a
// threshold of 1 is a tie, not a prune.
func TestFingerprintEffortBelowSaturation(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(7))
	a := randFingerprint(rng, "a", 8)
	b := randFingerprint(rng, "b", 5)
	for i := range b.Samples {
		// Far beyond both saturation thresholds from anywhere a random
		// fingerprint can lie (anchors stay within ~5e4 m and ~2e4 min).
		b.Samples[i].X += 1e6
		b.Samples[i].T += 1e6
	}
	if want := p.FingerprintEffort(a, b); want != 1 {
		t.Fatalf("saturated naive effort = %g, want 1", want)
	}
	if e, below := p.FingerprintEffortBelow(a, b, 1); !below || e != 1 {
		t.Fatalf("FingerprintEffortBelow(thr=1) = (%g, %v), want (1, true)", e, below)
	}
	if e, below := p.FingerprintEffortBelow(a, b, 0.5); below {
		t.Fatalf("FingerprintEffortBelow(thr=0.5) = (%g, %v), want pruned", e, below)
	} else if e <= 0.5 {
		t.Fatalf("pruned lower bound %g does not exceed the threshold", e)
	}
}

// Identical fingerprints at threshold zero: zero effort is a tie at the
// threshold, and the bounding-envelope term must not push the kernel
// into a spurious abort.
func TestFingerprintEffortBelowZero(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(8))
	a := randFingerprint(rng, "a", 10)
	b := a.Clone()
	b.ID = "b"
	if e, below := p.FingerprintEffortBelow(a, b, 0); !below || e != 0 {
		t.Fatalf("FingerprintEffortBelow(identical, 0) = (%g, %v), want (0, true)", e, below)
	}
}

// The SoA view must mirror the sample arrays exactly, including the
// prefix max of interval ends the leftward scan stop relies on.
func TestFPViewLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randFingerprint(rng, "a", 12)
	f.Samples[3].DT = 900 // a long interval mid-way exercises the prefix max
	v := newFPView(f)
	hiMax := math.Inf(-1)
	for i, s := range f.Samples {
		if v.x[i] != s.X || v.xHi[i] != s.X+s.DX || v.y[i] != s.Y || v.yHi[i] != s.Y+s.DY ||
			v.t[i] != s.T || v.tHi[i] != s.T+s.DT {
			t.Fatalf("view row %d does not match sample %+v", i, s)
		}
		hiMax = math.Max(hiMax, s.T+s.DT)
		if v.tHiMax[i] != hiMax {
			t.Fatalf("tHiMax[%d] = %g, want %g", i, v.tHiMax[i], hiMax)
		}
	}
	if v.bounds != BoundsOf(f) {
		t.Fatalf("view bounds %+v != BoundsOf %+v", v.bounds, BoundsOf(f))
	}
	if v.count != f.Count {
		t.Fatalf("view count %d != %d", v.count, f.Count)
	}
}

// On a clustered (civ-like) workload the threshold abort must actually
// fire — the speedup claim rests on it — while the published output
// stays identical to the unpruned naive path. Exercised for the dense
// matrix and the sparse candidate index.
func TestEffortKernelPruneCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var fps []*Fingerprint
	centers := [][2]float64{{0, 0}, {60000, 0}, {0, 60000}}
	id := 0
	for _, c := range centers {
		for u := 0; u < 12; u++ {
			f := randFingerprint(rng, fmt.Sprintf("u%d", id), 4+rng.Intn(8))
			for s := range f.Samples {
				f.Samples[s].X += c[0]
				f.Samples[s].Y += c[1]
			}
			fps = append(fps, f)
			id++
		}
	}
	d := NewDataset(fps)

	naive, _, err := Glove(d, GloveOptions{K: 2, NaiveMinPair: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  GloveOptions
	}{
		{"dense", GloveOptions{K: 2, Index: IndexDense}},
		{"sparse", GloveOptions{K: 2, Index: IndexSparse, IndexNeighbors: 4}},
	} {
		out, stats, err := Glove(d, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		datasetsEqual(t, tc.name+"-vs-naive", naive, out)
		if stats.EffortKernelCalls == 0 {
			t.Fatalf("%s: no kernel calls recorded", tc.name)
		}
		if stats.EffortKernelPruned == 0 {
			t.Fatalf("%s: pruning never fired on a clustered dataset (calls %d)",
				tc.name, stats.EffortKernelCalls)
		}
		t.Logf("%s: %d kernel calls, %d pruned (%.0f%%)", tc.name,
			stats.EffortKernelCalls, stats.EffortKernelPruned,
			100*float64(stats.EffortKernelPruned)/float64(stats.EffortKernelCalls))
	}
}

// BenchmarkEffortKernelViews measures the kernel in its production
// shape — over cached SoA views, as the dense/sparse indexes, the fold
// and the k-gap analysis run it, with no per-call view construction.
// One op is one row scan with a running-minimum threshold (the access
// pattern of the leftover fold and of the k=2 k-gap pass; the dense
// build no longer scans whole rows, it thresholds each pair at seeds
// from a few bounding-box neighbours) against the naive exhaustive
// evaluation, on
// two geometries: tight city-like clusters (the paper's locality
// observation, where both lower bounds bite) and a uniform 60 km
// spread (the adversarial case: the spatial term saturates for most
// pairs, so the temporal-gap stop rarely clears the per-sample best
// and only the running-sum abort helps).
func BenchmarkEffortKernelViews(b *testing.B) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(17))
	clustered := func() []*Fingerprint {
		centers := [][2]float64{{0, 0}, {60000, 0}, {0, 60000}, {90000, 90000}}
		var fps []*Fingerprint
		for ci, c := range centers {
			for u := 0; u < 30; u++ {
				// Per-subscriber anchors a few km apart, samples within
				// ~2 km of the anchor.
				ax := c[0] + rng.Float64()*6000
				ay := c[1] + rng.Float64()*6000
				samples := make([]Sample, 80)
				for s := range samples {
					samples[s] = Sample{
						X: ax + rng.NormFloat64()*2000, DX: 100,
						Y: ay + rng.NormFloat64()*2000, DY: 100,
						T: rng.Float64() * 7 * 24 * 60, DT: 1,
						Weight: 1,
					}
				}
				fps = append(fps, NewFingerprint(fmt.Sprintf("u%d-%d", ci, u), samples))
			}
		}
		return fps
	}
	uniform := func() []*Fingerprint {
		fps := make([]*Fingerprint, 120)
		for i := range fps {
			samples := make([]Sample, 80)
			for s := range samples {
				samples[s] = Sample{
					X: rng.Float64() * 60000, DX: 100,
					Y: rng.Float64() * 60000, DY: 100,
					T: rng.Float64() * 7 * 24 * 60, DT: 1,
					Weight: 1,
				}
			}
			fps[i] = NewFingerprint(fmt.Sprintf("u%d", i), samples)
		}
		return fps
	}
	for _, w := range []struct {
		name string
		fps  []*Fingerprint
	}{
		{"clustered", clustered()},
		{"uniform", uniform()},
	} {
		n := len(w.fps)
		views := make([]*fpView, n)
		for i, f := range w.fps {
			views[i] = newFPView(f)
		}
		b.Run(w.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probe := w.fps[i%n]
				best := math.Inf(1)
				for j, f := range w.fps {
					if j == i%n {
						continue
					}
					if e := p.FingerprintEffort(probe, f); e < best {
						best = e
					}
				}
			}
		})
		b.Run(w.name+"/pruned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probe := views[i%n]
				best := math.Inf(1)
				for j := range views {
					if j == i%n {
						continue
					}
					if e, below := p.effortBelowViews(probe, views[j], best); below && e < best {
						best = e
					}
				}
			}
		})
	}
}

// The chunked driver aggregates kernel counters across blocks.
func TestEffortKernelCountersAggregated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := randDataset(rng, 40, 6)
	_, stats, err := GloveChunked(d, ChunkedGloveOptions{
		Glove:     GloveOptions{K: 2},
		ChunkSize: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EffortKernelCalls == 0 {
		t.Fatal("chunked run reported no kernel calls")
	}
}

// An equal-length pair whose second direction is nonzero but far below
// an ulp of the first: the true effort (d1+d2)/2 rounds to exactly d1/2.
// At that threshold the second direction is given zero slack and aborts
// on its first sample, yet the sum still lands on the threshold, so the
// pair is below it and must be reported so, with the exact effort.
func TestEffortBelowEqualLengthSubUlpSecondDirection(t *testing.T) {
	p := DefaultParams()
	pt := func(x float64) Sample { return Sample{X: x, T: 60, Weight: 1} }
	a := NewFingerprint("a", []Sample{pt(0), pt(2000)})
	b := NewFingerprint("b", []Sample{pt(1e-20), pt(1e-20)})
	want := p.FingerprintEffort(a, b)
	if d1 := p.directedEffort(a, b); want != d1/2 || p.directedEffort(b, a) == 0 {
		t.Fatalf("inputs no longer hide the second direction: effort %v, d1 %v", want, d1)
	}
	for _, pair := range [2][2]*Fingerprint{{a, b}, {b, a}} {
		if got, below := p.FingerprintEffortBelow(pair[0], pair[1], want); !below || got != want {
			t.Fatalf("threshold = effort %v: got (%v, %v), want (%v, true)", want, got, below, want)
		}
	}
}
