package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// randDataset builds a dataset of n random single-user fingerprints with
// up to maxLen samples each.
func randDataset(rng *rand.Rand, n, maxLen int) *Dataset {
	fps := make([]*Fingerprint, n)
	for i := range fps {
		fps[i] = randFingerprint(rng, fmt.Sprintf("u%04d", i), 1+rng.Intn(maxLen))
	}
	return NewDataset(fps)
}

func TestKGapAllArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 5, 5)
	if _, err := KGapAll(DefaultParams(), d, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KGapAll(DefaultParams(), d, 6, 1); err == nil {
		t.Error("k > |M| accepted")
	}
	if _, err := KGapAll(Params{}, d, 2, 1); err == nil {
		t.Error("zero params accepted")
	}
}

func TestKGapRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randDataset(rng, 40, 10)
	rs, err := KGapAll(DefaultParams(), d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 40 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if r.KGap < 0 || r.KGap > 1 || math.IsNaN(r.KGap) {
			t.Fatalf("k-gap %g outside [0,1]", r.KGap)
		}
		if len(r.Nearest) != 1 || len(r.Efforts) != 1 {
			t.Fatalf("k=2 result has %d neighbours", len(r.Nearest))
		}
		if r.Nearest[0] == r.Index {
			t.Fatal("fingerprint is its own neighbour")
		}
	}
}

func TestKGapZeroForDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randFingerprint(rng, "a", 8)
	b := a.Clone()
	b.ID = "b"
	b.Members = []string{"b"}
	c := randFingerprint(rng, "c", 8)
	d := NewDataset([]*Fingerprint{a, b, c})
	rs, err := KGapAll(DefaultParams(), d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].KGap != 0 || rs[1].KGap != 0 {
		t.Errorf("duplicate fingerprints have k-gap %g, %g; want 0", rs[0].KGap, rs[1].KGap)
	}
	if rs[0].Nearest[0] != 1 || rs[1].Nearest[0] != 0 {
		t.Errorf("duplicates are not each other's nearest: %v, %v", rs[0].Nearest, rs[1].Nearest)
	}
}

func TestKGapMonotoneInK(t *testing.T) {
	// Δ^k is an average over the k-1 *lowest* efforts, so it cannot
	// decrease when k grows.
	rng := rand.New(rand.NewSource(4))
	d := randDataset(rng, 30, 8)
	p := DefaultParams()
	prev := make([]float64, d.Len())
	for k := 2; k <= 10; k++ {
		rs, err := KGapAll(p, d, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.KGap+1e-12 < prev[i] {
				t.Fatalf("k=%d: k-gap of %d decreased: %g < %g", k, i, r.KGap, prev[i])
			}
			prev[i] = r.KGap
		}
	}
}

func TestKGapNearestSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 25, 6)
	rs, err := KGapAll(DefaultParams(), d, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		for m := 1; m < len(r.Efforts); m++ {
			if r.Efforts[m] < r.Efforts[m-1] {
				t.Fatalf("efforts not ascending: %v", r.Efforts)
			}
		}
	}
}

func TestKGapPruningExact(t *testing.T) {
	// Pruned and unpruned analyses must agree exactly. Use two spatially
	// distant clusters so pruning actually fires.
	rng := rand.New(rand.NewSource(6))
	fps := make([]*Fingerprint, 0, 40)
	for i := 0; i < 40; i++ {
		f := randFingerprint(rng, fmt.Sprintf("u%d", i), 1+rng.Intn(8))
		if i >= 20 {
			for j := range f.Samples {
				f.Samples[j].X += 3e5 // 300 km away
			}
		}
		fps = append(fps, f)
	}
	d := NewDataset(fps)
	p := DefaultParams()
	pruned, err := KGapAll(p, d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := KGapAllNoPruning(p, d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pruned {
		if math.Abs(pruned[i].KGap-plain[i].KGap) > 1e-15 {
			t.Fatalf("fingerprint %d: pruned %g != plain %g", i, pruned[i].KGap, plain[i].KGap)
		}
	}
}

// Non-normalized weights push efforts above the "accept anything"
// sentinel of the top-(k-1) scan; the pruned kernel must not treat the
// sentinel as a bound while the list is still filling (regression: a
// threshold of 2 would abort saturated pairs whose effort is w_σ + w_τ
// > 2 and drop them from a list that must admit everything).
func TestKGapPruningEquivalenceNonNormalizedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fps := make([]*Fingerprint, 0, 12)
	for i := 0; i < 12; i++ {
		f := randFingerprint(rng, fmt.Sprintf("u%d", i), 1+rng.Intn(6))
		for j := range f.Samples {
			f.Samples[j].X += float64(i) * 1e5 // far-apart: efforts saturate at w_σ + w_τ
		}
		fps = append(fps, f)
	}
	d := NewDataset(fps)
	p := Params{MaxSpatial: 20000, MaxTemporal: 480, WSpatial: 3, WTemporal: 1}
	pruned, err := KGapAll(p, d, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := KGapAllNoPruning(p, d, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pruned {
		if pruned[i].KGap != plain[i].KGap {
			t.Fatalf("fingerprint %d: pruned kgap %g != plain %g", i, pruned[i].KGap, plain[i].KGap)
		}
		if len(pruned[i].Nearest) != len(plain[i].Nearest) {
			t.Fatalf("fingerprint %d: pruned kept %d nearest, plain %d",
				i, len(pruned[i].Nearest), len(plain[i].Nearest))
		}
		for m := range pruned[i].Nearest {
			if pruned[i].Nearest[m] != plain[i].Nearest[m] || pruned[i].Efforts[m] != plain[i].Efforts[m] {
				t.Fatalf("fingerprint %d entry %d: pruned (%d, %g) != plain (%d, %g)", i, m,
					pruned[i].Nearest[m], pruned[i].Efforts[m], plain[i].Nearest[m], plain[i].Efforts[m])
			}
		}
	}
}

func TestKGapsExtract(t *testing.T) {
	rs := []KGapResult{{KGap: 0.1}, {KGap: 0.3}}
	got := KGaps(rs)
	if len(got) != 2 || got[0] != 0.1 || got[1] != 0.3 {
		t.Errorf("KGaps = %v", got)
	}
}

func TestEffortMatrixSymmetricZeroDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 15, 6)
	p := DefaultParams()
	m := EffortMatrix(p, d, 0)
	n := d.Len()
	for i := 0; i < n; i++ {
		if m[i*n+i] != 0 {
			t.Fatalf("diagonal (%d) = %g", i, m[i*n+i])
		}
		for j := 0; j < n; j++ {
			if m[i*n+j] != m[j*n+i] {
				t.Fatalf("matrix asymmetric at (%d, %d)", i, j)
			}
		}
	}
	// Spot-check against direct computation.
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		want := p.FingerprintEffort(d.Fingerprints[i], d.Fingerprints[j])
		if m[i*n+j] != want {
			t.Fatalf("matrix (%d, %d) = %g, want %g", i, j, m[i*n+j], want)
		}
	}
}

func TestBoundsOf(t *testing.T) {
	f := NewFingerprint("a", []Sample{
		NewSample(100, 200, 100, 10, 1),
		NewSample(-500, 900, 100, 300, 1),
	})
	b := BoundsOf(f)
	if b.MinX != -500 || b.MaxX != 200 || b.MinY != 200 || b.MaxY != 1000 {
		t.Errorf("spatial bounds = %+v", b)
	}
	if b.MinT != 10 || b.MaxT != 301 {
		t.Errorf("temporal bounds = %+v", b)
	}
}

func TestEffortLowerBoundIsLowerBound(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		a := randFingerprint(rng, "a", 1+rng.Intn(10))
		b := randFingerprint(rng, "b", 1+rng.Intn(10))
		if trial%2 == 0 {
			for j := range b.Samples {
				b.Samples[j].X += rng.Float64() * 1e5
				b.Samples[j].T += rng.Float64() * 5000
			}
		}
		lb := p.EffortLowerBound(BoundsOf(a), BoundsOf(b))
		exact := p.FingerprintEffort(a, b)
		if lb > exact+1e-12 {
			t.Fatalf("trial %d: lower bound %g exceeds exact %g", trial, lb, exact)
		}
	}
}

func TestEffortLowerBoundOverlappingIsZero(t *testing.T) {
	p := DefaultParams()
	b := FingerprintBounds{MinX: 0, MaxX: 100, MinY: 0, MaxY: 100, MinT: 0, MaxT: 100}
	if lb := p.EffortLowerBound(b, b); lb != 0 {
		t.Errorf("overlapping bounds LB = %g, want 0", lb)
	}
}

// EffortMatrix computes the full symmetric |M|x|M| matrix of fingerprint
// stretch efforts Δ_ab (Eq. 10), in parallel: the reference for the
// initialization phase of GLOVE (Alg. 1 lines 1-3). Entry (i, j) is
// stored at both [i*n+j] and [j*n+i]; the diagonal is zero.
func EffortMatrix(p Params, d *Dataset, workers int) []float64 {
	n := d.Len()
	m := make([]float64, n*n)
	parallel.ForPairs(n, workers, func(i, j int) {
		e := p.FingerprintEffort(d.Fingerprints[i], d.Fingerprints[j])
		m[i*n+j] = e
		m[j*n+i] = e
	})
	return m
}
