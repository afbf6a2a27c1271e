package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPartialKnowledgeUniquenessRawData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 40, 12)
	// The de Montjoye et al. experiment: a handful of random points
	// identifies most users uniquely in raw micro-data.
	res, err := PartialKnowledgeUniqueness(d, d, 4, 60, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueFraction < 0.8 {
		t.Errorf("only %.0f%% unique with 4 random points on raw data", 100*res.UniqueFraction)
	}
	if res.Probed != 60 || res.KnownSamples != 4 {
		t.Errorf("result metadata %+v", res)
	}
	if res.MeanCrowd < 1 {
		t.Errorf("mean crowd %.2f < 1", res.MeanCrowd)
	}
	if !strings.Contains(res.String(), "h=4") {
		t.Error("String() missing h")
	}
}

func TestPartialKnowledgeUniquenessMonotoneInH(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDataset(rng, 30, 10)
	prev := -1.0
	for _, h := range []int{1, 3, 8} {
		res, err := PartialKnowledgeUniqueness(d, d, h, 80, rand.New(rand.NewSource(4)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.UniqueFraction+0.15 < prev {
			t.Errorf("uniqueness dropped markedly from h-1 to h=%d: %.2f -> %.2f", h, prev, res.UniqueFraction)
		}
		prev = res.UniqueFraction
	}
}

func TestPartialKnowledgeUniquenessDefeatedByGlove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 30, 10)
	published, _, err := core.Glove(d, core.GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartialKnowledgeUniqueness(d, published, 5, 60, rand.New(rand.NewSource(6)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueFraction != 0 {
		t.Errorf("%.0f%% of probes unique against 2-anonymized data, want 0", 100*res.UniqueFraction)
	}
	if res.MeanCrowd < 2 {
		t.Errorf("mean crowd %.2f < k = 2", res.MeanCrowd)
	}
}

func TestPartialKnowledgeUniquenessDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 20, 8)
	a, err := PartialKnowledgeUniqueness(d, d, 3, 40, rand.New(rand.NewSource(8)), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartialKnowledgeUniqueness(d, d, 3, 40, rand.New(rand.NewSource(8)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("results differ across worker counts: %+v vs %+v", a, b)
	}
}

func TestPartialKnowledgeUniquenessArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randDataset(rng, 5, 4)
	r := rand.New(rand.NewSource(10))
	if _, err := PartialKnowledgeUniqueness(d, d, 0, 10, r, 0); err == nil {
		t.Error("known=0 accepted")
	}
	if _, err := PartialKnowledgeUniqueness(d, d, 3, 0, r, 0); err == nil {
		t.Error("probes=0 accepted")
	}
	empty := core.NewDataset(nil)
	if _, err := PartialKnowledgeUniqueness(empty, empty, 3, 10, r, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSparsity(t *testing.T) {
	rs := []core.KGapResult{
		{KGap: 0.05, Efforts: []float64{0.05}},
		{KGap: 0.20, Efforts: []float64{0.20}},
		{KGap: 0.50, Efforts: []float64{0.50}},
	}
	if got := Sparsity(rs, 0.1); got != 1.0/3 {
		t.Errorf("Sparsity(0.1) = %g, want 1/3", got)
	}
	if got := Sparsity(rs, 1); got != 1 {
		t.Errorf("Sparsity(1) = %g, want 1", got)
	}
	if got := Sparsity(rs, 0); got != 0 {
		t.Errorf("Sparsity(0) = %g, want 0", got)
	}
	if Sparsity(nil, 0.5) != 0 {
		t.Error("empty sparsity != 0")
	}
	// Falls back to KGap when efforts are absent.
	noEff := []core.KGapResult{{KGap: 0.05}}
	if got := Sparsity(noEff, 0.1); got != 1 {
		t.Errorf("fallback sparsity = %g", got)
	}
}

// Sparsity evaluates the (ε, δ)-sparsity of a dataset under the k-gap
// dissimilarity (Sec. 5's pointer to Narayanan & Shmatikov): a dataset
// is (ε, δ)-sparse when at most a δ fraction of records have another
// record within dissimilarity ε. Given the 2-gap results (each record's
// distance to its nearest neighbour), it returns δ for the given ε.
func Sparsity(rs []core.KGapResult, eps float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var within int
	for _, r := range rs {
		// For k = 2 the k-gap is exactly the nearest-neighbour effort;
		// for larger k it upper-bounds it, so use the first effort when
		// available.
		nn := r.KGap
		if len(r.Efforts) > 0 {
			nn = r.Efforts[0]
		}
		if nn <= eps {
			within++
		}
	}
	return float64(within) / float64(len(rs))
}
