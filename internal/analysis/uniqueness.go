package analysis

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/parallel"
)

// UniquenessResult quantifies how identifiable subscribers are under an
// adversary who knows only part of a target's trajectory — the
// experiments of the paper's motivation (Sec. 1): Zang & Bolot's top
// locations [5] and de Montjoye et al.'s random spatiotemporal points
// [6]. The paper's own model is the h = full-trajectory limit.
type UniquenessResult struct {
	KnownSamples int
	// UniqueFraction is the fraction of probed subscribers whose known
	// samples match exactly one record of the published dataset.
	UniqueFraction float64
	// MeanCrowd is the mean number of subscribers hidden across matching
	// records (1 = unique).
	MeanCrowd float64
	Probed    int
}

func (r UniquenessResult) String() string {
	return fmt.Sprintf("h=%d: unique %.1f%% of %d probed, mean crowd %.2f",
		r.KnownSamples, 100*r.UniqueFraction, r.Probed, r.MeanCrowd)
}

// PartialKnowledgeUniqueness probes the published dataset with partial
// adversary knowledge: for each of `probes` randomly chosen subscribers
// of the original dataset, `known` samples of their original fingerprint
// are drawn at random, and the matching records of the published dataset
// are counted. Published may equal original (raw-data uniqueness, as in
// [6]) or be an anonymized version (residual linkability).
//
// The probe selection is driven by rng for reproducibility; workers
// bounds parallelism.
func PartialKnowledgeUniqueness(original, published *core.Dataset, known, probes int, rng *rand.Rand, workers int) (UniquenessResult, error) {
	if known < 1 {
		return UniquenessResult{}, fmt.Errorf("analysis: known = %d", known)
	}
	if probes < 1 {
		return UniquenessResult{}, fmt.Errorf("analysis: probes = %d", probes)
	}
	if original.Len() == 0 {
		return UniquenessResult{}, fmt.Errorf("analysis: empty dataset")
	}

	// Pre-draw all probe targets and sample choices serially so the
	// result is independent of worker interleaving.
	type probe struct {
		samples []core.Sample
	}
	ps := make([]probe, probes)
	for i := range ps {
		f := original.Fingerprints[rng.Intn(original.Len())]
		ps[i].samples = drawSamples(f, known, rng)
	}

	idx := core.NewCoverIndex(published)
	crowds := parallel.Map(probes, workers, func(i int) int {
		_, crowd := idx.Match(ps[i].samples)
		return crowd
	})

	res := UniquenessResult{KnownSamples: known, Probed: probes}
	var unique int
	var crowdSum float64
	for _, c := range crowds {
		if c == 1 {
			unique++
		}
		if c > 0 {
			crowdSum += float64(c)
		}
	}
	res.UniqueFraction = float64(unique) / float64(probes)
	res.MeanCrowd = crowdSum / float64(probes)
	return res, nil
}
