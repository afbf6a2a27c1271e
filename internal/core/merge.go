package core

import (
	"fmt"
	"math"
)

// MergeOptions tunes the fingerprint merging operation of Sec. 6.2. The
// zero value is the paper's configuration: two-stage matching with
// reshaping. The Disable* fields exist for the ablation studies.
type MergeOptions struct {
	// DisableTwoStage skips the paper's second matching stage, where
	// samples of the shorter fingerprint left unmatched after stage one
	// are folded into the nearest stage-one result; unmatched samples are
	// instead published as-is. Measured in BenchmarkAblationMergeStages.
	DisableTwoStage bool

	// DisableReshape skips the reshaping pass resolving temporal
	// overlaps (Fig. 6b). Measured in BenchmarkAblationReshape.
	DisableReshape bool
}

// MergeFingerprints generalizes two fingerprints into a single one whose
// samples cover both inputs (Sec. 6.2, Fig. 6a):
//
// Stage 1: each sample of the longer fingerprint is matched to the sample
// of the shorter fingerprint at minimum sample stretch effort; all
// samples of the longer fingerprint pointing at the same short sample are
// generalized together with it (Eqs. 12-13).
//
// Stage 2: samples of the shorter fingerprint that attracted no match are
// generalized into the nearest stage-1 result.
//
// The result's Count is the sum of the inputs' Counts, and its Members
// are the union of the inputs' Members. The returned fingerprint is
// always freshly allocated; the inputs are not modified. Both inputs'
// samples must be time-sorted, as Fingerprint keeps them.
func MergeFingerprints(p Params, a, b *Fingerprint, opt MergeOptions) *Fingerprint {
	long, short := a, b
	if long.Len() < short.Len() {
		long, short = short, long
	}
	nl, ns := long.Count, short.Count

	// Stage 1: group the long fingerprint's samples by their nearest
	// short sample, found by the kernel's outward scan over the
	// time-sorted short side.
	groups := make([][]int, short.Len()) // short index -> long indices
	tHiMax := make([]float64, short.Len())
	for k, s := range short.Samples {
		tHiMax[k] = s.T + s.DT
		if k > 0 {
			tHiMax[k] = math.Max(tHiMax[k], tHiMax[k-1])
		}
	}
	wa := float64(nl) / float64(nl+ns)
	wb := float64(ns) / float64(nl+ns)
	for i := range long.Samples {
		j := p.nearestSampleSorted(long.Samples[i], wa, wb, short.Samples, tHiMax)
		groups[j] = append(groups[j], i)
	}

	var merged []Sample
	var unmatched []int // short indices with empty groups
	for j, g := range groups {
		if len(g) == 0 {
			unmatched = append(unmatched, j)
			continue
		}
		m := short.Samples[j]
		for _, i := range g {
			m = MergeSamples(m, long.Samples[i])
		}
		merged = append(merged, m)
	}

	// Stage 2: fold unmatched short samples into the nearest merged
	// sample. At least one group is non-empty because the long
	// fingerprint has >= 1 sample, so `merged` is never empty here.
	if !opt.DisableTwoStage {
		for _, j := range unmatched {
			s := short.Samples[j]
			best, bestIdx := math.Inf(1), 0
			for m := range merged {
				d := p.SampleEffort(s, merged[m], ns, nl+ns)
				if d < best {
					best, bestIdx = d, m
				}
			}
			merged[bestIdx] = MergeSamples(merged[bestIdx], s)
		}
	} else {
		// Ablation: each unmatched short sample becomes its own
		// published sample (no folding). This keeps more samples but
		// breaks the identical-fingerprint construction unless the
		// caller reconciles; used only for measurement.
		for _, j := range unmatched {
			merged = append(merged, short.Samples[j])
		}
	}

	out := &Fingerprint{
		ID:      groupID(long.ID, short.ID),
		Samples: merged,
		Count:   nl + ns,
		Members: append(append(make([]string, 0, nl+ns), long.Members...), short.Members...),
	}
	sortSamples(out.Samples)
	if !opt.DisableReshape {
		out.Samples = Reshape(out.Samples)
	}
	return out
}

// groupID derives a stable identifier for a merged fingerprint. IDs can
// get long under deep merging; keep them bounded while staying unique
// within one GLOVE run by hashing long tails.
func groupID(a, b string) string {
	id := a + "+" + b
	if len(id) <= 64 {
		return id
	}
	return fmt.Sprintf("g-%08x-%08x", fnv32(id), len(id))
}

func fnv32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}
