package analysis

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
)

// Continuous publication opens an attack surface that a single release
// does not have: the motivating attacks of Sec. 1 (Zang & Bolot's top
// locations, de Montjoye et al.'s spatiotemporal points) get stronger
// when the adversary can correlate a target across repeated releases.
// Even if every release is k-anonymous on its own, a subscriber whose
// partial trajectory matches exactly one group in release t AND exactly
// one in release t+1 is re-linked across the two — the adversary now owns a longer
// joint trajectory than either release exposed. CrossWindowLinkage
// quantifies that residual risk.

// LinkagePair is the linkage measurement between one pair of
// consecutive releases.
type LinkagePair struct {
	// Window labels the earlier release of the pair. CrossWindowLinkage
	// fills it with the release's position in the probed sequence;
	// callers whose windows carry absolute indices (which may jump over
	// empty windows) label it with that index instead, so the pair can
	// be correlated with their window numbering.
	Window int `json:"window"`
	// Shared is the number of subscribers active in both windows of the
	// original feed.
	Shared int `json:"shared"`
	// Probed is how many of the shared subscribers were attacked.
	Probed int `json:"probed"`
	// Linked counts probed subscribers whose known samples matched
	// exactly one group in both releases.
	Linked int `json:"linked"`
}

// LinkageResult aggregates cross-window linkage over a release
// sequence.
type LinkageResult struct {
	// KnownSamples is the adversary knowledge per window (h samples of
	// the target's original trajectory in each window).
	KnownSamples int `json:"known_samples"`
	// Pairs holds one measurement per consecutive release pair.
	Pairs []LinkagePair `json:"pairs"`
	// Probed and Linked sum over all pairs; LinkedFraction is their
	// ratio — the fraction of attacked subscribers re-linked across at
	// least one consecutive release boundary.
	Probed         int     `json:"probed"`
	Linked         int     `json:"linked"`
	LinkedFraction float64 `json:"linked_fraction"`
}

func (r LinkageResult) String() string {
	return fmt.Sprintf("h=%d: %d/%d probed subscribers re-linked across consecutive releases (%.1f%%)",
		r.KnownSamples, r.Linked, r.Probed, 100*r.LinkedFraction)
}

// CrossWindowLinkage probes a windowed release sequence with a
// partial-knowledge adversary. originals[i] is the fingerprint dataset
// of window i before anonymization (one fingerprint per subscriber,
// IDs carrying the subscriber pseudo-identifier); releases[i] is the
// published dataset of the same window. Each consecutive pair of
// windows is probed by LinkPair, in order, with the one rng, and
// labeled with the position of its earlier release; workers bounds
// parallelism.
func CrossWindowLinkage(originals, releases []*core.Dataset, known, probes int, rng *rand.Rand, workers int) (LinkageResult, error) {
	if len(originals) != len(releases) {
		return LinkageResult{}, fmt.Errorf("analysis: %d original windows vs %d releases",
			len(originals), len(releases))
	}
	if len(releases) < 2 {
		return LinkageResult{}, fmt.Errorf("analysis: cross-window linkage needs >= 2 releases, got %d", len(releases))
	}

	// Each release is indexed once and probed in both pairs it belongs
	// to.
	idx := parallel.Map(len(releases), workers, func(i int) *core.CoverIndex {
		return core.NewCoverIndex(releases[i])
	})
	res := LinkageResult{KnownSamples: known}
	for w := 0; w+1 < len(releases); w++ {
		pair, err := LinkPair(originals[w], originals[w+1], idx[w], idx[w+1], known, probes, rng, workers)
		if err != nil {
			return LinkageResult{}, err
		}
		pair.Window = w
		res.Add(pair)
	}
	return res, nil
}

// Add folds one pair's measurement into the result: it appends the
// pair and updates the sums and their ratio.
func (r *LinkageResult) Add(p LinkagePair) {
	r.Pairs = append(r.Pairs, p)
	r.Probed += p.Probed
	r.Linked += p.Linked
	if r.Probed > 0 {
		r.LinkedFraction = float64(r.Linked) / float64(r.Probed)
	}
}

// LinkPair measures one pair of consecutive releases: origA and origB
// are the two windows' originals, relA and relB their indexed releases.
// Up to probes subscribers present in both windows are drawn, known
// original samples of each window are given to the adversary, and the
// subscriber counts as re-linked when the samples match exactly one
// group in each release: the adversary then ties the target's two
// partial trajectories to one published record each, whatever crowd
// those records hide. rng drives probe selection for reproducibility;
// workers bounds parallelism. The pair's Window is left 0 for the
// caller to label.
func LinkPair(origA, origB *core.Dataset, relA, relB *core.CoverIndex, known, probes int, rng *rand.Rand, workers int) (LinkagePair, error) {
	if known < 1 {
		return LinkagePair{}, fmt.Errorf("analysis: known = %d", known)
	}
	if probes < 1 {
		return LinkagePair{}, fmt.Errorf("analysis: probes = %d", probes)
	}
	byID := make(map[string]*core.Fingerprint, origB.Len())
	for _, f := range origB.Fingerprints {
		byID[f.ID] = f
	}
	type target struct{ a, b *core.Fingerprint }
	var shared []target
	for _, f := range origA.Fingerprints {
		if g, ok := byID[f.ID]; ok {
			shared = append(shared, target{f, g})
		}
	}
	// origA fingerprint order follows dataset construction; sort by ID so
	// probe selection depends only on the rng, not on upstream ordering.
	sort.Slice(shared, func(i, j int) bool { return shared[i].a.ID < shared[j].a.ID })

	pair := LinkagePair{Shared: len(shared)}
	if len(shared) == 0 {
		return pair, nil
	}
	n := probes
	if n > len(shared) {
		n = len(shared)
	}
	// Pre-draw targets and sample choices serially so the result is
	// independent of worker interleaving (same discipline as
	// PartialKnowledgeUniqueness).
	type probe struct{ sa, sb []core.Sample }
	ps := make([]probe, n)
	for i, ti := range rng.Perm(len(shared))[:n] {
		tg := shared[ti]
		ps[i] = probe{
			sa: drawSamples(tg.a, known, rng),
			sb: drawSamples(tg.b, known, rng),
		}
	}
	linked := parallel.Map(n, workers, func(i int) int {
		if ga, _ := relA.Match(ps[i].sa); ga != 1 {
			return 0
		}
		if gb, _ := relB.Match(ps[i].sb); gb != 1 {
			return 0
		}
		return 1
	})
	pair.Probed = n
	for _, l := range linked {
		pair.Linked += l
	}
	return pair, nil
}

// drawSamples picks up to h random samples of the fingerprint.
func drawSamples(f *core.Fingerprint, h int, rng *rand.Rand) []core.Sample {
	if h > f.Len() {
		h = f.Len()
	}
	out := make([]core.Sample, h)
	for j, s := range rng.Perm(f.Len())[:h] {
		out[j] = f.Samples[s]
	}
	return out
}
