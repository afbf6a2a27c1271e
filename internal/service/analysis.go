package service

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Cross-window linkage probe budget: h samples of adversary knowledge
// per window, and how many shared subscribers are attacked per
// consecutive release pair.
const (
	linkageKnownSamples = 4
	linkageProbes       = 200
)

// committedRelease is what a run keeps of its last committed release,
// for the next release's linkage pair: the window index, the window's
// original (one fingerprint per user) and the release indexed for the
// probe. original is nil when the window exceeded the analysis cap.
type committedRelease struct {
	index    int
	original *core.Dataset
	release  *core.CoverIndex
}

// measureRelease measures window idx's release at its commit, under an
// analysis child of the window's span:
//   - anonymizability: how many of the window's input fingerprints were
//     k-anonymous before GLOVE ran, by the thresholded k-gap pass of
//     Sec. 5 (core.KGapAnonymousFraction) on original, the shards'
//     datasets as the run built them;
//   - the cross-window linkage pair against prev, the previous
//     committed release (nil for the first), with an rng seeded from
//     idx so a resumed run draws the pair's probes as an uninterrupted
//     one does;
//   - the release's accuracy, summarized and returned as runs for the
//     job's total.
//
// AnalysisMaxFingerprints bounds each window alike: above it, the
// window's k-gap and both linkage pairs it belongs to are skipped, and
// span records skipped=cap. span also records the window's fingerprints
// and the time of the k-gap pass and the linkage probe (kgap_ms,
// linkage_ms), with the pairs the k-gap's candidate filter passed
// (kgap_candidates). It returns the measurements and the release as the
// next window's prev.
func (m *Manager) measureRelease(span obs.ActiveSpan, idx int, original, release *core.Dataset, prev *committedRelease, spec JobSpec) (ReleaseQuality, metrics.AccuracyRuns, *committedRelease) {
	limit := m.opt.AnalysisMaxFingerprints
	n := original.Len()
	span.SetAttr("fingerprints", n)
	cur := &committedRelease{index: idx, release: core.NewCoverIndex(release)}
	var q ReleaseQuality
	if n > limit {
		span.SetAttr("skipped", "cap")
	} else {
		cur.original = original
		start := time.Now()
		frac, cands, err := core.KGapAnonymousFraction(core.DefaultParams(), original, spec.K, spec.Workers)
		span.SetAttr("kgap_ms", msSince(start))
		if err == nil {
			// frac is anonymous/n rounded once, so this recovers the
			// count exactly.
			anon := int(math.Round(frac * float64(n)))
			q.Anonymous = &anon
			span.SetAttr("kgap_candidates", cands)
		}
		if prev != nil && prev.original != nil {
			start = time.Now()
			rng := rand.New(rand.NewSource(int64(idx)))
			pair, err := analysis.LinkPair(prev.original, original, prev.release, cur.release,
				linkageKnownSamples, linkageProbes, rng, spec.Workers)
			span.SetAttr("linkage_ms", msSince(start))
			if err == nil {
				pair.Window = prev.index
				q.Linkage = &pair
			}
		}
	}
	runs := metrics.MeasureRuns(release)
	if sum, err := runs.Summarize(); err == nil {
		q.Accuracy = &sum
	}
	return q, runs, cur
}

// rebuildRelease gives a resumed run what its next linkage pair needs of
// its last recovered release, window idx of snap: the window's original
// and its release, exactly as the run before the restart held them. The
// journaled CSV rounds the release's extents, which would move the
// probe's matches, so the window is re-run through the same plan
// instead; the engine is deterministic, so the re-run reproduces the
// committed release (whose journaled bytes stay the published ones).
// nil when the window is missing, above the analysis cap or the re-run
// fails: the pair is then skipped.
func (m *Manager) rebuildRelease(ctx context.Context, snap *colstore.View, d time.Duration, idx int, spec JobSpec) *committedRelease {
	v := committedWindow(snap, d, idx)
	if v == nil || v.NumUsers() > m.opt.AnalysisMaxFingerprints {
		return nil
	}
	out, original, _, err := runShards(ctx, planShards(v, v.NumUsers(), spec.K, spec.Shards), spec, nil, obs.ActiveSpan{}, nil)
	if err != nil {
		return nil
	}
	return &committedRelease{index: idx, original: original, release: core.NewCoverIndex(out)}
}

// msSince returns the milliseconds elapsed since start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
