package service

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
)

// Cross-window linkage probe budget: h samples of adversary knowledge
// per window, and how many shared subscribers are attacked per
// consecutive release pair.
const (
	linkageKnownSamples = 4
	linkageProbes       = 200
)

// analyze runs the finish-time analysis of a run over its committed
// windows (indices, of duration d; a batch job's one window is all of
// snap):
//   - anonymizability: the fraction of the windows' fingerprints that
//     were k-anonymous before GLOVE ran, by the thresholded k-gap pass
//     of Sec. 5 (core.KGapAnonymousFraction);
//   - with two or more releases, the cross-window linkage between
//     consecutive ones.
//
// Both read one dataset, built in one pass over the committed windows'
// rows of snap; each window's originals are cut out of it
// (colstore.CutWindows). Nothing is built when both skip.
//
// span records how many fingerprints the input holds, the time of the
// build, the k-gap pass and the linkage probe (build_ms, kgap_ms,
// linkage_ms), the pairs the k-gap's candidate filter passed
// (kgap_candidates) and, when the k-gap does not run, why: "cancelled",
// "too_small" (fewer than k fingerprints, or no input — a dataset that
// disappeared before the run could snapshot it) or "cap" (above
// AnalysisMaxFingerprints). The linkage is skipped on cancellation or
// when a committed window holds more than AnalysisMaxFingerprints users:
// its probe costs O(probes × release size) per pair, so the cap bounds
// each window, not their sum. maxWindowUsers is the largest committed
// window's user count as the run recorded it, 0 when unknown.
func (m *Manager) analyze(ctx context.Context, span obs.ActiveSpan, snap *colstore.View, d time.Duration, indices []int, maxWindowUsers int, releases []*core.Dataset, spec JobSpec) (*float64, *analysis.LinkageResult) {
	limit := m.opt.AnalysisMaxFingerprints
	var src *colstore.View
	if snap != nil && len(indices) > 0 {
		src = snap
		if d > 0 {
			var err error
			if src, err = snap.SelectWindows(d, indices); err != nil {
				src = nil
			}
		}
	}
	users := 0
	if src != nil {
		users = src.NumUsers()
	}
	span.SetAttr("fingerprints", users)
	skip := ""
	switch {
	case ctx.Err() != nil:
		skip = "cancelled"
	case users < spec.K:
		skip = "too_small"
	case users > limit:
		skip = "cap"
	}
	if skip != "" {
		span.SetAttr("skipped", skip)
	}
	link := src != nil && len(releases) >= 2 && ctx.Err() == nil && maxWindowUsers <= limit
	if skip != "" && !link {
		return nil, nil
	}

	start := time.Now()
	ds, err := src.BuildDataset()
	span.SetAttr("build_ms", msSince(start))
	if err != nil {
		return nil, nil
	}
	var frac *float64
	if skip == "" {
		start = time.Now()
		f, cands, err := core.KGapAnonymousFraction(core.DefaultParams(), ds, spec.K, spec.Workers)
		span.SetAttr("kgap_ms", msSince(start))
		if err == nil {
			frac = &f
			span.SetAttr("kgap_candidates", cands)
		}
	}
	var linkage *analysis.LinkageResult
	if link {
		start = time.Now()
		linkage = crossWindowLinkage(colstore.CutWindows(ds, d, indices), indices, releases, limit, spec)
		span.SetAttr("linkage_ms", msSince(start))
	}
	return frac, linkage
}

// crossWindowLinkage measures residual cross-release linkability of a
// finished windowed run: originals[i] is the input of releases[i], the
// release of window indices[i]. nil when a window is empty or holds more
// than limit users, or when the probe fails.
func crossWindowLinkage(originals []*core.Dataset, indices []int, releases []*core.Dataset, limit int, spec JobSpec) *analysis.LinkageResult {
	for _, o := range originals {
		if o.Len() == 0 || o.Len() > limit {
			return nil
		}
	}
	// Seeded deterministically so repeated identical jobs report the
	// same measurement.
	rng := rand.New(rand.NewSource(1))
	res, err := analysis.CrossWindowLinkage(originals, releases, linkageKnownSamples, linkageProbes, rng, spec.Workers)
	if err != nil {
		return nil
	}
	// Relabel pairs with the absolute window indices the rest of the
	// API uses (WindowStatus.Index, /windows/{w}/result); consecutive
	// releases may span a gap of empty windows, which the relabeled
	// indices make visible.
	for i := range res.Pairs {
		res.Pairs[i].Window = indices[i]
	}
	return &res
}

// msSince returns the milliseconds elapsed since start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
