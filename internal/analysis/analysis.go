// Package analysis implements the anonymizability analysis of Sec. 5:
// k-gap distributions (Figs. 3-4), the disaggregation of fingerprint
// stretch efforts into per-sample spatial and temporal components with
// their Tail Weight Index (Fig. 5a), and the temporal-to-spatial effort
// ratios (Fig. 5b) — the evidence that the *temporal* dimension is what
// makes mobile fingerprints hard to hide.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Decomposition is the per-fingerprint disaggregation of Sec. 5.3: the
// sample stretch efforts between a fingerprint and its k-1 nearest
// neighbours, split into spatial (S^k_a = {w_σ φ_σ}) and temporal
// (T^k_a = {w_τ φ_τ}) components.
type Decomposition struct {
	Index    int
	Total    []float64 // δ per matched sample pair
	Spatial  []float64 // w_σ φ_σ components
	Temporal []float64 // w_τ φ_τ components
}

// TemporalShare returns Σ T / (Σ T + Σ S), the fraction of the total
// stretch effort attributable to time, in [0, 1].
func (d *Decomposition) TemporalShare() float64 {
	var st, ss float64
	for _, v := range d.Temporal {
		st += v
	}
	for _, v := range d.Spatial {
		ss += v
	}
	if st+ss == 0 {
		return 0
	}
	return st / (st + ss)
}

// Decompose disaggregates, for every fingerprint a, the fingerprint
// stretch efforts Δ_ab towards its k-1 nearest neighbours b (from a
// prior KGapAll run) into per-sample spatial and temporal components,
// replaying the min-effort matching of Eq. 10.
func Decompose(p core.Params, d *core.Dataset, kgaps []core.KGapResult, workers int) []Decomposition {
	return parallel.Map(len(kgaps), workers, func(i int) Decomposition {
		r := kgaps[i]
		dec := Decomposition{Index: r.Index}
		a := d.Fingerprints[r.Index]
		for _, bi := range r.Nearest {
			b := d.Fingerprints[bi]
			appendPairComponents(p, a, b, &dec)
		}
		return dec
	})
}

// appendPairComponents replays Eq. 10 on the pair (a, b): for each
// sample of the longer fingerprint, the min-effort counterpart in the
// shorter one, recording the effort split of each matched pair.
func appendPairComponents(p core.Params, a, b *core.Fingerprint, dec *Decomposition) {
	long, short := a, b
	if long.Len() < short.Len() {
		long, short = short, long
	}
	nl, ns := long.Count, short.Count
	for _, s := range long.Samples {
		best := math.Inf(1)
		var bestSp, bestTm float64
		for _, o := range short.Samples {
			sp, tm := p.SampleEffortParts(s, o, nl, ns)
			if d := sp + tm; d < best {
				best = d
				bestSp, bestTm = sp, tm
			}
		}
		dec.Total = append(dec.Total, best)
		dec.Spatial = append(dec.Spatial, bestSp)
		dec.Temporal = append(dec.Temporal, bestTm)
	}
}

// TWIResult carries the per-fingerprint Tail Weight Indexes of Fig. 5a.
// Fingerprints whose component distribution is degenerate (too few
// samples or zero spread) are reported in the Skipped counts.
type TWIResult struct {
	Total    []float64
	Spatial  []float64
	Temporal []float64
	Skipped  int // fingerprints with no computable TWI at all
}

// TWIs computes the Tail Weight Index of the total, spatial and temporal
// effort distributions of every decomposition.
func TWIs(decs []Decomposition) *TWIResult {
	res := &TWIResult{}
	for _, dec := range decs {
		tw, errT := stats.TWI(dec.Total)
		sw, errS := stats.TWI(dec.Spatial)
		mw, errM := stats.TWI(dec.Temporal)
		if errT != nil && errS != nil && errM != nil {
			res.Skipped++
			continue
		}
		if errT == nil {
			res.Total = append(res.Total, tw)
		}
		if errS == nil {
			res.Spatial = append(res.Spatial, sw)
		}
		if errM == nil {
			res.Temporal = append(res.Temporal, mw)
		}
	}
	return res
}

// HeavyTailFraction returns the fraction of values >= 1.5, the threshold
// the paper uses to call a distribution heavy-tailed (footnote 5).
func HeavyTailFraction(twis []float64) float64 {
	if len(twis) == 0 {
		return 0
	}
	var n int
	for _, v := range twis {
		if v >= 1.5 {
			n++
		}
	}
	return float64(n) / float64(len(twis))
}

// KGapCDF runs the k-gap analysis and returns its CDF, the headline
// measurement of Figs. 3 and 4.
func KGapCDF(p core.Params, d *core.Dataset, k, workers int) (*stats.ECDF, []core.KGapResult, error) {
	rs, err := core.KGapAll(p, d, k, workers)
	if err != nil {
		return nil, nil, err
	}
	cdf, err := stats.NewECDF(core.KGaps(rs))
	if err != nil {
		return nil, nil, err
	}
	return cdf, rs, nil
}

// AnonymousFraction returns the fraction of fingerprints whose k-gap is
// (numerically) zero, at most core.AnonymousKGap, i.e. already
// k-anonymous — what Fig. 4 reports under increasing generalization.
func AnonymousFraction(rs []core.KGapResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var n int
	for _, r := range rs {
		if r.KGap <= core.AnonymousKGap {
			n++
		}
	}
	return float64(n) / float64(len(rs))
}

// FormatCDF renders a CDF as aligned x/F(x) text rows for the experiment
// drivers.
func FormatCDF(cdf *stats.ECDF, points int, xFmt string) string {
	var out string
	for _, pt := range cdf.Points(points) {
		out += fmt.Sprintf("  "+xFmt+"  F=%.3f\n", pt.X, pt.F)
	}
	return out
}
