package core

import (
	"fmt"
	"math"
	"sort"
)

// Default stretch-effort calibration from the paper (footnote 3): spatial
// and temporal thresholds above which the information loss saturates at
// 1, chosen so that ~0.5 km of spatial generalization weighs the same as
// ~15 min of temporal generalization.
const (
	DefaultMaxSpatialMeters   = 20000 // φmax_σ = 20 km
	DefaultMaxTemporalMinutes = 480   // φmax_τ = 8 h
	DefaultSpatialWeight      = 0.5   // w_σ
	DefaultTemporalWeight     = 0.5   // w_τ
)

// Params calibrates the stretch-effort measure (Eqs. 1-3). The zero value
// is not valid; use DefaultParams or fill every field.
type Params struct {
	MaxSpatial  float64 // φmax_σ, meters
	MaxTemporal float64 // φmax_τ, minutes
	WSpatial    float64 // w_σ
	WTemporal   float64 // w_τ
}

// DefaultParams returns the paper's calibration: 20 km, 8 h, equal
// weights.
func DefaultParams() Params {
	return Params{
		MaxSpatial:  DefaultMaxSpatialMeters,
		MaxTemporal: DefaultMaxTemporalMinutes,
		WSpatial:    DefaultSpatialWeight,
		WTemporal:   DefaultTemporalWeight,
	}
}

// Validate checks that the calibration is usable.
func (p Params) Validate() error {
	if !(p.MaxSpatial > 0) || !(p.MaxTemporal > 0) {
		return fmt.Errorf("core: non-positive effort thresholds %+v", p)
	}
	if p.WSpatial < 0 || p.WTemporal < 0 || p.WSpatial+p.WTemporal == 0 {
		return fmt.Errorf("core: bad effort weights %+v", p)
	}
	return nil
}

// stretch1D returns the left+right stretch needed for the interval
// [a, a+da] to cover [b, b+db] (Eqs. 5-6, 8-9 in one dimension).
func stretch1D(a, da, b, db float64) float64 {
	var s float64
	if b < a {
		s += a - b // left stretch
	}
	if b+db > a+da {
		s += b + db - (a + da) // right stretch
	}
	return s
}

// SpatialStretch returns φ*_σ of Eq. 4: the count-weighted sum of the
// stretches required for a's sample to cover b's and vice versa, along
// both axes, in meters. na and nb are the subscriber counts behind the
// two samples' fingerprints.
func SpatialStretch(a, b Sample, na, nb int) float64 {
	wa := float64(na) / float64(na+nb)
	wb := float64(nb) / float64(na+nb)
	sa := stretch1D(a.X, a.DX, b.X, b.DX) + stretch1D(a.Y, a.DY, b.Y, b.DY)
	sb := stretch1D(b.X, b.DX, a.X, a.DX) + stretch1D(b.Y, b.DY, a.Y, a.DY)
	return sa*wa + sb*wb
}

// TemporalStretch returns φ*_τ of Eq. 7 in minutes.
func TemporalStretch(a, b Sample, na, nb int) float64 {
	wa := float64(na) / float64(na+nb)
	wb := float64(nb) / float64(na+nb)
	sa := stretch1D(a.T, a.DT, b.T, b.DT)
	sb := stretch1D(b.T, b.DT, a.T, a.DT)
	return sa*wa + sb*wb
}

// SampleEffort returns the sample stretch effort δ_ab(i, j) of Eq. 1:
// the normalized, weighted loss of accuracy required to generalize the
// two samples into one. The result is in [0, 1] when the weights sum to
// one.
func (p Params) SampleEffort(a, b Sample, na, nb int) float64 {
	wa := float64(na) / float64(na+nb)
	wb := float64(nb) / float64(na+nb)
	return p.sampleEffortWeighted(a, b, wa, wb)
}

// sampleEffortWeighted is SampleEffort with the count weights already
// resolved, so callers scanning many candidates at fixed subscriber
// counts (the merge matching stage, via nearestSampleSorted) do not
// recompute the two divisions per candidate. Same arithmetic, in the
// same order, as the SpatialStretch/TemporalStretch path.
func (p Params) sampleEffortWeighted(a, b Sample, wa, wb float64) float64 {
	sa := stretch1D(a.X, a.DX, b.X, b.DX) + stretch1D(a.Y, a.DY, b.Y, b.DY)
	sb := stretch1D(b.X, b.DX, a.X, a.DX) + stretch1D(b.Y, b.DY, a.Y, a.DY)
	spatial := sa*wa + sb*wb
	lossS := 1.0
	if spatial < p.MaxSpatial {
		lossS = spatial / p.MaxSpatial
	}
	ta := stretch1D(a.T, a.DT, b.T, b.DT)
	tb := stretch1D(b.T, b.DT, a.T, a.DT)
	temporal := ta*wa + tb*wb
	lossT := 1.0
	if temporal < p.MaxTemporal {
		lossT = temporal / p.MaxTemporal
	}
	return p.WSpatial*lossS + p.WTemporal*lossT
}

// SampleEffortParts returns the spatial and temporal contributions
// w_σ·φ_σ and w_τ·φ_τ of Eq. 1 separately; the analysis of Sec. 5.3
// studies their distributions independently.
func (p Params) SampleEffortParts(a, b Sample, na, nb int) (spatial, temporal float64) {
	return p.WSpatial * p.spatialLoss(a, b, na, nb), p.WTemporal * p.temporalLoss(a, b, na, nb)
}

// spatialLoss is φ_σ of Eq. 2: the spatial stretch linearly normalized by
// φmax_σ and saturated at 1.
func (p Params) spatialLoss(a, b Sample, na, nb int) float64 {
	s := SpatialStretch(a, b, na, nb)
	if s >= p.MaxSpatial {
		return 1
	}
	return s / p.MaxSpatial
}

// temporalLoss is φ_τ of Eq. 3.
func (p Params) temporalLoss(a, b Sample, na, nb int) float64 {
	s := TemporalStretch(a, b, na, nb)
	if s >= p.MaxTemporal {
		return 1
	}
	return s / p.MaxTemporal
}

// FingerprintEffort returns the fingerprint stretch effort Δ_ab of Eq.
// 10: for each sample of the longer fingerprint, the minimum sample
// stretch effort to any sample of the shorter one, averaged over the
// longer fingerprint. Eq. 10 leaves the equal-length case ambiguous (its
// two branches disagree there); we average the two directions so the
// measure is symmetric in its arguments, which the effort matrix and the
// nearest-neighbour analysis rely on.
func (p Params) FingerprintEffort(a, b *Fingerprint) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		// Degenerate; callers validate against empty fingerprints, but be
		// explicit: an empty side needs no stretching.
		return 0
	}
	if a.Len() == b.Len() {
		return (p.directedEffort(a, b) + p.directedEffort(b, a)) / 2
	}
	if a.Len() > b.Len() {
		return p.directedEffort(a, b)
	}
	return p.directedEffort(b, a)
}

// directedEffort evaluates Eq. 10 with `long` as the averaged side.
func (p Params) directedEffort(long, short *Fingerprint) float64 {
	nl, ns := long.Count, short.Count
	var sum float64
	for i := range long.Samples {
		sum += p.minEffortTo(long.Samples[i], nl, short.Samples, ns)
	}
	return sum / float64(long.Len())
}

// minEffortTo returns min_j δ(s, short[j]). This is the hot loop of the
// whole system — Eq. 10 is evaluated O(|M|^2) times — so it is written to
// be allocation-free and inlinable-friendly.
func (p Params) minEffortTo(s Sample, ns int, short []Sample, nShort int) float64 {
	wa := float64(ns) / float64(ns+nShort)
	wb := float64(nShort) / float64(ns+nShort)
	best := math.Inf(1)
	for k := range short {
		o := &short[k]
		// Inline stretch1D for x, y, t against o.
		var sa, sb float64
		if o.X < s.X {
			sa += s.X - o.X
		}
		if o.X+o.DX > s.X+s.DX {
			sa += o.X + o.DX - (s.X + s.DX)
		}
		if o.Y < s.Y {
			sa += s.Y - o.Y
		}
		if o.Y+o.DY > s.Y+s.DY {
			sa += o.Y + o.DY - (s.Y + s.DY)
		}
		if s.X < o.X {
			sb += o.X - s.X
		}
		if s.X+s.DX > o.X+o.DX {
			sb += s.X + s.DX - (o.X + o.DX)
		}
		if s.Y < o.Y {
			sb += o.Y - s.Y
		}
		if s.Y+s.DY > o.Y+o.DY {
			sb += s.Y + s.DY - (o.Y + o.DY)
		}
		spatial := sa*wa + sb*wb
		if spatial >= p.MaxSpatial {
			spatial = p.MaxSpatial
		}

		var ta, tb float64
		if o.T < s.T {
			ta += s.T - o.T
		}
		if o.T+o.DT > s.T+s.DT {
			ta += o.T + o.DT - (s.T + s.DT)
		}
		if s.T < o.T {
			tb += o.T - s.T
		}
		if s.T+s.DT > o.T+o.DT {
			tb += s.T + s.DT - (o.T + o.DT)
		}
		temporal := ta*wa + tb*wb
		if temporal >= p.MaxTemporal {
			temporal = p.MaxTemporal
		}

		d := p.WSpatial*spatial/p.MaxSpatial + p.WTemporal*temporal/p.MaxTemporal
		if d < best {
			best = d
		}
	}
	return best
}

// NearestSampleIndex returns the index j of the sample in candidates at
// minimum stretch effort from s (ties broken by lowest index), by a full
// scan. It is the reference for the merge matching stage's pruned scan
// (nearestSampleSorted). The count weights depend only on the two
// fingerprints, not on the candidate, so they are resolved once outside
// the scan.
func (p Params) NearestSampleIndex(s Sample, ns int, candidates []Sample, nc int) int {
	wa := float64(ns) / float64(ns+nc)
	wb := float64(nc) / float64(ns+nc)
	best := math.Inf(1)
	bestIdx := 0
	for j := range candidates {
		d := p.sampleEffortWeighted(s, candidates[j], wa, wb)
		if d < best {
			best = d
			bestIdx = j
		}
	}
	return bestIdx
}

// nearestSampleSorted is NearestSampleIndex over time-sorted candidates
// with their count weights resolved, using the pruned kernel's outward
// scan (minEffortToView): start at s's binary-searched time position,
// walk both ways, and stop a direction once the temporal gap alone
// rules out every candidate left in it. tHiMax[k] is the latest
// interval end among candidates[0..k]. The full scan keeps the lowest
// index among effort ties, so the rightward scan (higher indexes) stops
// once the gap bound reaches the best effort, and the leftward scan
// only once it exceeds it: an equal effort at a lower index still wins.
func (p Params) nearestSampleSorted(s Sample, wa, wb float64, candidates []Sample, tHiMax []float64) int {
	m := len(candidates)
	pivot := sort.Search(m, func(k int) bool { return candidates[k].T >= s.T })
	sHi := s.T + s.DT
	best, bestIdx := math.Inf(1), 0
	for k := pivot; k < m; k++ {
		if g := candidates[k].T - sHi; g > 0 && p.temporalGapLB(g) >= best {
			break
		}
		if d := p.sampleEffortWeighted(s, candidates[k], wa, wb); d < best {
			best, bestIdx = d, k
		}
	}
	for k := pivot - 1; k >= 0; k-- {
		if g := s.T - tHiMax[k]; g > 0 && p.temporalGapLB(g) > best {
			break
		}
		if d := p.sampleEffortWeighted(s, candidates[k], wa, wb); d <= best {
			best, bestIdx = d, k
		}
	}
	return bestIdx
}
