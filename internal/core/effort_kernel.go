package core

import (
	"math"
	"sort"
	"sync/atomic"
)

// This file is the exact pruned evaluation kernel for the fingerprint
// stretch effort Δ_ab (Eq. 10) — the hot loop of the whole system. The
// naive kernel (Params.FingerprintEffort in effort.go) evaluates all
// mₐ·m_b sample pairs; every pair-selection path (dense matrix build and
// reinsertion, sparse candidate refills, the leftover fold, the k-gap
// analysis) only ever asks "is Δ_ab below my current best/cutoff?", so
// this kernel prunes with two true lower bounds and stays bit-exact with
// the naive path wherever it reports an effort (DESIGN.md Sec. 8):
//
//  1. Running-sum abort. Eq. 10 averages per-sample minima over the
//     longer fingerprint. Each minimum is >= the bounding-volume effort
//     lower bound of the pair (EffortLowerBound, bounds.go), and of its
//     own sample's box against the short side's, so as soon as the
//     partial sum plus a bound for the unprocessed remainder guarantees
//     Δ_ab > threshold, the scan aborts: the caller only needed to know
//     the pair loses.
//
//  2. Temporal-gap outward scan. Fingerprint.Samples are time-sorted;
//     for one long-side sample the scan starts at the short side's
//     binary-searched time position and walks outward. The temporal gap
//     between disjoint intervals lower-bounds the temporal stretch on
//     BOTH sides of Eq. 7 (each side must at least bridge the gap), and
//     the count weights sum to one, so w_τ·min(gap, φmax_τ)/φmax_τ is a
//     valid per-candidate lower bound on δ — once it reaches the current
//     per-sample best, the whole remaining direction is skipped. The
//     minimum over the candidates actually evaluated equals the full
//     minimum, so the per-sample result is exactly the naive one.
//
// The kernel runs over fpView, a structure-of-arrays snapshot of a
// fingerprint (flat x/xHi/y/yHi/t/tHi slices plus precomputed bounds and
// a prefix max of interval ends), cached per working-set slot and
// invalidated on merge/reinsert, so the inner loop recomputes no
// s.X+s.DX and allocates nothing.

// fpView is the structure-of-arrays snapshot of one fingerprint the
// pruned kernel operates on. The arrays mirror Fingerprint.Samples in
// order: x/y/t are the interval starts, xHi/yHi/tHi the interval ends
// (start + extent, precomputed once so the value is identical to the
// naive kernel's s.X+s.DX). tHiMax[k] is max(tHi[0..k]) — interval
// starts are sorted but ends are not, and the leftward scan needs a
// monotone envelope of "latest end so far" to stop early soundly.
type fpView struct {
	x, xHi, y, yHi, t, tHi []float64
	tHiMax                 []float64
	bounds                 FingerprintBounds
	count                  int // n_a, the subscriber count behind the fingerprint

	// backing is the single allocation behind the seven arrays, kept so
	// the working set can recycle it through its view pool when the slot
	// dies (DESIGN.md Sec. 11: the merge loop allocates no views in
	// steady state). Arena-built views carry their arena segment here;
	// recycling it is harmless (capacity-checked on reuse).
	backing []float64
}

// fill (re)builds the view for f inside the given backing slice, which
// must hold exactly 7*len(f.Samples) float64s. The bounding volume is
// accumulated in the same pass — the column spans being merged are
// exactly the bounds, so the former second BoundsOf sweep is free here
// (identical values: samples are finite, so running comparisons match
// math.Min/Max).
func (v *fpView) fill(f *Fingerprint, backing []float64) {
	m := len(f.Samples)
	*v = fpView{
		x:       backing[0*m : 1*m],
		xHi:     backing[1*m : 2*m],
		y:       backing[2*m : 3*m],
		yHi:     backing[3*m : 4*m],
		t:       backing[4*m : 5*m],
		tHi:     backing[5*m : 6*m],
		tHiMax:  backing[6*m : 7*m],
		count:   f.Count,
		backing: backing,
	}
	b := FingerprintBounds{
		MinX: math.Inf(1), MaxX: math.Inf(-1),
		MinY: math.Inf(1), MaxY: math.Inf(-1),
		MinT: math.Inf(1), MaxT: math.Inf(-1),
	}
	hiMax := math.Inf(-1)
	for i := range f.Samples {
		s := &f.Samples[i]
		v.x[i] = s.X
		v.xHi[i] = s.X + s.DX
		v.y[i] = s.Y
		v.yHi[i] = s.Y + s.DY
		v.t[i] = s.T
		v.tHi[i] = s.T + s.DT
		if v.tHi[i] > hiMax {
			hiMax = v.tHi[i]
		}
		v.tHiMax[i] = hiMax
		if v.x[i] < b.MinX {
			b.MinX = v.x[i]
		}
		if v.xHi[i] > b.MaxX {
			b.MaxX = v.xHi[i]
		}
		if v.y[i] < b.MinY {
			b.MinY = v.y[i]
		}
		if v.yHi[i] > b.MaxY {
			b.MaxY = v.yHi[i]
		}
		if v.t[i] < b.MinT {
			b.MinT = v.t[i]
		}
		if v.tHi[i] > b.MaxT {
			b.MaxT = v.tHi[i]
		}
	}
	v.bounds = b
}

// newFPView flattens a fingerprint into its SoA kernel view with a
// fresh backing allocation. Hot paths use the working set's pooled and
// arena variants instead.
func newFPView(f *Fingerprint) *fpView {
	v := &fpView{}
	v.fill(f, make([]float64, 7*len(f.Samples)))
	return v
}

// kernelCounters tracks pruned-kernel work. The kernel runs under the
// parallel helpers, so the counters are atomic; they feed the
// GloveStats.EffortKernel* accounting and the pruning-effectiveness
// tests.
type kernelCounters struct {
	calls  atomic.Int64 // kernel invocations (pair evaluations requested)
	pruned atomic.Int64 // invocations that early-exited via the threshold
}

// FingerprintEffortBelow is the threshold-aware form of
// FingerprintEffort: it reports whether Δ_ab <= threshold, computing the
// exact effort only as far as needed.
//
// Contract: when below is true, effort is exactly FingerprintEffort(a, b)
// (bit-identical to the naive kernel) and effort <= threshold. When
// below is false, the true effort is strictly greater than threshold and
// effort is a lower bound on it (possibly the exact value). Callers that
// keep a current best/cutoff and skip pairs proven worse therefore make
// exactly the decisions the naive kernel would.
//
// This convenience form builds the SoA views per call; the hot paths go
// through the per-slot cached views of the working set instead.
func (p Params) FingerprintEffortBelow(a, b *Fingerprint, threshold float64) (effort float64, below bool) {
	return p.effortBelowViews(newFPView(a), newFPView(b), threshold)
}

// effortBelowViews is FingerprintEffortBelow over prebuilt views. It
// mirrors FingerprintEffort's direction choice exactly: the longer
// fingerprint is averaged, equal lengths average both directions.
func (p Params) effortBelowViews(a, b *fpView, threshold float64) (float64, bool) {
	la, lb := len(a.t), len(b.t)
	if la == 0 || lb == 0 {
		return 0, threshold >= 0
	}
	if la == lb {
		// e = (d1 + d2)/2 with both directions exact; each direction gets
		// the slack the other's partial result leaves (d2 >= 0, so d1 >
		// 2·threshold already proves e > threshold).
		d1, exact := p.directedEffortBelow(a, b, 2*threshold)
		if !exact {
			return d1 / 2, false
		}
		d2, exact := p.directedEffortBelow(b, a, 2*threshold-d1)
		e := (d1 + d2) / 2
		if !exact && e <= threshold {
			// d2 beat its slack, but d1+d2 rounded back onto the
			// threshold (the slack was below an ulp of d1): only the
			// exact sum can decide.
			d2, exact = p.directedEffortBelow(b, a, math.Inf(1))
			e = (d1 + d2) / 2
		}
		if !exact {
			return e, false
		}
		return e, e <= threshold
	}
	long, short := a, b
	if la < lb {
		long, short = b, a
	}
	d, exact := p.directedEffortBelow(long, short, threshold)
	return d, exact && d <= threshold
}

// directedEffortBelow evaluates Eq. 10 with `long` as the averaged side.
// When exact is true the result is bit-identical to directedEffort;
// otherwise the scan aborted with the returned value a lower bound and
// the true directed effort strictly above threshold.
//
// The unprocessed remainder is first priced at the whole-fingerprint
// bounding-volume bound perLB, which settles most pairs of a thresholded
// pass (the k-gap analysis asks "is the effort ~0?") after one sample.
// That bound is ~0 whenever the two boxes overlap, so a pair the first
// sample does not settle continues in directedEffortBelowSuffix, which
// prices the remainder sample by sample instead. It is built only then:
// an eager O(m) suffix per call would triple the cost of the k-gap pass.
func (p Params) directedEffortBelow(long, short *fpView, threshold float64) (float64, bool) {
	m := len(long.t)
	wa := float64(long.count) / float64(long.count+short.count)
	wb := float64(short.count) / float64(long.count+short.count)
	perLB := p.EffortLowerBound(long.bounds, short.bounds)
	limit := threshold * (1 + boundMargin)
	var sum float64
	last := m - 1
	for i := 0; i < m; i++ {
		sum += p.minEffortToView(long.x[i], long.xHi[i], long.y[i], long.yHi[i],
			long.t[i], long.tHi[i], wa, wb, short)
		if i == last {
			break
		}
		// Abort only mid-scan: once the last sample is in, the exact
		// average is one division away, and deciding ties on the exact
		// value (in the caller) avoids any multiply-vs-divide rounding
		// disagreement with the naive kernel at thresholds that equal
		// the true effort — which is common, since thresholds are other
		// pairs' computed efforts.
		if lb := (sum + float64(last-i)*perLB) / float64(m); lb > limit {
			return lb * (1 - boundMargin/2), false
		}
		if m <= suffixBoundMaxM && !math.IsInf(threshold, 1) {
			return p.directedEffortBelowSuffix(long, short, limit, wa, wb, i+1, sum)
		}
	}
	return sum / float64(m), true
}

// suffixBoundMaxM is the longest averaged side whose per-sample
// remainder bounds fit directedEffortBelowSuffix's stack buffer. Longer
// fingerprints keep the whole-fingerprint bound, so the kernel allocates
// nothing at any length.
const suffixBoundMaxM = 256

// boundMargin is the relative margin a remainder bound must clear
// before it aborts a scan. A bounding-volume bound can exceed the
// per-sample minimum it bounds by an ulp (the count weights need not sum
// to exactly one), and the per-sample bounds are summed in a different
// order than the minima, so a tight bound may overshoot the exact
// effort by a few ulps per sample. 1e-9 is far above that error at any
// length the kernel sees; without it a threshold equal to the exact
// effort could be reported as pruned. An abort reports the bound shrunk
// by half the margin: still above the threshold, and at or below the
// exact effort, so a stored bound never outranks an exact tie.
const boundMargin = 1e-9

// directedEffortBelowSuffix continues directedEffortBelow from sample
// `from`, with sum holding the minima of the samples before it and
// limit the threshold with its margin. Sample k's minimum is at least
// the bounding-volume bound of k's own box against the short side's
// (every candidate lies inside that box), so the suffix sums of those
// per-sample bounds price the remainder far more tightly than perLB.
func (p Params) directedEffortBelowSuffix(long, short *fpView, limit, wa, wb float64, from int, sum float64) (float64, bool) {
	m := len(long.t)
	var buf [suffixBoundMaxM + 1]float64
	rest := buf[:m+1] // rest[k]: bound on the sum of minima of samples k..m-1
	for k := m - 1; k >= from; k-- {
		sb := FingerprintBounds{
			MinX: long.x[k], MaxX: long.xHi[k],
			MinY: long.y[k], MaxY: long.yHi[k],
			MinT: long.t[k], MaxT: long.tHi[k],
		}
		rest[k] = rest[k+1] + p.EffortLowerBound(sb, short.bounds)
	}
	for i := from; i < m; i++ {
		if lb := (sum + rest[i]) / float64(m); lb > limit {
			return lb * (1 - boundMargin/2), false
		}
		sum += p.minEffortToView(long.x[i], long.xHi[i], long.y[i], long.yHi[i],
			long.t[i], long.tHi[i], wa, wb, short)
	}
	return sum / float64(m), true
}

// temporalGapLB converts a temporal-only separation (minutes) into an
// effort lower bound: both sides of Eq. 7 must stretch at least across
// the gap and the count weights sum to one, so φ*_τ >= gap; the spatial
// term only adds. Mirrors the temporal half of EffortLowerBound, shrunk
// by boundMargin: the computed weights can sum to just under one (1/3
// and 2/3 both round down), so a candidate's computed effort can sit an
// ulp below the exact bound, and a scan stopping on the exact bound
// could skip it.
func (p Params) temporalGapLB(gap float64) float64 {
	if gap >= p.MaxTemporal {
		gap = p.MaxTemporal
	}
	return p.WTemporal * gap / p.MaxTemporal * (1 - boundMargin)
}

// minEffortToView returns min_j δ(s, short[j]) for the long-side sample
// (sx..stHi), scanning outward from the binary-searched time position
// and stopping each direction once the temporal-gap lower bound reaches
// the current best. Identical in value to minEffortTo (effort.go): only
// candidates provably unable to improve the minimum are skipped.
//
// The candidate body is written out in both loops rather than called:
// a function taking the sample's eight floats is far over the inlining
// budget. Each one-sided stretch "if a < b { s += b - a }" is computed
// without a branch as (d+|d|)/2 or (|d|−d)/2 of the same difference d.
// That is exact: 2d and its halving round nothing, and a non-positive d
// gives −x+x = +0, so every sum, in the naive kernel's order, is
// bit-identical.
func (p Params) minEffortToView(sx, sxHi, sy, syHi, st, stHi, wa, wb float64, short *fpView) float64 {
	ts := short.t
	m := len(ts)
	xs, xHis := short.x[:m], short.xHi[:m]
	ys, yHis := short.y[:m], short.yHi[:m]
	tHis, tHiMax := short.tHi[:m], short.tHiMax[:m]
	maxS, maxT := p.MaxSpatial, p.MaxTemporal
	wS, wT := p.WSpatial, p.WTemporal
	pivot := sort.SearchFloat64s(ts, st)
	best := math.Inf(1)
	// Rightward: candidate starts are sorted, so once a candidate starts
	// far enough after s ends, every later one does too.
	for k := pivot; k < m; k++ {
		if g := ts[k] - stHi; g > 0 && p.temporalGapLB(g) >= best {
			break
		}
		dxl, dxr, dyl, dyr := sx-xs[k], xHis[k]-sxHi, sy-ys[k], yHis[k]-syHi
		axl, axr, ayl, ayr := math.Abs(dxl), math.Abs(dxr), math.Abs(dyl), math.Abs(dyr)
		spatial := ((dxl+axl)*0.5+(dxr+axr)*0.5+(dyl+ayl)*0.5+(dyr+ayr)*0.5)*wa +
			((axl-dxl)*0.5+(axr-dxr)*0.5+(ayl-dyl)*0.5+(ayr-dyr)*0.5)*wb
		if spatial >= maxS {
			spatial = maxS
		}
		dtl, dtr := st-ts[k], tHis[k]-stHi
		atl, atr := math.Abs(dtl), math.Abs(dtr)
		temporal := ((dtl+atl)*0.5+(dtr+atr)*0.5)*wa + ((atl-dtl)*0.5+(atr-dtr)*0.5)*wb
		if temporal >= maxT {
			temporal = maxT
		}
		if d := wS*spatial/maxS + wT*temporal/maxT; d < best {
			best = d
		}
	}
	// Leftward: ends are not sorted, so the stop test uses the prefix
	// max of ends — when even the latest end among the remaining
	// candidates leaves a big enough gap before s starts, stop.
	for k := pivot - 1; k >= 0; k-- {
		if g := st - tHiMax[k]; g > 0 && p.temporalGapLB(g) >= best {
			break
		}
		dxl, dxr, dyl, dyr := sx-xs[k], xHis[k]-sxHi, sy-ys[k], yHis[k]-syHi
		axl, axr, ayl, ayr := math.Abs(dxl), math.Abs(dxr), math.Abs(dyl), math.Abs(dyr)
		spatial := ((dxl+axl)*0.5+(dxr+axr)*0.5+(dyl+ayl)*0.5+(dyr+ayr)*0.5)*wa +
			((axl-dxl)*0.5+(axr-dxr)*0.5+(ayl-dyl)*0.5+(ayr-dyr)*0.5)*wb
		if spatial >= maxS {
			spatial = maxS
		}
		dtl, dtr := st-ts[k], tHis[k]-stHi
		atl, atr := math.Abs(dtl), math.Abs(dtr)
		temporal := ((dtl+atl)*0.5+(dtr+atr)*0.5)*wa + ((atl-dtl)*0.5+(atr-dtr)*0.5)*wb
		if temporal >= maxT {
			temporal = maxT
		}
		if d := wS*spatial/maxS + wT*temporal/maxT; d < best {
			best = d
		}
	}
	return best
}
