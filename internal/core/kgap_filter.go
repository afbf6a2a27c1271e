package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/parallel"
)

// This file is the exact candidate filter of the thresholded k-gap pass
// (KGapAnonymousFraction, DESIGN.md Sec. 8). A thresholded scan admits
// only pairs whose effort is below a tiny ceiling, and such a pair is a
// near-duplicate: the first sample of its averaged side lies almost on
// top of some sample of the other side. Hashing every fingerprint's
// first sample into a grid of (x, y, t) cells finds those pairs without
// visiting the other n² − n pairs.
//
// The argument. Let a pair's effort e be below the ceiling c and let m
// be the length of its averaged (longer) side; equal lengths average
// both directions, so either side qualifies. Each direction is a mean
// of m non-negative per-sample minima and is at most 2e (the equal-
// length average halves the sum of two directions), so every minimum,
// the first sample's included, is below 2·m·c. A per-sample minimum is
// at least the bounding-volume bound of the two sample boxes
// (EffortLowerBound): both sides must stretch across the L1 spatial gap
// and the temporal gap. So the first sample of the averaged side has a
// sample of the other side within box bound 2·m·c. Inverting that bound
// gives a spatial radius (per axis, since the L1 gap exceeds each
// axis's gap) and a temporal radius. Cells at least as wide as the
// largest sample extent plus the radius put such a partner in the
// first sample's cell or one of its 26 neighbours, where the partner's
// one lookup finds it. Every pair the scan can admit is therefore a
// candidate, and the kernel runs on the candidates in the scan's own
// order, so kGapOne admits the same pairs in the same order.
//
// filterMargin widens the box bound and the radii: computed efforts and
// bounds differ from the exact values by a few ulps (the count weights
// need not sum to exactly one), far below 1e-6 relative.

const filterMargin = 1e-6

// filterAxis is one dimension of the candidate filter's grid.
type filterAxis struct {
	hashed bool
	inv    float64 // 1/cell width; cells start at multiples of the width
}

// index returns the cell holding coordinate v (0 on an unhashed axis).
func (a filterAxis) index(v float64) int64 {
	if !a.hashed {
		return 0
	}
	return int64(math.Floor(v * a.inv))
}

// span returns the neighbour offsets a first sample registers along the
// axis: its own cell and, when hashed, the cells on either side.
func (a filterAxis) span() []int64 {
	if !a.hashed {
		return []int64{0}
	}
	return []int64{-1, 0, 1}
}

// cellHash folds a cell's three indices into one map key. Two cells may
// share a key; that only adds candidates, which the exact box bound
// check then drops.
func cellHash(x, y, t int64) uint64 {
	return uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ uint64(t)*0x165667b19e3779f9
}

// newFilterAxis sizes one axis for a radius r below which a partner
// sample must lie, given the largest sample extent and coordinate
// magnitude on it. An axis whose radius reaches the loss saturation
// (φmax; r = +Inf for a zero weight) constrains nothing and is not
// hashed. The cell is 0.1% wider than extent + radius, and at least
// 2^-28 of the largest coordinate, so two coordinates at most extent +
// radius apart land in adjacent cells despite the rounding of v·(1/cell).
// Wider cells only admit more candidates, so a degenerate zero width
// (every coordinate and extent zero, r = 0) becomes 1.
func newFilterAxis(r, saturation, extent, magnitude float64) filterAxis {
	if !(r < saturation) {
		return filterAxis{}
	}
	cell := math.Max((extent+r)*1.001, magnitude*0x1p-28)
	if cell == 0 {
		cell = 1
	}
	return filterAxis{hashed: true, inv: 1 / cell}
}

// kGapCandidates returns, for each fingerprint, the ascending indices of
// the fingerprints that may have an effort below ceiling with it, and
// the total number of such (ordered) pairs. ok is false when the filter
// does not apply: a fingerprint without samples (its effort to anything
// is 0), a non-finite coordinate, or a ceiling so high that neither
// dimension is hashed (every pair would be a candidate).
func kGapCandidates(p Params, d *Dataset, ceiling float64, workers int) (cands [][]int32, pairs int, ok bool) {
	fps := d.Fingerprints
	n := len(fps)
	maxLen := 0
	var ext, mag [3]float64 // per axis: largest extent, largest |coordinate|
	for _, f := range fps {
		if len(f.Samples) == 0 {
			return nil, 0, false
		}
		maxLen = max(maxLen, len(f.Samples))
		for _, s := range f.Samples {
			for a, lo := range [3]float64{s.X, s.Y, s.T} {
				hi := lo + [3]float64{s.DX, s.DY, s.DT}[a]
				// NaN fails both comparisons; ±Inf fails the second.
				if !(hi >= lo) || !(hi-lo <= math.MaxFloat64) {
					return nil, 0, false
				}
				if e := hi - lo; e > ext[a] {
					ext[a] = e
				}
				if m := max(-lo, hi); m > mag[a] {
					mag[a] = m
				}
			}
		}
	}
	// A weight of zero gives an infinite radius: that dimension's gap is
	// unconstrained.
	bound := 2 * float64(maxLen) * ceiling * (1 + filterMargin)
	rS := bound * p.MaxSpatial / p.WSpatial
	rT := bound * p.MaxTemporal / p.WTemporal
	ax := [3]filterAxis{
		newFilterAxis(rS, p.MaxSpatial, ext[0], mag[0]),
		newFilterAxis(rS, p.MaxSpatial, ext[1], mag[1]),
		newFilterAxis(rT, p.MaxTemporal, ext[2], mag[2]),
	}
	if !ax[0].hashed && !ax[2].hashed {
		return nil, 0, false
	}

	// Register every first sample in its cell and the cells around it.
	firsts := make([]FingerprintBounds, n)
	cells := make(map[uint64][]int32, 27*n)
	// occupied is a bitset over the keys' top bits, about 16 bits per
	// registration: most lookups miss every registered cell, and one bit
	// test settles them without a map probe.
	shift := 64 - bits.Len(uint(27*n*16))
	occupied := make([]uint64, (1<<(64-shift)+63)/64)
	for q, f := range fps {
		s := f.Samples[0]
		firsts[q] = sampleBounds(s)
		cx, cy, ct := ax[0].index(s.X), ax[1].index(s.Y), ax[2].index(s.T)
		for _, dx := range ax[0].span() {
			for _, dy := range ax[1].span() {
				for _, dt := range ax[2].span() {
					k := cellHash(cx+dx, cy+dy, ct+dt)
					cells[k] = append(cells[k], int32(q))
					occupied[k>>shift/64] |= 1 << (k >> shift % 64)
				}
			}
		}
	}

	// Every sample of o makes one lookup. A hit is a fingerprint q, at
	// least as long as o, whose first sample is within q's own box bound
	// of the sample.
	hits := parallel.Map(n, workers, func(o int) []int32 {
		f := fps[o]
		var out []int32
		for _, s := range f.Samples {
			k := cellHash(ax[0].index(s.X), ax[1].index(s.Y), ax[2].index(s.T))
			if occupied[k>>shift/64]&(1<<(k>>shift%64)) == 0 {
				continue
			}
			qs := cells[k]
			sb := sampleBounds(s)
			for _, q := range qs {
				lq := len(fps[q].Samples)
				if int(q) == o || lq < len(f.Samples) {
					continue
				}
				if p.EffortLowerBound(firsts[q], sb) < 2*float64(lq)*ceiling*(1+filterMargin) {
					out = append(out, q)
				}
			}
		}
		return out
	})
	cands = make([][]int32, n)
	for o, qs := range hits {
		for _, q := range qs {
			cands[o] = append(cands[o], q)
			cands[q] = append(cands[q], int32(o))
		}
	}
	parallel.For(n, workers, func(i int) {
		slices.Sort(cands[i])
		cands[i] = slices.Compact(cands[i])
	})
	for _, c := range cands {
		pairs += len(c)
	}
	return cands, pairs, true
}

// sampleBounds is the bounding volume of one sample, with the interval
// ends computed as the kernel views compute them.
func sampleBounds(s Sample) FingerprintBounds {
	return FingerprintBounds{
		MinX: s.X, MaxX: s.X + s.DX,
		MinY: s.Y, MaxY: s.Y + s.DY,
		MinT: s.T, MaxT: s.T + s.DT,
	}
}
