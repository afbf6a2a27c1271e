package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

// KGapResult holds the anonymizability measure of one fingerprint: its
// k-gap (Eq. 11) and the identities of its k-1 nearest fingerprints (the
// set N^{k-1}_a), which Sec. 5.3 disaggregates further.
type KGapResult struct {
	Index   int       // index of the fingerprint in the dataset
	KGap    float64   // Δ^k_a
	Nearest []int     // indices of the k-1 fingerprints at lowest Δ_ab
	Efforts []float64 // Δ_ab for each entry of Nearest
}

// KGapAll computes the k-gap of every fingerprint in the dataset using
// the given worker count (<= 0 for all CPUs). It evaluates Eq. 10 for all
// |M|^2 ordered pairs — the computation the paper offloads to a GPU —
// pruned (exactly) with bounding-volume lower bounds.
//
// k must be at least 2 and at most the number of fingerprints.
func KGapAll(p Params, d *Dataset, k, workers int) ([]KGapResult, error) {
	return kGapAll(p, d, k, workers, true, math.Inf(1))
}

// KGapAllNoPruning is KGapAll with the bounding-volume pruning disabled;
// it exists for the pruning ablation and must return identical results.
func KGapAllNoPruning(p Params, d *Dataset, k, workers int) ([]KGapResult, error) {
	return kGapAll(p, d, k, workers, false, math.Inf(1))
}

// AnonymousKGap is the k-gap at or below which a fingerprint counts as
// already k-anonymous: (numerically) zero, the anonymous share Fig. 4
// reports under increasing generalization.
const AnonymousKGap = 1e-12

// KGapAnonymousFraction returns the fraction of fingerprints whose k-gap is
// at most AnonymousKGap — bit for bit the fraction KGapAll's results
// give — without computing any k-gap above it. The mean of the k-1
// lowest efforts stays at or below AnonymousKGap only if every one of
// them does, so the scan admits only efforts below a ceiling of
// k·AnonymousKGap (the margin absorbs rounding) and early-exits every
// other pair: a fingerprint with fewer than k-1 admitted neighbours is
// not anonymous, and one with a full list has exactly KGapAll's list,
// k-gap and verdict. Only near-duplicate pairs can fall under that
// ceiling, so the scan visits just the candidates of an exact grid
// filter (kgap_filter.go), not all n² pairs.
//
// Arguments are those of KGapAll. candidates counts the ordered
// fingerprint pairs the filter handed to the kernel (n·(n-1) when the
// filter does not apply).
func KGapAnonymousFraction(p Params, d *Dataset, k, workers int) (frac float64, candidates int, err error) {
	if err := kGapArgs(p, d, k); err != nil {
		return 0, 0, err
	}
	rs, candidates := kGapThresholded(p, d, k, workers, float64(k)*AnonymousKGap)
	var n int
	for _, r := range rs {
		if len(r.Nearest) == k-1 && r.KGap <= AnonymousKGap {
			n++
		}
	}
	return float64(n) / float64(len(rs)), candidates, nil
}

// kGapThresholded is the pruned scan at a finite ceiling, over the
// candidate filter's pairs when it applies, and the number of ordered
// pairs it considered.
func kGapThresholded(p Params, d *Dataset, k, workers int, ceiling float64) ([]KGapResult, int) {
	n := d.Len()
	cands, pairs, ok := kGapCandidates(p, d, ceiling, workers)
	if !ok {
		return kGapScan(p, d, k, workers, true, ceiling), n * (n - 1)
	}
	// Kernel views only for fingerprints that have a candidate: every
	// pair the scans below evaluate has both ends among them.
	views := make([]*fpView, n)
	parallel.For(n, workers, func(i int) {
		if len(cands[i]) > 0 {
			views[i] = newFPView(d.Fingerprints[i])
		}
	})
	return parallel.Map(n, workers, func(i int) KGapResult {
		c := cands[i]
		if c == nil {
			c = []int32{} // not nil: kGapOne would scan every fingerprint
		}
		return kGapOne(p, d, i, k, views, ceiling, c)
	}), pairs
}

func kGapAll(p Params, d *Dataset, k, workers int, prune bool, ceiling float64) ([]KGapResult, error) {
	if err := kGapArgs(p, d, k); err != nil {
		return nil, err
	}
	return kGapScan(p, d, k, workers, prune, ceiling), nil
}

// kGapArgs checks the arguments of the k-gap passes.
func kGapArgs(p Params, d *Dataset, k int) error {
	if k < 2 {
		return fmt.Errorf("core: k = %d, need k >= 2", k)
	}
	if k > d.Len() {
		return fmt.Errorf("core: k = %d exceeds dataset size %d", k, d.Len())
	}
	return p.Validate()
}

// kGapScan runs kGapOne for every fingerprint against all others.
func kGapScan(p Params, d *Dataset, k, workers int, prune bool, ceiling float64) []KGapResult {
	n := d.Len()
	// The pruned path shares the SoA kernel views across all n scans
	// (O(total samples) memory); their cached bounds double as the pair
	// lower bounds.
	var views []*fpView
	if prune {
		views = parallel.Map(n, workers, func(i int) *fpView {
			return newFPView(d.Fingerprints[i])
		})
	}
	return parallel.Map(n, workers, func(i int) KGapResult {
		return kGapOne(p, d, i, k, views, ceiling, nil)
	})
}

// kGapOne computes Δ^k_a for fingerprint i by scanning all other
// fingerprints and keeping the k-1 lowest efforts strictly below
// ceiling (+Inf admits every pair). A pair must beat the bound min(ceiling,
// current k-1-th best), the latter only once the list is full. If views
// is non-nil, pairs whose bounding-volume effort lower bound already
// reaches that bound are skipped outright, and the remaining pairs run
// the pruned kernel thresholded at it, early-exiting provably worse
// pairs mid-evaluation; the result is unchanged because only pairs that
// cannot enter the list are pruned. A non-nil cands limits the scan to
// those ascending indices, which must include every j whose effort can
// fall below ceiling.
func kGapOne(p Params, d *Dataset, i, k int, views []*fpView, ceiling float64, cands []int32) KGapResult {
	a := d.Fingerprints[i]
	type pair struct {
		idx    int
		effort float64
	}
	best := make([]pair, 0, k) // kept sorted ascending by effort, max k-1 entries
	n := d.Len()
	if cands != nil {
		n = len(cands)
	}
	for c := 0; c < n; c++ {
		j := c
		if cands != nil {
			j = int(cands[c])
		}
		if j == i {
			continue
		}
		b := d.Fingerprints[j]
		// While the list is still filling, only the ceiling bounds the
		// kernel: every effort below it must be admitted exactly.
		bound := ceiling
		if len(best) == k-1 {
			bound = math.Min(bound, best[len(best)-1].effort)
		}
		var e float64
		if views != nil {
			if p.EffortLowerBound(views[i].bounds, views[j].bounds) >= bound {
				continue
			}
			var below bool
			e, below = p.effortBelowViews(views[i], views[j], bound)
			if !below {
				// True effort strictly above the bound: it cannot enter
				// the list.
				continue
			}
		} else {
			e = p.FingerprintEffort(a, b)
		}
		if e >= bound {
			continue
		}
		pos := sort.Search(len(best), func(m int) bool { return best[m].effort > e })
		best = append(best, pair{})
		copy(best[pos+1:], best[pos:])
		best[pos] = pair{idx: j, effort: e}
		if len(best) > k-1 {
			best = best[:k-1]
		}
	}

	res := KGapResult{Index: i, Nearest: make([]int, len(best)), Efforts: make([]float64, len(best))}
	var sum float64
	for m, b := range best {
		res.Nearest[m] = b.idx
		res.Efforts[m] = b.effort
		sum += b.effort
	}
	if len(best) > 0 {
		res.KGap = sum / float64(len(best))
	}
	return res
}

// KGaps extracts just the k-gap values from a result slice, in dataset
// order, ready for CDF construction.
func KGaps(rs []KGapResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.KGap
	}
	return out
}
