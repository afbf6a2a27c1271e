package core

import (
	"context"
	"math"

	"repro/internal/parallel"
)

// denseIndex is the dense EffortIndex: a full symmetric n×n effort
// matrix over the working-set slots plus a per-slot nearest-neighbour
// cache that keeps min-pair selection near O(n) per iteration. Exact
// and fastest for small datasets, but its memory is quadratic (8·n²
// bytes), which is why the planner switches to sparseIndex above
// DenseIndexMaxN fingerprints.
//
// The matrix is filled by the pruned effort kernel, one evaluation per
// unordered pair, thresholded at per-row seeds from bounding-box
// neighbours (Build): most entries abort after a few samples, or never
// reach the kernel, and store only a lower bound, flagged in trunc.
// Exactness is preserved lazily (DESIGN.md Sec. 8): nearest[i] always
// points at an entry whose exact effort is stored, and rescanNearest
// refines truncated winners on demand — a truncated entry's true effort
// exceeds its stored bound, so the canonical row minimum after
// refinement is exactly the one a fully-exact matrix would yield.
type denseIndex struct {
	ws *workingSet

	// naive disables the nearest cache and rescans the full matrix at
	// every MinPair, for the cache ablation (DESIGN.md Sec. 5). Output
	// must be identical; the full-matrix scan needs every entry exact,
	// so naive mode also disables threshold truncation.
	naive bool

	matrix  []float64 // n*n efforts among active slots
	trunc   []bool    // entry holds a lower bound, not the exact effort
	nearest []int     // slot -> active slot at canonical min effort (-1 if none)

	// Reinsert scratch rows, allocated once at Build so the per-merge
	// offer fan-out allocates nothing (the merge loop is serial, so one
	// set suffices).
	reE     []float64
	reTrunc []bool
}

func newDenseIndex(ws *workingSet, naive bool) *denseIndex {
	return &denseIndex{ws: ws, naive: naive}
}

// Build computes the pairwise effort matrix. The O(n²) build dominates
// start-up cost; it runs under ctx so a cancelled job does not have to
// wait it out. It evaluates each unordered pair at most once, in two
// parallel passes: seedRow bounds every row minimum from a few
// bounding-box neighbours, and buildPairs then visits the upper
// triangle with thresholds taken from those seeds. Both passes depend
// only on the data, never on scheduling, so the kernel counters are the
// same at every worker count.
func (x *denseIndex) Build(ctx context.Context) error {
	ws := x.ws
	n := ws.n
	x.prepare(n)
	var err error
	if x.naive {
		// The ablation's full-matrix rescans read every entry, so build
		// the exact matrix, one evaluation per unordered pair.
		err = parallel.ForPairsContext(ctx, n, ws.workers, func(i, j int) {
			if !ws.alive[i] || !ws.alive[j] {
				return
			}
			e := ws.effort(i, j)
			x.matrix[i*n+j] = e
			x.matrix[j*n+i] = e
		})
	} else {
		seed := make([]float64, n)
		err = parallel.ForContext(ctx, n, ws.workers, func(i int) {
			if ws.alive[i] {
				seed[i] = x.seedRow(i)
			}
		})
		if err == nil {
			// Row i owns the pairs (i, j>i): every entry has exactly one
			// writer, and the long early rows are dispatched first.
			err = parallel.ForContext(ctx, n, ws.workers, func(i int) {
				if ws.alive[i] {
					x.buildPairs(i, seed)
				}
			})
		}
	}
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if ws.alive[i] {
			x.rescanNearest(i)
		}
	}
	return nil
}

// prepare allocates the matrix and caches for n slots. Matrix entries
// at dead or self positions are never read — every consumer skips
// !alive slots first.
func (x *denseIndex) prepare(n int) {
	x.matrix = make([]float64, n*n)
	x.trunc = make([]bool, n*n)
	x.nearest = make([]int, n)
	x.reE = make([]float64, n)
	x.reTrunc = make([]bool, n)
}

// seedRow returns an upper bound on row i's minimum effort: the exact
// minimum over its DefaultIndexNeighbors nearest live slots by
// EffortLowerBound (ties towards the lower slot), evaluated in bound
// order with the running minimum as the kernel threshold. Once the next
// bound exceeds that minimum, so do all later ones, and the scan stops.
// Returns +Inf when i has no live neighbour.
func (x *denseIndex) seedRow(i int) float64 {
	ws := x.ws
	p := ws.params
	bi := ws.views[i].bounds
	var buf [DefaultIndexNeighbors + 1]candidate
	near := buf[:0] // sorted by (bound, slot); e holds the bound
	for j := 0; j < ws.n; j++ {
		if j == i || !ws.alive[j] {
			continue
		}
		lb := p.EffortLowerBound(bi, ws.views[j].bounds)
		if len(near) == DefaultIndexNeighbors && !lexLess(lb, int32(j), near[len(near)-1].e, near[len(near)-1].slot) {
			continue
		}
		near = insertCandidate(near, candidate{e: lb, slot: int32(j)})
		if len(near) > DefaultIndexNeighbors {
			near = near[:DefaultIndexNeighbors]
		}
	}
	thr := math.Inf(1)
	for _, c := range near {
		if c.e > thr {
			break
		}
		if e, below := ws.effortBelow(i, int(c.slot), thr); below && e < thr {
			thr = e
		}
	}
	return thr
}

// buildPairs fills the pairs (i, j>i) and their mirrors (j, i). Each
// pair is thresholded at the larger of its two row seeds, so a
// truncated entry's bound exceeds both row minima: every row minimum is
// stored exactly and the first rescanNearest of a fresh row never
// refines. A pair whose bounding-box bound already exceeds the
// threshold stores that bound, truncated, without a kernel call.
func (x *denseIndex) buildPairs(i int, seed []float64) {
	ws := x.ws
	p := ws.params
	n := ws.n
	bi := ws.views[i].bounds
	for j := i + 1; j < n; j++ {
		if !ws.alive[j] {
			continue
		}
		thr := math.Max(seed[i], seed[j])
		e := p.EffortLowerBound(bi, ws.views[j].bounds)
		tr := true
		if e <= thr {
			var below bool
			e, below = ws.effortBelow(i, j, thr)
			tr = !below
		}
		x.matrix[i*n+j] = e
		x.matrix[j*n+i] = e
		x.trunc[i*n+j] = tr
		x.trunc[j*n+i] = tr
	}
}

// exactEntry returns the exact effort of the live pair (i, j), refining
// the matrix in place when only a lower bound is stored. Refinement is
// symmetric: the exact value serves both rows.
func (x *denseIndex) exactEntry(i, j int) float64 {
	n := x.ws.n
	if x.trunc[i*n+j] {
		e := x.ws.effort(i, j)
		x.matrix[i*n+j] = e
		x.matrix[j*n+i] = e
		x.trunc[i*n+j] = false
		x.trunc[j*n+i] = false
	}
	return x.matrix[i*n+j]
}

// rescanNearest recomputes the nearest active neighbour of slot i from
// the matrix row: the canonical minimum, i.e. the lowest slot index
// among effort ties. Truncated winners are refined to their exact
// effort and the scan repeats — the refined value can only grow, so the
// loop settles on exactly the canonical minimum of the fully-exact row.
func (x *denseIndex) rescanNearest(i int) {
	ws := x.ws
	n := ws.n
	row := x.matrix[i*n : (i+1)*n]
	for {
		best := math.Inf(1)
		bestIdx := -1
		for j := 0; j < n; j++ {
			if j == i || !ws.alive[j] {
				continue
			}
			if row[j] < best {
				best = row[j]
				bestIdx = j
			}
		}
		if bestIdx < 0 || !x.trunc[i*n+bestIdx] {
			x.nearest[i] = bestIdx
			return
		}
		x.exactEntry(i, bestIdx)
	}
}

// MinPair returns the active pair at global minimum effort using the
// nearest caches; ties break towards the lowest slot indexes, keeping
// runs deterministic and index implementations interchangeable. Every
// nearest entry stores its exact effort (rescanNearest refines before
// caching), so the selection matches an exhaustive exact scan.
func (x *denseIndex) MinPair() (int, int) {
	if x.naive {
		return x.minPairNaive()
	}
	ws := x.ws
	best := math.Inf(1)
	bi, bj := -1, -1
	for i := 0; i < ws.n; i++ {
		if !ws.alive[i] || x.nearest[i] < 0 {
			continue
		}
		e := x.matrix[i*ws.n+x.nearest[i]]
		if e < best {
			best = e
			bi, bj = i, x.nearest[i]
		}
	}
	if bi > bj {
		bi, bj = bj, bi
	}
	return bi, bj
}

// minPairNaive is the cache-free O(n²) scan used by the ablation
// benchmark. Tie-breaking matches the cached path: both return the
// first minimal pair in row-major order. Naive mode never truncates, so
// every entry read here is exact.
func (x *denseIndex) minPairNaive() (int, int) {
	ws := x.ws
	best := math.Inf(1)
	bi, bj := -1, -1
	for i := 0; i < ws.n; i++ {
		if !ws.alive[i] {
			continue
		}
		row := x.matrix[i*ws.n : (i+1)*ws.n]
		for j := 0; j < ws.n; j++ {
			if j == i || !ws.alive[j] {
				continue
			}
			if row[j] < best {
				best = row[j]
				bi, bj = i, j
			}
		}
	}
	if bi > bj {
		bi, bj = bj, bi
	}
	return bi, bj
}

// Remove repairs the nearest caches of slots that pointed at the now
// dead slot i.
func (x *denseIndex) Remove(i int) {
	ws := x.ws
	for c := 0; c < ws.n; c++ {
		if ws.alive[c] && x.nearest[c] == i {
			x.rescanNearest(c)
		}
	}
}

// Reinsert recomputes row i against all active slots in parallel and
// offers the new row to the other slots' caches. Each evaluation
// carries the target slot's current nearest effort as the threshold: a
// truncated result proves the merged fingerprint cannot improve that
// slot's cache, and row i's own minimum is settled by rescanNearest's
// refinement. As in Build, a slot whose bounding-box bound already
// exceeds the threshold stores that bound, truncated, without a kernel
// call.
func (x *denseIndex) Reinsert(i int) {
	ws := x.ws
	p := ws.params
	n := ws.n
	parallel.For(n, ws.workers, func(c int) {
		if c == i || !ws.alive[c] {
			x.reE[c] = math.NaN() // dead marker
			return
		}
		thr := math.Inf(1)
		if !x.naive {
			if cur := x.nearest[c]; cur >= 0 {
				thr = x.matrix[c*n+cur]
			}
			if lb := p.EffortLowerBound(ws.views[i].bounds, ws.views[c].bounds); lb > thr {
				x.reE[c] = lb
				x.reTrunc[c] = true
				return
			}
		}
		e, below := ws.effortBelow(i, c, thr)
		x.reE[c] = e
		x.reTrunc[c] = !below
	})
	for c, e := range x.reE {
		if math.IsNaN(e) {
			continue
		}
		x.matrix[i*n+c] = e
		x.matrix[c*n+i] = e
		x.trunc[i*n+c] = x.reTrunc[c]
		x.trunc[c*n+i] = x.reTrunc[c]
	}
	x.rescanNearest(i)
	// Other caches may only improve via the reinserted slot. On an exact
	// effort tie the lower slot index wins, matching the canonical
	// ordering of rescanNearest (ties at saturated effort 1.0 are common
	// between far-apart fingerprints, so this matters for determinism
	// across index implementations). A truncated offer was evaluated
	// against exactly this cached effort, so its true value is strictly
	// worse and the cache keeps its current neighbour.
	for c := 0; c < n; c++ {
		if !ws.alive[c] || c == i || x.trunc[c*n+i] {
			continue
		}
		e := x.matrix[c*n+i]
		cur := x.nearest[c]
		if cur < 0 || e < x.matrix[c*n+cur] || (e == x.matrix[c*n+cur] && i < cur) {
			x.nearest[c] = i
		}
	}
}
