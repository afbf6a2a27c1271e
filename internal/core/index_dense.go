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
// The matrix is filled by the pruned effort kernel: a row scan carries
// its running minimum as the kernel threshold, so most entries abort
// after a few samples and store only a lower bound, flagged in trunc.
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
// wait it out. Rows are scanned independently in parallel, each pruning
// against its own running minimum; a pair is therefore visited once per
// side, but both visits usually abort within a few samples, which is
// far cheaper than one exhaustive evaluation.
func (x *denseIndex) Build(ctx context.Context) error {
	ws := x.ws
	n := ws.n
	x.prepare(n)
	if x.naive {
		// The ablation's full-matrix rescans read every entry, so build
		// the exact matrix, one evaluation per unordered pair.
		err := parallel.ForPairsContext(ctx, n, ws.workers, func(i, j int) {
			if !ws.alive[i] || !ws.alive[j] {
				return
			}
			e := ws.effort(i, j)
			x.matrix[i*n+j] = e
			x.matrix[j*n+i] = e
		})
		if err != nil {
			return err
		}
	} else {
		err := parallel.ForContext(ctx, n, ws.workers, func(i int) {
			if ws.alive[i] {
				x.buildRow(i)
			}
		})
		if err != nil {
			return err
		}
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

// buildRow fills row i, passing the running row minimum to the kernel
// as the abort threshold. Truncated entries store the kernel's lower
// bound; since every such bound exceeds the row minimum at the time it
// was skipped — and the minimum only decreases during the scan — the
// final row minimum is always stored exactly, so the first
// rescanNearest of a fresh row never refines.
func (x *denseIndex) buildRow(i int) {
	ws := x.ws
	n := ws.n
	row := x.matrix[i*n : (i+1)*n]
	tr := x.trunc[i*n : (i+1)*n]
	thr := math.Inf(1)
	for j := 0; j < n; j++ {
		if j == i || !ws.alive[j] {
			continue
		}
		e, below := ws.effortBelow(i, j, thr)
		row[j] = e
		if below {
			if e < thr {
				thr = e
			}
		} else {
			tr[j] = true
		}
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
// carries the target slot's current nearest effort as the kernel
// threshold: a truncated result proves the merged fingerprint cannot
// improve that slot's cache, and row i's own minimum is settled by
// rescanNearest's refinement.
func (x *denseIndex) Reinsert(i int) {
	ws := x.ws
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
