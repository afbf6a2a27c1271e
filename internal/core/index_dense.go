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
// The matrix is filled by the pruned effort kernel, at most one
// evaluation per unordered pair, thresholded at per-row seeds from
// bounding-box neighbours (Build): most entries abort after a few
// samples, or never reach the kernel, and store only a lower bound,
// marked entryBound in state. Exactness is preserved lazily (DESIGN.md
// Sec. 8): nearest[i] always points at an entry whose exact effort is
// stored, and rescanNearest refines bound winners on demand — a bound
// entry's true effort is at least its stored bound, so the canonical
// row minimum after refinement is exactly the one a fully-exact matrix
// would yield.
type denseIndex struct {
	ws *workingSet

	// naive disables the nearest cache and rescans the full matrix at
	// every MinPair, for the cache ablation (DESIGN.md Sec. 5). Output
	// must be identical; the full-matrix scan needs every entry exact,
	// so naive mode also disables threshold pruning.
	naive bool

	matrix  []float64    // n*n efforts among active slots
	state   []entryState // what each matrix entry holds
	nearest []int        // slot -> active slot at canonical min effort (-1 if none)

	// Reinsert scratch rows, allocated once at Build so the per-merge
	// offer fan-out allocates nothing (the merge loop is serial, so one
	// set suffices).
	reE     []float64
	reState []entryState
}

// entryState records what a dense matrix entry holds. One byte per
// entry: the seed pass's results need a third state beside exact and
// bound, and a second n² array of them would cost 16 MiB more at
// DenseIndexMaxN.
type entryState uint8

const (
	entryUnset entryState = iota // not evaluated yet (Build only)
	entryExact                   // the exact effort
	entryBound                   // a lower bound on the exact effort
)

func newDenseIndex(ws *workingSet, naive bool) *denseIndex {
	return &denseIndex{ws: ws, naive: naive}
}

// Build computes the pairwise effort matrix. The O(n²) build dominates
// start-up cost; it runs under ctx so a cancelled job does not have to
// wait it out. It runs the kernel at most once per unordered pair, in
// parallel passes: nearByBound lists every row's bounding-box
// neighbours, seedRow bounds every row minimum from them and keeps each
// result in the row's own entry, and buildPairs then visits the upper
// triangle with thresholds taken from those seeds, reusing any seed
// result of the pair. The closing rescanNearest refines a seed bound
// only if it wins its row. In the seed pass each row writes only its
// own entries, and in the pair pass row i alone writes the pairs
// (i, j>i) and their mirrors, so no pass needs locking. Every pass
// depends only on the data, never on scheduling, so the kernel counters
// are the same at every worker count.
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
			x.setPair(i, j, ws.effort(i, j), entryExact)
		})
	} else {
		const k = DefaultIndexNeighbors
		near := make([][]candidate, n)
		nearBuf := make([]candidate, n*(k+1))
		err = parallel.ForContext(ctx, n, ws.workers, func(i int) {
			if ws.alive[i] {
				near[i] = x.nearByBound(i, nearBuf[i*(k+1):i*(k+1):(i+1)*(k+1)])
			}
		})
		seed := make([]float64, n)
		if err == nil {
			err = parallel.ForContext(ctx, n, ws.workers, func(i int) {
				if ws.alive[i] {
					seed[i] = x.seedRow(i, near)
				}
			})
		}
		if err == nil {
			// A neighbour pair that both rows list was evaluated by the
			// lower row alone; an exact result there seeds both.
			for i, list := range near {
				for _, c := range list {
					if ji := int(c.slot)*n + i; x.state[ji] == entryExact && x.matrix[ji] < seed[i] {
						seed[i] = x.matrix[ji]
					}
				}
			}
			// Row i owns the pairs (i, j>i) and their mirrors: every
			// entry has exactly one writer, and the long early rows are
			// dispatched first.
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
	x.state = make([]entryState, n*n)
	x.nearest = make([]int, n)
	x.reE = make([]float64, n)
	x.reState = make([]entryState, n)
}

// nearByBound returns slot i's DefaultIndexNeighbors nearest live slots
// by EffortLowerBound, sorted by (bound, slot) with the bound in e, in
// list, which must have room for one entry more.
func (x *denseIndex) nearByBound(i int, list []candidate) []candidate {
	ws := x.ws
	p := ws.params
	bi := ws.views[i].bounds
	for j := 0; j < ws.n; j++ {
		if j == i || !ws.alive[j] {
			continue
		}
		lb := p.EffortLowerBound(bi, ws.views[j].bounds)
		if len(list) == DefaultIndexNeighbors && !lexLess(lb, int32(j), list[len(list)-1].e, list[len(list)-1].slot) {
			continue
		}
		list = insertCandidate(list, candidate{e: lb, slot: int32(j)})
		if len(list) > DefaultIndexNeighbors {
			list = list[:DefaultIndexNeighbors]
		}
	}
	return list
}

// seedRow returns an upper bound on row i's minimum effort: the least
// exact effort among its bounding-box neighbours near[i], evaluated in
// bound order with the running minimum as the kernel threshold. Once
// the next bound exceeds that minimum, so do all later ones, and the
// scan stops. A pair that both rows list is evaluated by the lower row
// only, so no pair reaches the kernel twice here; Build then lets an
// exact result seed both rows. Each kernel result is kept in row i's
// own entry for buildPairs: exact when the kernel reports below,
// otherwise a lower bound above the threshold it ran at, which is at
// least the returned seed. Returns +Inf when i has no live neighbour.
func (x *denseIndex) seedRow(i int, near [][]candidate) float64 {
	ws := x.ws
	n := ws.n
	thr := math.Inf(1)
	for _, c := range near[i] {
		if c.e > thr {
			break
		}
		j := int(c.slot)
		if j < i && listsSlot(near[j], i) {
			continue
		}
		e, below := ws.effortBelow(i, j, thr)
		st := entryBound
		if below {
			st = entryExact
			thr = math.Min(thr, e)
		}
		x.matrix[i*n+j], x.state[i*n+j] = e, st
	}
	return thr
}

// listsSlot reports whether the candidate list holds slot i.
func listsSlot(list []candidate, i int) bool {
	for _, c := range list {
		if int(c.slot) == i {
			return true
		}
	}
	return false
}

// buildPairs fills the pairs (i, j>i) and their mirrors (j, i). A pair
// the seed pass evaluated, in either row, keeps that result with no
// second kernel call: an exact effort is copied to both mirrors, and an
// aborted evaluation stays a bound, refined by rescanNearest only if it
// ever wins its row. Any other pair is thresholded at the larger of its
// two row seeds, so a bound entry from here exceeds both row minima. A
// pair whose bounding-box bound already exceeds that threshold stores
// the box bound without a kernel call.
func (x *denseIndex) buildPairs(i int, seed []float64) {
	ws := x.ws
	p := ws.params
	n := ws.n
	bi := ws.views[i].bounds
	for j := i + 1; j < n; j++ {
		if !ws.alive[j] {
			continue
		}
		// At most one of the two mirrors was seeded: seedRow leaves a
		// pair both rows list to the lower row.
		seeded := i*n + j
		if x.state[seeded] == entryUnset {
			seeded = j*n + i
		}
		if x.state[seeded] != entryUnset {
			x.setPair(i, j, x.matrix[seeded], x.state[seeded])
			continue
		}
		e := p.EffortLowerBound(bi, ws.views[j].bounds)
		st := entryBound
		if thr := math.Max(seed[i], seed[j]); e <= thr {
			var below bool
			if e, below = ws.effortBelow(i, j, thr); below {
				st = entryExact
			}
		}
		x.setPair(i, j, e, st)
	}
}

// setPair stores e with state st in both mirrors of the pair (i, j).
func (x *denseIndex) setPair(i, j int, e float64, st entryState) {
	n := x.ws.n
	x.matrix[i*n+j], x.matrix[j*n+i] = e, e
	x.state[i*n+j], x.state[j*n+i] = st, st
}

// exactEntry returns the exact effort of the live pair (i, j), refining
// the matrix in place when only a lower bound is stored. Refinement is
// symmetric: the exact value serves both rows.
func (x *denseIndex) exactEntry(i, j int) float64 {
	if x.state[i*x.ws.n+j] != entryExact {
		x.setPair(i, j, x.ws.effort(i, j), entryExact)
	}
	return x.matrix[i*x.ws.n+j]
}

// rescanNearest recomputes the nearest active neighbour of slot i from
// the matrix row: the canonical minimum, i.e. the lowest slot index
// among effort ties. Bound winners are refined to their exact
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
		if bestIdx < 0 || x.state[i*n+bestIdx] == entryExact {
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
// first minimal pair in row-major order. Naive mode stores only exact
// entries, so every entry read here is exact.
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
// bound result proves the merged fingerprint cannot improve that
// slot's cache, and row i's own minimum is settled by rescanNearest's
// refinement. As in Build, a slot whose bounding-box bound already
// exceeds the threshold stores that bound without a kernel call.
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
				x.reE[c], x.reState[c] = lb, entryBound
				return
			}
		}
		e, below := ws.effortBelow(i, c, thr)
		x.reE[c], x.reState[c] = e, entryBound
		if below {
			x.reState[c] = entryExact
		}
	})
	for c, e := range x.reE {
		if !math.IsNaN(e) {
			x.setPair(i, c, e, x.reState[c])
		}
	}
	x.rescanNearest(i)
	// Other caches may only improve via the reinserted slot. On an exact
	// effort tie the lower slot index wins, matching the canonical
	// ordering of rescanNearest (ties at saturated effort 1.0 are common
	// between far-apart fingerprints, so this matters for determinism
	// across index implementations). A bound offer was evaluated
	// against exactly this cached effort, so its true value is strictly
	// worse and the cache keeps its current neighbour.
	for c := 0; c < n; c++ {
		if !ws.alive[c] || c == i || x.state[c*n+i] != entryExact {
			continue
		}
		e := x.matrix[c*n+i]
		cur := x.nearest[c]
		if cur < 0 || e < x.matrix[c*n+cur] || (e == x.matrix[c*n+cur] && i < cur) {
			x.nearest[c] = i
		}
	}
}
