package core

import (
	"context"
	"math"

	"repro/internal/parallel"
)

// sparseIndex is the bounded-memory EffortIndex for large datasets:
// instead of the n×n effort matrix it keeps, per active fingerprint, a
// candidate list of the m lexicographically smallest (effort, slot)
// neighbours plus a cutoff pair bounding everything excluded from the
// list. Candidate discovery walks a spatial grid over fingerprint
// centroids in expanding rings, using the bounding-volume effort lower
// bound (EffortLowerBound) to skip exact Eq. 10 evaluations for
// fingerprints that provably cannot enter the list — the paper's
// locality observation (Sec. 7.3: fingerprints hide among spatial
// neighbours) is what makes those rescans cheap in practice.
//
// The index is exact, not approximate: the invariant maintained for
// every slot i is
//
//	entries(i) are lexicographically < cutoff(i) <= every excluded
//	alive candidate of i,
//
// under the ordering (effort, slot). Pair efforts never change while
// both endpoints are alive (fingerprints are immutable between merges),
// so the first still-valid entry of a list is the true canonical
// nearest neighbour; a list whose entries have all died is rebuilt by a
// fresh grid scan. MinPair therefore returns exactly the pair the
// dense index returns, and the published output is identical (enforced
// by TestQuickIndexEquivalence).
//
// Memory: O(n·m) candidate entries plus O(n) per-slot geometry and the
// grid — no n×n allocation anywhere on this path.
type sparseIndex struct {
	ws *workingSet
	m  int     // candidate list budget per slot
	cw float64 // grid cell width, meters

	gen    []uint32            // slot generation; bumped on Remove to invalidate entries
	bounds []FingerprintBounds // per-slot bounding volume (valid while alive)
	cellOf [][2]int32          // per-slot grid cell of the bounding-box center
	reach  []float64           // per-slot max axis distance from center to box edge
	lists  [][]candidate       // per-slot sorted candidates, len <= m
	cutE   []float64           // per-slot cutoff pair: effort ...
	cutS   []int32             // ... and slot (math.MaxInt32 = unbounded side)

	grid             map[[2]int32][]int32
	gridMin, gridMax [2]int32 // monotone cell-coordinate envelope
	maxReach         float64  // monotone max of reach over all inserts

	// offers is the Reinsert scratch row, allocated once at Build so the
	// per-merge offer fan-out allocates nothing (the merge loop is
	// serial, so one row suffices).
	offers []float64
}

// candidate is one entry of a per-slot list: the effort to a neighbour
// slot, tagged with the neighbour's generation so entries referring to
// a slot that has since been merged away (and possibly reused) are
// recognizably stale.
type candidate struct {
	e    float64
	slot int32
	gen  uint32
}

// lexLess orders (effort, slot) pairs: lower effort first, ties towards
// the lower slot. This is the canonical ordering shared with the dense
// index; effort ties are common (saturated efforts of far-apart
// fingerprints are exactly 1.0), so the slot component is load-bearing
// for cross-index determinism.
func lexLess(e1 float64, s1 int32, e2 float64, s2 int32) bool {
	return e1 < e2 || (e1 == e2 && s1 < s2)
}

func newSparseIndex(ws *workingSet, neighbors int) *sparseIndex {
	// Cell width: half the spatial saturation distance. Fingerprints
	// whose boxes are further apart than MaxSpatial contribute a
	// saturated spatial term, so finer cells than this buy nothing.
	return &sparseIndex{
		ws: ws,
		m:  clampIndexNeighbors(neighbors),
		cw: ws.params.MaxSpatial / 2,
	}
}

// prepare allocates the per-slot structures and an empty grid for n
// slots. Per-slot geometry, lists and cutoffs of alive slots are filled
// by Build; dead slots' entries are never read.
func (x *sparseIndex) prepare(n int) {
	x.gen = make([]uint32, n)
	x.bounds = make([]FingerprintBounds, n)
	x.cellOf = make([][2]int32, n)
	x.reach = make([]float64, n)
	x.lists = make([][]candidate, n)
	x.cutE = make([]float64, n)
	x.cutS = make([]int32, n)
	x.offers = make([]float64, n)
	x.grid = make(map[[2]int32][]int32)
}

func (x *sparseIndex) Build(ctx context.Context) error {
	ws := x.ws
	n := ws.n
	x.prepare(n)

	// Grid construction runs over contiguous slot stripes in parallel:
	// each stripe builds a private sub-grid (plus its envelope and reach
	// maximum) over its own slots, writing per-slot geometry directly
	// (disjoint indices). Concatenating the per-cell lists in stripe
	// order then reproduces exactly the serial loop's ascending slot
	// order inside every cell — the order ring scans observe — so the
	// parallel build is bit-identical to the old serial one.
	workers := ws.workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	stripes := workers
	if stripes > n {
		stripes = 1
	}
	type stripeGrid struct {
		grid     map[[2]int32][]int32
		min, max [2]int32
		any      bool
		maxReach float64
	}
	sgs := make([]stripeGrid, stripes)
	if err := parallel.ForContext(ctx, stripes, workers, func(s int) {
		sg := &sgs[s]
		sg.grid = make(map[[2]int32][]int32)
		for i := n * s / stripes; i < n*(s+1)/stripes; i++ {
			if !ws.alive[i] {
				continue
			}
			cell := x.placeGeom(i)
			sg.grid[cell] = append(sg.grid[cell], int32(i))
			if !sg.any {
				sg.min, sg.max = cell, cell
				sg.any = true
			} else {
				for a := 0; a < 2; a++ {
					if cell[a] < sg.min[a] {
						sg.min[a] = cell[a]
					}
					if cell[a] > sg.max[a] {
						sg.max[a] = cell[a]
					}
				}
			}
			if x.reach[i] > sg.maxReach {
				sg.maxReach = x.reach[i]
			}
			// Pre-sized to the m+1 overflow capacity so
			// insertCandidate never grows it.
			x.lists[i] = make([]candidate, 0, x.m+1)
		}
	}); err != nil {
		return err
	}
	first := true
	for s := range sgs {
		sg := &sgs[s]
		if !sg.any {
			continue
		}
		for cell, slots := range sg.grid {
			x.grid[cell] = append(x.grid[cell], slots...)
		}
		if first {
			x.gridMin, x.gridMax = sg.min, sg.max
			first = false
		} else {
			x.expandEnvelope(sg.min)
			x.expandEnvelope(sg.max)
		}
		if sg.maxReach > x.maxReach {
			x.maxReach = sg.maxReach
		}
	}

	// Per-slot rebuilds are independent: each writes only its own list
	// and cutoff, and reads the (frozen during Build) grid and geometry.
	return parallel.ForContext(ctx, n, ws.workers, func(i int) {
		if ws.alive[i] {
			x.rebuild(i)
		}
	})
}

// placeGeom computes and stores slot i's geometry (bounds, cell, reach)
// and returns its grid cell. The caller ensures ws.fps[i] (and so its
// cached kernel view) is set.
func (x *sparseIndex) placeGeom(i int) [2]int32 {
	b := x.ws.views[i].bounds
	x.bounds[i] = b
	cx, cy := (b.MinX+b.MaxX)/2, (b.MinY+b.MaxY)/2
	cell := [2]int32{int32(math.Floor(cx / x.cw)), int32(math.Floor(cy / x.cw))}
	x.cellOf[i] = cell
	x.reach[i] = math.Max(b.MaxX-b.MinX, b.MaxY-b.MinY) / 2
	return cell
}

// place computes slot i's geometry and registers it in the main grid
// (the Reinsert path; Build goes through stripe-local grids instead).
func (x *sparseIndex) place(i int) {
	cell := x.placeGeom(i)
	if x.reach[i] > x.maxReach {
		x.maxReach = x.reach[i]
	}
	x.grid[cell] = append(x.grid[cell], int32(i))
}

func (x *sparseIndex) expandEnvelope(cell [2]int32) {
	for a := 0; a < 2; a++ {
		if cell[a] < x.gridMin[a] {
			x.gridMin[a] = cell[a]
		}
		if cell[a] > x.gridMax[a] {
			x.gridMax[a] = cell[a]
		}
	}
}

// valid reports whether a candidate entry still refers to a live
// fingerprint (same slot occupant, not merged away).
func (x *sparseIndex) valid(c candidate) bool {
	return x.ws.alive[c.slot] && x.gen[c.slot] == c.gen
}

// spatialLB converts a spatial-only separation (meters) into an effort
// lower bound, mirroring the spatial term of EffortLowerBound.
func (x *sparseIndex) spatialLB(d float64) float64 {
	if d <= 0 {
		return 0
	}
	p := x.ws.params
	if d > p.MaxSpatial {
		d = p.MaxSpatial
	}
	return p.WSpatial * d / p.MaxSpatial
}

// rebuild recomputes slot i's candidate list and cutoff by walking grid
// rings outward from i's cell. Exact effort evaluations are skipped —
// lazily — for candidates whose bounding-volume lower bound already
// exceeds the current worst list entry, and whole remaining rings are
// skipped once even their closest conceivable fingerprint (accounting
// for the largest bounding box seen, maxReach) cannot beat it. Skipped
// candidates are covered by the cutoff, so the list stays exact.
func (x *sparseIndex) rebuild(i int) {
	ws := x.ws
	p := ws.params
	list := x.lists[i][:0]
	// Cutoff accumulator: the lex-min over everything excluded.
	cutE, cutS := math.Inf(1), int32(math.MaxInt32)
	skipped := false // any candidate excluded without exact evaluation

	c0 := x.cellOf[i]
	// Rings beyond the grid envelope hold no fingerprints.
	maxRing := int32(0)
	for a := 0; a < 2; a++ {
		if d := c0[a] - x.gridMin[a]; d > maxRing {
			maxRing = d
		}
		if d := x.gridMax[a] - c0[a]; d > maxRing {
			maxRing = d
		}
	}
	for r := int32(0); r <= maxRing; r++ {
		if len(list) == x.m && r > 1 {
			// Cells at Chebyshev distance r are at least (r-1) cell
			// widths from any point of i's cell; bounding boxes shrink
			// that by at most reach[i] + maxReach.
			d := float64(r-1)*x.cw - x.reach[i] - x.maxReach
			if x.spatialLB(d) > list[len(list)-1].e {
				skipped = true
				break
			}
		}
		for _, cell := range ringCells(c0, r) {
			for _, j32 := range x.grid[cell] {
				j := int(j32)
				if j == i || !ws.alive[j] {
					continue
				}
				lb := p.EffortLowerBound(x.bounds[i], x.bounds[j])
				if len(list) == x.m && lb > list[len(list)-1].e {
					// Cannot enter the list; the exact Eq. 10
					// evaluation is skipped and the exclusion is
					// covered by the cutoff below.
					skipped = true
					continue
				}
				// Pruned kernel, thresholded at the worst list entry: a
				// full list only admits strictly better efforts, so a
				// not-below result is excluded exactly like the
				// bounding-volume skip above (its true effort strictly
				// exceeds the worst entry).
				thr := math.Inf(1)
				if len(list) == x.m {
					thr = list[len(list)-1].e
				}
				e, below := ws.effortBelow(i, j, thr)
				if !below {
					skipped = true
					continue
				}
				list = insertCandidate(list, candidate{e: e, slot: j32, gen: x.gen[j]})
				if len(list) > x.m {
					drop := list[len(list)-1]
					list = list[:len(list)-1]
					if lexLess(drop.e, drop.slot, cutE, cutS) {
						cutE, cutS = drop.e, drop.slot
					}
				}
			}
		}
	}
	if skipped && len(list) > 0 {
		// Every skipped candidate's effort strictly exceeds the worst
		// list entry at the moment it was skipped, and the worst entry
		// only improves afterwards — so (worst effort, +inf slot) lower
		// bounds all of them.
		worst := list[len(list)-1].e
		if lexLess(worst, math.MaxInt32, cutE, cutS) {
			cutE, cutS = worst, math.MaxInt32
		}
	}
	x.lists[i] = list
	x.cutE[i], x.cutS[i] = cutE, cutS
}

// ringCells lists the cells at Chebyshev distance r from c0 (the cell
// itself for r = 0).
func ringCells(c0 [2]int32, r int32) [][2]int32 {
	if r == 0 {
		return [][2]int32{c0}
	}
	cells := make([][2]int32, 0, 8*r)
	for dx := -r; dx <= r; dx++ {
		cells = append(cells, [2]int32{c0[0] + dx, c0[1] - r})
		cells = append(cells, [2]int32{c0[0] + dx, c0[1] + r})
	}
	for dy := -r + 1; dy <= r-1; dy++ {
		cells = append(cells, [2]int32{c0[0] - r, c0[1] + dy})
		cells = append(cells, [2]int32{c0[0] + r, c0[1] + dy})
	}
	return cells
}

// insertCandidate inserts c into the (effort, slot)-sorted list,
// keeping the order.
func insertCandidate(list []candidate, c candidate) []candidate {
	pos := len(list)
	for pos > 0 && lexLess(c.e, c.slot, list[pos-1].e, list[pos-1].slot) {
		pos--
	}
	list = append(list, candidate{})
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	return list
}

// head returns slot i's canonical nearest alive neighbour, rebuilding
// the candidate list if every entry has died. ok is false when i has no
// alive neighbour at all.
func (x *sparseIndex) head(i int) (candidate, bool) {
	list := x.lists[i]
	for len(list) > 0 && !x.valid(list[0]) {
		list = list[1:]
	}
	x.lists[i] = list
	if len(list) == 0 {
		x.rebuild(i)
		list = x.lists[i]
		if len(list) == 0 {
			return candidate{}, false
		}
	}
	return list[0], true
}

// minPairParallelCut is the slot count above which MinPair fans its
// head scan out across workers; below it the serial scan wins (the
// fan-out costs more than the scan itself). A variable so the
// equivalence tests can force the parallel path on small datasets.
var minPairParallelCut = 4096

// headBest is one stripe's minimum over head entries.
type headBest struct {
	e    float64
	i, j int
}

// scanHeads returns the canonical first minimum over the heads of slots
// [lo, hi): strictly lower effort replaces, so the lowest slot index
// wins effort ties — the serial MinPair selection rule.
func (x *sparseIndex) scanHeads(lo, hi int) headBest {
	ws := x.ws
	b := headBest{e: math.Inf(1), i: -1, j: -1}
	for i := lo; i < hi; i++ {
		if !ws.alive[i] {
			continue
		}
		h, ok := x.head(i)
		if !ok {
			continue
		}
		if h.e < b.e {
			b = headBest{e: h.e, i: i, j: int(h.slot)}
		}
	}
	return b
}

// MinPair scans the per-slot heads for the canonical global minimum.
// Above minPairParallelCut the scan runs over contiguous slot stripes
// in parallel and the stripe minima reduce in stripe order with a
// strict comparison — exactly the serial scan's first-minimum rule, so
// the selected pair (and hence the whole run) is bit-identical to the
// serial path. Stripe scans are safe to run concurrently: head only
// mutates per-slot state (lazy purge and rebuild of slot i's own list
// and cutoff) and reads shared structures that are frozen between
// merges (grid, geometry, alive flags, views); kernel counters are
// atomic.
func (x *sparseIndex) MinPair() (int, int) {
	ws := x.ws
	workers := ws.workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	var b headBest
	if ws.n < minPairParallelCut || workers <= 1 {
		b = x.scanHeads(0, ws.n)
	} else {
		stripes := workers
		res := make([]headBest, stripes)
		parallel.For(stripes, workers, func(s int) {
			res[s] = x.scanHeads(ws.n*s/stripes, ws.n*(s+1)/stripes)
		})
		b = headBest{e: math.Inf(1), i: -1, j: -1}
		for _, r := range res {
			if r.i >= 0 && r.e < b.e {
				b = r
			}
		}
	}
	bi, bj := b.i, b.j
	if bi > bj {
		bi, bj = bj, bi
	}
	return bi, bj
}

func (x *sparseIndex) Remove(i int) {
	x.gen[i]++
	// Drop i from its grid cell so future ring scans never see it;
	// entries referring to i die lazily via the generation bump.
	cell := x.cellOf[i]
	slots := x.grid[cell]
	for k, s := range slots {
		if int(s) == i {
			x.grid[cell] = append(slots[:k], slots[k+1:]...)
			break
		}
	}
}

func (x *sparseIndex) Reinsert(i int) {
	x.place(i)
	x.expandEnvelope(x.cellOf[i])
	// The merged fingerprint's own list comes from a fresh (pruned)
	// grid scan.
	x.rebuild(i)
	x.offer(i)
}

// offer proposes slot i to the candidate lists of every other alive
// slot — Reinsert's fan-out. The exact effort is computed in
// parallel, and only where the bounding-volume lower bound does not
// already prove the offer falls at or beyond the target's cutoff (in
// which case skipping it preserves the list invariant: the excluded
// candidate is >= the cutoff by construction).
func (x *sparseIndex) offer(i int) {
	ws := x.ws
	p := ws.params
	i32 := int32(i)
	row := x.offers
	parallel.For(ws.n, ws.workers, func(c int) {
		if c == i || !ws.alive[c] {
			row[c] = math.NaN()
			return
		}
		lb := p.EffortLowerBound(x.bounds[i], x.bounds[c])
		if !lexLess(lb, i32, x.cutE[c], x.cutS[c]) {
			row[c] = math.NaN()
			return
		}
		// Pruned kernel, thresholded at the slot's cutoff effort: a
		// not-below result proves the offer lies strictly beyond the
		// cutoff, so skipping it preserves the list invariant.
		e, below := ws.effortBelow(i, c, x.cutE[c])
		if !below {
			row[c] = math.NaN()
			return
		}
		row[c] = e
	})
	for c, e := range row {
		if math.IsNaN(e) || !lexLess(e, i32, x.cutE[c], x.cutS[c]) {
			continue
		}
		// Purge stale entries first so dead candidates never crowd out
		// the offer.
		list := x.lists[c][:0]
		for _, cand := range x.lists[c] {
			if x.valid(cand) {
				list = append(list, cand)
			}
		}
		list = insertCandidate(list, candidate{e: e, slot: i32, gen: x.gen[i]})
		if len(list) > x.m {
			drop := list[len(list)-1]
			list = list[:len(list)-1]
			// The dropped entry was below the old cutoff, so it becomes
			// the new (tighter) cutoff.
			x.cutE[c], x.cutS[c] = drop.e, drop.slot
		}
		x.lists[c] = list
	}
}
