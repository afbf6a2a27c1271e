package core

import (
	"context"
	"math"
	"sync"
)

// workingSet is the slot table an EffortIndex operates over: the active
// (not yet anonymized) fingerprints of a GLOVE run, addressed by stable
// slot numbers so index structures can reference fingerprints without
// chasing pointers. The merge loop mutates it (kills slots, reinserts
// merged fingerprints) and notifies the index through Remove/Reinsert.
//
// Alongside each fingerprint the set caches its SoA kernel view
// (fpView), so every pair-effort evaluation an index requests runs the
// pruned allocation-free kernel; views are dropped on kill and rebuilt
// on put, never mutated in place.
type workingSet struct {
	params  Params
	workers int

	fps   []*Fingerprint // slot -> fingerprint (nil when dead)
	alive []bool         // slot is active (fingerprint count < K)
	views []*fpView      // slot -> cached kernel view (nil when dead)
	n     int            // slot capacity (== initial dataset size)

	// viewPool recycles view structs and their backing arrays between
	// merges, keeping the fpView layer allocation-free in steady state:
	// every merge kills two slots and puts at most one, so the pool
	// never grows past the churn of the run. The pool is also shared by
	// the leftover fold's transient per-group views.
	viewPool sync.Pool

	kc kernelCounters // pruned-kernel accounting for GloveStats
}

// borrowView builds a kernel view for f from pooled storage. The caller
// owns the view until it recycles it (returnView) or hands it to a slot
// (put does both ends internally).
func (ws *workingSet) borrowView(f *Fingerprint) *fpView {
	v, _ := ws.viewPool.Get().(*fpView)
	if v == nil {
		v = &fpView{}
	}
	need := 7 * len(f.Samples)
	backing := v.backing
	if cap(backing) < need {
		backing = make([]float64, need)
	}
	v.fill(f, backing[:need])
	return v
}

// returnView recycles a view obtained from borrowView. The view must no
// longer be referenced: its backing is overwritten by the next borrow.
func (ws *workingSet) returnView(v *fpView) {
	if v != nil {
		ws.viewPool.Put(v)
	}
}

// put (re)activates slot i with fingerprint f, rebuilding its kernel
// view from pooled storage. The view is immutable from here on: merging
// removes both inputs and puts a fresh fingerprint, it never edits one
// in place.
func (ws *workingSet) put(i int, f *Fingerprint) {
	ws.fps[i] = f
	ws.alive[i] = true
	ws.views[i] = ws.borrowView(f)
}

// kill deactivates slot i, dropping its fingerprint and recycling its
// view. Callers that still need the view must detach first.
func (ws *workingSet) kill(i int) {
	ws.alive[i] = false
	ws.fps[i] = nil
	ws.returnView(ws.views[i])
	ws.views[i] = nil
}

// detach deactivates slot i like kill but hands the view back to the
// caller instead of recycling it — the leftover fold keeps reading the
// view after the slot dies.
func (ws *workingSet) detach(i int) *fpView {
	v := ws.views[i]
	ws.alive[i] = false
	ws.fps[i] = nil
	ws.views[i] = nil
	return v
}

// effortBelow runs the pruned kernel over the cached views of two live
// slots (see FingerprintEffortBelow for the contract).
func (ws *workingSet) effortBelow(i, j int, threshold float64) (float64, bool) {
	e, below := ws.params.effortBelowViews(ws.views[i], ws.views[j], threshold)
	ws.kc.calls.Add(1)
	if !below {
		ws.kc.pruned.Add(1)
	}
	return e, below
}

// effort is the exact pair effort over cached views, bit-identical to
// Params.FingerprintEffort.
func (ws *workingSet) effort(i, j int) float64 {
	e, _ := ws.effortBelow(i, j, math.Inf(1))
	return e
}

// EffortIndex is the pluggable pair-selection structure behind the GLOVE
// merge loop (Alg. 1 line 5: "find the pair at minimum stretch effort").
// Implementations trade memory for generality:
//
//   - denseIndex stores the full n×n effort matrix — exact O(1) effort
//     lookups, O(n²) float64 memory, the small-n default.
//   - sparseIndex keeps a bounded candidate list per fingerprint seeded
//     from a spatial grid — O(n·m) memory, the large-n path.
//
// Both are exact: MinPair returns the same pair as an exhaustive scan
// under the canonical ordering, so every index yields byte-identical
// anonymized output (the equivalence property test enforces this).
//
// Call protocol: the merge loop mutates the workingSet first (alive
// flags, fingerprint slots) and then informs the index, so Remove and
// Reinsert always observe the post-mutation state.
type EffortIndex interface {
	// Build computes the initial structures over the active slots. It
	// honours ctx so a cancelled run does not wait out the start-up cost.
	Build(ctx context.Context) error

	// MinPair returns the active pair (i, j), i < j, minimal under the
	// canonical ordering: lowest effort, ties broken towards the lowest
	// i and then the lowest j. Returns (-1, -1) when fewer than two
	// slots are active.
	MinPair() (int, int)

	// Remove tells the index slot i was deactivated (its fingerprint
	// merged away or retired to the anonymized set).
	Remove(i int)

	// Reinsert tells the index slot i was re-activated with the merged
	// fingerprint now held by the working set, and must recompute that
	// slot's efforts.
	Reinsert(i int)
}

// newEffortIndex constructs the index implementation selected by the
// (already resolved) options. opt.Index must be IndexDense or
// IndexSparse by the time a state is built; resolveIndex handles auto.
func newEffortIndex(ws *workingSet, opt GloveOptions) EffortIndex {
	if opt.Index == IndexSparse {
		return newSparseIndex(ws, opt.IndexNeighbors)
	}
	return newDenseIndex(ws, opt.NaiveMinPair)
}
