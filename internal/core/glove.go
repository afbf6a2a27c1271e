package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/parallel"
)

// SuppressionThresholds configures the optional suppression step of
// Sec. 7.1: published samples whose generalized extents exceed either
// threshold are discarded instead of published, trading a small loss of
// data for a large gain in accuracy (Fig. 9). A zero threshold disables
// that dimension.
type SuppressionThresholds struct {
	MaxSpatialMeters   float64 // drop samples with spatial span above this
	MaxTemporalMinutes float64 // drop samples with temporal span above this
}

// Enabled reports whether any suppression is configured.
func (s SuppressionThresholds) Enabled() bool {
	return s.MaxSpatialMeters > 0 || s.MaxTemporalMinutes > 0
}

// exceeds reports whether the sample violates the thresholds.
func (s SuppressionThresholds) exceeds(sm Sample) bool {
	if s.MaxSpatialMeters > 0 && sm.SpatialSpan() > s.MaxSpatialMeters {
		return true
	}
	if s.MaxTemporalMinutes > 0 && sm.TemporalSpan() > s.MaxTemporalMinutes {
		return true
	}
	return false
}

// GloveOptions configures a GLOVE run.
type GloveOptions struct {
	// K is the anonymity level: every published fingerprint hides at
	// least K subscribers. Must be >= 2.
	K int

	// Params calibrates the stretch effort; zero value means
	// DefaultParams.
	Params Params

	// Merge tunes the merging operation; the zero value is the paper's
	// configuration.
	Merge MergeOptions

	// Suppress optionally discards over-generalized samples after
	// anonymization (Sec. 7.1).
	Suppress SuppressionThresholds

	// Workers bounds the parallelism of the pair-effort computations;
	// <= 0 uses all CPUs.
	Workers int

	// Index selects the pair-selection index implementation (DESIGN.md
	// Sec. 4). The zero value (IndexAuto) uses the dense matrix below
	// DenseIndexMaxN fingerprints and the sparse spatial-grid candidate
	// index above. All implementations produce identical output.
	Index IndexKind

	// IndexNeighbors is the per-fingerprint candidate-list size m of the
	// sparse index; <= 0 uses DefaultIndexNeighbors. Larger values
	// refill candidate lists less often at the cost of O(n·m) memory.
	IndexNeighbors int

	// NaiveMinPair disables the per-row nearest-neighbour cache and
	// rescans the full effort matrix at every iteration. It exists only
	// for the ablation benchmark of the cache (DESIGN.md Sec. 5) and
	// must produce identical output. It implies the dense index and is
	// rejected in combination with IndexSparse.
	NaiveMinPair bool

	// Progress, if non-nil, is called from the goroutine running GLOVE
	// as the run advances: once after the pairwise effort index is
	// built, then after every merge, and a final time on completion.
	// done grows monotonically to total. The callback must be fast; it
	// is on the hot path of the merge loop.
	Progress func(done, total int)
}

func (o GloveOptions) withDefaults() GloveOptions {
	if o.Params == (Params{}) {
		o.Params = DefaultParams()
	}
	o.IndexNeighbors = clampIndexNeighbors(o.IndexNeighbors)
	return o
}

// GloveStats reports what a GLOVE run did to the data, matching the
// accounting of Table 2.
type GloveStats struct {
	InputFingerprints int
	InputUsers        int
	InputSamples      int // original samples in the input

	OutputFingerprints int // published (merged) fingerprints
	OutputSamples      int // published (generalized) samples
	Merges             int // number of pairwise merge operations

	// SuppressedSamples counts original samples whose generalization was
	// discarded by the suppression thresholds (the paper's "deleted
	// samples"). SuppressedPublished counts the published samples those
	// originals had been generalized into.
	SuppressedSamples   int
	SuppressedPublished int

	// DiscardedFingerprints and DiscardedUsers count fingerprints (and
	// the subscribers they hide) removed because suppression deleted all
	// of their samples. GLOVE itself never discards fingerprints, so
	// these are zero unless suppression is extremely aggressive.
	DiscardedFingerprints int
	DiscardedUsers        int

	// EffortKernelCalls counts pruned effort-kernel invocations (pair
	// evaluations requested by the run's pair-selection paths), and
	// EffortKernelPruned how many of them early-exited via their
	// caller's threshold instead of computing the exact Eq. 10 value
	// (DESIGN.md Sec. 8). Pruning never changes output — only cost.
	EffortKernelCalls  int
	EffortKernelPruned int

	// IndexBuildNanos and MergeNanos account the wall-clock time spent
	// building the pair-effort index (including view construction) and
	// running the merge loop. They are measured with two time.Now pairs
	// per run — no instrumentation inside the hot loop — and, being
	// wall-clock, are the only non-deterministic GloveStats fields;
	// comparisons of otherwise-identical runs must zero them first.
	IndexBuildNanos int64
	MergeNanos      int64
}

// Add accumulates every counter of o into s. Aggregators that combine
// per-partition runs (chunked blocks, service shards) sum with Add and
// then overwrite the Output* fields from the merged dataset.
func (s *GloveStats) Add(o *GloveStats) {
	s.InputFingerprints += o.InputFingerprints
	s.InputUsers += o.InputUsers
	s.InputSamples += o.InputSamples
	s.OutputFingerprints += o.OutputFingerprints
	s.OutputSamples += o.OutputSamples
	s.Merges += o.Merges
	s.SuppressedSamples += o.SuppressedSamples
	s.SuppressedPublished += o.SuppressedPublished
	s.DiscardedFingerprints += o.DiscardedFingerprints
	s.DiscardedUsers += o.DiscardedUsers
	s.EffortKernelCalls += o.EffortKernelCalls
	s.EffortKernelPruned += o.EffortKernelPruned
	s.IndexBuildNanos += o.IndexBuildNanos
	s.MergeNanos += o.MergeNanos
}

// Glove runs the GLOVE algorithm (Alg. 1) on the dataset and returns the
// k-anonymized dataset together with run statistics. The input dataset is
// not modified.
//
// The algorithm: compute the fingerprint stretch effort Δ (Eq. 10) among
// all pairs; repeatedly merge the not-yet-anonymized pair at minimum
// effort via specialized generalization (Eqs. 12-13); fingerprints whose
// accumulated subscriber count reaches K leave the working set. A single
// leftover fingerprint, if any, is merged into the nearest anonymized
// group so that no subscriber is ever discarded. Optional suppression
// then removes over-generalized samples.
func Glove(d *Dataset, opt GloveOptions) (*Dataset, *GloveStats, error) {
	return GloveContext(context.Background(), d, opt)
}

// GloveContext is Glove with cooperative cancellation: when ctx is done
// the run stops — between merge iterations, or mid-way through building
// the pairwise effort index — and ctx.Err() is returned. The input
// dataset is never modified, so an interrupted run leaves no partial
// state behind.
func GloveContext(ctx context.Context, d *Dataset, opt GloveOptions) (*Dataset, *GloveStats, error) {
	opt = opt.withDefaults()
	if opt.K < 2 {
		return nil, nil, fmt.Errorf("core: glove k = %d, need k >= 2", opt.K)
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, nil, err
	}
	if _, err := opt.resolveIndex(d.Len()); err != nil {
		return nil, nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if d.Users() < opt.K {
		return nil, nil, fmt.Errorf("core: dataset hides %d users, cannot %d-anonymize", d.Users(), opt.K)
	}

	stats := &GloveStats{
		InputFingerprints: d.Len(),
		InputUsers:        d.Users(),
		InputSamples:      totalWeight(d),
	}

	buildStart := time.Now()
	st, err := newGloveState(ctx, d, opt)
	if err != nil {
		return nil, nil, err
	}
	stats.IndexBuildNanos = time.Since(buildStart).Nanoseconds()

	// Progress accounting: step 0 -> 1 is the index build, then one
	// step per initially-active fingerprint the merges consume. A merge
	// that retires its group consumes two and one that stays below K
	// consumes one, so done counts consumed fingerprints, not merges;
	// the completion call after the leftover fold reports total.
	initial := st.activeCount()
	total := initial + 1
	progress := func(done int) {
		if opt.Progress != nil {
			opt.Progress(done, total)
		}
	}
	progress(1)
	mergeStart := time.Now()
	for st.activeCount() >= 2 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		i, j := st.idx.MinPair()
		st.merge(i, j)
		stats.Merges++
		progress(1 + initial - st.activeCount())
	}
	if leftover, ok := st.lastActive(); ok {
		// One fingerprint remains below K: hide it inside the nearest
		// anonymized group (its members become part of that crowd).
		st.foldIntoDone(leftover)
		stats.Merges++
	}
	stats.MergeNanos = time.Since(mergeStart).Nanoseconds()
	stats.EffortKernelCalls = int(st.ws.kc.calls.Load())
	stats.EffortKernelPruned = int(st.ws.kc.pruned.Load())

	out := &Dataset{Fingerprints: st.done}
	applySuppression(out, opt.Suppress, stats)

	stats.OutputFingerprints = out.Len()
	stats.OutputSamples = out.TotalSamples()
	progress(total)
	return out, stats, nil
}

func totalWeight(d *Dataset) int {
	var w int
	for _, f := range d.Fingerprints {
		w += f.TotalWeight()
	}
	return w
}

// gloveState is the working set of Alg. 1: the active (not yet
// anonymized) fingerprints and the pluggable pair-selection index over
// them (dense effort matrix or sparse spatial-grid candidate lists).
type gloveState struct {
	opt GloveOptions
	ws  *workingSet
	idx EffortIndex

	// active is the live slot count, maintained by merge/foldIntoDone so
	// the merge loop's termination test is O(1) instead of rescanning
	// the alive slice every iteration. cursor is the lowest possibly-
	// alive slot: merging only ever reuses a slot that was alive moments
	// before, so the minimum alive index never decreases and lastActive
	// can resume from where it last stopped.
	active int
	cursor int

	done []*Fingerprint // anonymized fingerprints (count >= K)
}

func newGloveState(ctx context.Context, d *Dataset, opt GloveOptions) (*gloveState, error) {
	n := d.Len()
	ws := &workingSet{
		params:  opt.Params,
		workers: opt.Workers,
		fps:     make([]*Fingerprint, n),
		alive:   make([]bool, n),
		views:   make([]*fpView, n),
		n:       n,
	}
	st := &gloveState{opt: opt, ws: ws}
	st.stage(d)
	kind, err := opt.resolveIndex(n)
	if err != nil {
		return nil, err
	}
	opt.Index = kind
	st.idx = newEffortIndex(ws, opt)
	if err := st.idx.Build(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

// stage admits d's fingerprints into the state's slots: already-
// anonymous inputs retire straight to done in input order, the rest
// become alive slots. SoA kernel views for the alive slots are built in
// bulk into one shared column arena: a single allocation sized by a
// prefix sum over sample counts, filled in parallel (each slot owns a
// disjoint segment). Each view is immutable until its slot is merged
// away, so the indexes built next can share them freely across
// goroutines; at 1M fingerprints this replaces 1M small allocations
// with one.
func (st *gloveState) stage(d *Dataset) {
	ws := st.ws
	n := d.Len()
	for i, f := range d.Fingerprints {
		fc := f.Clone()
		if fc.Count >= st.opt.K {
			// Already anonymized on input (e.g. pre-merged groups).
			st.done = append(st.done, fc)
			continue
		}
		ws.fps[i] = fc
		ws.alive[i] = true
		st.active++
	}
	offsets := make([]int, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i]
		if ws.alive[i] {
			offsets[i+1] += 7 * len(ws.fps[i].Samples)
		}
	}
	arena := make([]float64, offsets[n])
	parallel.For(n, ws.workers, func(i int) {
		if ws.alive[i] {
			v := &fpView{}
			v.fill(ws.fps[i], arena[offsets[i]:offsets[i+1]:offsets[i+1]])
			ws.views[i] = v
		}
	})
}

func (st *gloveState) activeCount() int { return st.active }

func (st *gloveState) lastActive() (int, bool) {
	for ; st.cursor < st.ws.n; st.cursor++ {
		if st.ws.alive[st.cursor] {
			return st.cursor, true
		}
	}
	return 0, false
}

// merge performs one iteration of Alg. 1 (lines 5-14): remove slots i
// and j, merge their fingerprints, and either retire the result (count
// >= K) or re-insert it into slot i with freshly computed efforts.
func (st *gloveState) merge(i, j int) {
	ws := st.ws
	a, b := ws.fps[i], ws.fps[j]
	m := MergeFingerprints(st.opt.Params, a, b, st.opt.Merge)

	ws.kill(i)
	ws.kill(j)
	st.active -= 2
	st.idx.Remove(i)
	st.idx.Remove(j)

	if m.Count < st.opt.K {
		ws.put(i, m)
		st.active++
		st.idx.Reinsert(i)
	} else {
		st.done = append(st.done, m)
	}
}

// foldIntoDone merges the last active fingerprint into the anonymized
// group at minimum effort, so no subscriber is discarded. Groups are
// evaluated in parallel, one fixed stripe of candidates per worker, each
// stripe against its own running best as the kernel threshold. A pruned
// group's true effort strictly exceeds an earlier group's effort in its
// stripe, so it can never be — or tie — the first minimum: the selected
// group is exactly the sequential exhaustive scan's, and the kernel
// accounting depends only on the worker count.
func (st *gloveState) foldIntoDone(i int) {
	ws := st.ws
	f := ws.fps[i]
	// Detach rather than kill: the leftover's view feeds every candidate
	// evaluation below and must not be recycled mid-fold.
	fv := ws.detach(i)
	st.active--
	st.idx.Remove(i)

	p := st.opt.Params
	n := len(st.done)
	stripes := st.opt.Workers
	if stripes <= 0 {
		stripes = parallel.DefaultWorkers()
	}
	stripes = max(1, min(stripes, n))
	effort := make([]float64, n) // +Inf marks a pruned group
	parallel.For(stripes, stripes, func(s int) {
		best := math.Inf(1)
		for c := s; c < n; c += stripes {
			// Per-group views come from the shared pool (bounds included
			// in the fill pass — no separate BoundsOf sweep per candidate).
			dv := ws.borrowView(st.done[c])
			e, below := p.effortBelowViews(fv, dv, best)
			ws.returnView(dv)
			ws.kc.calls.Add(1)
			if !below {
				ws.kc.pruned.Add(1)
				e = math.Inf(1)
			}
			effort[c] = e
			best = min(best, e)
		}
	})
	best := math.Inf(1)
	bestIdx := 0
	for c, e := range effort {
		if e < best {
			best = e
			bestIdx = c
		}
	}
	st.done[bestIdx] = MergeFingerprints(p, st.done[bestIdx], f, st.opt.Merge)
	ws.returnView(fv)
}

// applySuppression removes over-generalized samples from the published
// dataset and updates the accounting. Fingerprints left without samples
// are discarded entirely (with their hidden users counted).
func applySuppression(d *Dataset, thr SuppressionThresholds, stats *GloveStats) {
	if !thr.Enabled() {
		return
	}
	kept := d.Fingerprints[:0]
	for _, f := range d.Fingerprints {
		out := f.Samples[:0]
		for _, s := range f.Samples {
			if thr.exceeds(s) {
				stats.SuppressedSamples += s.Weight
				stats.SuppressedPublished++
				continue
			}
			out = append(out, s)
		}
		f.Samples = out
		if len(f.Samples) == 0 {
			stats.DiscardedFingerprints++
			stats.DiscardedUsers += f.Count
			continue
		}
		kept = append(kept, f)
	}
	d.Fingerprints = kept
}
