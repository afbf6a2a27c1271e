package core

import (
	"context"
	"fmt"
	"time"
)

// ProbeStats reports what an IndexMergeProbe run did and cost.
type ProbeStats struct {
	Fingerprints    int   // active fingerprints after state construction
	Merges          int   // merge iterations executed (<= the requested cap)
	IndexBuildNanos int64 // wall clock of state + index construction
	MergeNanos      int64 // wall clock of the bounded merge loop
	KernelCalls     int64 // pruned-kernel invocations
	KernelPruned    int64 // invocations that early-exited
}

// IndexMergeProbe builds the pair-selection index over d and runs at
// most maxMerges iterations of the GLOVE merge loop, returning the cost
// accounting. It is the scaling benchmark's unit of work: at 1M
// fingerprints a full run to K-anonymity is out of reach by design
// (the loop is O(n) per merge and merges O(n) times), so the trajectory
// is pinned on the two phases the memory-bounded tier optimizes — index
// build and a bounded merge burst. The probe discards its output; it is
// not part of the anonymization API.
func IndexMergeProbe(ctx context.Context, d *Dataset, opt GloveOptions, maxMerges int) (ProbeStats, error) {
	opt = opt.withDefaults()
	if opt.K < 2 {
		return ProbeStats{}, fmt.Errorf("core: probe k = %d, need k >= 2", opt.K)
	}
	if err := opt.Params.Validate(); err != nil {
		return ProbeStats{}, err
	}
	if _, err := opt.resolveIndex(d.Len()); err != nil {
		return ProbeStats{}, err
	}

	var ps ProbeStats
	buildStart := time.Now()
	st, err := newGloveState(ctx, d, opt)
	if err != nil {
		return ProbeStats{}, err
	}
	ps.IndexBuildNanos = time.Since(buildStart).Nanoseconds()
	ps.Fingerprints = st.activeCount()

	mergeStart := time.Now()
	for st.activeCount() >= 2 && ps.Merges < maxMerges {
		if err := ctx.Err(); err != nil {
			return ProbeStats{}, err
		}
		i, j := st.idx.MinPair()
		st.merge(i, j)
		ps.Merges++
	}
	ps.MergeNanos = time.Since(mergeStart).Nanoseconds()
	ps.KernelCalls = st.ws.kc.calls.Load()
	ps.KernelPruned = st.ws.kc.pruned.Load()
	return ps, nil
}
