package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// planShards partitions the snapshot for a k-anonymization job. The
// requested shard count is clamped so shards average at least 2k
// subscribers, then lowered further if the hash assignment leaves any
// shard below k (the minimum a shard needs to anonymize on its own).
// The result always has at least one shard and covers every record
// exactly once. Users hash with a fixed seed, so the shards, and with
// them the release, depend on the input alone.
func planShards(t *colstore.View, users, k, requested int) []*colstore.View {
	max := users / (2 * k)
	if max < 1 {
		max = 1
	}
	n := requested
	if n <= 0 {
		n = parallel.DefaultWorkers()
	}
	if n > max {
		n = max
	}
	// Each attempt re-hashes every record, so back off geometrically: at
	// most log2(n) passes even when a client requests an absurd count.
	for ; n > 1; n /= 2 {
		shards := t.UserShards(n, 0)
		ok := true
		for _, s := range shards {
			if s.NumUsers() < k {
				ok = false
				break
			}
		}
		if ok {
			return shards
		}
	}
	return t.UserShards(1, 0)
}

// shardResult is the outcome of anonymizing one shard.
type shardResult struct {
	out   *core.Dataset
	stats *core.GloveStats
	err   error
}

// runShards anonymizes every shard through a bounded worker pool and
// merges the outputs. Group IDs are prefixed with the shard index so the
// merged dataset keeps unique identifiers. Because each shard is
// anonymized completely, every group of the union hides >= k
// subscribers and the k-anonymity guarantee is preserved.
//
// Each shard records a span under parent (with the engine's index-build
// and merge phases grafted in from GloveStats — no locks in the hot
// loop) and moves the shard-pool telemetry gauges; tel may be nil and
// parent may be the zero ActiveSpan.
func runShards(ctx context.Context, shards []*colstore.View, spec JobSpec, tel *Telemetry, parent obs.ActiveSpan, onProgress func(shard int, frac float64)) (*core.Dataset, *core.GloveStats, error) {
	workers := spec.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	// Split the CPU budget: the pool runs shards concurrently and each
	// GLOVE run gets the leftover share, so a 16-worker job over 2
	// shards still uses 16 CPUs (2 shards x 8 inner workers) rather
	// than idling 14 of them.
	poolWorkers := workers
	if poolWorkers > len(shards) {
		poolWorkers = len(shards)
	}
	innerWorkers := workers / poolWorkers
	if innerWorkers < 1 {
		innerWorkers = 1
	}

	// A failed shard cancels its siblings so the job surfaces the error
	// immediately instead of finishing the other quadratic runs first.
	runCtx, failFast := context.WithCancel(ctx)
	defer failFast()
	results := make([]shardResult, len(shards))
	err := parallel.ForContext(runCtx, len(shards), poolWorkers, func(i int) {
		span := parent.Child(obs.SpanShard, fmt.Sprintf("shard %d", i))
		tel.shardStarted()
		start := time.Now()
		results[i] = runShard(runCtx, shards[i], spec, innerWorkers, func(done, total int) {
			if onProgress != nil && total > 0 {
				onProgress(i, float64(done)/float64(total))
			}
		})
		tel.shardDone()
		annotateShardSpan(span, start, results[i])
		span.End()
		if results[i].err != nil {
			failFast()
		}
	})
	var cancelled error
	for i, r := range results {
		if r.err == nil {
			continue
		}
		if !errors.Is(r.err, context.Canceled) {
			return nil, nil, fmt.Errorf("service: shard %d/%d: %w", i+1, len(shards), r.err)
		}
		cancelled = r.err
	}
	if err != nil {
		// No genuine shard error: the job itself was cancelled.
		return nil, nil, err
	}
	if cancelled != nil {
		return nil, nil, cancelled
	}
	return mergeShardResults(results, len(shards) > 1)
}

// annotateShardSpan records the shard outcome on its span: the input
// size, merge and kernel accounting, and — grafted from the engine's
// GloveStats timing — index_build and merge child spans approximating
// where the shard's wall clock went (chunked shards sum their blocks'
// phases, so the two children may not tile the shard span exactly).
func annotateShardSpan(span obs.ActiveSpan, start time.Time, r shardResult) {
	if r.err != nil {
		span.SetAttr("error", r.err.Error())
		return
	}
	st := r.stats
	if st == nil {
		return
	}
	span.SetAttr("fingerprints", st.InputFingerprints)
	span.SetAttr("merges", st.Merges)
	if st.EffortKernelCalls > 0 {
		span.SetAttr("kernel_prune_ratio",
			float64(st.EffortKernelPruned)/float64(st.EffortKernelCalls))
	}
	build := time.Duration(st.IndexBuildNanos)
	span.AddCompleted(obs.SpanIndexBuild, "", start, build, nil)
	span.AddCompleted(obs.SpanMerge, "", start.Add(build), time.Duration(st.MergeNanos),
		map[string]any{"merges": st.Merges})
}

// runShard converts one shard view into a fingerprint dataset and
// anonymizes it through the core planner, which resolves the spec's
// strategy/index (or the auto rules) for this shard's size.
func runShard(ctx context.Context, t *colstore.View, spec JobSpec, workers int, progress func(done, total int)) shardResult {
	ds, err := t.BuildDataset()
	if err != nil {
		return shardResult{err: err}
	}
	out, stats, err := core.AnonymizeContext(ctx, ds, anonymizeOptions(spec, workers, progress))
	if err != nil {
		return shardResult{err: err}
	}
	return shardResult{out: out, stats: stats}
}

// mergeShardResults concatenates shard outputs into one dataset and sums
// their statistics. When prefix is set, group IDs gain an "s<i>:" shard
// prefix to stay unique across shards.
func mergeShardResults(results []shardResult, prefix bool) (*core.Dataset, *core.GloveStats, error) {
	total := &core.GloveStats{}
	var fps []*core.Fingerprint
	for i, r := range results {
		for _, f := range r.out.Fingerprints {
			if prefix {
				f.ID = fmt.Sprintf("s%d:%s", i, f.ID)
			}
			fps = append(fps, f)
		}
		total.Add(r.stats)
	}
	out := &core.Dataset{Fingerprints: fps}
	total.OutputFingerprints = out.Len()
	total.OutputSamples = out.TotalSamples()
	return out, total, nil
}
