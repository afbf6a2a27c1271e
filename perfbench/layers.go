package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/pkg/client"
)

// gloved's analysis budget at its default flags: the k-gap and linkage
// passes are skipped above analysisCap input fingerprints, and linkage
// attacks with linkageKnown samples on linkageProbes subscribers.
const (
	analysisCap   = 2000
	linkageKnown  = 4
	linkageProbes = 200
)

// followAppendBytes sizes the frames of the direct journal probe like
// one follow-hourly append.
const followAppendBytes = 90 << 10

// spanStats condenses one job's trace tree.
type spanStats struct {
	selfS                   float64
	planMS, validateMS      float64
	indexBuildS, mergeS     float64
	shardMaxS, slowShardCoS float64 // slowest shard, and its index build + merge
	skews                   []float64
	windowMS, windowCoreMS  []float64
}

func analyzeTrace(root *client.TraceSpan) spanStats {
	st := spanStats{selfS: selfMS(root) / 1000}
	var walk func(s *client.TraceSpan)
	walk = func(s *client.TraceSpan) {
		switch s.Kind {
		case obs.SpanPlan:
			st.planMS += s.DurationMS
		case obs.SpanValidate:
			st.validateMS += s.DurationMS
		case obs.SpanIndexBuild:
			st.indexBuildS += s.DurationMS / 1000
		case obs.SpanMerge:
			st.mergeS += s.DurationMS / 1000
		case obs.SpanWindow:
			st.windowMS = append(st.windowMS, s.DurationMS)
			st.windowCoreMS = append(st.windowCoreMS, pathCoreMS(s))
		}
		var shards []float64
		for _, c := range s.Children {
			if c.Kind == obs.SpanShard {
				shards = append(shards, c.DurationMS)
				if c.DurationMS/1000 > st.shardMaxS {
					st.shardMaxS = c.DurationMS / 1000
					st.slowShardCoS = coreMS(c) / 1000
				}
			}
			walk(c)
		}
		if len(shards) > 0 {
			st.skews = append(st.skews, quantile(shards, 1)/mean(shards))
		}
	}
	walk(root)
	return st
}

// coreMS sums the engine's index-build and merge spans under s.
func coreMS(s *client.TraceSpan) float64 {
	var t float64
	if s.Kind == obs.SpanIndexBuild || s.Kind == obs.SpanMerge {
		t += s.DurationMS
	}
	for _, c := range s.Children {
		t += coreMS(c)
	}
	return t
}

// pathCoreMS is the index-build and merge time on s's blocking path:
// its shards run in parallel, so the slowest shard's.
func pathCoreMS(s *client.TraceSpan) float64 {
	var slowest *client.TraceSpan
	for _, c := range s.Children {
		if c.Kind == obs.SpanShard && (slowest == nil || c.DurationMS > slowest.DurationMS) {
			slowest = c
		}
	}
	if slowest == nil {
		return coreMS(s)
	}
	return coreMS(slowest)
}

// selfMS is the part of s that none of its children cover.
func selfMS(s *client.TraceSpan) float64 {
	type interval struct{ a, b float64 }
	ivs := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		a := float64(c.Start.Sub(s.Start)) / float64(time.Millisecond)
		ivs = append(ivs, interval{max(a, 0), min(a+c.DurationMS, s.DurationMS)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, 0.0
	for _, iv := range ivs {
		if iv.b <= end {
			continue
		}
		covered += iv.b - max(iv.a, end)
		end = iv.b
	}
	return s.DurationMS - covered
}

// traceStats condenses the traces of a pass's finished jobs.
func traceStats(p *passResult) []spanStats {
	var stats []spanStats
	for _, jr := range p.jobs {
		if jr.ok && jr.trace != nil {
			stats = append(stats, analyzeTrace(jr.trace))
		}
	}
	return stats
}

// medianOf is the median over jobs of one span statistic.
func medianOf(stats []spanStats, f func(spanStats) float64) float64 {
	xs := make([]float64, len(stats))
	for i, s := range stats {
		xs[i] = f(s)
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// layerMetrics assembles the per-layer split of a traced pass: the
// benchmark's own spans around client calls, the jobs' traces and
// statuses, /metrics deltas, and direct calls into each layer made
// after the daemon stopped. plain is the untraced pass run alongside,
// for the tracing overhead.
func layerMetrics(ctx context.Context, b *bench, plain, traced *passResult, stats []spanStats) map[string]metric {
	out := make(map[string]metric)
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	var queueMS []float64
	var merges, calls, pruned, linked []float64
	for _, jr := range traced.jobs {
		if !jr.ok {
			continue
		}
		st := jr.status
		if st.StartedAt != nil {
			queueMS = append(queueMS, ms(st.StartedAt.Sub(st.CreatedAt)))
		}
		if st.Stats != nil {
			merges = append(merges, float64(st.Stats.Merges))
			calls = append(calls, float64(st.Stats.EffortKernelCalls))
			pruned = append(pruned, float64(st.Stats.EffortKernelPruned))
		}
		if st.Linkage != nil {
			linked = append(linked, st.Linkage.LinkedFraction)
		}
	}
	windowMS := flatten(stats, func(s spanStats) []float64 { return s.windowMS })
	skews := flatten(stats, func(s spanStats) []float64 { return s.skews })

	set("http.ingest_s", "s", median(traced.perJob(func(j *jobRun) float64 { return seconds(j.ingest) })))
	set("http.submit_ms", "ms", median(traced.perJob(func(j *jobRun) float64 { return ms(j.submit) })))
	set("http.download_ms_p50", "ms", quantile(traced.downloadMS, 0.5))

	set("service.queue_wait_ms", "ms", median(queueMS))
	set("service.plan_ms", "ms", medianOf(stats, func(s spanStats) float64 { return s.planMS }))
	set("service.shard_s_max", "s", medianOf(stats, func(s spanStats) float64 { return s.shardMaxS }))
	set("service.shard_skew", "ratio", mean(skews))
	set("service.window_ms_p50", "ms", quantile(windowMS, 0.5))
	set("service.job_self_s", "s", medianOf(stats, func(s spanStats) float64 { return s.selfS }))

	set("core.index_build_s", "s", medianOf(stats, func(s spanStats) float64 { return s.indexBuildS }))
	set("core.merge_s", "s", medianOf(stats, func(s spanStats) float64 { return s.mergeS }))
	set("core.validate_ms", "ms", medianOf(stats, func(s spanStats) float64 { return s.validateMS }))
	set("core.merges", "count", median(merges))
	set("core.kernel_calls", "count", median(calls))
	set("core.kernel_pruned_ratio", "ratio", sum(pruned)/sum(calls))

	jobs := float64(len(traced.jobs))
	delta := func(name string) float64 { return traced.metricsAfter[name] - traced.metricsBefore[name] }
	fsyncs := delta("glove_wal_fsync_seconds_count")
	set("wal.fsyncs", "count", fsyncs/jobs)
	set("wal.fsync_ms_mean", "ms", 1000*delta("glove_wal_fsync_seconds_sum")/fsyncs)
	set("wal.bytes", "bytes", delta("glove_wal_bytes_total")/jobs)
	set("registry.records", "count", delta("glove_ingest_records_total")/jobs)
	set("service.stream_lag_windows_max", "count", traced.lagMax)

	direct := directCalls(ctx, b, traced, traced.ops.check)
	for name, m := range direct {
		set(name, m.Unit, m.Value)
	}

	set("bench.gen_late_ms_max", "ms", quantile(traced.genLateMS, 1))
	set("bench.trace_overhead", "ratio", primary(b.size, traced)/primary(b.size, plain)-1)
	set("failed_frac", "ratio", float64(plain.ops.failed+traced.ops.failed)/float64(plain.ops.attempted+traced.ops.attempted))
	set("linkage_frac", "ratio", mean(linked))
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// primary is the end-to-end number a workload's blocking path sets:
// the commit latency of a follow job, the release time otherwise.
func primary(sz size, p *passResult) float64 {
	if sz.follow {
		return p.commitMS.quantile(0.5)
	}
	return median(p.perJob(func(j *jobRun) float64 { return seconds(j.release) }))
}

// timeIt runs f reps times and returns the median wall time.
func timeIt(reps int, f func() error) (time.Duration, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts)), nil
}

// directCalls times each layer's public functions on the first job's
// input and releases, outside the daemon.
func directCalls(ctx context.Context, b *bench, p *passResult, check func(error, string) bool) map[string]metric {
	out := make(map[string]metric)
	in := b.inputs[0]
	feed, err := encodeRecords(in.table)
	if !check(err, "encode feed") {
		return out
	}

	var table *cdr.Table
	d, err := timeIt(3, func() error {
		rr := cdr.NewRecordReader(bytes.NewReader(feed))
		table = &cdr.Table{Center: in.table.Center, SpanDays: in.table.SpanDays}
		for {
			r, err := rr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			table.Records = append(table.Records, r)
		}
	})
	if !check(err, "cdr parse") {
		return out
	}
	out["cdr.parse_s"] = metric{d.Seconds(), "s"}

	var ds *core.Dataset
	d, err = timeIt(3, func() (err error) {
		ds, err = table.BuildDataset()
		return err
	})
	if !check(err, "cdr build") {
		return out
	}
	out["cdr.build_s"] = metric{d.Seconds(), "s"}

	keys := make([]int, 0, len(p.parsed))
	for k := range p.parsed {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var encodeMS []float64
	var published []*core.Fingerprint
	releases := make([]*core.Dataset, 0, len(keys))
	originals := make([]*core.Dataset, 0, len(keys))
	users := 0
	for _, k := range keys {
		rel := p.parsed[k]
		d, err := timeIt(1, func() error { return cdr.WriteAnonymizedCSV(io.Discard, rel) })
		if !check(err, "cdr encode") {
			return out
		}
		encodeMS = append(encodeMS, ms(d))
		published = append(published, rel.Fingerprints...)
		releases = append(releases, rel)
		originals = append(originals, in.originals[k])
		users += in.originals[k].Len()
	}
	out["cdr.encode_ms"] = metric{median(encodeMS), "ms"}

	d, err = timeIt(3, func() error {
		_, err := metrics.Measure(core.NewDataset(published)).Summarize()
		return err
	})
	if !check(err, "metrics summarize") {
		return out
	}
	out["metrics.summarize_ms"] = metric{ms(d), "ms"}

	// gloved skips both analysis passes above its cap; so does this.
	var kgap, link time.Duration
	if ds.Len() <= analysisCap {
		kgap, err = timeIt(1, func() error {
			_, _, err := analysis.KGapCDF(core.DefaultParams(), ds, benchK, childProcs)
			return err
		})
		if !check(err, "analysis k-gap") {
			return out
		}
	}
	if len(releases) >= 2 && users <= analysisCap {
		link, err = timeIt(1, func() error {
			rng := rand.New(rand.NewSource(1))
			_, err := analysis.CrossWindowLinkage(originals, releases, linkageKnown, linkageProbes, rng, childProcs)
			return err
		})
		if !check(err, "analysis linkage") {
			return out
		}
	}
	out["analysis.kgap_s"] = metric{kgap.Seconds(), "s"}
	out["analysis.linkage_s"] = metric{link.Seconds(), "s"}

	commit, err := walCommitMS(ctx, filepath.Join(b.workDir, "walprobe"))
	if check(err, "wal probe") {
		out["wal.commit_ms_p50"] = metric{commit, "ms"}
	}
	return out
}

// walCommitMS appends and commits (fsync on) frames the size of a
// follow append to a fresh journal and returns the median latency.
func walCommitMS(ctx context.Context, dir string) (float64, error) {
	log, _, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	payload := bytes.Repeat([]byte("u,7.54,-5.55,60.5\n"), followAppendBytes/18)
	var lat []float64
	for i := 0; i < 40 && ctx.Err() == nil; i++ {
		start := time.Now()
		if err := log.Append(payload); err != nil {
			return 0, err
		}
		if err := log.Commit(); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	return median(lat), ctx.Err()
}

// printShares writes each workload's per-layer share of its blocking
// path and checks the prediction made for it.
func printShares(out io.Writer, wl workload, traced *passResult, stats []spanStats, m map[string]metric) {
	jobS := median(traced.perJob(func(j *jobRun) float64 { return seconds(j.jobDur) }))
	if len(stats) == 0 || jobS == 0 {
		fmt.Fprintln(out, "# shares: no traced job finished; no prediction checked")
		return
	}
	share := func(layer string, part, whole float64, path string) float64 {
		fmt.Fprintf(out, "# share %s %-28s %6.1f%% of %s\n", wl.name, layer, 100*part/whole, path)
		return part / whole
	}
	verdict := func(ok bool, claim string) {
		state := "held"
		if !ok {
			state = "FAILED: re-size this workload"
		}
		fmt.Fprintf(out, "# prediction %s: %s — %s\n", wl.name, claim, state)
	}
	analysisS := m["analysis.kgap_s"].Value + m["analysis.linkage_s"].Value
	switch {
	case wl.full.follow:
		commit := traced.commitMS.quantile(0.5)
		path := fmt.Sprintf("commit_ms_p50 (%.1f ms)", commit)
		window := share("service.window_ms_p50", m["service.window_ms_p50"].Value, commit, path)
		core := share("core (slowest shard)", median(flatten(stats, func(s spanStats) []float64 { return s.windowCoreMS })), commit, path)
		share("http.download_ms_p50", m["http.download_ms_p50"].Value, commit, path)
		if wl.name == "follow-daily" {
			verdict(window > 0.5, "the window pipeline (service.window_ms_p50) is more than half of commit_ms_p50")
		} else {
			verdict(core < 1.0/3, "core is a minor share (< 1/3) of commit_ms_p50")
		}
	case wl.full.windowHours > 0:
		path := fmt.Sprintf("job_s (%.3f s)", jobS)
		share("service windows", medianOf(stats, func(s spanStats) float64 { return sum(s.windowMS) / 1000 }), jobS, path)
		self := share("service.job_self_s", medianOf(stats, func(s spanStats) float64 { return s.selfS }), jobS, path)
		share("analysis (direct k-gap+linkage)", analysisS, jobS, path)
		verdict(self > 0.5, "service.job_self_s, the untraced tail where analysis runs, is more than half of job_s")
	default:
		path := fmt.Sprintf("job_s (%.3f s)", jobS)
		core := share("core (slowest shard)", medianOf(stats, func(s spanStats) float64 { return s.slowShardCoS }), jobS, path)
		share("service.shard_s_max", medianOf(stats, func(s spanStats) float64 { return s.shardMaxS }), jobS, path)
		share("service.job_self_s", medianOf(stats, func(s spanStats) float64 { return s.selfS }), jobS, path)
		share("http.ingest_s", m["http.ingest_s"].Value, jobS, "job_s, outside it")
		verdict(core > 0.5, "core (index build + merge on the slowest shard) dominates job_s")
	}
}

func flatten(stats []spanStats, f func(spanStats) []float64) []float64 {
	var out []float64
	for _, s := range stats {
		out = append(out, f(s)...)
	}
	return out
}
