// Package repro_test holds the benchmark harness regenerating every
// table and figure of the paper's evaluation (one benchmark per
// artifact; see the experiment index in DESIGN.md) plus the ablation
// benchmarks for the design choices DESIGN.md calls out. Full-scale runs
// live in cmd/gloveexp; these benches run the same drivers at a reduced,
// fixed workload so `go test -bench=.` regenerates the whole evaluation
// in minutes and reports the cost of each piece.
package repro_test

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/synth"
)

// benchScale is the fixed workload used by the figure/table benchmarks.
var benchScale = experiments.Config{Users: 120, Days: 7}

var (
	benchWorkloadsOnce sync.Once
	benchWorkloads     *experiments.Workloads
)

func benchW(b *testing.B) *experiments.Workloads {
	b.Helper()
	benchWorkloadsOnce.Do(func() {
		w, err := experiments.NewWorkloads(benchScale)
		if err != nil {
			panic(err)
		}
		// Pre-generate so dataset synthesis is not measured.
		for _, p := range experiments.AllProfiles() {
			if _, err := w.Dataset(p); err != nil {
				panic(err)
			}
		}
		benchWorkloads = w
	})
	return benchWorkloads
}

// run executes an experiment b.N times, rendering the last result to
// the benchmark log (so the series the paper plots are visible in
// bench_output.txt).
func run[T interface{ Render(io.Writer) }](b *testing.B, fn func(*experiments.Workloads) (T, error)) {
	w := benchW(b)
	b.ResetTimer()
	var last T
	for i := 0; i < b.N; i++ {
		r, err := fn(w)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if b.N > 0 {
		last.Render(benchLogWriter{b})
	}
}

// benchLogWriter routes experiment output through b.Log so it lands in
// the -bench output without confusing the benchmark line parser.
type benchLogWriter struct{ b *testing.B }

func (w benchLogWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func BenchmarkFig3aKGapCDF(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig3aResult, error) {
		return experiments.Fig3a(w)
	})
}

func BenchmarkFig3bKGapVsK(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig3bResult, error) {
		return experiments.Fig3b(w)
	})
}

func BenchmarkFig4GeneralizationSweep(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig4Result, error) {
		return experiments.Fig4(w)
	})
}

func BenchmarkFig5aTWI(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig5Result, error) {
		return experiments.Fig5(w)
	})
}

// Fig. 5b shares the decomposition with Fig. 5a; its driver is the same
// and this bench exists so every figure has a named regeneration target.
func BenchmarkFig5bTemporalRatio(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig5Result, error) {
		return experiments.Fig5(w)
	})
}

func BenchmarkFig7GloveAccuracy(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig7Result, error) {
		return experiments.Fig7(w)
	})
}

func BenchmarkFig8AccuracyVsK(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig8Result, error) {
		return experiments.Fig8(w)
	})
}

func BenchmarkFig9Suppression(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Fig9Result, error) {
		return experiments.Fig9(w)
	})
}

func BenchmarkTable2Comparative(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.Table2Result, error) {
		return experiments.Table2(w)
	})
}

func BenchmarkFig10Timespan(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.SweepResult, error) {
		return experiments.Fig10(w)
	})
}

func BenchmarkFig11DatasetSize(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.SweepResult, error) {
		return experiments.Fig11(w)
	})
}

func BenchmarkExtUniqueness(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.UniquenessResult, error) {
		return experiments.Uniqueness(w)
	})
}

func BenchmarkExtUtility(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.UtilityResult, error) {
		return experiments.Utility(w)
	})
}

func BenchmarkExtRisk(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.RiskResult, error) {
		return experiments.Risk(w)
	})
}

func BenchmarkAblationCalibration(b *testing.B) {
	run(b, func(w *experiments.Workloads) (*experiments.CalibrationResult, error) {
		return experiments.Calibration(w)
	})
}

// --- Ablation benchmarks (DESIGN.md Sec. 5) ---

func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	w := benchW(b)
	d, err := w.Dataset(experiments.ProfileCIV)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// Per-row nearest caching vs full matrix rescan in the GLOVE loop.
func BenchmarkAblationNearestCache(b *testing.B) {
	d := benchDataset(b)
	for _, naive := range []bool{false, true} {
		name := "cached"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Glove(d, core.GloveOptions{K: 2, NaiveMinPair: naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Two-stage merge matching (paper) vs single-stage.
func BenchmarkAblationMergeStages(b *testing.B) {
	d := benchDataset(b)
	for _, disable := range []bool{false, true} {
		name := "two-stage"
		if disable {
			name = "single-stage"
		}
		b.Run(name, func(b *testing.B) {
			var samples int
			for i := 0; i < b.N; i++ {
				out, _, err := core.Glove(d, core.GloveOptions{
					K:     2,
					Merge: core.MergeOptions{DisableTwoStage: disable},
				})
				if err != nil {
					b.Fatal(err)
				}
				samples = out.TotalSamples()
			}
			b.ReportMetric(float64(samples), "published-samples")
		})
	}
}

// Reshaping on/off: the overlap count it removes and its cost.
func BenchmarkAblationReshape(b *testing.B) {
	d := benchDataset(b)
	for _, disable := range []bool{false, true} {
		name := "reshape"
		if disable {
			name = "no-reshape"
		}
		b.Run(name, func(b *testing.B) {
			var overlaps int
			for i := 0; i < b.N; i++ {
				out, _, err := core.Glove(d, core.GloveOptions{
					K:     2,
					Merge: core.MergeOptions{DisableReshape: disable},
				})
				if err != nil {
					b.Fatal(err)
				}
				overlaps = 0
				for _, f := range out.Fingerprints {
					overlaps += core.CountTemporalOverlaps(f.Samples)
				}
			}
			b.ReportMetric(float64(overlaps), "temporal-overlaps")
		})
	}
}

// Parallel pair-effort computation across worker counts.
func BenchmarkAblationParallelScaling(b *testing.B) {
	d := benchDataset(b)
	p := core.DefaultParams()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.KGapAll(p, d, 2, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Bounding-volume pruning of the k-gap analysis vs exhaustive pairs.
func BenchmarkAblationPruning(b *testing.B) {
	d := benchDataset(b)
	p := core.DefaultParams()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KGapAll(p, d, 2, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KGapAllNoPruning(p, d, 2, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gloved's anonymizability question on a windowed-week-sized input
// (250 CIV subscribers over 7 days): the full k-gap pass the experiments
// run for the CDF of Figs. 3-4, then the anonymous fraction, against the
// thresholded pass that decides only whether each k-gap is zero. The
// thresholded series also runs at 1,000 and 4,000 subscribers, where
// its near-duplicate candidate filter, not the n² scan, sets the cost.
func BenchmarkAnonymizability(b *testing.B) {
	civ := func(users int) *core.Dataset {
		cfg := synth.CIV(users)
		cfg.Days = 7
		table, _, _, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d, err := table.BuildDataset()
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	d := civ(250)
	p := core.DefaultParams()
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, rs, err := analysis.KGapCDF(p, d, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			analysis.AnonymousFraction(rs)
		}
	})
	b.Run("thresholded", func(b *testing.B) {
		for _, users := range []int{250, 1000, 4000} {
			b.Run(fmt.Sprint(users), func(b *testing.B) {
				in := d
				if users != d.Len() {
					in = civ(users)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, cands, err := core.KGapAnonymousFraction(p, in, 2, 0)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(cands), "candidates/op")
				}
			})
		}
	})
}

// The engine work of perfbench's windowed-week release: 250 CIV
// subscribers over 7 days, cut into one-day windows, each window split
// into two user halves by the service's user-hash sharding. One op
// anonymizes all the shards in turn at k=2 on one worker, so ns/op and
// kernel-calls/op track the dense build and merge loop a real window
// commit pays, without the daemon around them.
func BenchmarkWindowedWeekEngine(b *testing.B) {
	cfg := synth.CIV(250)
	cfg.Days = 7
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	windows, err := table.SplitByWindow(24 * time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	var shards []*core.Dataset
	for _, w := range windows {
		var halves [2][]cdr.Record
		for _, r := range w.Table.Records {
			h := cdr.ShardOfUser(r.User, len(halves), 0)
			halves[h] = append(halves[h], r)
		}
		for _, recs := range halves {
			t := &cdr.Table{Records: recs, Center: w.Table.Center, SpanDays: w.Table.SpanDays}
			d, err := t.BuildDataset()
			if err != nil {
				b.Fatal(err)
			}
			shards = append(shards, d)
		}
	}
	opt := core.GloveOptions{K: 2, Workers: 1}
	calls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range shards {
			_, st, err := core.Glove(d, opt)
			if err != nil {
				b.Fatal(err)
			}
			calls += st.EffortKernelCalls
		}
	}
	b.ReportMetric(float64(calls)/float64(b.N), "kernel-calls/op")
}

// Chunked GLOVE vs whole-dataset GLOVE: the scalability extension of
// internal/core.GloveChunked, trading cross-block merges for a sum of
// small quadratics.
func BenchmarkAblationChunked(b *testing.B) {
	d := benchDataset(b)
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Glove(d, core.GloveOptions{K: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, chunk := range []int{30, 60} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := core.GloveChunked(d, core.ChunkedGloveOptions{
					Glove:     core.GloveOptions{K: 2},
					ChunkSize: chunk,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Dense matrix vs sparse spatial-grid pair-selection index: the two
// EffortIndex implementations behind core.Anonymize produce identical
// output (asserted by the core equivalence property test); this ablation
// tracks the time cost of trading the O(n²) matrix for O(n·m) candidate
// lists across candidate budgets. The n=<N> series sweep one-day CIV
// inputs of N subscribers on one worker, which locates the size at
// which sparse overtakes dense (DenseIndexMaxN, DESIGN.md Sec. 4).
func BenchmarkAblationIndex(b *testing.B) {
	for _, users := range []int{125, 500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", users), func(b *testing.B) {
			cfg := synth.CIV(users)
			cfg.Days = 1
			table, _, _, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d, err := table.BuildDataset()
			if err != nil {
				b.Fatal(err)
			}
			for _, kind := range []core.IndexKind{core.IndexDense, core.IndexSparse} {
				b.Run(string(kind), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, _, err := core.Glove(d, core.GloveOptions{K: 2, Index: kind, Workers: 1})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
	d := benchDataset(b)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Glove(d, core.GloveOptions{K: 2, Index: core.IndexDense}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("sparse/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := core.Glove(d, core.GloveOptions{
					K: 2, Index: core.IndexSparse, IndexNeighbors: m,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Observability overhead on the k=2 civ run: "bare" is the engine
// alone, "instrumented" adds the exact per-run work the service layer
// performs — a span tree with the shard/phase children and attrs, plus
// the counter and histogram updates folded from GloveStats. The engine
// hot loop itself is never instrumented (stats are lock-free counters
// read once at the end), so the two series must stay within the
// acceptance bound (2%) of each other.
func BenchmarkAblationInstrumentation(b *testing.B) {
	d := benchDataset(b)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Glove(d, core.GloveOptions{K: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		calls := reg.Counter("bench_effort_kernel_calls_total", "kernel calls.")
		pruned := reg.Counter("bench_effort_kernel_pruned_total", "pruned calls.")
		merges := reg.Counter("bench_merges_total", "merges.")
		dur := reg.Histogram("bench_run_seconds", "run durations.", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace(obs.SpanJob, "bench")
			span := tr.Root().Child(obs.SpanShard, "shard 0")
			start := time.Now()
			_, stats, err := core.Glove(d, core.GloveOptions{K: 2})
			if err != nil {
				b.Fatal(err)
			}
			span.SetAttr("fingerprints", stats.InputFingerprints)
			span.AddCompleted(obs.SpanIndexBuild, "", start,
				time.Duration(stats.IndexBuildNanos), nil)
			span.AddCompleted(obs.SpanMerge, "", start,
				time.Duration(stats.MergeNanos), map[string]any{"merges": stats.Merges})
			span.End()
			tr.Root().End()
			calls.Add(float64(stats.EffortKernelCalls))
			pruned.Add(float64(stats.EffortKernelPruned))
			merges.Add(float64(stats.Merges))
			dur.Observe(time.Since(start).Seconds())
		}
	})
}

// The pruned-vs-naive effort kernel comparison lives next to the
// kernel as core.BenchmarkEffortKernelViews (clustered vs uniform, one
// op = one thresholded row scan over cached SoA views — the production
// shape); `make bench-json` includes it via the ./internal/core
// package.

// The hot kernel itself: Eq. 10 over one pair, the unit the paper's GPU
// implementation parallelizes.
func BenchmarkFingerprintEffortKernel(b *testing.B) {
	d := benchDataset(b)
	rng := rand.New(rand.NewSource(1))
	p := core.DefaultParams()
	n := d.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := d.Fingerprints[rng.Intn(n)]
		c := d.Fingerprints[rng.Intn(n)]
		p.FingerprintEffort(a, c)
	}
}
