package repro_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/synth"
)

// The scaling benchmarks pin the 1M-fingerprint tier: index build and a
// bounded merge burst over clustered synthetic datasets at 100k, 300k
// and 1M fingerprints (core.IndexMergeProbe — a full run to k-anonymity
// is O(n) merges of O(n) cost and out of reach at this scale by
// design), plus a 1M-record columnar ingest under a byte budget. Every
// benchmark reports its heap footprint alongside ns/op so the
// memory-bounded claim is tracked in BENCH_glove.json, not just the
// speed.

// scalingMergeBurst is the bounded merge-loop length of the probe: long
// enough to exercise Remove/Reinsert/MinPair steady-state behaviour,
// short enough that the burst does not dwarf the index build at small n.
const scalingMergeBurst = 512

// scalingSamplesPer keeps the per-fingerprint sample count small so the
// 1M tier measures index scaling rather than kernel arithmetic volume.
const scalingSamplesPer = 4

// reportHeap records the current heap footprint — a lower bound on the
// run's peak RSS taken right after the workload, before anything is
// freed — and the GOMAXPROCS the run actually had, which the cross-PR
// comparison needs to interpret parallel speedups.
func reportHeap(b *testing.B) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse), "peak-heap-bytes")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

func benchIndexMergeProbe(b *testing.B, n, workers int) {
	d := synth.ScalingDataset(n, scalingSamplesPer, 42)
	opt := core.GloveOptions{K: 2, Index: core.IndexSparse, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := core.IndexMergeProbe(context.Background(), d, opt, scalingMergeBurst)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ps.IndexBuildNanos), "index-build-ns")
		if ps.Merges > 0 {
			b.ReportMetric(float64(ps.MergeNanos)/float64(ps.Merges), "ns/merge")
		}
	}
	b.StopTimer()
	reportHeap(b)
}

// BenchmarkScalingIndexMerge is the 100k/300k/1M scaling series. The
// serial variants exist so the parallel speedup is visible inside one
// BENCH_glove.json (not only across PRs); the 1M tier runs parallel
// only — a serial 1M build is minutes of redundant information. On a
// single-CPU machine the parallel variants are skipped (the numbers
// would not measure parallelism), leaving the serial series as the
// trajectory anchor.
func BenchmarkScalingIndexMerge(b *testing.B) {
	multiCPU := runtime.GOMAXPROCS(0) > 1
	for _, tier := range []struct {
		name string
		n    int
	}{
		{"100k", 100_000},
		{"300k", 300_000},
		{"1m", 1_000_000},
	} {
		hasSerialTwin := tier.n <= 300_000
		if hasSerialTwin {
			b.Run(tier.name+"-serial", func(b *testing.B) {
				benchIndexMergeProbe(b, tier.n, 1)
			})
		}
		b.Run(tier.name, func(b *testing.B) {
			if hasSerialTwin && !multiCPU {
				b.Skip("GOMAXPROCS=1: parallel tier would duplicate the serial series")
			}
			benchIndexMergeProbe(b, tier.n, 0)
		})
	}
}

// BenchmarkScalingColstore streams one million records into a columnar
// store under an 8 MiB resident budget — a ~27 MiB column footprint, so
// most chunks must spill — then scans every record and splits the view
// into daily windows. The run fails if the store ever reports resident
// bytes beyond budget + one chunk (the unsealed tail), pinning the
// memory bound, and reports the spill traffic alongside the wall clock.
func BenchmarkScalingColstore(b *testing.B) {
	const (
		records = 1_000_000
		users   = 50_000
		budget  = 8 << 20
	)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		meta, next := synth.ScalingRecords(records, users, 7)
		st := colstore.New(meta, colstore.Options{ByteBudget: budget, SpillDir: dir})
		if _, err := st.AppendStream(next, -1); err != nil {
			b.Fatal(err)
		}
		v := st.Snapshot()
		n := 0
		if err := v.EachRecord(func(r cdr.Record) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		wins, err := v.TailWindows(0, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		stats := st.Stats()
		chunk := int64(colstore.DefaultChunkRecords * 28)
		if stats.ResidentBytes > budget+chunk {
			b.Fatalf("resident %d bytes exceeds budget %d + tail chunk %d",
				stats.ResidentBytes, budget, chunk)
		}
		if n != records || len(wins) == 0 {
			b.Fatalf("scanned %d records into %d windows", n, len(wins))
		}
		b.ReportMetric(float64(stats.ResidentBytes), "resident-bytes")
		b.ReportMetric(float64(stats.SpilledChunks), "spilled-chunks")
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHeap(b)
}
