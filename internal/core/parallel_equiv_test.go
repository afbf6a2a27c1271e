package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// The parallel fast paths of this PR — stripe-parallel sparse grid
// build, parallel MinPair head-scan reduction, scratch-row Reinsert
// fan-out, pooled views — must be invisible in the output: a run with
// one worker and a run with many workers produce bit-identical
// datasets. These tests force the parallel MinPair path on small
// datasets by lowering its activation cut.

// zeroTimings clears the wall-clock fields — the only
// non-deterministic stats — so otherwise-identical runs compare exactly.
func zeroTimings(s *GloveStats) *GloveStats {
	s.IndexBuildNanos = 0
	s.MergeNanos = 0
	return s
}

func gloveOut(t *testing.T, d *Dataset, opt GloveOptions) (*Dataset, *GloveStats) {
	t.Helper()
	out, stats, err := Glove(d, opt)
	if err != nil {
		t.Fatalf("Glove(%+v): %v", opt, err)
	}
	return out, zeroTimings(stats)
}

// TestSerialParallelEquivalence pins serial == parallel bit-identity
// for both index implementations across several random datasets. It
// also runs the parallel case twice: at a fixed worker count the kernel
// accounting must be deterministic too (the fixed-stripe leftover fold
// and the per-slot index rebuilds leave no scheduling-dependent
// pruning threshold).
func TestSerialParallelEquivalence(t *testing.T) {
	oldCut := minPairParallelCut
	minPairParallelCut = 8
	defer func() { minPairParallelCut = oldCut }()

	for _, kind := range []IndexKind{IndexDense, IndexSparse} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(900 + seed))
			n := 20 + rng.Intn(40)
			d := randDataset(rng, n, 1+rng.Intn(8))
			k := 2 + rng.Intn(3)

			serialOut, serialStats := gloveOut(t, d, GloveOptions{K: k, Index: kind, Workers: 1})
			parOut, parStats := gloveOut(t, d, GloveOptions{K: k, Index: kind, Workers: 8})
			againOut, againStats := gloveOut(t, d, GloveOptions{K: k, Index: kind, Workers: 8})

			if !reflect.DeepEqual(serialOut, parOut) {
				t.Fatalf("%s seed %d: parallel output differs from serial", kind, seed)
			}
			// Kernel counters depend on the worker count (pruning
			// thresholds are per stripe); the merge trace may not.
			if serialStats.Merges != parStats.Merges {
				t.Fatalf("%s seed %d: merges %d (serial) != %d (parallel)",
					kind, seed, serialStats.Merges, parStats.Merges)
			}
			if !reflect.DeepEqual(parOut, againOut) || *parStats != *againStats {
				t.Fatalf("%s seed %d: repeated parallel run differs:\nfirst  %+v\nsecond %+v",
					kind, seed, parStats, againStats)
			}
		}
	}
}

// TestProbeMatchesGlovePrefix pins that the scaling probe drives the
// very same machinery: with an unbounded merge cap and no leftover, the
// probe's merge count matches a full run's.
func TestProbeMatchesGlovePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := randDataset(rng, 40, 6)
	opt := GloveOptions{K: 2, Index: IndexSparse}

	_, stats, err := Glove(d, opt)
	if err != nil {
		t.Fatalf("Glove: %v", err)
	}
	ps, err := IndexMergeProbe(t.Context(), d, opt, 1<<30)
	if err != nil {
		t.Fatalf("IndexMergeProbe: %v", err)
	}
	if ps.Fingerprints != d.Len() {
		t.Fatalf("probe active = %d, want %d", ps.Fingerprints, d.Len())
	}
	// The full run may add one leftover fold on top of the loop merges.
	if ps.Merges != stats.Merges && ps.Merges != stats.Merges-1 {
		t.Fatalf("probe merges = %d, full run = %d", ps.Merges, stats.Merges)
	}

	// A bounded burst stops exactly at the cap.
	ps, err = IndexMergeProbe(t.Context(), d, opt, 5)
	if err != nil {
		t.Fatalf("IndexMergeProbe bounded: %v", err)
	}
	if ps.Merges != 5 {
		t.Fatalf("bounded probe merges = %d, want 5", ps.Merges)
	}
}
