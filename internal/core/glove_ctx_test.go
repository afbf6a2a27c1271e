package core

import (
	"context"
	"math/rand"
	"testing"
)

// ctxTestDataset builds a small random dataset of single-user
// fingerprints.
func ctxTestDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	fps := make([]*Fingerprint, n)
	for i := range fps {
		m := 3 + rng.Intn(4)
		samples := make([]Sample, m)
		for s := range samples {
			samples[s] = Sample{
				X: 100 * rng.Float64() * 1000, DX: 100,
				Y: 100 * rng.Float64() * 1000, DY: 100,
				T: float64(rng.Intn(1000)), DT: 1,
				Weight: 1,
			}
		}
		fps[i] = NewFingerprint(string(rune('a'+i/26))+string(rune('a'+i%26)), samples)
	}
	return NewDataset(fps)
}

func TestGloveContextMatchesGlove(t *testing.T) {
	d := ctxTestDataset(20, 7)
	want, wantStats, err := Glove(d, GloveOptions{K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := GloveContext(context.Background(), d, GloveOptions{K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || gotStats.Merges != wantStats.Merges {
		t.Errorf("GloveContext diverged: %d groups / %d merges, want %d / %d",
			got.Len(), gotStats.Merges, want.Len(), wantStats.Merges)
	}
}

func TestGloveProgress(t *testing.T) {
	d := ctxTestDataset(15, 3)
	var calls int
	last, lastTotal := -1, 0
	_, stats, err := Glove(d, GloveOptions{
		K:       2,
		Workers: 1,
		Progress: func(done, total int) {
			calls++
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			if lastTotal != 0 && total != lastTotal {
				t.Errorf("total changed mid-run: %d -> %d", lastTotal, total)
			}
			if done > total {
				t.Errorf("done %d > total %d", done, total)
			}
			last, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < stats.Merges {
		t.Errorf("progress called %d times for %d merges", calls, stats.Merges)
	}
	if last != lastTotal {
		t.Errorf("final progress %d/%d, want completion", last, lastTotal)
	}
}

// TestGloveProgressTracksConsumedFingerprints pins the progress scale
// to the fingerprints the merges consume: a merge retires at most two
// active fingerprints, so no callback may advance done by more than two
// — in particular a k=2 run, whose merges each retire a pair after
// about half as many merges as fingerprints, must not stall near 50%
// and then jump to completion.
func TestGloveProgressTracksConsumedFingerprints(t *testing.T) {
	for _, k := range []int{2, 5} {
		d := ctxTestDataset(41, int64(k))
		var seq []int
		total := 0
		_, _, err := Glove(d, GloveOptions{
			K:       k,
			Workers: 1,
			Progress: func(done, tot int) {
				seq = append(seq, done)
				total = tot
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != d.Len()+1 {
			t.Errorf("k=%d: total %d, want %d (build step + one per fingerprint)", k, total, d.Len()+1)
		}
		if len(seq) == 0 || seq[len(seq)-1] != total {
			t.Fatalf("k=%d: progress %v does not end at total %d", k, seq, total)
		}
		for i := 1; i < len(seq); i++ {
			if step := seq[i] - seq[i-1]; step < 0 || step > 2 {
				t.Fatalf("k=%d: progress step %d -> %d (sequence %v)", k, seq[i-1], seq[i], seq)
			}
		}
	}
}

func TestGloveContextCancelledBeforeStart(t *testing.T) {
	d := ctxTestDataset(10, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := GloveContext(ctx, d, GloveOptions{K: 2, Workers: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGloveContextCancelledMidRun(t *testing.T) {
	d := ctxTestDataset(40, 5)
	ctx, cancel := context.WithCancel(context.Background())
	var merges int
	_, _, err := GloveContext(ctx, d, GloveOptions{
		K:       4,
		Workers: 1,
		Progress: func(done, total int) {
			merges++
			if merges == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
