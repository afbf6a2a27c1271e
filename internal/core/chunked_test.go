package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGloveChunkedArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 12, 5)
	if _, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 1}, ChunkSize: 10}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 3}, ChunkSize: 5}); err == nil {
		t.Error("chunk < 2k accepted")
	}
	if _, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 20}, ChunkSize: 40}); err == nil {
		t.Error("k > users accepted")
	}
}

func TestGloveChunkedKAnonymity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randDataset(rng, 60, 8)
	for _, k := range []int{2, 3} {
		out, stats, err := GloveChunked(d, ChunkedGloveOptions{
			Glove:     GloveOptions{K: k},
			ChunkSize: 15,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := ValidateKAnonymity(out, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.Users() != 60 {
			t.Errorf("k=%d: %d users out, want 60", k, out.Users())
		}
		if stats.InputFingerprints != 60 {
			t.Errorf("k=%d: input accounting %d", k, stats.InputFingerprints)
		}
		if stats.OutputFingerprints != out.Len() {
			t.Errorf("k=%d: output accounting mismatch", k)
		}
	}
}

func TestGloveChunkedTruthfulness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDataset(rng, 40, 6)
	out, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 2}, ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckTruthfulness(d, out)
	if rep.MissingFP != 0 || rep.Suppressed != 0 {
		t.Errorf("truthfulness report %+v", rep)
	}
}

func TestGloveChunkedSmallDatasetFallsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := randDataset(rng, 8, 5)
	chunked, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 2}, ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Glove(d, GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Len() != plain.Len() {
		t.Error("small dataset not identical to plain GLOVE")
	}
}

func TestGloveChunkedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDataset(rng, 50, 6)
	opt := ChunkedGloveOptions{Glove: GloveOptions{K: 2, Workers: 4}, ChunkSize: 12}
	out1, _, err := GloveChunked(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Glove.Workers = 1
	out2, _, err := GloveChunked(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Len() != out2.Len() {
		t.Fatalf("chunked runs differ: %d vs %d groups", out1.Len(), out2.Len())
	}
	for i := range out1.Fingerprints {
		if out1.Fingerprints[i].ID != out2.Fingerprints[i].ID {
			t.Fatal("chunked output order differs across worker counts")
		}
	}
}

// Blocks are spatially coherent: two well-separated clusters must not
// be mixed within blocks.
func TestSpatialBlocksCoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var fps []*Fingerprint
	for i := 0; i < 30; i++ {
		f := randFingerprint(rng, fmt.Sprintf("w%02d", i), 5)
		fps = append(fps, f) // west cluster (randFingerprint uses [0, 5e4])
	}
	for i := 0; i < 30; i++ {
		f := randFingerprint(rng, fmt.Sprintf("e%02d", i), 5)
		for j := range f.Samples {
			f.Samples[j].X += 5e5 // east cluster, 500 km away
		}
		fps = append(fps, f)
	}
	d := NewDataset(fps)
	blocks := spatialBlocks(d, 15)
	for bi, block := range blocks {
		var west, east int
		for _, f := range block {
			if f.Samples[0].X > 2.5e5 {
				east++
			} else {
				west++
			}
		}
		if west > 0 && east > 0 {
			t.Errorf("block %d mixes clusters: %d west, %d east", bi, west, east)
		}
	}
}

func TestSpatialBlocksSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 53, 4)
	blocks := spatialBlocks(d, 10)
	var total int
	for _, b := range blocks {
		total += len(b)
		if len(b) < 5 { // chunkSize/2
			t.Errorf("block of %d fingerprints below half chunk", len(b))
		}
	}
	if total != 53 {
		t.Errorf("blocks cover %d fingerprints, want 53", total)
	}
}

// Chunked accuracy should be close to (and never absurdly far from)
// whole-dataset GLOVE on spatially clustered data.
func TestGloveChunkedAccuracyClose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randDataset(rng, 40, 8)
	whole, _, err := Glove(d, GloveOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	chunked, _, err := GloveChunked(d, ChunkedGloveOptions{Glove: GloveOptions{K: 2}, ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(ds *Dataset) float64 {
		var sum, n float64
		for _, f := range ds.Fingerprints {
			for _, s := range f.Samples {
				sum += s.SpatialSpan() * float64(s.Weight)
				n += float64(s.Weight)
			}
		}
		return sum / n
	}
	mw, mc := mean(whole), mean(chunked)
	if mc > 4*mw+1000 {
		t.Errorf("chunked mean span %.0f m far above whole-dataset %.0f m", mc, mw)
	}
}

// Pin the chunked progress weighting against pre-anonymized inputs: a
// block containing fingerprints that arrive with Count >= K contributes
// only its active fingerprints (plus the build step) to the total, so
// the aggregated fraction ends at exactly 1 and never overshoots.
func TestGloveChunkedProgressWithPreAnonymizedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, chunk, k = 30, 10, 2
	var fps []*Fingerprint
	active := 0
	for i := 0; i < n; i++ {
		f := randFingerprint(rng, fmt.Sprintf("f%02d", i), 4)
		if i%3 == 0 {
			// Pre-merged group: already anonymized on input.
			f.Count = k
			f.Members = []string{f.ID + "-a", f.ID + "-b"}
		} else {
			active++
		}
		fps = append(fps, f)
	}
	d := NewDataset(fps)
	wantTotal := active + len(spatialBlocks(d, chunk))

	var mu sync.Mutex
	var lastDone, total int
	_, _, err := GloveChunked(d, ChunkedGloveOptions{
		Glove: GloveOptions{
			K: k,
			Progress: func(done, tot int) {
				mu.Lock()
				defer mu.Unlock()
				if done < lastDone {
					t.Errorf("progress went backwards: %d after %d", done, lastDone)
				}
				if done > tot {
					t.Errorf("progress overshoots: %d/%d", done, tot)
				}
				lastDone, total = done, tot
			},
		},
		ChunkSize: chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Errorf("reported total %d, want %d (active %d + %d blocks)",
			total, wantTotal, active, wantTotal-active)
	}
	if lastDone != total {
		t.Errorf("final progress %d/%d, want completion", lastDone, total)
	}
}
