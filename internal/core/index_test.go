package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// datasetsEqual compares published datasets structurally: same
// fingerprints, same order, same samples, same members.
func datasetsEqual(t *testing.T, label string, a, b *Dataset) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d fingerprints", label, a.Len(), b.Len())
	}
	for i := range a.Fingerprints {
		fa, fb := a.Fingerprints[i], b.Fingerprints[i]
		if fa.ID != fb.ID || fa.Count != fb.Count || fa.Len() != fb.Len() {
			t.Fatalf("%s: fingerprint %d differs (%s/%d/%d vs %s/%d/%d)",
				label, i, fa.ID, fa.Count, fa.Len(), fb.ID, fb.Count, fb.Len())
		}
		for j := range fa.Samples {
			if fa.Samples[j] != fb.Samples[j] {
				t.Fatalf("%s: fingerprint %d sample %d differs", label, i, j)
			}
		}
		for j := range fa.Members {
			if fa.Members[j] != fb.Members[j] {
				t.Fatalf("%s: fingerprint %d member %d differs", label, i, j)
			}
		}
	}
}

// The sparse index must produce output identical to the dense matrix:
// same merges, same order, same published dataset. Seeded synthetic
// workloads across sizes, k values and (deliberately tiny) candidate
// budgets exercise list drain/refill, cutoff tightening and the
// reinsertion offers; effort ties at the saturation value 1.0 occur
// naturally between far-apart fingerprints, so the canonical
// tie-breaking is covered too.
func TestIndexEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + seed))
			n := 8 + rng.Intn(40)
			k := 2 + rng.Intn(3)
			samples := 1 + rng.Intn(10)
			d := randDataset(rng, n, samples)

			dense, dstats, err := Glove(d, GloveOptions{K: k, Index: IndexDense})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{2, 3, 8} {
				sparse, sstats, err := Glove(d, GloveOptions{
					K: k, Index: IndexSparse, IndexNeighbors: m, Workers: 2,
				})
				if err != nil {
					t.Fatalf("m=%d: %v", m, err)
				}
				datasetsEqual(t, fmt.Sprintf("n=%d k=%d m=%d", n, k, m), dense, sparse)
				if dstats.Merges != sstats.Merges {
					t.Fatalf("m=%d: merges %d vs %d", m, dstats.Merges, sstats.Merges)
				}
			}
		})
	}
}

// Clustered geometry: many users packed into a few far-apart towns so
// the grid has occupied cells separated by empty rings and the
// ring-level pruning actually fires; equivalence must survive it.
func TestIndexEquivalenceClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fps []*Fingerprint
	centers := [][2]float64{{0, 0}, {150000, 0}, {0, 150000}, {220000, 220000}}
	id := 0
	for _, c := range centers {
		for u := 0; u < 9; u++ {
			f := randFingerprint(rng, fmt.Sprintf("u%d", id), 1+rng.Intn(6))
			for s := range f.Samples {
				f.Samples[s].X += c[0]
				f.Samples[s].Y += c[1]
			}
			fps = append(fps, f)
			id++
		}
	}
	d := NewDataset(fps)
	dense, _, err := Glove(d, GloveOptions{K: 3, Index: IndexDense})
	if err != nil {
		t.Fatal(err)
	}
	sparse, _, err := Glove(d, GloveOptions{K: 3, Index: IndexSparse, IndexNeighbors: 4})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, "clustered", dense, sparse)
}

// The naive min-pair ablation, the cached dense path and the sparse
// index agree pairwise (transitively pinning all three to the canonical
// ordering).
func TestIndexEquivalenceNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := randDataset(rng, 24, 6)
	naive, _, err := Glove(d, GloveOptions{K: 2, NaiveMinPair: true})
	if err != nil {
		t.Fatal(err)
	}
	sparse, _, err := Glove(d, GloveOptions{K: 2, Index: IndexSparse, IndexNeighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, "naive-vs-sparse", naive, sparse)
}

// The sparse index must never hold more than m candidates per slot and
// must never allocate an n×n structure. The bounded-memory property is
// checked structurally on a live state mid-run.
func TestSparseIndexBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m = 40, 3
	d := randDataset(rng, n, 5)
	opt := GloveOptions{K: 2, Index: IndexSparse, IndexNeighbors: m}.withDefaults()
	st, err := newGloveState(t.Context(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	sx, ok := st.idx.(*sparseIndex)
	if !ok {
		t.Fatalf("state built %T, want *sparseIndex", st.idx)
	}
	checkBudget := func(stage string) {
		for i, l := range sx.lists {
			if len(l) > m {
				t.Fatalf("%s: slot %d holds %d candidates, budget %d", stage, i, len(l), m)
			}
			if cap(l) > m+1 {
				t.Fatalf("%s: slot %d list capacity %d grew past budget", stage, i, cap(l))
			}
		}
	}
	checkBudget("after build")
	for iter := 0; st.activeCount() >= 2; iter++ {
		i, j := st.idx.MinPair()
		st.merge(i, j)
		checkBudget(fmt.Sprintf("after merge %d", iter))
	}
}

// Auto resolution: small datasets get the dense matrix, and an
// explicitly sparse run on a small dataset really is sparse.
func TestIndexAutoResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDataset(rng, 10, 4)
	opt := GloveOptions{K: 2}.withDefaults()
	st, err := newGloveState(t.Context(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.idx.(*denseIndex); !ok {
		t.Fatalf("auto on n=10 built %T, want *denseIndex", st.idx)
	}
	kind, err := GloveOptions{K: 2}.resolveIndex(DenseIndexMaxN + 1)
	if err != nil {
		t.Fatal(err)
	}
	if kind != IndexSparse {
		t.Fatalf("auto above DenseIndexMaxN resolved %q, want sparse", kind)
	}
	if _, _, err := Glove(d, GloveOptions{K: 2, Index: IndexSparse, NaiveMinPair: true}); err == nil {
		t.Fatal("NaiveMinPair + sparse index accepted")
	}
	if _, _, err := Glove(d, GloveOptions{K: 2, Index: IndexKind("bogus")}); err == nil {
		t.Fatal("bogus index kind accepted")
	}
}

// The dense build runs the kernel at most once per unordered live pair,
// seed evaluations included (the pair pass reuses them), and its
// thresholds come from the data alone, so the kernel counters do not
// depend on the worker count. Whatever the thresholds prune, the built
// index must hold the canonical exact row minima, every exact entry
// must equal FingerprintEffort and every bound one must lower bound it,
// in both triangles. The inputs cover far-apart towns (whose
// cross-town pairs have large bounding-box gaps), saturated effort-1.0
// ties, and already-anonymous inputs that leave dead slots.
func TestDenseBuildEvaluatesPairsOnce(t *testing.T) {
	p := DefaultParams()
	clustered := func(rng *rand.Rand) []*Fingerprint {
		var fps []*Fingerprint
		for c, off := range [][2]float64{{0, 0}, {150000, 0}, {0, 150000}, {220000, 220000}} {
			for u := 0; u < 12; u++ {
				f := randFingerprint(rng, fmt.Sprintf("c%d-%d", c, u), 1+rng.Intn(8))
				for s := range f.Samples {
					f.Samples[s].X += off[0]
					f.Samples[s].Y += off[1]
				}
				fps = append(fps, f)
			}
		}
		return fps
	}
	saturated := func(rng *rand.Rand) []*Fingerprint {
		// Single-sample fingerprints more than MaxSpatial and MaxTemporal
		// apart: every pair among them costs exactly 1.0. A few close
		// pairs sit among them.
		var fps []*Fingerprint
		for u := 0; u < 30; u++ {
			s := Sample{X: float64(u) * 50000, DX: 100, Y: 0, DY: 100, T: float64(u) * 1000, DT: 1, Weight: 1}
			fps = append(fps, NewFingerprint(fmt.Sprintf("s%d", u), []Sample{s}))
			if u%7 == 3 {
				s.X += 500
				s.T += 10
				fps = append(fps, NewFingerprint(fmt.Sprintf("s%d-near", u), []Sample{s}))
			}
		}
		return fps
	}
	withDead := func(rng *rand.Rand) []*Fingerprint {
		fps := randDataset(rng, 40, 8).Fingerprints
		for i := 0; i < len(fps); i += 3 {
			fps[i].Count = 2
			fps[i].Members = append(fps[i].Members, fps[i].ID+"-b")
		}
		return fps
	}
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) []*Fingerprint
	}{
		{"clustered", clustered},
		{"saturated", saturated},
		{"dead-slots", withDead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDataset(tc.gen(rand.New(rand.NewSource(31))))
			var calls, pruned []int64
			for _, workers := range []int{1, 2, 8} {
				opt := GloveOptions{K: 2, Index: IndexDense, Workers: workers}.withDefaults()
				st, err := newGloveState(t.Context(), d, opt)
				if err != nil {
					t.Fatal(err)
				}
				x := st.idx.(*denseIndex)
				ws := st.ws
				live := st.activeCount()
				if live == d.Len() && tc.name == "dead-slots" {
					t.Fatal("no dead slots staged")
				}
				c := ws.kc.calls.Load()
				if limit := int64(live * (live - 1) / 2); c > limit {
					t.Fatalf("workers=%d: %d kernel calls for %d live slots, want <= %d", workers, c, live, limit)
				}
				calls = append(calls, c)
				pruned = append(pruned, ws.kc.pruned.Load())

				n := ws.n
				for i := 0; i < n; i++ {
					if !ws.alive[i] {
						continue
					}
					best, bestIdx := math.Inf(1), -1
					for j := 0; j < n; j++ {
						if j == i || !ws.alive[j] {
							continue
						}
						e := p.FingerprintEffort(ws.fps[i], ws.fps[j])
						if e < best {
							best, bestIdx = e, j
						}
						got := x.matrix[i*n+j]
						switch x.state[i*n+j] {
						case entryBound:
							if got > e {
								t.Fatalf("workers=%d: bound (%d,%d) = %v above true effort %v", workers, i, j, got, e)
							}
						case entryExact:
							if got != e {
								t.Fatalf("workers=%d: exact (%d,%d) = %v, true effort %v", workers, i, j, got, e)
							}
						default:
							t.Fatalf("workers=%d: live pair (%d,%d) left unset", workers, i, j)
						}
					}
					if x.nearest[i] != bestIdx || x.matrix[i*n+bestIdx] != best {
						t.Fatalf("workers=%d: row %d nearest %d (%v), want %d (%v)",
							workers, i, x.nearest[i], x.matrix[i*n+x.nearest[i]], bestIdx, best)
					}
				}
			}
			for w := 1; w < len(calls); w++ {
				if calls[w] != calls[0] || pruned[w] != pruned[0] {
					t.Fatalf("kernel counters depend on workers: calls %v, pruned %v", calls, pruned)
				}
			}
			t.Logf("%d fingerprints: %d kernel calls, %d pruned", d.Len(), calls[0], pruned[0])
		})
	}
}
