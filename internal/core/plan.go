package core

import (
	"context"
	"fmt"
)

// Strategy selects how a dataset is partitioned for anonymization.
type Strategy string

const (
	// StrategyAuto lets the planner pick: a single global run up to
	// SingleRunMaxN fingerprints, chunked above.
	StrategyAuto Strategy = "auto"
	// StrategySingle runs GLOVE once over the whole dataset — the
	// paper's algorithm, quadratic in the dataset size.
	StrategySingle Strategy = "single"
	// StrategyChunked partitions the dataset into spatially coherent
	// blocks anonymized independently (GloveChunked), turning the cost
	// into a sum of much smaller quadratics that run in parallel.
	StrategyChunked Strategy = "chunked"
)

// IndexKind selects the pair-selection index inside one GLOVE run.
type IndexKind string

const (
	// IndexAuto picks dense up to DenseIndexMaxN fingerprints, sparse
	// above. The empty string behaves identically, so the GloveOptions
	// zero value auto-selects.
	IndexAuto IndexKind = "auto"
	// IndexDense is the full n×n effort matrix with a nearest-neighbour
	// cache: fastest lookups, O(n²) memory.
	IndexDense IndexKind = "dense"
	// IndexSparse is the spatial-grid candidate-list index: O(n·m)
	// memory, lazy effort evaluation, identical output.
	IndexSparse IndexKind = "sparse"
)

// Planner thresholds. The auto rules are deliberately simple and
// documented (README, DESIGN.md Sec. 4) so operators can predict them.
const (
	// DenseIndexMaxN is the largest run the auto rule gives the dense
	// index. BenchmarkAblationIndex's size sweep (k=2, one worker,
	// one-day CIV inputs; DESIGN.md Sec. 4) has dense faster than
	// sparse at every measured size up to ~4000 fingerprints (8.5 s
	// against 12.1 s there), so the speed crossover lies at or above
	// this cut, where the matrix reaches 8·n² = 128 MiB.
	DenseIndexMaxN = 4096

	// SingleRunMaxN is the largest dataset the auto rule anonymizes in
	// one global run before switching to spatial chunking.
	SingleRunMaxN = 20000

	// DefaultChunkSize is the target block size of auto-selected
	// chunking.
	DefaultChunkSize = 4000

	// DefaultIndexNeighbors is the sparse index's per-fingerprint
	// candidate-list size m when unset.
	DefaultIndexNeighbors = 8
)

// ParseStrategy maps a spelling to a Strategy ("" = auto).
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", StrategyAuto:
		return StrategyAuto, nil
	case StrategySingle:
		return StrategySingle, nil
	case StrategyChunked:
		return StrategyChunked, nil
	}
	return "", fmt.Errorf("core: unknown strategy %q (want auto, single or chunked)", s)
}

// ParseIndexKind maps a spelling to an IndexKind ("" = auto).
func ParseIndexKind(s string) (IndexKind, error) {
	switch IndexKind(s) {
	case "", IndexAuto:
		return IndexAuto, nil
	case IndexDense:
		return IndexDense, nil
	case IndexSparse:
		return IndexSparse, nil
	}
	return "", fmt.Errorf("core: unknown index kind %q (want auto, dense or sparse)", s)
}

// resolveIndex turns the option into a concrete index kind for a run
// over n fingerprints, validating the combination.
func (o GloveOptions) resolveIndex(n int) (IndexKind, error) {
	switch o.Index {
	case "", IndexAuto:
		if o.NaiveMinPair {
			// The cache ablation is defined against the matrix.
			return IndexDense, nil
		}
		if n > DenseIndexMaxN {
			return IndexSparse, nil
		}
		return IndexDense, nil
	case IndexDense:
		return IndexDense, nil
	case IndexSparse:
		if o.NaiveMinPair {
			return "", fmt.Errorf("core: NaiveMinPair is a dense-matrix ablation, incompatible with the sparse index")
		}
		return IndexSparse, nil
	}
	return "", fmt.Errorf("core: unknown index kind %q (want auto, dense or sparse)", o.Index)
}

// AnonymizeOptions configures the planned entry point. Index selection
// rides on Glove.Index / Glove.IndexNeighbors.
type AnonymizeOptions struct {
	// Glove carries the per-run options (K, Params, Merge, Suppress,
	// Workers, Index).
	Glove GloveOptions

	// Strategy selects single-run vs chunked execution; zero value is
	// StrategyAuto.
	Strategy Strategy

	// ChunkSize is the target fingerprints per block for chunked runs;
	// <= 0 uses DefaultChunkSize. Must be >= 2·K when set.
	ChunkSize int
}

// Plan is the resolved execution shape of an Anonymize call — what the
// auto rules decided for a concrete dataset size. It is JSON-tagged so
// the service can surface it verbatim in job statuses.
type Plan struct {
	// N is the dataset size the plan was made for.
	N int `json:"n"`
	// Strategy is the resolved strategy: single or chunked, never auto.
	Strategy Strategy `json:"strategy"`
	// ChunkSize is the target block size; 0 for single runs.
	ChunkSize int `json:"chunk_size,omitempty"`
	// Index is the index resolution at the planned run size (the block
	// size for chunked runs; IndexAuto re-resolves per block, which only
	// differs for the oversized tail block).
	Index IndexKind `json:"index"`
	// IndexNeighbors is the sparse candidate-list size m; 0 when dense.
	IndexNeighbors int `json:"index_neighbors,omitempty"`
}

// PlanFor validates the options and resolves the auto rules for a
// dataset of n fingerprints. It is pure: calling Anonymize afterwards
// executes exactly the returned plan.
func PlanFor(n int, opt AnonymizeOptions) (Plan, error) {
	if opt.Glove.K < 2 {
		return Plan{}, fmt.Errorf("core: plan k = %d, need k >= 2", opt.Glove.K)
	}
	strategy, err := ParseStrategy(string(opt.Strategy))
	if err != nil {
		return Plan{}, err
	}
	if _, err := ParseIndexKind(string(opt.Glove.Index)); err != nil {
		return Plan{}, err
	}
	chunk := opt.ChunkSize
	if chunk < 0 {
		return Plan{}, fmt.Errorf("core: negative chunk size %d", chunk)
	}
	if chunk > 0 && chunk < 2*opt.Glove.K {
		return Plan{}, fmt.Errorf("core: chunk size %d < 2k = %d", chunk, 2*opt.Glove.K)
	}
	if chunk > 0 && strategy == StrategySingle {
		return Plan{}, fmt.Errorf("core: chunk size %d set but strategy is single", chunk)
	}

	if strategy == StrategyAuto {
		if n > SingleRunMaxN {
			strategy = StrategyChunked
		} else {
			strategy = StrategySingle
		}
	}
	if strategy == StrategyChunked {
		if chunk == 0 {
			chunk = DefaultChunkSize
		}
		if n <= chunk {
			// GloveChunked would fall back to a single run anyway;
			// resolve it here so the plan reports what actually executes.
			strategy = StrategySingle
			chunk = 0
		}
	} else {
		chunk = 0
	}

	runN := n
	if strategy == StrategyChunked {
		runN = chunk
	}
	kind, err := opt.Glove.resolveIndex(runN)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{N: n, Strategy: strategy, ChunkSize: chunk, Index: kind}
	if kind == IndexSparse {
		plan.IndexNeighbors = clampIndexNeighbors(opt.Glove.IndexNeighbors)
	}
	return plan, nil
}

// clampIndexNeighbors resolves the sparse candidate budget: unset means
// the default, and anything below 2 is raised to 2 (a 1-entry list
// cannot hold a pair's two endpoints' views of each other). Plan
// reporting and the index itself share this rule so the published plan
// never disagrees with the executed one.
func clampIndexNeighbors(m int) int {
	if m <= 0 {
		return DefaultIndexNeighbors
	}
	if m < 2 {
		return 2
	}
	return m
}

// Anonymize is the planned entry point unifying Glove, GloveChunked and
// the index choice: it resolves the auto rules for the dataset size and
// runs the resolved plan. All plans produce a k-anonymized dataset; they
// differ in memory footprint, parallelism and (for chunked) whether
// merges may cross block boundaries.
func Anonymize(d *Dataset, opt AnonymizeOptions) (*Dataset, *GloveStats, error) {
	return AnonymizeContext(context.Background(), d, opt)
}

// AnonymizeContext is Anonymize with cooperative cancellation.
func AnonymizeContext(ctx context.Context, d *Dataset, opt AnonymizeOptions) (*Dataset, *GloveStats, error) {
	plan, err := PlanFor(d.Len(), opt)
	if err != nil {
		return nil, nil, err
	}
	return RunPlan(ctx, d, opt, plan)
}

// RunPlan executes a plan previously resolved by PlanFor over the same
// dataset and options, so a caller that surfaced the plan (CLI stderr,
// job status) runs exactly what it displayed. AnonymizeContext is
// PlanFor followed by RunPlan.
func RunPlan(ctx context.Context, d *Dataset, opt AnonymizeOptions, plan Plan) (*Dataset, *GloveStats, error) {
	if plan.Strategy == StrategyChunked {
		return GloveChunkedContext(ctx, d, ChunkedGloveOptions{
			Glove:     opt.Glove,
			ChunkSize: plan.ChunkSize,
		})
	}
	return GloveContext(ctx, d, opt.Glove)
}
