package service

import (
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzJobSpecValidate pins the submission gate against hostile specs:
// JobSpec.Validate never panics, every spec it accepts has finite
// suppression thresholds and a windowed spec's WindowDuration is
// positive, and every accepted spec plans cleanly — core.PlanFor returns
// no error for any dataset size a k-anonymization can run on (n >= 2k),
// so a job can never pass validation only to fail at its first shard's
// plan.
func FuzzJobSpecValidate(f *testing.F) {
	seeds := []JobSpec{
		{},
		{DatasetID: "ds-1", K: 2},
		{DatasetID: "ds-1", K: 1},
		{DatasetID: "ds-1", K: 2, Shards: 2, Workers: 1},
		{DatasetID: "ds-1", K: 2, Shards: -1, Workers: -1},
		{DatasetID: "ds-1", K: 2, Shards: 1 << 30, Workers: 1 << 30},
		{DatasetID: "ds-1", K: 3},
		// k whose smallest run (2k) lands on the planner's size
		// thresholds, and at the edge of 2k overflowing.
		{DatasetID: "ds-1", K: core.DenseIndexMaxN / 2},
		{DatasetID: "ds-1", K: core.DefaultChunkSize / 2},
		{DatasetID: "ds-1", K: core.SingleRunMaxN / 2},
		{DatasetID: "ds-1", K: core.SingleRunMaxN},
		{DatasetID: "ds-1", K: math.MaxInt/2 - 1},
		{DatasetID: "ds-1", K: math.MaxInt},
		{DatasetID: "ds-1", K: 2, SuppressKm: 5, SuppressMin: 120},
		{DatasetID: "ds-1", K: 2, SuppressKm: -1},
		{DatasetID: "ds-1", K: 2, WindowHours: 12.5},
		{DatasetID: "ds-1", K: 2, WindowHours: -1},
		{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: 3},
		{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: -1},
		{DatasetID: "d", K: 2, FollowWindows: 3},
		{DatasetID: "d", K: 2, Follow: true},
		{DatasetID: "d", K: 2, SuppressKm: math.NaN()},
		{DatasetID: "d", K: 2, SuppressMin: math.NaN()},
		{DatasetID: "d", K: 2, SuppressKm: math.Inf(1)},
		{DatasetID: "d", K: 2, SuppressMin: math.Inf(-1)},
		{DatasetID: "d", K: 2, SuppressKm: 1e300, SuppressMin: 1e300},
		{DatasetID: "d", K: 2, WindowHours: math.NaN()},
		{DatasetID: "d", K: 2, WindowHours: math.Inf(1)},
		{DatasetID: "d", K: 2, WindowHours: math.Inf(-1)},
		{DatasetID: "d", K: 2, WindowHours: 1e300},
		{DatasetID: "d", K: 2, WindowHours: 2.6e6},
		{DatasetID: "d", K: 2, WindowHours: 1e-300},
	}
	for _, s := range seeds {
		f.Add(s.DatasetID, s.K, s.SuppressKm, s.SuppressMin, s.Shards, s.Workers,
			s.WindowHours, s.Follow, s.FollowWindows)
	}

	f.Fuzz(func(t *testing.T, id string, k int, supKm, supMin float64, shards, workers int,
		windowHours float64, follow bool, followWindows int) {
		spec := JobSpec{
			DatasetID: id, K: k, SuppressKm: supKm, SuppressMin: supMin,
			Shards: shards, Workers: workers,
			WindowHours: windowHours, Follow: follow, FollowWindows: followWindows,
		}
		if spec.Validate() != nil {
			return
		}
		if math.IsNaN(supKm) || math.IsInf(supKm, 0) || math.IsNaN(supMin) || math.IsInf(supMin, 0) {
			t.Fatalf("accepted spec %+v has non-finite suppression thresholds", spec)
		}
		if windowHours > 0 && spec.WindowDuration() <= 0 {
			t.Fatalf("accepted spec %+v has window duration %v", spec, spec.WindowDuration())
		}
		if k > math.MaxInt/2-1 {
			return // no dataset size reaches 2k
		}
		opt := anonymizeOptions(spec, 0, nil)
		for _, n := range []int{
			2 * k, 2*k + 1,
			core.DenseIndexMaxN, core.DenseIndexMaxN + 1,
			core.DefaultChunkSize + 1, core.SingleRunMaxN, core.SingleRunMaxN + 1,
		} {
			if n < 2*k {
				continue
			}
			if _, err := core.PlanFor(n, opt); err != nil {
				t.Fatalf("accepted spec %+v fails to plan n=%d: %v", spec, n, err)
			}
		}
	})
}
