package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/geo"
)

// followFeed synthesizes a feed whose records arrive window by window:
// the same subscriber population reappears in every one-hour window
// with jittered positions and timestamps. Appending the records one
// window at a time reproduces exactly what a follow job's registry
// snapshot shows after that window's appends.
func followFeed(windows, users, samples int) (cdr.Meta, []cdr.Record) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]cdr.Record, 0, windows*users*samples)
	for w := 0; w < windows; w++ {
		for u := 0; u < users; u++ {
			for s := 0; s < samples; s++ {
				recs = append(recs, cdr.Record{
					User:   fmt.Sprintf("u%03d", u),
					Pos:    geo.LatLon{Lat: 7.54 + rng.Float64()*0.2 - 0.1, Lon: -5.55 + rng.Float64()*0.2 - 0.1},
					Minute: float64(w)*60 + rng.Float64()*60,
				})
			}
		}
	}
	meta := cdr.Meta{Center: geo.LatLon{Lat: 7.54, Lon: -5.55}, SpanDays: (windows*60)/1440 + 1}
	return meta, recs
}

// benchWindowCommit replays the incremental commit loop of a follow
// job on the production path: append one window's records to a column
// store, snapshot it, advance a record cursor with TailWindows, fuse
// each closed window's fragments with Concat, and anonymize the window
// in a cold engine run. The reported ns/commit is the close-to-commit
// latency of one window release.
func benchWindowCommit(b *testing.B, windows, users, samples int) {
	meta, recs := followFeed(windows, users, samples)
	perWindow := users * samples
	opt := core.AnonymizeOptions{Glove: core.GloveOptions{K: 2, Workers: 1}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := colstore.New(meta, colstore.Options{})
		cursor := 0
		for w := 0; w < windows; w++ {
			if err := store.Append(recs[w*perWindow : (w+1)*perWindow]...); err != nil {
				b.Fatal(err)
			}
			snap := store.Snapshot()
			frags, err := snap.TailWindows(cursor, time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			cursor = snap.NumRecords()
			views := make([]*colstore.View, len(frags))
			for j, f := range frags {
				views[j] = f.View
			}
			ds, err := colstore.Concat(views...).BuildDataset()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.AnonymizeContext(ctx, ds, opt); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/commit")
}

// BenchmarkWindowCommit pins the streaming pipeline's scaling claim:
// per-window commit latency tracks the volume of NEW data a window
// carries, not the total size of the feed. The windows=4/8/16 series
// holds per-window volume fixed while the feed quadruples — ns/commit
// must stay flat. The users=20/80 series holds the window count fixed
// while per-window volume quadruples — ns/commit must grow with it.
func BenchmarkWindowCommit(b *testing.B) {
	const samples = 3
	for _, windows := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("windows=%d/users=40", windows), func(b *testing.B) {
			benchWindowCommit(b, windows, 40, samples)
		})
	}
	for _, users := range []int{20, 80} {
		b.Run(fmt.Sprintf("windows=8/users=%d", users), func(b *testing.B) {
			benchWindowCommit(b, 8, users, samples)
		})
	}
}
