package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// fullPassFraction is the reference anonymous fraction of src: the full
// k-gap pass of the experiments, not the thresholded one jobs run.
func fullPassFraction(t *testing.T, src *cdr.Table, k int) float64 {
	t.Helper()
	ds, err := src.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.KGapAll(core.DefaultParams(), ds, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.AnonymousFraction(rs)
}

// analysisSpan returns the analysis span under a job's trace root.
func analysisSpan(t *testing.T, mgr *Manager, id string) *obs.Span {
	t.Helper()
	tr, err := mgr.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Root.Children {
		if c.Kind == obs.SpanAnalysis {
			return c
		}
	}
	t.Fatalf("job %s has no analysis span under its root", id)
	return nil
}

// A batch job's anonymous fraction is bit for bit the full k-gap pass's
// on its input, and an input above the analysis cap skips the pass with
// the reason on the analysis span.
func TestBatchAnonymousFractionEqualsFullPass(t *testing.T) {
	// Copies of a third of the subscribers under new names make their
	// k-gaps exactly zero, so the fraction is strictly between 0 and 1.
	table := synthTable(t, 30, 2)
	dups := map[string]bool{}
	for _, r := range table.Records {
		if len(dups) < 10 || dups[r.User] {
			dups[r.User] = true
		}
	}
	for _, r := range append([]cdr.Record(nil), table.Records...) {
		if dups[r.User] {
			r.User = "dup-" + r.User
			table.Records = append(table.Records, r)
		}
	}
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()

	for _, tc := range []struct {
		name string
		cap  int
	}{{"analysed", 0}, {"cap", 10}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			mgr := NewManager(reg, ManagerOptions{AnalysisMaxFingerprints: tc.cap})
			defer mgr.Close()
			info, err := reg.Ingest(strings.NewReader(csv), "dups", table.Center, table.SpanDays)
			if err != nil {
				t.Fatal(err)
			}
			st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone {
				t.Fatalf("job finished %s: %s", final.State, final.Error)
			}
			span := analysisSpan(t, mgr, st.ID)
			if got, ok := span.Attrs["fingerprints"].(int); !ok || got != info.Users {
				t.Errorf("analysis span fingerprints = %v, want %d", span.Attrs["fingerprints"], info.Users)
			}
			if tc.cap > 0 {
				if final.AnonymousFraction != nil {
					t.Errorf("capped job reports anonymous fraction %g", *final.AnonymousFraction)
				}
				if span.Attrs["skipped"] != "cap" {
					t.Errorf("analysis span skipped = %v, want cap", span.Attrs["skipped"])
				}
				return
			}
			if _, ok := span.Attrs["skipped"]; ok {
				t.Errorf("analysis span skipped = %v", span.Attrs["skipped"])
			}
			src, _, _ := reg.SnapshotSource(info.ID)
			want := fullPassFraction(t, viewTable(t, src), 2)
			if want <= 0 || want >= 1 {
				t.Fatalf("reference fraction %g, want strictly between 0 and 1", want)
			}
			if final.AnonymousFraction == nil {
				t.Fatal("no anonymous fraction")
			}
			if got := *final.AnonymousFraction; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("anonymous fraction %v, full pass %v", got, want)
			}
		})
	}
}

// A follow job's anonymous fraction covers the windows it released, not
// the open window its feed already holds when follow_windows stops it.
func TestFollowAnonymousFractionCoversCommittedWindows(t *testing.T) {
	// In windows 0 and 1, a/b and c/d are exact twins, so every
	// committed fingerprint is 2-anonymous. Window 2 (never released)
	// separates a from b and adds e.
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for w := 0; w < 2; w++ {
		for _, u := range []string{"a", "b"} {
			fmt.Fprintf(&b, "%s,7.50,-5.50,%d\n", u, w*60+5)
		}
		for _, u := range []string{"c", "d"} {
			fmt.Fprintf(&b, "%s,7.90,-5.10,%d\n", u, w*60+20)
		}
	}
	b.WriteString("a,7.10,-5.90,130\nb,7.50,-5.50,125\ne,7.90,-5.10,140\n")

	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	info, err := reg.Ingest(strings.NewReader(b.String()), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true, FollowWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("follow job finished %s: %s", final.State, final.Error)
	}
	if len(final.Windows) != 2 {
		t.Fatalf("follow windows: %+v", final.Windows)
	}

	// Reference: the committed windows of the final feed, fused.
	src, _, _ := reg.SnapshotSource(info.ID)
	feed := viewTable(t, src)
	wins, err := feed.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	committed := &cdr.Table{Center: feed.Center, SpanDays: feed.SpanDays}
	for _, w := range wins {
		if w.Index <= 1 {
			committed.Records = append(committed.Records, w.Table.Records...)
		}
	}
	want := fullPassFraction(t, committed, 2)
	if want != 1 {
		t.Fatalf("committed-window reference fraction %g, want 1", want)
	}
	if whole := fullPassFraction(t, feed, 2); whole == want {
		t.Fatalf("whole-feed fraction %g equals the committed one; the feed does not tell them apart", whole)
	}
	if final.AnonymousFraction == nil {
		t.Fatal("no anonymous fraction")
	}
	if got := *final.AnonymousFraction; got != want {
		t.Errorf("anonymous fraction %g, want %g (committed windows only)", got, want)
	}
	if final.Linkage == nil || len(final.Linkage.Pairs) != 1 {
		t.Errorf("linkage over the two committed windows: %+v", final.Linkage)
	}
}

// The linkage cap bounds each committed window, not their sum: the
// probe costs O(probes × release size) per pair. Three one-hour windows
// of the same four subscribers sum to 12 users; a cap of 5 still
// reports linkage (and, with 4 distinct users, the k-gap), while a cap
// of 3 skips both and builds no analysis input.
func TestLinkageCapIsPerWindow(t *testing.T) {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for w := 0; w < 3; w++ {
		for i, u := range []string{"a", "b", "c", "d"} {
			fmt.Fprintf(&b, "%s,%.2f,-5.50,%d\n", u, 7.5+0.1*float64(i/2), w*60+5+i)
		}
	}
	for _, tc := range []struct {
		cap     int
		linkage bool
	}{{5, true}, {3, false}} {
		t.Run(fmt.Sprintf("cap=%d", tc.cap), func(t *testing.T) {
			reg := NewRegistry()
			mgr := NewManager(reg, ManagerOptions{AnalysisMaxFingerprints: tc.cap})
			defer mgr.Close()
			info, err := reg.Ingest(strings.NewReader(b.String()), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1})
			if err != nil {
				t.Fatal(err)
			}
			final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone || len(final.Windows) != 3 {
				t.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
			}
			span := analysisSpan(t, mgr, st.ID)
			if got := span.Attrs["fingerprints"]; got != 4 {
				t.Errorf("analysis span fingerprints = %v, want 4", got)
			}
			if !tc.linkage {
				if final.Linkage != nil || final.AnonymousFraction != nil {
					t.Errorf("capped job reports linkage %+v, fraction %v", final.Linkage, final.AnonymousFraction)
				}
				if _, built := span.Attrs["build_ms"]; built {
					t.Error("both analyses skipped, yet the input was built")
				}
				return
			}
			if final.Linkage == nil || len(final.Linkage.Pairs) != 2 || final.Linkage.Probed != 8 {
				t.Fatalf("linkage = %+v, want 2 pairs probing 4 shared subscribers each", final.Linkage)
			}
			if final.AnonymousFraction == nil {
				t.Error("no anonymous fraction for 4 users under a cap of 5")
			}
		})
	}
}

// BenchmarkAnalysisTail times the finish-time analysis of a
// windowed-week-shaped job (250 subscribers, 7 days, 24 h windows) with
// its allocations: selecting the committed windows' rows of the
// snapshot, the one dataset build, the thresholded k-gap pass and the
// cross-window linkage probe over the seven releases.
func BenchmarkAnalysisTail(b *testing.B) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	info := ingestSynth(b, reg, 250, 7)
	spec := JobSpec{DatasetID: info.ID, K: 2, WindowHours: 24, Workers: 2}
	st, err := mgr.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	final := waitForState(b, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone || len(final.Windows) != 7 {
		b.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
	}
	var indices, users []int
	var releases []*core.Dataset
	for _, w := range final.Windows {
		rel, err := mgr.WindowResult(st.ID, w.Index)
		if err != nil {
			b.Fatal(err)
		}
		out, err := cdr.ReadAnonymizedCSV(bytes.NewReader(storedCSV(b, rel)))
		if err != nil {
			b.Fatal(err)
		}
		indices = append(indices, w.Index)
		users = append(users, w.Users)
		releases = append(releases, out)
	}
	snap, _, _ := reg.SnapshotSource(info.ID)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac, link := mgr.analyze(ctx, obs.ActiveSpan{}, snap, spec.WindowDuration(), indices, slices.Max(users), releases, spec)
		if frac == nil || link == nil {
			b.Fatalf("analysis skipped: fraction %v, linkage %v", frac, link)
		}
	}
}
