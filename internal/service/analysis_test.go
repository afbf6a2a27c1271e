package service

import (
	"bytes"
	"fmt"
	"math"
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

// analysisSpans returns the analysis spans of a job's trace, one per
// committed release, each a child of its window's span, in window order.
func analysisSpans(t *testing.T, mgr *Manager, id string) []*obs.Span {
	t.Helper()
	tr, err := mgr.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*obs.Span
	for _, w := range tr.Root.Children {
		if w.Kind == obs.SpanAnalysis {
			t.Fatalf("job %s has an analysis span under its root", id)
		}
		for _, c := range w.Children {
			if w.Kind == obs.SpanWindow && c.Kind == obs.SpanAnalysis {
				spans = append(spans, c)
			}
		}
	}
	if len(spans) == 0 {
		t.Fatalf("job %s has no analysis span under a window", id)
	}
	return spans
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
			span := analysisSpans(t, mgr, st.ID)[0]
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

	// Reference: each committed window of the final feed by the full
	// pass, weighted by its users.
	src, _, _ := reg.SnapshotSource(info.ID)
	feed := viewTable(t, src)
	wins, err := feed.SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var anon, users float64
	for _, w := range wins {
		if w.Index > 1 {
			continue
		}
		n := float64(w.Table.Users())
		wantAnon := fullPassFraction(t, w.Table, 2) * n
		if got := final.Windows[w.Index].Anonymous; got == nil || float64(*got) != wantAnon {
			t.Errorf("window %d anonymous = %v, want %g", w.Index, got, wantAnon)
		}
		anon += wantAnon
		users += n
	}
	want := anon / users
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

// The analysis cap bounds each committed window alike, not their sum:
// the k-gap and the linkage probe both run per window. Three one-hour
// windows of the same four subscribers sum to 12 users; a cap of 5
// still measures every window (two linkage pairs, every k-gap), while a
// cap of 3 skips every measurement but the accuracy.
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
			spans := analysisSpans(t, mgr, st.ID)
			if len(spans) != 3 {
				t.Fatalf("%d analysis spans, want one per window", len(spans))
			}
			for i, span := range spans {
				if got := span.Attrs["fingerprints"]; got != 4 {
					t.Errorf("window %d analysis span fingerprints = %v, want 4", i, got)
				}
				if skipped := span.Attrs["skipped"]; (skipped == "cap") == tc.linkage {
					t.Errorf("window %d analysis span skipped = %v under cap %d", i, skipped, tc.cap)
				}
			}
			for _, w := range final.Windows {
				if w.Accuracy == nil {
					t.Errorf("window %d reports no accuracy", w.Index)
				}
				if (w.Anonymous != nil) != tc.linkage || (w.Linkage != nil) != (tc.linkage && w.Index > 0) {
					t.Errorf("window %d under cap %d: anonymous %v, linkage %+v", w.Index, tc.cap, w.Anonymous, w.Linkage)
				}
			}
			if final.Accuracy == nil {
				t.Error("no job accuracy")
			}
			if !tc.linkage {
				if final.Linkage != nil || final.AnonymousFraction != nil {
					t.Errorf("capped job reports linkage %+v, fraction %v", final.Linkage, final.AnonymousFraction)
				}
				return
			}
			if final.Linkage == nil || len(final.Linkage.Pairs) != 2 || final.Linkage.Probed != 8 {
				t.Fatalf("linkage = %+v, want 2 pairs probing 4 shared subscribers each", final.Linkage)
			}
			if final.AnonymousFraction == nil {
				t.Error("no anonymous fraction for 4 users a window under a cap of 5")
			}
		})
	}
}

// BenchmarkReleaseQuality times what one window commit of a
// windowed-week-shaped job (250 subscribers, 24 h windows) adds to
// measure its release, with its allocations: the thresholded k-gap pass
// on the window's input, the linkage pair against the previous day's
// release, and the accuracy runs folded into the job's.
func BenchmarkReleaseQuality(b *testing.B) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	info := ingestSynth(b, reg, 250, 2)
	spec := JobSpec{DatasetID: info.ID, K: 2, WindowHours: 24, Workers: 2}
	snap, _, _ := reg.SnapshotSource(info.ID)
	var originals, releases []*core.Dataset
	for idx := 0; idx < 2; idx++ {
		v := committedWindow(snap, spec.WindowDuration(), idx)
		if v == nil {
			b.Fatalf("no window %d", idx)
		}
		orig, err := v.BuildDataset()
		if err != nil {
			b.Fatal(err)
		}
		rel, _, err := core.Anonymize(orig, anonymizeOptions(spec, spec.Workers, nil))
		if err != nil {
			b.Fatal(err)
		}
		originals, releases = append(originals, orig), append(releases, rel)
	}
	_, acc, prev := mgr.measureRelease(obs.ActiveSpan{}, 0, originals[0], releases[0], nil, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, runs, _ := mgr.measureRelease(obs.ActiveSpan{}, 1, originals[1], releases[1], prev, spec)
		if q.Anonymous == nil || q.Linkage == nil || q.Accuracy == nil {
			b.Fatalf("measurement skipped: %+v", q)
		}
		total := acc
		total.Fold(runs)
	}
}
