package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// qualityJSON renders a release's measurements for failure messages.
func qualityJSON(q ReleaseQuality) string {
	b, _ := json.Marshal(q)
	return string(b)
}

// summaryBits renders a summary with every float's exact bits.
func summaryBits(s *metrics.Summary) string {
	if s == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%b", *s)
}

// reRunReleases re-runs every done window of a finished job through the
// executor's own stages (planShards, runShards) on the dataset's
// current snapshot, and returns the releases in window order: the
// in-memory datasets the job measured, not their rounded CSV. Each must
// encode to the bytes the job stored.
func reRunReleases(t *testing.T, mgr *Manager, reg *Registry, st JobStatus) []*core.Dataset {
	t.Helper()
	snap, _, ok := reg.SnapshotSource(st.Spec.DatasetID)
	if !ok {
		t.Fatal("dataset gone")
	}
	windows := st.Windows
	if batchJob(st.Spec) {
		windows = []WindowStatus{{Index: 0, State: WindowDone}}
	}
	var out []*core.Dataset
	for _, w := range windows {
		if w.State != WindowDone {
			continue
		}
		v := committedWindow(snap, st.Spec.WindowDuration(), w.Index)
		rel, _, _, err := runShards(t.Context(), planShards(v, v.NumUsers(), st.Spec.K, st.Spec.Shards), st.Spec, nil, obs.ActiveSpan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cdr.WriteAnonymizedCSV(&buf, rel); err != nil {
			t.Fatal(err)
		}
		stored, err := mgr.Result(st.ID)
		if !batchJob(st.Spec) {
			stored, err = mgr.WindowResult(st.ID, w.Index)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), storedCSV(t, stored)) {
			t.Fatalf("window %d: the re-run release differs from the stored one", w.Index)
		}
		out = append(out, rel)
	}
	return out
}

// checkAccuracy pins a finished job's accuracy, and each window's, to
// metrics.Measure of its releases, bit for bit.
func checkAccuracy(t *testing.T, final JobStatus, releases []*core.Dataset) {
	t.Helper()
	var all []*core.Fingerprint
	done := 0
	for _, rel := range releases {
		all = append(all, rel.Fingerprints...)
	}
	want, err := metrics.Measure(core.NewDataset(all)).Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryBits(final.Accuracy); got != summaryBits(&want) {
		t.Errorf("job accuracy %+v, Measure of the concatenated releases %+v", final.Accuracy, want)
	}
	for _, w := range final.Windows {
		if w.State != WindowDone {
			continue
		}
		want, err := metrics.Measure(releases[done]).Summarize()
		if err != nil {
			t.Fatal(err)
		}
		if summaryBits(w.Accuracy) != summaryBits(&want) {
			t.Errorf("window %d accuracy %+v, Measure of its release %+v", w.Index, w.Accuracy, want)
		}
		done++
	}
}

// A job's accuracy folds its releases' accuracy runs at their commits;
// the summary equals metrics.Measure of the concatenated releases bit
// for bit, for batch and windowed jobs, one shard or two, and for a job
// resumed after a crash from its raw journal or from a checkpoint, whose
// recovered releases' runs come from their frames. A resumed job's
// per-window measurements, linkage pairs included, and its aggregates
// equal an uninterrupted run's on the same feed: the synthetic feed's
// fractional minutes make a release's CSV round its extents, so these
// fail if a resumed run measures a decoded release.
func TestJobAccuracyEqualsMeasureOfReleases(t *testing.T) {
	table := synthTable(t, 40, 3)
	var csv bytes.Buffer
	if err := cdr.WriteCSV(&csv, table); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{K: 2, Workers: 1, Shards: 1},
		{K: 3, Workers: 2, Shards: 2},
		{K: 2, Workers: 1, Shards: 1, WindowHours: 24},
		{K: 2, Workers: 2, Shards: 2, WindowHours: 24},
	} {
		t.Run(fmt.Sprintf("k%d-shards%d-window%g", spec.K, spec.Shards, spec.WindowHours), func(t *testing.T) {
			reg := NewRegistry()
			mgr := NewManager(reg, ManagerOptions{})
			defer mgr.Close()
			info, err := reg.Ingest(bytes.NewReader(csv.Bytes()), "synthetic", table.Center, table.SpanDays)
			if err != nil {
				t.Fatal(err)
			}
			spec.DatasetID = info.ID
			st, err := mgr.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone {
				t.Fatalf("job finished %s: %s", final.State, final.Error)
			}
			checkAccuracy(t, final, reRunReleases(t, mgr, reg, final))
		})
	}

	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("resumed/checkpoint=%v", checkpoint), func(t *testing.T) {
			spec := JobSpec{K: 2, Workers: 2, Shards: 2, WindowHours: 24}
			dir := t.TempDir()
			jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
			info, err := reg.Ingest(bytes.NewReader(csv.Bytes()), "synthetic", table.Center, table.SpanDays)
			if err != nil {
				t.Fatal(err)
			}
			// A follow job on a feed that never closes a window, journaled
			// ahead of the measured job: it is never terminal, so every
			// later life requeues it first.
			blocker, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, WindowHours: 1000, Follow: true})
			if err != nil {
				t.Fatal(err)
			}
			spec.DatasetID = info.ID
			st, err := mgr.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State == JobDone })
			mgr.Drain(0)
			crashClose(mgr, reg, jrnl)
			// A crash between windows 1 and 2.
			cutJournalAfterWindow(t, dir, st.ID, 1)
			if checkpoint {
				// On one executor the blocker runs and the resumed job stays
				// queued, so the checkpoint captures it with its two
				// recovered releases.
				jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
				waitForState(t, mgr, blocker.ID, func(s JobStatus) bool { return s.State == JobRunning })
				mgr.Drain(0)
				if got, _ := mgr.Get(st.ID); got.State != JobQueued || len(got.Windows) != 2 {
					t.Fatalf("job at the checkpoint: %s with %d windows, want queued with 2", got.State, len(got.Windows))
				}
				if err := jrnl.Checkpoint(reg, mgr); err != nil {
					t.Fatal(err)
				}
				crashClose(mgr, reg, jrnl)
			}

			jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
			defer crashClose(mgr2, reg2, jrnl2)
			final := waitForState(t, mgr2, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone || len(final.Windows) != 3 {
				t.Fatalf("resumed job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
			}
			checkAccuracy(t, final, reRunReleases(t, mgr2, reg2, final))

			creg := NewRegistry()
			cmgr := NewManager(creg, ManagerOptions{})
			defer cmgr.Close()
			cinfo, err := creg.Ingest(bytes.NewReader(csv.Bytes()), "control", table.Center, table.SpanDays)
			if err != nil {
				t.Fatal(err)
			}
			cspec := spec
			cspec.DatasetID = cinfo.ID
			cst, err := cmgr.Submit(cspec)
			if err != nil {
				t.Fatal(err)
			}
			control := waitForState(t, cmgr, cst.ID, func(s JobStatus) bool { return s.State.Terminal() })
			for i, w := range final.Windows {
				if !reflect.DeepEqual(w.ReleaseQuality, control.Windows[i].ReleaseQuality) {
					t.Errorf("window %d quality %s, uninterrupted %s", w.Index, qualityJSON(w.ReleaseQuality), qualityJSON(control.Windows[i].ReleaseQuality))
				}
			}
			if final.Linkage == nil || final.Linkage.Linked == 0 || !reflect.DeepEqual(final.Linkage, control.Linkage) {
				t.Errorf("linkage %+v, uninterrupted %+v", final.Linkage, control.Linkage)
			}
			if final.AnonymousFraction == nil || !reflect.DeepEqual(final.AnonymousFraction, control.AnonymousFraction) {
				t.Errorf("anonymous fraction %v, uninterrupted %v", final.AnonymousFraction, control.AnonymousFraction)
			}
		})
	}
}

// followFeedWindow is one hour of a synthetic follow feed: users
// u00..u19, each with 30 records on whole minutes at one of nine grid
// positions, so releases are large while their distinct extents, which
// a job's accuracy runs hold, stay few.
func followFeedWindow(w int) string {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for u := 0; u < 20; u++ {
		for i := 0; i < 30; i++ {
			p := (u*7 + i*(1+u%3) + w) % 9
			fmt.Fprintf(&b, "u%02d,%.2f,%.2f,%d\n", u, 7.5+0.01*float64(p/3), -5.5+0.01*float64(p%3), w*60+2*i)
		}
	}
	return b.String()
}

// A follow job keeps no committed release decoded: after runtime.GC, a
// follow job waiting with 50 committed windows holds well under half of
// what the releases of its windows 10..49 hold in memory more than one
// waiting with 10. Both feeds are ingested before either job starts, so
// the datasets' stores do not grow in between; what remains per window
// is its stored compressed release, its status, events and spans.
func TestFollowHeapStaysFlat(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	// feed ingests windows 0..last; a follow job over it commits every
	// window but the last, which stays open.
	feed := func(last int) DatasetInfo {
		var b strings.Builder
		for w := 0; w <= last; w++ {
			body := followFeedWindow(w)
			if w > 0 {
				body = strings.TrimPrefix(body, "user,lat,lon,minute\n")
			}
			b.WriteString(body)
		}
		info, err := reg.Ingest(strings.NewReader(b.String()), "feed", center, 3)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	short, long := feed(10), feed(50)
	heap := func() uint64 {
		// Twice: the first cycle only moves pooled buffers to the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// waiting runs a follow job until it has committed n windows and
	// waits for the feed to close the next, and reads the heap there,
	// with the run and everything it holds still live.
	waiting := func(info DatasetInfo, n int) (JobStatus, uint64) {
		st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1, Follow: true})
		if err != nil {
			t.Fatal(err)
		}
		st = waitForState(t, mgr, st.ID, func(s JobStatus) bool {
			return len(s.Windows) == n && s.Windows[n-1].State == WindowDone
		})
		return st, heap()
	}
	first, h10 := waiting(short, 10)
	if _, err := mgr.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, first.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if err := mgr.Remove(first.ID); err != nil {
		t.Fatal(err)
	}
	st, h50 := waiting(long, 50)

	// What the 40 releases of windows 10..49 hold decoded: their
	// samples alone.
	var samples int
	for _, w := range st.Windows[10:50] {
		samples += w.Stats.OutputSamples
	}
	released := uint64(samples) * uint64(unsafe.Sizeof(core.Sample{}))
	growth := int64(h50) - int64(h10)
	t.Logf("heap %d -> %d bytes (%+d) from 10 to 50 committed windows, whose releases 10..49 hold %d bytes of samples", h10, h50, growth, released)
	if growth > int64(released/2) {
		t.Errorf("heap grew %d bytes over 40 windows, more than half of their releases' %d bytes of samples", growth, released)
	}
}

// A follow job cancelled mid-stream reports the quality of every window
// it committed, each measured at its commit, and the job's aggregates
// over them; the window still open when it stopped is not measured.
func TestCancelledFollowReportsQuality(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	info, err := reg.Ingest(strings.NewReader(followFeedWindow(0)), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 3; w++ {
		if _, err := reg.Append(info.ID, strings.NewReader(followFeedWindow(w))); err != nil {
			t.Fatal(err)
		}
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool {
		return len(s.Windows) == 3 && s.Windows[2].State == WindowDone
	})
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobCancelled || len(final.Windows) != 3 {
		t.Fatalf("job %s with %d windows, want cancelled with 3", final.State, len(final.Windows))
	}
	var anon, users int
	for i, w := range final.Windows {
		if w.State != WindowDone || w.Anonymous == nil || w.Accuracy == nil || (w.Linkage == nil) != (i == 0) {
			t.Fatalf("window %d: %+v", w.Index, w)
		}
		if i > 0 && (w.Linkage.Window != i-1 || w.Linkage.Probed == 0) {
			t.Errorf("window %d linkage pair %+v", w.Index, w.Linkage)
		}
		anon += *w.Anonymous
		users += w.Users
	}
	if want := float64(anon) / float64(users); final.AnonymousFraction == nil || *final.AnonymousFraction != want {
		t.Errorf("anonymous fraction %v, want %g", final.AnonymousFraction, want)
	}
	if final.Linkage == nil || len(final.Linkage.Pairs) != 2 {
		t.Errorf("linkage %+v, want the two committed pairs", final.Linkage)
	}
	if final.Accuracy == nil || final.Accuracy.Samples != final.Windows[0].Accuracy.Samples+
		final.Windows[1].Accuracy.Samples+final.Windows[2].Accuracy.Samples {
		t.Errorf("accuracy %+v does not cover the three releases", final.Accuracy)
	}
}

// A resumed job whose recovered frames predate the quality fields
// reports no job aggregate it cannot cover — never a partial number —
// while the windows it commits after the restart are measured.
func TestResumeLegacyFramesReportNoPartialAggregates(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	feed := windowCSV(0, "a", "b", "c", "d") + strings.TrimPrefix(windowCSV(1, "a", "b", "c", "d"), "user,lat,lon,minute\n") +
		strings.TrimPrefix(windowCSV(2, "a", "b", "c", "d"), "user,lat,lon,minute\n")
	spec := JobSpec{K: 2, Workers: 1, Shards: 1, WindowHours: 1}

	// The frames of windows 0 and 1, as an older daemon journaled them:
	// taken from a finished run, stripped of their measurements.
	creg := NewRegistry()
	cmgr := NewManager(creg, ManagerOptions{})
	defer cmgr.Close()
	cinfo, err := creg.Ingest(strings.NewReader(feed), "control", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	cspec := spec
	cspec.DatasetID = cinfo.ID
	cst, err := cmgr.Submit(cspec)
	if err != nil {
		t.Fatal(err)
	}
	control := waitForState(t, cmgr, cst.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if control.State != JobDone || len(control.Windows) != 3 || control.AnonymousFraction == nil || control.Linkage == nil {
		t.Fatalf("control job: %+v", control)
	}
	cmgr.mu.Lock()
	cjob := cmgr.jobs[cst.ID]
	cmgr.mu.Unlock()
	captured, err := cjob.capture()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info, err := reg.Ingest(strings.NewReader(feed), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	spec.DatasetID = info.ID
	if err := jrnl.jobSubmitted(id, spec, control.CreatedAt); err != nil {
		t.Fatal(err)
	}
	for _, r := range captured.Results[:2] {
		legacy := r.Window
		legacy.ReleaseQuality, legacy.AccuracyRuns = ReleaseQuality{}, nil
		if err := jrnl.jobResult(id, legacy, r.CSV); err != nil {
			t.Fatal(err)
		}
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	final := waitForState(t, mgr2, id, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone || len(final.Windows) != 3 {
		t.Fatalf("resumed job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
	}
	for _, w := range final.Windows[:2] {
		if w.Anonymous != nil || w.Linkage != nil || w.Accuracy != nil {
			t.Errorf("legacy window %d reports quality %s", w.Index, qualityJSON(w.ReleaseQuality))
		}
	}
	if w := final.Windows[2]; !reflect.DeepEqual(w.ReleaseQuality, control.Windows[2].ReleaseQuality) {
		t.Errorf("window 2 measured after the restart: %s, uninterrupted %s", qualityJSON(w.ReleaseQuality), qualityJSON(control.Windows[2].ReleaseQuality))
	}
	if final.AnonymousFraction != nil || final.Linkage != nil || final.Accuracy != nil {
		t.Errorf("partial aggregates: anonymous fraction %v, linkage %+v, accuracy %+v",
			final.AnonymousFraction, final.Linkage, final.Accuracy)
	}
}
