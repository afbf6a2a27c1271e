package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

// windowCSV builds an append body whose records all land in 1 h window w
// (minutes [w*60, (w+1)*60)), one record per user at distinct minutes.
func windowCSV(w int, users ...string) string {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for i, u := range users {
		fmt.Fprintf(&b, "%s,7.5,-5.5,%d\n", u, w*60+i)
	}
	return b.String()
}

// releaseCSV renders one window release for byte comparison.
func releaseCSV(t *testing.T, mgr *Manager, jobID string, w int) []byte {
	t.Helper()
	rel, err := mgr.WindowResult(jobID, w)
	if err != nil {
		t.Fatalf("window %d of %s: %v", w, jobID, err)
	}
	return storedCSV(t, rel)
}

// coldRelease is the cold reference of the streaming tests: one window
// of the final feed (cdr.Table.SplitByWindow) anonymized on its own by
// the engine (core.AnonymizeContext), outside the service, and encoded
// for byte comparison.
func coldRelease(t *testing.T, w cdr.Window, spec JobSpec) []byte {
	t.Helper()
	original, err := w.Table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := core.AnonymizeContext(context.Background(), original, anonymizeOptions(spec, 1, nil))
	if err != nil {
		t.Fatalf("window %d: %v", w.Index, err)
	}
	var buf bytes.Buffer
	if err := cdr.WriteAnonymizedCSV(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A follow job's committed releases must be byte-identical to the
// corresponding windows of a cold windowed run over the final feed —
// the streaming pipeline is a strict incrementalization of the batch
// one, never a different algorithm. The reference is the engine run
// on each window (coldRelease), not the service executor the follow
// job itself runs on. The feed grows
// concurrently with the running job (exercising the append/snapshot
// race under -race), window 1 stays empty, and the job finishes on its
// follow_windows bound.
func TestFollowEqualsColdWindows(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		center := geo.LatLon{Lat: 7.54, Lon: -5.55}
		reg := NewRegistry()
		mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 2})
		defer mgr.Close()

		info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d")), "feed", center, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
			WindowHours: 1, Follow: true, FollowWindows: 2})
		if err != nil {
			t.Fatal(err)
		}

		// Grow the feed from a separate goroutine while the job runs:
		// more window-0 records, nothing in window 1, window 2, and
		// finally window 3 (which closes window 2 and ends the job at
		// its 2-release bound; empty window 1 must not count).
		appendErr := make(chan error, 1)
		go func() {
			for _, body := range []string{
				windowCSV(0, "e", "f"),
				windowCSV(2, "a", "b", "e", "g"),
				windowCSV(3, "c", "d"),
			} {
				if _, err := reg.Append(info.ID, strings.NewReader(body)); err != nil {
					appendErr <- err
					return
				}
			}
			appendErr <- nil
		}()
		if err := <-appendErr; err != nil {
			t.Fatal(err)
		}

		final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
		if final.State != JobDone {
			t.Fatalf("follow job finished %s: %s", final.State, final.Error)
		}
		if len(final.Windows) != 3 {
			t.Fatalf("follow windows: %+v", final.Windows)
		}
		wantStates := map[int]WindowState{0: WindowDone, 1: WindowEmpty, 2: WindowDone}
		for _, w := range final.Windows {
			if w.State != wantStates[w.Index] {
				t.Errorf("window %d is %q, want %q", w.Index, w.State, wantStates[w.Index])
			}
			if w.Progress != 1 {
				t.Errorf("terminal window %d progress %g, want 1", w.Index, w.Progress)
			}
		}
		if final.Progress != 1 {
			t.Errorf("done follow job progress %g, want 1", final.Progress)
		}
		// The explicit empty event reached the log, so a streaming
		// consumer can distinguish "no data" from "release pending".
		evs, _, ok := mgr.EventsSince(st.ID, 0)
		if !ok {
			t.Fatal("event log gone")
		}
		sawEmpty := false
		for _, e := range evs {
			if e.Window != nil && e.Window.Index == 1 && e.Window.State == WindowEmpty {
				sawEmpty = true
			}
		}
		if !sawEmpty {
			t.Error("no empty-window event for the gap window")
		}

		// Cold reference over the finished feed, outside the service:
		// windows 0 and 2 must match the follow releases byte for byte.
		src, _, _ := reg.SnapshotSource(info.ID)
		wins, err := viewTable(t, src).SplitByWindow(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wins {
			if w.Index != 0 && w.Index != 2 {
				continue
			}
			if !bytes.Equal(releaseCSV(t, mgr, st.ID, w.Index), coldRelease(t, w, final.Spec)) {
				t.Errorf("follow release for window %d differs from the cold windowed release", w.Index)
			}
		}
		// The empty window has no downloadable release.
		if _, err := mgr.WindowResult(st.ID, 1); err == nil {
			t.Error("empty window served a release")
		}
	})
}

// A window the job reads over several appends is fused from its
// fragments (colstore.Concat) and released exactly as the cold windowed
// run over the final feed releases it. Each append waits until the job
// has snapshotted the previous one, so window 0 reaches the executor as
// three fragments, the later ones bringing subscribers the first
// snapshot's dictionary lacks.
func TestFollowFusesWindowFragments(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b")), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true, FollowWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for version, body := range []string{
		windowCSV(0, "c", "d", "a"),
		windowCSV(0, "e", "b"),
		windowCSV(1, "a", "b"), // closes window 0
	} {
		waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.DatasetVersion == version+1 || s.State.Terminal() })
		if _, err := reg.Append(info.ID, strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("follow job finished %s: %s", final.State, final.Error)
	}
	if len(final.Windows) != 1 || final.Windows[0].Records != 7 || final.Windows[0].Users != 5 {
		t.Fatalf("fused window 0: %+v, want 7 records of 5 users", final.Windows)
	}

	src, _, _ := reg.SnapshotSource(info.ID)
	wins, err := viewTable(t, src).SplitByWindow(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(releaseCSV(t, mgr, st.ID, 0), coldRelease(t, wins[0], final.Spec)) {
		t.Error("fused window 0 release differs from the cold windowed release")
	}
}

// Cancelling a follow job keeps every committed release downloadable
// and publishes nothing for the window still open at the cancel.
func TestFollowCancellationKeepsCommittedReleases(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	// Closing window 0 commits it; window 1 stays open forever.
	if _, err := reg.Append(info.ID, strings.NewReader(windowCSV(1, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool {
		return s.State.Terminal() || (len(s.Windows) > 0 && s.Windows[0].State == WindowDone)
	})
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobCancelled {
		t.Fatalf("follow job finished %s (%s), want cancelled", final.State, final.Error)
	}
	rel, err := mgr.WindowResult(st.ID, 0)
	if err != nil {
		t.Fatalf("committed window lost after cancel: %v", err)
	}
	if err := core.ValidateKAnonymity(decodeRelease(t, rel), 2); err != nil {
		t.Errorf("committed window release: %v", err)
	}
	// Nothing partial for the open window, and no batch result.
	for _, w := range final.Windows {
		if w.Index == 0 {
			continue
		}
		if _, err := mgr.WindowResult(st.ID, w.Index); err == nil {
			t.Errorf("uncommitted window %d served a release", w.Index)
		}
	}
	if _, err := mgr.Result(st.ID); err == nil {
		t.Error("cancelled follow job served a batch result")
	}
}

// A follow job without a window bound only ever ends by cancellation,
// so the engine counters must take each release's work at its commit:
// while the job runs, and unchanged by the cancel.
func TestFollowCancelledJobCountsEngineWork(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	// Window-1 records close window 0, window-2 records close window 1;
	// window 2 stays open.
	for _, body := range []string{windowCSV(1, "a", "b", "c", "e"), windowCSV(2, "a", "b")} {
		if _, err := reg.Append(info.ID, strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	running := waitForState(t, mgr, st.ID, func(s JobStatus) bool {
		return s.State.Terminal() || (len(s.Windows) >= 2 && s.Windows[1].State == WindowDone)
	})
	if running.State.Terminal() {
		t.Fatalf("follow job finished %s (%s) before the cancel", running.State, running.Error)
	}
	var calls, merges int
	for _, w := range running.Windows[:2] {
		calls += w.Stats.EffortKernelCalls
		merges += w.Stats.Merges
	}
	check := func(when string) {
		t.Helper()
		fams := scrapeTelemetry(t, mgr.tel)
		if got := value(t, fams, "glove_effort_kernel_calls_total", nil); calls == 0 || got != float64(calls) {
			t.Errorf("%s: glove_effort_kernel_calls_total = %g, want the windows' %d > 0", when, got, calls)
		}
		if got := value(t, fams, "glove_merges_total", nil); got != float64(merges) {
			t.Errorf("%s: glove_merges_total = %g, want the windows' %d", when, got, merges)
		}
	}
	check("running")
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() }); final.State != JobCancelled {
		t.Fatalf("follow job finished %s (%s), want cancelled", final.State, final.Error)
	}
	check("cancelled")
}

// Records arriving for a window whose release is already committed must
// fail the job: republishing or silently dropping them would both break
// the release contract.
func TestFollowLateRecordsFailTheJob(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append(info.ID, strings.NewReader(windowCSV(1, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool {
		return s.State.Terminal() || (len(s.Windows) > 0 && s.Windows[0].State == WindowDone)
	})
	// A straggler lands in the already-released window 0.
	if _, err := reg.Append(info.ID, strings.NewReader(windowCSV(0, "late"))); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobFailed {
		t.Fatalf("follow job finished %s, want failed on late records", final.State)
	}
	if !strings.Contains(final.Error, "after its release was committed") {
		t.Errorf("unexpected failure: %s", final.Error)
	}
	// The release committed before the failure survives.
	if _, err := mgr.WindowResult(st.ID, 0); err != nil {
		t.Errorf("committed window lost after failure: %v", err)
	}
}

// Deleting the dataset under a blocked follow job wakes and fails it
// instead of leaving it asleep on a feed that no longer exists.
func TestFollowDatasetDeletionFailsTheJob(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State == JobRunning })
	if err := reg.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobFailed || !strings.Contains(final.Error, "disappeared") {
		t.Errorf("follow job finished %s (%s), want failed on deletion", final.State, final.Error)
	}
}

// The daemon-wide MaxFollowWindows clamps an unbounded follow job.
func TestFollowDaemonWindowCap(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxFollowWindows: 1})
	defer mgr.Close()

	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append(info.ID, strings.NewReader(windowCSV(1, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("capped follow job finished %s: %s", final.State, final.Error)
	}
	if len(final.Windows) != 1 || final.Windows[0].State != WindowDone {
		t.Errorf("capped follow windows: %+v", final.Windows)
	}
	// Exactly one release: the batch result endpoint serves it, like a
	// one-window windowed job.
	if _, err := mgr.Result(st.ID); err != nil {
		t.Errorf("single-release follow job has no result: %v", err)
	}
}

// Follow spec validation: the mode needs explicit windows, and a window
// bound without the mode is a contradiction.
func TestFollowSpecValidation(t *testing.T) {
	if err := (JobSpec{DatasetID: "d", K: 2, Follow: true}).Validate(); err == nil {
		t.Error("follow without window_hours accepted")
	}
	if err := (JobSpec{DatasetID: "d", K: 2, FollowWindows: 3}).Validate(); err == nil {
		t.Error("follow_windows without follow accepted")
	}
	if err := (JobSpec{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: -1}).Validate(); err == nil {
		t.Error("negative follow_windows accepted")
	}
	if err := (JobSpec{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: 3}).Validate(); err != nil {
		t.Errorf("valid follow spec rejected: %v", err)
	}

	// A follow submission on a feed currently below k is accepted — the
	// feed grows; each window is checked when it closes.
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxFollowWindows: 1})
	defer mgr.Close()
	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "only-one")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, WindowHours: 1, Follow: true}); err != nil {
		t.Errorf("follow on a below-k feed rejected at submission: %v", err)
	}
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2}); err == nil {
		t.Error("batch job on a below-k dataset accepted")
	}
}
