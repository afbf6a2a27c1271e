package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

// --- Registry: append, versioning, and the record-cap boundary. ---

func csvBody(users ...string) string {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for i, u := range users {
		fmt.Fprintf(&b, "%s,7.5,-5.5,%d\n", u, i)
	}
	return b.String()
}

// The cap must bind before any record is buffered past it: exactly
// MaxRecords is accepted, one more is rejected — on ingestion and on
// append alike — and a failed append leaves the dataset untouched.
func TestRegistryMaxRecordsBoundary(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}

	reg := NewRegistry()
	reg.MaxRecords = 3
	if _, err := reg.Ingest(strings.NewReader(csvBody("a", "b", "c")), "full", center, 1); err != nil {
		t.Fatalf("ingest at exactly the cap rejected: %v", err)
	}
	if _, err := reg.Ingest(strings.NewReader(csvBody("a", "b", "c", "d")), "over", center, 1); err == nil {
		t.Fatal("ingest one past the cap accepted")
	}

	info, err := reg.Ingest(strings.NewReader(csvBody("a", "b")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Append up to the cap succeeds and bumps the version.
	info2, err := reg.Append(info.ID, strings.NewReader(csvBody("c")))
	if err != nil {
		t.Fatalf("append to exactly the cap rejected: %v", err)
	}
	if info2.Records != 3 || info2.Version != 2 {
		t.Errorf("after append: records %d version %d, want 3 / 2", info2.Records, info2.Version)
	}
	// One past the cap fails and leaves records and version unchanged.
	if _, err := reg.Append(info.ID, strings.NewReader(csvBody("d"))); err == nil {
		t.Fatal("append past the cap accepted")
	}
	got, _ := reg.Get(info.ID)
	if got.Records != 3 || got.Version != 2 {
		t.Errorf("failed append mutated dataset: records %d version %d", got.Records, got.Version)
	}
}

func TestRegistryAppend(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	reg := NewRegistry()
	info, err := reg.Ingest(strings.NewReader(csvBody("a", "b")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Users != 2 {
		t.Fatalf("fresh dataset version %d users %d, want 1 / 2", info.Version, info.Users)
	}

	// Appends bump the monotone version and merge the user set.
	info, err = reg.Append(info.ID, strings.NewReader(csvBody("b", "c")))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Records != 4 || info.Users != 3 {
		t.Errorf("after append: version %d records %d users %d, want 2 / 4 / 3", info.Version, info.Records, info.Users)
	}

	// Records past the nominal span extend it: minute 3000 is day 3.
	info, err = reg.Append(info.ID, strings.NewReader("user,lat,lon,minute\nd,7.5,-5.5,3000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if info.SpanDays != 3 {
		t.Errorf("span_days = %d after a day-3 append, want 3", info.SpanDays)
	}

	if _, err := reg.Append("ds-does-not-exist", strings.NewReader(csvBody("x"))); err == nil {
		t.Error("append to unknown dataset accepted")
	}
	if _, err := reg.Append(info.ID, strings.NewReader("user,lat,lon,minute\n")); err == nil {
		t.Error("empty append accepted")
	}
	if _, err := reg.Append(info.ID, strings.NewReader("garbage")); err == nil {
		t.Error("malformed append accepted")
	}
	got, _ := reg.Get(info.ID)
	if got.Version != 3 || got.Records != 5 {
		t.Errorf("failed appends mutated dataset: %+v", got)
	}
}

// --- Manager: snapshot isolation, retention, windowed execution. ---

// Appends racing a running job must not leak into it: the job
// anonymizes the snapshot version it started from, and the status
// reports that version.
func TestJobAnonymizesSnapshotVersion(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info := ingestSynth(t, reg, 300, 2)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the run has taken its snapshot, then grow the feed.
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.DatasetVersion != 0 || s.State.Terminal() })
	if _, err := reg.Append(info.ID, strings.NewReader(csvBody("late-1", "late-2"))); err != nil {
		t.Fatal(err)
	}
	upd, _ := reg.Get(info.ID)
	if upd.Version != 2 || upd.Users != info.Users+2 {
		t.Fatalf("append not applied: %+v", upd)
	}

	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.DatasetVersion != 1 {
		t.Errorf("job anonymized version %d, want the snapshot version 1", final.DatasetVersion)
	}
	if final.Stats.InputUsers != info.Users {
		t.Errorf("job saw %d users, want the snapshot's %d", final.Stats.InputUsers, info.Users)
	}

	// A second job sees the appended feed.
	st2, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitForState(t, mgr, st2.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final2.State != JobDone {
		t.Fatalf("second job finished %s: %s", final2.State, final2.Error)
	}
	if final2.DatasetVersion != 2 || final2.Stats.InputUsers != info.Users+2 {
		t.Errorf("second job version %d users %d, want 2 / %d",
			final2.DatasetVersion, final2.Stats.InputUsers, info.Users+2)
	}
}

// The retention policy evicts the oldest-finished jobs beyond the cap,
// dropping the manager's reference to their results so a resident
// daemon does not grow without bound.
func TestManagerRetentionEvictsOldestFinished(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxFinishedJobs: 2})
	defer mgr.Close()

	info := ingestSynth(t, reg, 20, 1)
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
		if final.State != JobDone {
			t.Fatalf("job %d finished %s: %s", i, final.State, final.Error)
		}
		ids = append(ids, st.ID)
	}

	if _, ok := mgr.Get(ids[0]); ok {
		t.Errorf("oldest finished job %s survived a cap of 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := mgr.Get(id); !ok {
			t.Errorf("recent job %s evicted", id)
		}
	}
	if _, err := mgr.Result(ids[0]); err == nil {
		t.Error("evicted job still serves its result")
	}
	// Eviction frees the result: the manager holds no reference to the
	// evicted job (or its retained dataset) anywhere.
	mgr.mu.Lock()
	_, held := mgr.jobs[ids[0]]
	n := len(mgr.jobs)
	mgr.mu.Unlock()
	if held || n != 2 {
		t.Errorf("manager still holds evicted job (held=%v, %d jobs)", held, n)
	}
}

func TestManagerRetentionByAge(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxFinishedJobs: -1, MaxFinishedAge: 10 * time.Millisecond})
	defer mgr.Close()

	info := ingestSynth(t, reg, 20, 1)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	time.Sleep(20 * time.Millisecond)
	// Age-based retention is enforced lazily on ListPage.
	if page, _, _ := mgr.ListPage("", 10); len(page) != 0 {
		t.Errorf("%d jobs retained after expiry, want 0", len(page))
	}
	if _, ok := mgr.Get(st.ID); ok {
		t.Error("expired job still served")
	}
}

// A windowed job over a dataset whose span fits one window must produce
// a byte-identical CSV to the plain batch job — the invariant that
// makes the windowed pipeline a strict generalization of the batch one.
func TestWindowedSingleWindowByteIdentical(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 2})
	defer mgr.Close()

	info := ingestSynth(t, reg, 50, 2) // spans 2 days
	batch, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 72 h covers the whole 2-day span in window 0.
	windowed, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 2, WindowHours: 72})
	if err != nil {
		t.Fatal(err)
	}
	bst := waitForState(t, mgr, batch.ID, func(s JobStatus) bool { return s.State.Terminal() })
	wst := waitForState(t, mgr, windowed.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if bst.State != JobDone || wst.State != JobDone {
		t.Fatalf("jobs finished %s / %s (%s %s)", bst.State, wst.State, bst.Error, wst.Error)
	}
	if len(wst.Windows) != 1 || wst.Windows[0].State != WindowDone {
		t.Fatalf("windowed job windows: %+v", wst.Windows)
	}

	csv := func(id string) []byte {
		rel, err := mgr.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return storedCSV(t, rel)
	}
	if !bytes.Equal(csv(batch.ID), csv(windowed.ID)) {
		t.Error("single-window release differs from the batch release")
	}
	// The same bytes are served through the per-window download.
	wrel, err := mgr.WindowResult(windowed.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedCSV(t, wrel), csv(batch.ID)) {
		t.Error("window 0 release differs from the batch release")
	}
	// The batch job reports what the one-window job does, minus the
	// windows list: both run the same one-window pipeline.
	stats := func(st JobStatus) core.GloveStats {
		if st.Stats == nil {
			t.Fatalf("job %s has no stats", st.ID)
		}
		s := *st.Stats
		s.IndexBuildNanos, s.MergeNanos = 0, 0
		return s
	}
	if stats(bst) != stats(wst) {
		t.Errorf("stats: batch %+v, one-window %+v", stats(bst), stats(wst))
	}
	if !reflect.DeepEqual(bst.Accuracy, wst.Accuracy) {
		t.Errorf("accuracy: batch %+v, one-window %+v", bst.Accuracy, wst.Accuracy)
	}
	if bst.AnonymousFraction == nil || !reflect.DeepEqual(bst.AnonymousFraction, wst.AnonymousFraction) {
		t.Errorf("anonymous fraction: batch %v, one-window %v", bst.AnonymousFraction, wst.AnonymousFraction)
	}
	if bst.Shards != wst.Shards || bst.Plan == nil || !reflect.DeepEqual(bst.Plan, wst.Plan) {
		t.Errorf("plan: batch %d shards %+v, one-window %d shards %+v", bst.Shards, bst.Plan, wst.Shards, wst.Plan)
	}
	if len(bst.Windows) != 0 {
		t.Errorf("batch job lists windows: %+v", bst.Windows)
	}
}

// Cancelling a windowed job mid-window publishes no partial release:
// windows committed before the cancel stay downloadable (they are
// complete, validated releases), the interrupted window yields nothing.
func TestWindowedCancellationLeavesNoPartialRelease(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info := ingestSynth(t, reg, 500, 4) // 4 days -> two 48 h windows
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first window committed and a later one is running,
	// then cancel. If the job outruns the test, skip rather than flake.
	cur := waitForState(t, mgr, st.ID, func(s JobStatus) bool {
		if s.State.Terminal() {
			return true
		}
		return len(s.Windows) > 1 && s.Windows[0].State == WindowDone
	})
	if cur.State.Terminal() {
		t.Skipf("job reached %s before the cancel window", cur.State)
	}
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobCancelled {
		t.Fatalf("job finished %s, want cancelled", final.State)
	}

	// The committed window remains a complete release...
	rel, err := mgr.WindowResult(st.ID, final.Windows[0].Index)
	if err != nil {
		t.Fatalf("committed window lost after cancel: %v", err)
	}
	if err := core.ValidateKAnonymity(decodeRelease(t, rel), 2); err != nil {
		t.Errorf("committed window release: %v", err)
	}
	// ...and no later window published anything; interrupted windows
	// land in "aborted", never a forever-"running" limbo.
	for _, w := range final.Windows[1:] {
		if w.State == WindowDone {
			continue // finished before the cancel landed; still a full release
		}
		if w.State != WindowAborted {
			t.Errorf("interrupted window %d is %q, want aborted", w.Index, w.State)
		}
		if _, err := mgr.WindowResult(st.ID, w.Index); err == nil {
			t.Errorf("uncommitted window %d served a release", w.Index)
		}
	}
	// The batch result endpoint serves nothing for a cancelled job.
	if _, err := mgr.Result(st.ID); err == nil {
		t.Error("cancelled job served a batch result")
	}
}

// The frozen mode of the window executor keeps what windowed jobs have
// always done, case by case: a too-sparse window anywhere in the
// snapshot fails the job before any window runs or publishes; windows
// without records are omitted however far apart the non-empty ones lie
// (no empty windows, no follow gap guard); and progress is weighted
// over the whole layout, so it cannot read 1 before the last window
// commits.
func TestWindowedFrozenLayout(t *testing.T) {
	far := maxFollowGap + 5
	cases := []struct {
		name  string
		feed  []string // ingest body, then appends, all before submission
		check func(t *testing.T, mgr *Manager, final JobStatus, evs []api.JobEvent)
	}{
		{
			name: "sparse later window fails before any window runs",
			feed: []string{windowCSV(0, "a", "b", "c", "d"), windowCSV(1, "a", "b", "c"), windowCSV(2, "z")},
			check: func(t *testing.T, mgr *Manager, final JobStatus, evs []api.JobEvent) {
				if final.State != JobFailed || !strings.Contains(final.Error, "window 2") {
					t.Fatalf("job finished %s (%s), want failed on window 2", final.State, final.Error)
				}
				if len(final.Windows) != 3 {
					t.Errorf("windows = %+v, want the whole 3-window layout", final.Windows)
				}
				for _, e := range evs {
					if e.Window != nil && (e.Window.State == WindowRunning || e.Window.State == WindowDone) {
						t.Errorf("window %d reached %s before the sparse window failed the job", e.Window.Index, e.Window.State)
					}
				}
				for _, w := range final.Windows {
					if _, err := mgr.WindowResult(final.ID, w.Index); err == nil {
						t.Errorf("window %d published a release", w.Index)
					}
				}
			},
		},
		{
			name: "gap past the follow guard lists only non-empty windows",
			feed: []string{windowCSV(0, "a", "b", "c"), windowCSV(far, "a", "b", "c")},
			check: func(t *testing.T, mgr *Manager, final JobStatus, evs []api.JobEvent) {
				if final.State != JobDone {
					t.Fatalf("job finished %s: %s", final.State, final.Error)
				}
				if len(final.Windows) != 2 || final.Windows[0].Index != 0 || final.Windows[1].Index != far {
					t.Fatalf("windows = %+v, want exactly 0 and %d", final.Windows, far)
				}
				for _, w := range final.Windows {
					if w.State != WindowDone {
						t.Errorf("window %d is %s, want done", w.Index, w.State)
					}
				}
			},
		},
		{
			name: "progress stays below 1 until the last window commits",
			feed: []string{
				windowCSV(0, "a", "b", "c", "d", "e", "f"),
				windowCSV(1, "a", "b", "c", "d", "e", "f"),
				windowCSV(2, "a", "b", "c", "d", "e", "f"),
			},
			check: func(t *testing.T, mgr *Manager, final JobStatus, evs []api.JobEvent) {
				if final.State != JobDone || len(final.Windows) != 3 {
					t.Fatalf("job finished %s with windows %+v: %s", final.State, final.Windows, final.Error)
				}
				done := 0
				for _, e := range evs {
					if e.Window != nil && e.Window.State == WindowDone {
						done++
					}
					if e.Type == api.EventProgress && e.Progress >= 1 && done < len(final.Windows) {
						t.Errorf("progress %g reported after %d of %d windows committed", e.Progress, done, len(final.Windows))
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			mgr := NewManager(reg, ManagerOptions{})
			defer mgr.Close()
			info, err := reg.Ingest(strings.NewReader(tc.feed[0]), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range tc.feed[1:] {
				if _, err := reg.Append(info.ID, strings.NewReader(body)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1})
			if err != nil {
				t.Fatal(err)
			}
			final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			evs, _, _ := mgr.EventsSince(st.ID, 0)
			tc.check(t, mgr, final, evs)
		})
	}
}

// --- HTTP: the full continuous-release scenario of the acceptance
// criteria: append over the wire, a 3-window job, three independently
// k-anonymous releases, and the linkage counters on /metrics. ---

func TestServerContinuousRelease(t *testing.T) {
	srv, _ := newTestServer(t)
	const k = 2

	table := synthTable(t, 60, 3) // 3 days -> three 24 h windows
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/datasets?name=feed&lat=%g&lon=%g&days=%d",
		srv.URL, table.Center.Lat, table.Center.Lon, table.SpanDays)
	resp, err := http.Post(url, "text/csv", bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ds DatasetInfo
	json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || ds.Version != 1 {
		t.Fatalf("ingest: status %d version %d", resp.StatusCode, ds.Version)
	}

	// Stream an append over the wire; the version counter is monotone.
	resp, err = http.Post(srv.URL+"/v1/datasets/"+ds.ID+"/records", "text/csv",
		strings.NewReader(csvBody("fresh-a", "fresh-b")))
	if err != nil {
		t.Fatal(err)
	}
	var upd DatasetInfo
	json.NewDecoder(resp.Body).Decode(&upd)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || upd.Version != 2 || upd.Records != ds.Records+2 {
		t.Fatalf("append: status %d info %+v", resp.StatusCode, upd)
	}
	resp, _ = http.Post(srv.URL+"/v1/datasets/nope/records", "text/csv", strings.NewReader(csvBody("x")))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("append to unknown dataset: status %d", resp.StatusCode)
	}

	// Submit a 24 h windowed job.
	spec, _ := json.Marshal(JobSpec{DatasetID: ds.ID, K: k, WindowHours: 24})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s at %.2f", job.State, job.Progress)
		}
		getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &job)
		time.Sleep(2 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	if job.DatasetVersion != 2 {
		t.Errorf("job anonymized version %d, want 2", job.DatasetVersion)
	}
	if len(job.Windows) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(job.Windows), job.Windows)
	}

	// Three independently k-anonymous releases, one per window.
	for _, w := range job.Windows {
		if w.State != WindowDone || w.Progress != 1 || w.Stats == nil || w.Groups < 1 {
			t.Errorf("window %d not completed: %+v", w.Index, w)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/windows/%d/result", srv.URL, job.ID, w.Index))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d download: status %d, %v", w.Index, resp.StatusCode, err)
		}
		rel, err := cdr.ReadAnonymizedCSV(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateKAnonymity(rel, k); err != nil {
			t.Errorf("window %d release: %v", w.Index, err)
		}
		if rel.Users() != w.Users {
			t.Errorf("window %d release hides %d users, want %d", w.Index, rel.Users(), w.Users)
		}
	}

	// The batch result endpoint refuses a multi-window job.
	resp = getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("multi-window batch result: status %d", resp.StatusCode)
	}
	// A window index the job will never have is a permanent 404, not a
	// retryable conflict.
	resp = getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/windows/99/result", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown window: status %d", resp.StatusCode)
	}

	// The linkage metric is reported per job and aggregated in metrics.
	if job.Linkage == nil {
		t.Fatal("cross-window linkage missing from the finished job")
	}
	if len(job.Linkage.Pairs) != 2 {
		t.Errorf("linkage pairs = %d, want 2 consecutive pairs", len(job.Linkage.Pairs))
	}
	// A batch job runs as one internal window, which is no window
	// release.
	batch := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: k})
	waitJobDone(t, srv.URL, batch.ID)
	fams := scrape(t, srv.URL)
	if got := value(t, fams, "glove_window_releases_total", nil); got != 3 {
		t.Errorf("glove_window_releases_total = %g, want 3", got)
	}
	// The linkage counters sum the windowed job's pairs; the batch job's
	// one release has no previous release to pair with.
	if got := value(t, fams, "glove_linkage_probed_total", nil); got != float64(job.Linkage.Probed) {
		t.Errorf("glove_linkage_probed_total = %g, want the job's %d", got, job.Linkage.Probed)
	}
	if got := value(t, fams, "glove_linkage_linked_total", nil); got != float64(job.Linkage.Linked) {
		t.Errorf("glove_linkage_linked_total = %g, want the job's %d", got, job.Linkage.Linked)
	}
}

func TestJobSpecWindowValidation(t *testing.T) {
	bad := JobSpec{DatasetID: "ds-1", K: 2, WindowHours: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative window_hours accepted")
	}
	good := JobSpec{DatasetID: "ds-1", K: 2, WindowHours: 12.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid windowed spec rejected: %v", err)
	}
	if got := good.WindowDuration(); got != 12*time.Hour+30*time.Minute {
		t.Errorf("WindowDuration = %v", got)
	}
}
