package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/geo"
	"repro/internal/wal"
)

// bootService wires one daemon "life" against dir, in the exact order
// cmd/gloved does: open+replay the journal, restore the registry,
// construct the manager (journal attached at construction), restore
// jobs, then attach the registry journal.
func bootService(t *testing.T, dir string, mopt ManagerOptions) (*Journal, *Registry, *Manager, *RecoveredState) {
	t.Helper()
	if mopt.Telemetry == nil {
		mopt.Telemetry = NewTelemetry()
	}
	jrnl, rec, err := OpenJournal(dir, false, mopt.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Restore(rec); err != nil {
		t.Fatal(err)
	}
	mopt.Journal = jrnl
	mgr := NewManager(reg, mopt)
	if err := mgr.Restore(rec); err != nil {
		t.Fatal(err)
	}
	reg.AttachJournal(jrnl)
	return jrnl, reg, mgr, rec
}

// crashClose ends a boot the unclean way: executors reaped, journal
// closed, no checkpoint — what a kill -9 leaves on disk (minus the torn
// tail, which internal/wal covers separately).
func crashClose(mgr *Manager, reg *Registry, jrnl *Journal) {
	mgr.Close()
	reg.Close()
	jrnl.Close()
}

// sourceCSV renders a dataset snapshot through the canonical writer for
// byte comparison across restarts.
func sourceCSV(t *testing.T, reg *Registry, id string) []byte {
	t.Helper()
	src, _, ok := reg.SnapshotSource(id)
	if !ok {
		t.Fatalf("dataset %s gone", id)
	}
	var buf bytes.Buffer
	if err := cdr.WriteRecordsCSV(&buf, src.EachRecord); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalDatasetRoundTrip pins the registry half of recovery:
// create + append + delete survive an unclean shutdown byte-for-byte,
// and the ID sequence never reissues a dead dataset's ID.
func TestJournalDatasetRoundTrip(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		center := geo.LatLon{Lat: 7.54, Lon: -5.55}

		jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
		info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Append(info.ID, strings.NewReader(windowCSV(1, "a", "d"))); err != nil {
			t.Fatal(err)
		}
		doomed, err := reg.Ingest(strings.NewReader(windowCSV(0, "x", "y")), "doomed", center, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Delete(doomed.ID); err != nil {
			t.Fatal(err)
		}
		want := sourceCSV(t, reg, info.ID)
		wantInfo, _ := reg.Get(info.ID)
		crashClose(mgr, reg, jrnl)

		jrnl2, reg2, mgr2, rec := bootService(t, dir, ManagerOptions{})
		defer crashClose(mgr2, reg2, jrnl2)
		if rec.CleanShutdown {
			t.Error("unclean shutdown reported as clean")
		}
		list := reg2.List()
		if len(list) != 1 || list[0].ID != info.ID {
			t.Fatalf("recovered datasets: %+v", list)
		}
		got, _ := reg2.Get(info.ID)
		if got.Name != wantInfo.Name || got.Records != wantInfo.Records ||
			got.Users != wantInfo.Users || got.SpanDays != wantInfo.SpanDays {
			t.Errorf("recovered dataset %+v, want %+v", got, wantInfo)
		}
		if !bytes.Equal(sourceCSV(t, reg2, info.ID), want) {
			t.Error("recovered dataset records differ from the originals")
		}
		// The deleted dataset stays dead, and its ID is never reissued.
		if _, ok := reg2.Get(doomed.ID); ok {
			t.Error("deleted dataset came back")
		}
		next, err := reg2.Ingest(strings.NewReader(windowCSV(0, "p", "q")), "next", center, 1)
		if err != nil {
			t.Fatal(err)
		}
		if next.ID <= doomed.ID {
			t.Errorf("post-recovery ingest got ID %s, must be past %s", next.ID, doomed.ID)
		}
	})
}

// TestRegistryRejectsOutOfRangeMinutes pins the ingest boundary: a
// non-finite or out-of-range minute is refused with the invalid_argument
// envelope, and the refusal is atomic — no dataset, no appended record,
// no version bump, and nothing in the journal for a restart to replay,
// even when valid records precede the bad one.
func TestRegistryRejectsOutOfRangeMinutes(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		center := geo.LatLon{Lat: 7.54, Lon: -5.55}
		jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
		srv := httptest.NewServer(NewServer(reg, mgr))
		defer srv.Close()

		info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := sourceCSV(t, reg, info.ID)
		for _, minute := range []string{"NaN", "+Inf", "-Inf", "1e300"} {
			body := windowCSV(1, "d") + "e,7.5,-5.5," + minute + "\n"
			if _, err := reg.Ingest(strings.NewReader(body), "bad", center, 1); err == nil {
				t.Errorf("ingest with minute %s accepted", minute)
			}
			if _, err := reg.Append(info.ID, strings.NewReader(body)); err == nil {
				t.Errorf("append with minute %s accepted", minute)
			}
			for _, path := range []string{"/v1/datasets?lat=7.54&lon=-5.55&days=1", "/v1/datasets/" + info.ID + "/records"} {
				resp, err := http.Post(srv.URL+path, "text/csv", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var env api.Error
				json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || env.Code != api.CodeInvalidArgument {
					t.Errorf("POST %s with minute %s: status %d code %q, want 400 %q",
						path, minute, resp.StatusCode, env.Code, api.CodeInvalidArgument)
				}
			}
		}
		if list := reg.List(); len(list) != 1 {
			t.Errorf("rejected ingests registered datasets: %+v", list)
		}
		if got, _ := reg.Get(info.ID); got.Records != 3 || got.Version != 1 {
			t.Errorf("rejected appends mutated the dataset: %+v", got)
		}
		if !bytes.Equal(sourceCSV(t, reg, info.ID), want) {
			t.Error("rejected appends changed the dataset records")
		}
		crashClose(mgr, reg, jrnl)

		jrnl2, rec, err := OpenJournal(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer jrnl2.Close()
		if len(rec.Datasets) != 1 || len(rec.Datasets[0].Ops) != 1 {
			t.Errorf("journal holds rejected mutations: %d datasets, ops %d",
				len(rec.Datasets), len(rec.Datasets[0].Ops))
		}
	})
}

// TestJournalTerminalJobRestored pins the verbatim half of job
// recovery: a finished batch job comes back with an identical status,
// an identical event log, and a byte-identical downloadable release.
// So does a batch job journaled before batch jobs ran as one window,
// whose release frame is marked "batch", and a cancelled batch job.
func TestJournalTerminalJobRestored(t *testing.T) {
	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})

	table := synthTable(t, 30, 2)
	var csv bytes.Buffer
	if err := cdr.WriteCSV(&csv, table); err != nil {
		t.Fatal(err)
	}
	info, err := reg.Ingest(&csv, "batch", table.Center, table.SpanDays)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	wantStatus, _ := json.Marshal(final)
	wantEvents, _, _ := mgr.EventsSince(st.ID, 0)
	rel, err := mgr.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy job's frames, written by hand: submission, a "span"
	// event (a type no longer emitted), the "batch" release frame,
	// terminal status.
	const legacy = "job-000002"
	legacyStatus := final
	legacyStatus.ID = legacy
	if err := jrnl.jobSubmitted(legacy, final.Spec, final.CreatedAt); err != nil {
		t.Fatal(err)
	}
	const spanFrame = `{"kind":"job_event","id":"job-000002","event":{"seq":2,"type":"span","job_id":"job-000002","span":{"kind":"plan","duration_ms":1.5}}}`
	if err := jrnl.log.Append([]byte(spanFrame)); err != nil {
		t.Fatal(err)
	}
	if err := jrnl.jobResult(legacy, journalWindow{Batch: true, Stats: final.Stats}, storedCSV(t, rel)); err != nil {
		t.Fatal(err)
	}
	if err := jrnl.jobTerminalStatus(legacy, legacyStatus, nil); err != nil {
		t.Fatal(err)
	}
	// A batch job cancelled mid-run committed no release; its progress
	// survives all the same.
	const cancelled = "job-000003"
	cancelledStatus := final
	cancelledStatus.ID, cancelledStatus.State, cancelledStatus.Progress = cancelled, JobCancelled, 0.375
	cancelledStatus.Stats, cancelledStatus.Accuracy, cancelledStatus.AnonymousFraction = nil, nil, nil
	if err := jrnl.jobSubmitted(cancelled, final.Spec, final.CreatedAt); err != nil {
		t.Fatal(err)
	}
	if err := jrnl.jobTerminalStatus(cancelled, cancelledStatus, nil); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	if got, ok := mgr2.Get(legacy); !ok || got.State != JobDone || len(got.Windows) != 0 {
		t.Errorf("legacy batch job after restart: %+v (found %v), want done with no windows", got, ok)
	}
	if lrel, err := mgr2.Result(legacy); err != nil || !bytes.Equal(storedCSV(t, lrel), storedCSV(t, rel)) {
		t.Errorf("legacy batch job's restored release differs from the original bytes (%v)", err)
	}
	if evs, _, _ := mgr2.EventsSince(legacy, 0); len(evs) != 2 || evs[1].Seq != 2 || evs[1].Type != "span" {
		t.Errorf("legacy event log after restart: %+v, want queued plus the span frame at seq 2", evs)
	}
	if got, _ := mgr2.Get(cancelled); !reflect.DeepEqual(got, cancelledStatus) {
		t.Errorf("cancelled batch job after restart: %+v, want %+v", got, cancelledStatus)
	}
	got, ok := mgr2.Get(st.ID)
	if !ok {
		t.Fatal("terminal job gone after restart")
	}
	gotStatus, _ := json.Marshal(got)
	if !bytes.Equal(gotStatus, wantStatus) {
		t.Errorf("restored status differs:\n got %s\nwant %s", gotStatus, wantStatus)
	}
	gotEvents, _, ok := mgr2.EventsSince(st.ID, 0)
	if !ok {
		t.Fatal("restored event log gone")
	}
	ge, _ := json.Marshal(gotEvents)
	we, _ := json.Marshal(wantEvents)
	if !bytes.Equal(ge, we) {
		t.Errorf("restored event log differs:\n got %s\nwant %s", ge, we)
	}
	rel2, err := mgr2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedCSV(t, rel2), storedCSV(t, rel)) {
		t.Error("restored release differs from the original bytes")
	}
	if got := value(t, scrapeTelemetry(t, mgr2.tel), "glove_recovered_jobs_total", map[string]string{"outcome": "restored"}); got != 3 {
		t.Errorf(`glove_recovered_jobs_total{outcome="restored"} = %g, want 3`, got)
	}
}

// lastSegment reads and decodes the newest segment of the journal
// under dir: its path, bytes, frames, and the offset each frame ends at.
func lastSegment(t *testing.T, dir string) (string, []byte, []wal.Frame, []int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segment in %s (%v)", dir, err)
	}
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, n, torn, err := wal.Decode(data)
	if err != nil || torn || n != int64(len(data)) {
		t.Fatalf("segment %s: %d of %d bytes decoded, torn %v: %v", path, n, len(data), torn, err)
	}
	ends := make([]int64, len(frames))
	var off int64
	for i, f := range frames {
		off += int64(len(wal.AppendFrame(nil, f.Kind, f.Payload)))
		ends[i] = off
	}
	return path, data, frames, ends
}

// frameEntry decodes a record frame's journal entry.
func frameEntry(t *testing.T, f wal.Frame) journalEntry {
	t.Helper()
	var e journalEntry
	if err := json.Unmarshal(f.Payload, &e); err != nil {
		t.Fatal(err)
	}
	return e
}

// cutJournalAfterWindow truncates the journal under dir right after the
// release frame of window w of a job: what a crash between that window's
// commit and the next leaves on disk.
func cutJournalAfterWindow(t *testing.T, dir, jobID string, w int) {
	t.Helper()
	path, _, frames, ends := lastSegment(t, dir)
	for i, f := range frames {
		if f.Kind != wal.KindRecord {
			continue
		}
		if e := frameEntry(t, f); e.Kind == jeJobResult && e.ID == jobID && e.Window.Index == w {
			if err := os.Truncate(path, ends[i]); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no release frame of %s window %d", jobID, w)
}

// TestJournalFollowResumeByteIdentity is the crash-recovery acceptance
// test of the window executor, for follow and windowed jobs alike: the
// daemon dies between windows, the restart resumes the job after its
// last committed window, committed releases are never re-run or
// re-published, the in-flight window published nothing partial, and
// the continuation's releases and cross-window linkage are identical
// to an uninterrupted control run over the final feed.
func TestJournalFollowResumeByteIdentity(t *testing.T) {
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	cases := []struct {
		name string
		spec JobSpec
		// ingest is the feed at submission. advance drives the first
		// life until the windows in committed have committed and the job
		// waits on window inflight; without it the job runs to its end
		// and the crash is a journal cut right after the frame of the
		// last window in committed. finish drives the resumed run to its
		// end.
		ingest   []string
		advance  func(t *testing.T, mgr *Manager, reg *Registry, dsID, jobID string)
		finish   func(t *testing.T, reg *Registry, dsID string)
		inflight int
		// committed are the windows journaled before the crash, empty
		// ones included; releases are every window with a release at
		// the end, and pairs the linkage pair labels.
		committed, releases, pairs []int
	}{
		{
			name:   "follow",
			spec:   JobSpec{K: 2, Workers: 1, Shards: 1, WindowHours: 1, Follow: true, FollowWindows: 3},
			ingest: []string{windowCSV(0, "a", "b", "c", "d")},
			advance: func(t *testing.T, mgr *Manager, reg *Registry, dsID, jobID string) {
				// Window-2 records close window 0 and the empty window 1;
				// the job commits both, then waits for window 2 to close.
				if _, err := reg.Append(dsID, strings.NewReader(windowCSV(2, "a", "b"))); err != nil {
					t.Fatal(err)
				}
				waitForState(t, mgr, jobID, func(s JobStatus) bool {
					return len(s.Windows) == 2 && s.Windows[1].State == WindowEmpty
				})
			},
			finish: func(t *testing.T, reg *Registry, dsID string) {
				// Window 2's records were re-ingested by the dataset
				// restore; window-3 records close it, window-4 records
				// close window 3, whose commit meets the 3-release budget.
				for _, body := range []string{windowCSV(3, "c", "d"), windowCSV(4, "a", "b")} {
					if _, err := reg.Append(dsID, strings.NewReader(body)); err != nil {
						t.Fatal(err)
					}
				}
			},
			inflight:  2,
			committed: []int{0, 1},
			releases:  []int{0, 2, 3},
			pairs:     []int{0, 2},
		},
		{
			name: "windowed",
			spec: JobSpec{K: 2, Workers: 1, Shards: 1, WindowHours: 1},
			ingest: []string{
				windowCSV(0, "a", "b", "c", "d"), windowCSV(1, "a", "b", "c"),
				windowCSV(3, "a", "b", "c", "d"), windowCSV(4, "b", "c", "d"),
			},
			inflight:  3,
			committed: []int{0, 1},
			releases:  []int{0, 1, 3, 4},
			pairs:     []int{0, 1, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
			info, err := reg.Ingest(strings.NewReader(tc.ingest[0]), "feed", center, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range tc.ingest[1:] {
				if _, err := reg.Append(info.ID, strings.NewReader(body)); err != nil {
					t.Fatal(err)
				}
			}
			spec := tc.spec
			spec.DatasetID = info.ID
			st, err := mgr.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.advance != nil {
				tc.advance(t, mgr, reg, info.ID, st.ID)
				if _, err := mgr.WindowResult(st.ID, tc.inflight); err == nil {
					t.Fatal("the in-flight window served a release before the crash")
				}
			} else {
				waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State == JobDone })
			}
			// Drain with a zero budget cancels the running job suppressed
			// from the journal (crash-equivalent); no checkpoint is written.
			mgr.Drain(0)
			before := map[int][]byte{}
			for _, w := range tc.committed {
				if _, err := mgr.WindowResult(st.ID, w); err == nil {
					before[w] = releaseCSV(t, mgr, st.ID, w)
				}
			}
			if len(before) == 0 {
				t.Fatal("no release committed before the crash")
			}
			crashClose(mgr, reg, jrnl)
			if tc.advance == nil {
				cutJournalAfterWindow(t, dir, st.ID, tc.committed[len(tc.committed)-1])
			}

			jrnl2, reg2, mgr2, rec := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
			defer crashClose(mgr2, reg2, jrnl2)
			var recovered *RecoveredJob
			for _, rj := range rec.Jobs {
				if rj.ID == st.ID {
					recovered = rj
				}
			}
			if recovered == nil || !recovered.Requeue || len(recovered.Results) != len(tc.committed) {
				t.Fatalf("recovered job: %+v", recovered)
			}
			// Committed releases are downloadable before the resumed run
			// does anything, and are exactly the pre-crash bytes.
			for w, want := range before {
				if got := releaseCSV(t, mgr2, st.ID, w); !bytes.Equal(got, want) {
					t.Errorf("recovered window-%d release differs from the committed bytes", w)
				}
			}
			if got := value(t, scrapeTelemetry(t, mgr2.tel), "glove_recovered_jobs_total", map[string]string{"outcome": "resumed"}); got != 1 {
				t.Errorf(`glove_recovered_jobs_total{outcome="resumed"} = %g, want 1`, got)
			}

			if tc.finish != nil {
				tc.finish(t, reg2, info.ID)
			}
			final := waitForState(t, mgr2, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone {
				t.Fatalf("resumed job finished %s: %s", final.State, final.Error)
			}
			for w, want := range before {
				if got := releaseCSV(t, mgr2, st.ID, w); !bytes.Equal(got, want) {
					t.Errorf("window-%d release changed after the resumed run finished", w)
				}
			}
			// Exactly one done event per release across both lives of the
			// job, and no committed window ran again.
			evs, _, _ := mgr2.EventsSince(st.ID, 0)
			done, ran := map[int]int{}, map[int]bool{}
			for _, e := range evs {
				if e.Window == nil {
					continue
				}
				switch e.Window.State {
				case WindowDone:
					done[e.Window.Index]++
				case WindowRunning:
					ran[e.Window.Index] = true
				}
			}
			for _, w := range tc.releases {
				if done[w] != 1 {
					t.Errorf("window %d has %d done events, want exactly one", w, done[w])
				}
			}
			for _, w := range tc.committed {
				if ran[w] {
					t.Errorf("committed window %d ran again after the restart", w)
				}
			}

			// Uninterrupted control over the final feed on a fresh daemon:
			// every release and the linkage must match — a crash plus
			// resume is invisible in the output.
			creg := NewRegistry()
			cmgr := NewManager(creg, ManagerOptions{})
			defer cmgr.Close()
			cinfo, err := creg.Ingest(bytes.NewReader(sourceCSV(t, reg2, info.ID)), "control", center, 1)
			if err != nil {
				t.Fatal(err)
			}
			cspec := tc.spec
			cspec.DatasetID = cinfo.ID
			cst, err := cmgr.Submit(cspec)
			if err != nil {
				t.Fatal(err)
			}
			cfinal := waitForState(t, cmgr, cst.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if cfinal.State != JobDone {
				t.Fatalf("control job finished %s: %s", cfinal.State, cfinal.Error)
			}
			for _, w := range tc.releases {
				if !bytes.Equal(releaseCSV(t, mgr2, st.ID, w), releaseCSV(t, cmgr, cst.ID, w)) {
					t.Errorf("resumed release for window %d differs from the uninterrupted control", w)
				}
			}

			// Cross-window linkage over every release, pairs labeled with
			// absolute window indices.
			if final.Linkage == nil {
				t.Fatal("resumed job reports no cross-window linkage")
			}
			var labels []int
			for _, p := range final.Linkage.Pairs {
				labels = append(labels, p.Window)
			}
			if !reflect.DeepEqual(labels, tc.pairs) {
				t.Errorf("linkage pair windows = %v, want %v", labels, tc.pairs)
			}
			if !reflect.DeepEqual(final.Linkage, cfinal.Linkage) {
				t.Errorf("resumed linkage %+v differs from the control's %+v", final.Linkage, cfinal.Linkage)
			}
			// The linkage counters, like every counter, count only the
			// windows committed since the restart.
			var probed, linked int
			for _, w := range final.Windows {
				if w.State == WindowDone && !slices.Contains(tc.committed, w.Index) && w.Linkage != nil {
					probed += w.Linkage.Probed
					linked += w.Linkage.Linked
				}
			}
			fams := scrapeTelemetry(t, mgr2.tel)
			if got := value(t, fams, "glove_linkage_probed_total", nil); probed == 0 || got != float64(probed) {
				t.Errorf("glove_linkage_probed_total = %g, want %d > 0 probed since the restart", got, probed)
			}
			if got := value(t, fams, "glove_linkage_linked_total", nil); got != float64(linked) {
				t.Errorf("glove_linkage_linked_total = %g, want %d linked since the restart", got, linked)
			}
			if final.Linkage.Linked == 0 {
				t.Errorf("no probe re-linked (%+v); the comparison with the control shows nothing", final.Linkage)
			}

			// Each release's measurements, journaled at its commit or taken
			// after the restart, and the job's aggregates equal the
			// control's: a recovered release's original is rebuilt for the
			// first pair after the restart, and its accuracy folded from
			// its journaled bytes.
			if len(final.Windows) != len(cfinal.Windows) {
				t.Fatalf("resumed job has %d windows, the control %d", len(final.Windows), len(cfinal.Windows))
			}
			for i, w := range final.Windows {
				if w.State == WindowDone && w.Anonymous == nil {
					t.Errorf("window %d has no anonymous count", w.Index)
				}
				if !reflect.DeepEqual(w.ReleaseQuality, cfinal.Windows[i].ReleaseQuality) {
					t.Errorf("window %d quality %s, the control's %s", w.Index, qualityJSON(w.ReleaseQuality), qualityJSON(cfinal.Windows[i].ReleaseQuality))
				}
			}
			if final.Accuracy == nil || !reflect.DeepEqual(final.Accuracy, cfinal.Accuracy) {
				t.Errorf("accuracy %+v, the control's %+v", final.Accuracy, cfinal.Accuracy)
			}
			if final.AnonymousFraction == nil || !reflect.DeepEqual(final.AnonymousFraction, cfinal.AnonymousFraction) {
				t.Errorf("anonymous fraction %v, the control's %v", final.AnonymousFraction, cfinal.AnonymousFraction)
			}
		})
	}
}

// TestJournalDrainKeepsQueuedJobs pins the drain contract for work that
// never started: a job still queued at shutdown is not journaled as
// cancelled — the next boot requeues it and runs it to completion.
func TestJournalDrainKeepsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 1})

	feed, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The follow job occupies the only executor forever; the batch job
	// behind it stays queued.
	blocker, err := mgr.Submit(JobSpec{DatasetID: feed.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, blocker.ID, func(s JobStatus) bool { return s.State == JobRunning })
	queued, err := mgr.Submit(JobSpec{DatasetID: feed.ID, K: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Drain(0)
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
	defer crashClose(mgr2, reg2, jrnl2)
	final := waitForState(t, mgr2, queued.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("requeued job finished %s: %s", final.State, final.Error)
	}
	if st, ok := mgr2.Get(blocker.ID); !ok || st.State.Terminal() {
		t.Errorf("interrupted follow job is %+v, want requeued and live", st)
	}
}

// TestJournalCheckpointCleanShutdown pins the clean-shutdown marker: a
// checkpointed boot is reported clean by the next one, and the marker
// is consumed — a crash after that reports unclean again.
func TestJournalCheckpointCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	if _, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b")), "feed", center, 1); err != nil {
		t.Fatal(err)
	}
	mgr.Drain(time.Second)
	if err := jrnl.Checkpoint(reg, mgr); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, rec := bootService(t, dir, ManagerOptions{})
	if !rec.CleanShutdown {
		t.Error("checkpointed shutdown not reported clean")
	}
	fams := scrapeTelemetry(t, mgr2.tel)
	if got := value(t, fams, "glove_journal_recovery_info", map[string]string{"clean_shutdown": "true", "torn_tail": "false"}); got != 1 {
		t.Errorf("glove_journal_recovery_info = %g, want a clean, untorn boot", got)
	}
	if got := value(t, fams, "glove_recovered_datasets_total", nil); got != 1 {
		t.Errorf("glove_recovered_datasets_total = %g, want 1", got)
	}
	if len(reg2.List()) != 1 {
		t.Error("checkpointed dataset lost")
	}
	// No checkpoint this time: the marker must not linger.
	crashClose(mgr2, reg2, jrnl2)
	jrnl3, reg3, mgr3, rec3 := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr3, reg3, jrnl3)
	if rec3.CleanShutdown {
		t.Error("stale clean-shutdown marker survived an unclean boot")
	}
	if got := value(t, scrapeTelemetry(t, mgr3.tel), "glove_journal_recovery_info", map[string]string{"clean_shutdown": "false"}); got != 1 {
		t.Errorf(`glove_journal_recovery_info{clean_shutdown="false"} = %g, want 1 after an unclean boot`, got)
	}
}

// TestJournalReplayIdempotent pins the convergence property the boot
// compaction relies on: replaying the compaction of a replay yields the
// same state, so repeated crash/restart cycles with no new mutations
// never drift.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	// A second, interrupted job exercises the normalized (requeue) shape.
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1,
		WindowHours: 1, Follow: true}); err != nil {
		t.Fatal(err)
	}
	mgr.Drain(0)
	crashClose(mgr, reg, jrnl)

	// Boots 2 and 3 open the journal without restoring into a manager —
	// a requeued job starting to run would append fresh records and make
	// the comparison about scheduling, not replay.
	jrnl2, rec2, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := json.Marshal(rec2)
	// Close without running anything: boot 3 replays boot 2's compaction.
	jrnl2.Close()
	jrnl3, rec3, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jrnl3.Close()
	snap3, _ := json.Marshal(rec3)
	if !bytes.Equal(snap2, snap3) {
		t.Errorf("replay not idempotent:\nboot2 %s\nboot3 %s", snap2, snap3)
	}
}

// A windowed job with a single release serves it as /result too, but
// journals it once, as its window: one result frame in the journal and
// in a checkpoint, and the restored /result is byte-identical. A
// journal that also holds the release as a batch frame (written before
// that rule) restores the same bytes.
func TestJournalSingleReleaseWindowedJournaledOnce(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		name := "one-frame"
		if legacy {
			name = "legacy-batch-frame"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
			info := ingestSynth(t, reg, 40, 2)
			st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1000})
			if err != nil {
				t.Fatal(err)
			}
			final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
			if final.State != JobDone || len(final.Windows) != 1 {
				t.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
			}
			result := func(mgr *Manager) []byte {
				t.Helper()
				rel, err := mgr.Result(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if rel == nil {
					t.Fatal("done job serves no result")
				}
				return storedCSV(t, rel)
			}
			want := result(mgr)
			mgr.mu.Lock()
			job := mgr.jobs[st.ID]
			mgr.mu.Unlock()
			rj, err := job.capture()
			if err != nil {
				t.Fatal(err)
			}
			if len(rj.Results) != 1 {
				t.Errorf("checkpoint holds %d result frames, want 1", len(rj.Results))
			}
			frames := 1
			if legacy {
				rel, _ := mgr.Result(st.ID)
				if err := jrnl.jobResult(st.ID, journalWindow{Batch: true, Stats: final.Stats}, storedCSV(t, rel)); err != nil {
					t.Fatal(err)
				}
				frames = 2
			}
			crashClose(mgr, reg, jrnl)

			jrnl2, reg2, mgr2, rec := bootService(t, dir, ManagerOptions{})
			defer crashClose(mgr2, reg2, jrnl2)
			for _, j := range rec.Jobs {
				if j.ID == st.ID && len(j.Results) != frames {
					t.Errorf("journal holds %d result frames, want %d", len(j.Results), frames)
				}
			}
			if !bytes.Equal(result(mgr2), want) {
				t.Error("restored /result differs from the original bytes")
			}
		})
	}
}

// A frozen job resumed after its last window committed reads the
// snapshot its commits saw, not the dataset as it stands at the
// restart: records appended in between change neither its
// anonymous_fraction, its plan (reported although no window runs
// again), nor its dataset_version and the /result ETag built from it. The interrupted job is journaled by hand — the twin's
// submission and the control run's committed window 0 — as a daemon
// killed between that commit and the terminal status leaves it.
func TestJournalFrozenResumeReadsCommittedSnapshot(t *testing.T) {
	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info := ingestSynth(t, reg, 40, 2)
	ctrl, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := waitForState(t, mgr, ctrl.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if want.State != JobDone {
		t.Fatalf("control job finished %s: %s", want.State, want.Error)
	}
	rel, err := mgr.Result(ctrl.ID)
	if err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	job := mgr.jobs[ctrl.ID]
	mgr.mu.Unlock()
	rj, err := job.capture()
	if err != nil {
		t.Fatal(err)
	}
	const twin = "job-000002"
	if err := jrnl.jobSubmitted(twin, want.Spec, want.CreatedAt); err != nil {
		t.Fatal(err)
	}
	if err := jrnl.jobResult(twin, rj.Results[0].Window, rj.Results[0].CSV); err != nil {
		t.Fatal(err)
	}
	// A checkpoint taken while the requeued twin waits to run journals
	// the count again.
	queued := newJob(twin, want.Spec)
	if _, err := buildWindowResume(queued, rj); err != nil {
		t.Fatal(err)
	}
	c, err := queued.capture()
	if err != nil {
		t.Fatal(err)
	}
	if w := c.Results[0].Window; w.SnapshotRecords != info.Records || w.DatasetVersion != want.DatasetVersion {
		t.Errorf("checkpoint of the requeued job: snapshot_records %d, dataset_version %d; want %d, %d",
			w.SnapshotRecords, w.DatasetVersion, info.Records, want.DatasetVersion)
	}
	// Two identical fingerprints: anonymous, so counting them would move
	// the fraction.
	late := "user,lat,lon,minute\nlate-a,7.5,-5.5,0\nlate-b,7.5,-5.5,0\n"
	if _, err := reg.Append(info.ID, strings.NewReader(late)); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	got := waitForState(t, mgr2, twin, func(s JobStatus) bool { return s.State.Terminal() })
	if got.State != JobDone {
		t.Fatalf("resumed job finished %s: %s", got.State, got.Error)
	}
	if want.AnonymousFraction == nil {
		t.Fatal("control job has no anonymous fraction")
	}
	if got.AnonymousFraction == nil || *got.AnonymousFraction != *want.AnonymousFraction {
		t.Errorf("anonymous fraction %v, want the uninterrupted run's %g", got.AnonymousFraction, *want.AnonymousFraction)
	}
	if got.Shards != want.Shards || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Errorf("plan: %d shards %+v, want %d shards %+v", got.Shards, got.Plan, want.Shards, want.Plan)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if grel, err := mgr2.Result(twin); err != nil || !bytes.Equal(storedCSV(t, grel), storedCSV(t, rel)) {
		t.Errorf("resumed release differs from the uninterrupted run's (%v)", err)
	}
	if got.DatasetVersion != want.DatasetVersion {
		t.Errorf("dataset_version %d, want the uninterrupted run's %d", got.DatasetVersion, want.DatasetVersion)
	}
	// The ETags differ only in the job ID: both name the same version.
	srv := newLocalServer(t, NewServer(reg2, mgr2))
	etag := func(id string) string {
		resp, err := http.Get(srv + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("ETag")
	}
	if g, w := etag(twin), strings.Replace(etag(ctrl.ID), ctrl.ID, twin, 1); g == "" || g != w {
		t.Errorf("resumed /result ETag %s, want %s", g, w)
	}
}

// JobStatus.Shards is the shard count the job's plan was resolved over
// — the first runnable window's, for windowed and follow jobs — and
// survives a restart.
func TestJobStatusShardsWindowedAndFollow(t *testing.T) {
	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
	info := ingestSynth(t, reg, 40, 2)
	feed, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d", "e", "f", "g", "h")),
		"feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range []JobSpec{
		{DatasetID: info.ID, K: 2, Workers: 1, Shards: 2, WindowHours: 24},
		{DatasetID: feed.ID, K: 2, Workers: 1, Shards: 2, WindowHours: 1, Follow: true, FollowWindows: 1},
	} {
		st, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Window 1 closes the follow job's window 0.
	if _, err := reg.Append(feed.ID, strings.NewReader(windowCSV(1, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st := waitForState(t, mgr, id, func(s JobStatus) bool { return s.State.Terminal() })
		if st.State != JobDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
		if st.Plan == nil || st.Shards != 2 {
			t.Errorf("job %s (follow=%v): shards %d with plan %v, want 2", id, st.Spec.Follow, st.Shards, st.Plan)
		}
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	for _, id := range ids {
		st, ok := mgr2.Get(id)
		if !ok {
			t.Fatalf("job %s gone after restart", id)
		}
		if st.Shards != 2 {
			t.Errorf("restored job %s: shards %d, want 2", id, st.Shards)
		}
	}
}
