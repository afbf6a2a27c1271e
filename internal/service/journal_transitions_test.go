package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/wal"
)

// A job's lifecycle is journaled at its transitions only: its
// submission, each committed window, one terminal record carrying its
// status and event log, and its removal. These tests pin each
// transition across a crash, and every prefix of a journal that holds
// them all.

// TestJournalQueuedCancelSurvivesCrash: a job cancelled while queued is
// journaled as terminal, so after a crash it is restored cancelled, with
// its event log, and never runs.
func TestJournalQueuedCancelSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 1})
	feed, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The follow job holds the only executor; the batch job behind it
	// stays queued until it is cancelled.
	blocker, err := mgr.Submit(JobSpec{DatasetID: feed.ID, K: 2, WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, blocker.ID, func(s JobStatus) bool { return s.State == JobRunning })
	queued, err := mgr.Submit(JobSpec{DatasetID: feed.ID, K: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	want, _ := mgr.Get(queued.ID)
	wantEvents, _, _ := mgr.EventsSince(queued.ID, 0)
	mgr.Drain(0)
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 2})
	defer crashClose(mgr2, reg2, jrnl2)
	// Once the requeued blocker runs, the recovered queue is drained: a
	// requeued job would be running or done by now.
	waitForState(t, mgr2, blocker.ID, func(s JobStatus) bool { return s.State == JobRunning })
	got, ok := mgr2.Get(queued.ID)
	if !ok || got.State != JobCancelled {
		t.Fatalf("queued-then-cancelled job after the crash: %+v (found %v), want cancelled", got, ok)
	}
	if gs, ws := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(gs, ws) {
		t.Errorf("restored status differs:\n got %s\nwant %s", gs, ws)
	}
	evs, _, _ := mgr2.EventsSince(queued.ID, 0)
	if ge, we := mustJSON(t, evs), mustJSON(t, wantEvents); !bytes.Equal(ge, we) {
		t.Errorf("restored event log differs:\n got %s\nwant %s", ge, we)
	}
	var ae *api.Error
	if _, err := mgr2.Trace(queued.ID); !errors.As(err, &ae) || ae.Code != api.CodeTraceNotFound {
		t.Errorf("trace of the cancelled job: %v, want %s (it never ran)", err, api.CodeTraceNotFound)
	}
}

// TestJournalPurgeSurvivesCrash: a purge is journaled and committed
// before Remove returns, so a purged job stays gone after a crash while
// its neighbour is restored.
func TestJournalPurgeSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for range 2 {
		st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State == JobDone })
		jobs = append(jobs, st.ID)
	}
	purged, kept := jobs[0], jobs[1]
	if err := mgr.Remove(purged); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	if st, ok := mgr2.Get(purged); ok {
		t.Errorf("purged job came back after the crash: %s", st.State)
	}
	if st, ok := mgr2.Get(kept); !ok || st.State != JobDone {
		t.Errorf("kept job after the crash: %+v (found %v), want done", st, ok)
	}
}

// TestJournalWritesNoEventFrames: a finished windowed job's journal
// holds no job_event frame, and exactly one job_status frame, carrying
// the job's status and its full event log.
func TestJournalWritesNoEventFrames(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c")+strings.TrimPrefix(windowCSV(1, "a", "b", "c"), "user,lat,lon,minute\n")),
		"feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone || len(final.Windows) != 2 {
		t.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
	}
	events, _, _ := mgr.EventsSince(st.ID, 0)
	crashClose(mgr, reg, jrnl)

	_, _, frames, _ := lastSegment(t, dir)
	kinds := map[journalKind]int{}
	var terminal journalEntry
	for _, f := range frames {
		if f.Kind != wal.KindRecord {
			continue
		}
		e := frameEntry(t, f)
		kinds[e.Kind]++
		if e.Kind == jeJobStatus {
			terminal = e
		}
	}
	if kinds[jeJobEvent] != 0 || kinds[jeJobStatus] != 1 || kinds[jeJobResult] != 2 {
		t.Fatalf("journal frames by kind: %v, want no job_event, one job_status, two job_result", kinds)
	}
	if ge, we := mustJSON(t, terminal.Events), mustJSON(t, events); !bytes.Equal(ge, we) {
		t.Errorf("terminal frame's event log:\n got %s\nwant %s", ge, we)
	}
	if gs, ws := mustJSON(t, terminal.Status), mustJSON(t, final); !bytes.Equal(gs, ws) {
		t.Errorf("terminal frame's status:\n got %s\nwant %s", gs, ws)
	}
}

// TestJournalLegacyEventFramesReplay: a journal written when every
// event-log append was its own job_event frame, its job_status frame
// carrying no event log, restores the job's event log from those
// frames, after the queued event every submission seeds.
func TestJournalLegacyEventFramesReplay(t *testing.T) {
	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	const id = "job-000001"
	spec := JobSpec{DatasetID: "ds-000001", K: 2, Workers: 1, Shards: 1}
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := jrnl.jobSubmitted(id, spec, created); err != nil {
		t.Fatal(err)
	}
	legacy := []api.JobEvent{
		{Seq: 2, Type: api.EventState, JobID: id, State: JobRunning},
		{Seq: 3, Type: api.EventProgress, JobID: id, Progress: 0.5},
		{Seq: 4, Type: api.EventState, JobID: id, State: JobCancelled, Error: "cancelled"},
	}
	for _, ev := range legacy {
		frame := fmt.Sprintf(`{"kind":"job_event","id":%q,"event":%s}`, id, mustJSON(t, ev))
		if err := jrnl.log.Append([]byte(frame)); err != nil {
			t.Fatal(err)
		}
	}
	started, finished := created.Add(time.Second), created.Add(2*time.Second)
	status := JobStatus{ID: id, Spec: spec, State: JobCancelled, Error: "cancelled", Progress: 0.5,
		CreatedAt: created, StartedAt: &started, FinishedAt: &finished}
	if err := jrnl.jobTerminalStatus(id, status, nil); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr, reg, jrnl)

	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr2, reg2, jrnl2)
	got, ok := mgr2.Get(id)
	if !ok || got.State != JobCancelled {
		t.Fatalf("legacy job after restart: %+v (found %v), want cancelled", got, ok)
	}
	want := append([]api.JobEvent{{Seq: 1, Type: api.EventState, JobID: id, State: JobQueued}}, legacy...)
	evs, _, _ := mgr2.EventsSince(id, 0)
	if ge, we := mustJSON(t, evs), mustJSON(t, want); !bytes.Equal(ge, we) {
		t.Errorf("legacy event log after restart:\n got %s\nwant %s", ge, we)
	}
}

// TestJournalEveryPrefixRecovers is the crash-point sweep of the job
// and dataset lifecycle. One durable boot ingests and appends, runs a
// batch and a two-window job to done, cancels a queued job, purges a
// job, deletes a dataset and is killed with a follow job mid-run. Its
// journal is then cut at every frame boundary, and once inside each
// frame, and every cut must recover: a job is restored terminal exactly
// when its terminal frame is in the prefix, with that frame's status
// and event log, requeued with a fresh log otherwise, and absent once
// its removal is; a dataset holds exactly the records of the prefix's
// operations; a cut inside a frame recovers like the boundary before
// it.
func TestJournalEveryPrefixRecovers(t *testing.T) {
	dir := t.TempDir()
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{MaxConcurrentJobs: 1})
	feed, err := reg.Ingest(strings.NewReader(windowCSV(0, "a", "b", "c", "d")), "feed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append(feed.ID, strings.NewReader(windowCSV(1, "a", "b", "c"))); err != nil {
		t.Fatal(err)
	}
	doomed, err := reg.Ingest(strings.NewReader(windowCSV(0, "x", "y")), "doomed", center, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec JobSpec) string {
		t.Helper()
		spec.DatasetID = feed.ID
		st, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() }); final.State != JobDone {
			t.Fatalf("job finished %s: %s", final.State, final.Error)
		}
		return st.ID
	}
	batch := JobSpec{K: 2, Workers: 1, Shards: 1}
	run(batch)
	run(JobSpec{K: 2, Workers: 1, Shards: 1, WindowHours: 1})
	if err := mgr.Remove(run(batch)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete(doomed.ID); err != nil {
		t.Fatal(err)
	}
	// The follow job commits window 0 and waits for window 1 to close,
	// holding the only executor; the batch job behind it is cancelled
	// while queued.
	follow, err := mgr.Submit(JobSpec{DatasetID: feed.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, follow.ID, func(s JobStatus) bool {
		return len(s.Windows) == 1 && s.Windows[0].State == WindowDone
	})
	batch.DatasetID = feed.ID
	queued, err := mgr.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	mgr.Drain(0)
	crashClose(mgr, reg, jrnl)

	path, data, frames, ends := lastSegment(t, dir)
	if frames[0].Kind != wal.KindSnapshot {
		t.Fatal("the boot's segment does not open with its snapshot")
	}
	t.Logf("%d frames, %d bytes", len(frames), len(data))
	// recoverCut opens a copy of the journal cut at n bytes.
	recoverCut := func(n int64) *RecoveredState {
		t.Helper()
		cut := t.TempDir()
		if err := os.WriteFile(filepath.Join(cut, filepath.Base(path)), data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		jl, st, err := OpenJournal(cut, false, nil)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", n, err)
		}
		jl.Close()
		return st
	}

	m := newPrefixModel()
	for k := 0; k <= len(frames); k++ {
		end := int64(0)
		if k > 0 {
			end = ends[k-1]
			if k > 1 {
				m.apply(t, frameEntry(t, frames[k-1]))
			}
		}
		st := recoverCut(end)
		m.check(t, fmt.Sprintf("%d frames", k), st)
		if k < len(frames) {
			mid := end + (ends[k]-end)/2
			if got, want := mustJSON(t, recoverCut(mid)), mustJSON(t, st); !bytes.Equal(got, want) {
				t.Errorf("cut inside frame %d recovers differently from the boundary before it:\n got %s\nwant %s", k, got, want)
			}
		}
	}

	// The full journal holds every transition the script claims.
	wantStates := map[string]JobState{"job-000001": JobDone, "job-000002": JobDone, queued.ID: JobCancelled}
	for id, state := range wantStates {
		if j := m.jobs[id]; j == nil || j.status == nil || j.status.State != state {
			t.Errorf("job %s in the full journal: %+v, want terminal %s", id, j, state)
		}
	}
	if _, ok := m.jobs["job-000003"]; ok {
		t.Error("the purged job is in the full journal")
	}
	if j := m.jobs[follow.ID]; j == nil || j.status != nil || len(j.results) != 1 {
		t.Errorf("follow job in the full journal: %+v, want interrupted with one committed window", j)
	}
	if _, ok := m.records[doomed.ID]; ok || m.records[feed.ID] != 7 {
		t.Errorf("datasets in the full journal: %v, want only %s with 7 records", m.records, feed.ID)
	}
}

// prefixModel is what a journal prefix must recover to, folded from
// its record frames independently of replayJournal.
type prefixModel struct {
	records  map[string]int
	datasets []string
	jobs     map[string]*prefixJob
	order    []string
}

type prefixJob struct {
	spec    JobSpec
	status  *api.JobStatus
	events  []api.JobEvent
	results []int
}

func newPrefixModel() *prefixModel {
	return &prefixModel{records: map[string]int{}, jobs: map[string]*prefixJob{}}
}

// csvRecords counts the records of a record CSV (a header, then one
// record a line).
func csvRecords(csv []byte) int {
	return bytes.Count(csv, []byte("\n")) - 1
}

func (m *prefixModel) apply(t *testing.T, e journalEntry) {
	t.Helper()
	switch e.Kind {
	case jeDatasetCreate:
		m.records[e.ID] = csvRecords(e.CSV)
		m.datasets = append(m.datasets, e.ID)
	case jeDatasetAppend:
		m.records[e.ID] += csvRecords(e.CSV)
	case jeDatasetDelete:
		delete(m.records, e.ID)
		m.datasets = slices.DeleteFunc(m.datasets, func(id string) bool { return id == e.ID })
	case jeJobSubmit:
		m.jobs[e.ID] = &prefixJob{spec: *e.Spec}
		m.order = append(m.order, e.ID)
	case jeJobResult:
		m.jobs[e.ID].results = append(m.jobs[e.ID].results, e.Window.Index)
	case jeJobStatus:
		m.jobs[e.ID].status, m.jobs[e.ID].events = e.Status, e.Events
	case jeJobEvict:
		delete(m.jobs, e.ID)
		m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == e.ID })
	default:
		t.Errorf("unexpected %s frame", e.Kind)
	}
}

// check compares a recovery with the model: the datasets, restored
// through the registry's ingest path, and every job's recovered shape.
func (m *prefixModel) check(t *testing.T, at string, st *RecoveredState) {
	t.Helper()
	reg := NewRegistry()
	defer reg.Close()
	if err := reg.Restore(st); err != nil {
		t.Fatalf("%s: dataset restore: %v", at, err)
	}
	var ids []string
	for _, info := range reg.List() {
		ids = append(ids, info.ID)
		if info.Records != m.records[info.ID] {
			t.Errorf("%s: dataset %s holds %d records, its operations %d", at, info.ID, info.Records, m.records[info.ID])
		}
	}
	if !slices.Equal(ids, m.datasets) {
		t.Errorf("%s: datasets %v, want %v", at, ids, m.datasets)
	}
	ids = ids[:0]
	for _, rj := range st.Jobs {
		ids = append(ids, rj.ID)
		want := m.jobs[rj.ID]
		if want == nil {
			continue
		}
		if want.status != nil {
			if rj.Requeue || !bytes.Equal(mustJSON(t, rj.Status), mustJSON(t, want.status)) ||
				!bytes.Equal(mustJSON(t, rj.Events), mustJSON(t, want.events)) {
				t.Errorf("%s: job %s restored as %+v, want its terminal frame's status and events", at, rj.ID, rj)
			}
			continue
		}
		if rj.Status != nil || !rj.Requeue || len(rj.Results) != len(want.results) {
			t.Errorf("%s: job %s recovered as %+v, want requeued with %d committed windows", at, rj.ID, rj, len(want.results))
			continue
		}
		// A fresh log: the queued event, then one window event per
		// committed window of a job whose windows are not internal.
		wantEvents := 1
		if !batchJob(want.spec) {
			wantEvents += len(want.results)
		}
		if len(rj.Events) != wantEvents || rj.Events[0].State != JobQueued {
			t.Errorf("%s: requeued job %s has event log %+v, want a fresh one of %d events", at, rj.ID, rj.Events, wantEvents)
		}
	}
	if !slices.Equal(ids, m.order) {
		t.Errorf("%s: jobs %v, want %v", at, ids, m.order)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
