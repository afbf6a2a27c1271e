package service

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
)

// ingestSynth registers a synthetic dataset with the registry.
func ingestSynth(t testing.TB, reg *Registry, users, days int) DatasetInfo {
	t.Helper()
	table := synthTable(t, users, days)
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	info, err := reg.Ingest(&buf, "synthetic", table.Center, table.SpanDays)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// storedCSV inflates a stored release's CSV for byte comparisons.
func storedCSV(t testing.TB, rel *Release) []byte {
	t.Helper()
	csv, err := rel.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return csv
}

// decodeRelease parses a stored release back into a dataset for
// assertions on its groups.
func decodeRelease(t *testing.T, rel *Release) *core.Dataset {
	t.Helper()
	ds, err := cdr.ReadAnonymizedCSV(bytes.NewReader(storedCSV(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// waitForState polls until the job reaches a state for which ok returns
// true, failing the test on timeout.
func waitForState(t testing.TB, mgr *Manager, id string, ok func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, found := mgr.Get(id)
		if !found {
			t.Fatalf("job %s disappeared", id)
		}
		if ok(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := mgr.Get(id)
	t.Fatalf("timeout waiting for job %s, last state %s (progress %.2f)", id, st.State, st.Progress)
	return JobStatus{}
}

func TestManagerJobLifecycle(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info := ingestSynth(t, reg, 40, 2)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Errorf("fresh job state = %s", st.State)
	}

	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Progress != 1 {
		t.Errorf("done job progress = %g", final.Progress)
	}
	if final.Stats == nil || final.Stats.InputUsers != info.Users {
		t.Errorf("stats missing or wrong: %+v", final.Stats)
	}
	if final.Accuracy == nil || final.Accuracy.Samples == 0 {
		t.Errorf("accuracy summary missing: %+v", final.Accuracy)
	}
	if final.AnonymousFraction == nil {
		t.Error("anonymizability analysis skipped for a small dataset")
	}
	if final.Shards < 1 {
		t.Errorf("effective shards = %d", final.Shards)
	}

	rel, err := mgr.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	result := decodeRelease(t, rel)
	if err := core.ValidateKAnonymity(result, 2); err != nil {
		t.Errorf("result not 2-anonymous: %v", err)
	}
	if got := result.Users(); got != info.Users {
		t.Errorf("result hides %d users, want %d", got, info.Users)
	}
}

func TestManagerSubmitErrors(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	if _, err := mgr.Submit(JobSpec{DatasetID: "nope", K: 2}); err == nil {
		t.Error("unknown dataset accepted")
	}
	info := ingestSynth(t, reg, 10, 1)
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: info.Users + 1}); err == nil {
		t.Error("k > users accepted")
	}
	if _, err := mgr.Result("nope"); err == nil {
		t.Error("result of unknown job accepted")
	}
	if _, err := mgr.Cancel("nope"); err == nil {
		t.Error("cancel of unknown job accepted")
	}
}

func TestManagerCancelRunning(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	// Large enough that the run takes seconds: cancellation lands while
	// the job is mid-flight.
	info := ingestSynth(t, reg, 600, 2)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State == JobRunning })

	before := runtime.NumGoroutine()
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobCancelled {
		t.Fatalf("cancelled job finished %s", final.State)
	}
	if _, err := mgr.Result(st.ID); err == nil {
		t.Error("cancelled job served a result")
	}
	// Cancelling again is a conflict.
	if _, err := mgr.Cancel(st.ID); err == nil {
		t.Error("double cancel accepted")
	}
	// The worker pool goroutines must drain once the run unwinds.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Errorf("goroutines leaked: %d before cancel, %d after", before, now)
	}
}

func TestManagerCancelQueued(t *testing.T) {
	reg := NewRegistry()
	// One executor: the second job waits in the queue behind the first.
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 1})
	defer mgr.Close()

	big := ingestSynth(t, reg, 400, 2)
	small := ingestSynth(t, reg, 20, 1)

	first, err := mgr.Submit(JobSpec{DatasetID: big.ID, K: 2, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := mgr.Submit(JobSpec{DatasetID: small.ID, K: 2})
	if err != nil {
		t.Fatal(err)
	}

	st, err := mgr.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}
	// The executor must skip the cancelled job without reviving it.
	if _, err := mgr.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, first.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if st, _ := mgr.Get(second.ID); st.State != JobCancelled {
		t.Errorf("queued-cancelled job became %s", st.State)
	}
}

func TestManagerClose(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 2})
	info := ingestSynth(t, reg, 30, 1)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	// Close is idempotent and leaves every job terminal.
	mgr.Close()
	got, _ := mgr.Get(st.ID)
	if !got.State.Terminal() {
		t.Errorf("job %s not terminal after Close: %s", st.ID, got.State)
	}
	if _, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2}); err == nil {
		t.Error("submit accepted after Close")
	}
}

func TestRegistryIngestErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Ingest(bytes.NewBufferString("user,lat,lon,minute\n"), "", geo.LatLon{Lat: 0, Lon: 0}, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := reg.Ingest(bytes.NewBufferString("garbage"), "", geo.LatLon{Lat: 0, Lon: 0}, 1); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := reg.Ingest(bytes.NewBufferString("user,lat,lon,minute\na,1,2,3\n"), "", geo.LatLon{Lat: 500, Lon: 0}, 1); err == nil {
		t.Error("invalid center accepted")
	}
	if _, err := reg.Ingest(bytes.NewBufferString("user,lat,lon,minute\na,1,2,3\n"), "", geo.LatLon{Lat: 0, Lon: 0}, 0); err == nil {
		t.Error("zero span accepted")
	}
	reg.MaxRecords = 1
	csv := "user,lat,lon,minute\na,1,2,3\nb,1,2,4\n"
	if _, err := reg.Ingest(bytes.NewBufferString(csv), "", geo.LatLon{Lat: 0, Lon: 0}, 1); err == nil {
		t.Error("oversized dataset accepted")
	}
}

func TestManagerQueueFull(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 1, QueueLimit: 1})
	defer mgr.Close()

	big := ingestSynth(t, reg, 400, 2)
	// First job occupies the executor, second fills the queue, third is
	// rejected with the retryable sentinel.
	first, err := mgr.Submit(JobSpec{DatasetID: big.ID, K: 2, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the executor has dequeued the first job so the single
	// queue slot is free for the second.
	waitForState(t, mgr, first.ID, func(s JobStatus) bool { return s.State != JobQueued })
	if _, err := mgr.Submit(JobSpec{DatasetID: big.ID, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(JobSpec{DatasetID: big.ID, K: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestManagerRemove(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()

	info := ingestSynth(t, reg, 30, 1)
	// An unbounded follow job stays non-terminal until cancelled, so the
	// first Remove cannot race the job to completion.
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, WindowHours: 24, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Remove(st.ID); err == nil {
		t.Error("removed a non-terminal job")
	}
	if _, err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if err := mgr.Remove(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.Get(st.ID); ok {
		t.Error("removed job still listed")
	}
	if err := mgr.Remove(st.ID); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRegistryDelete(t *testing.T) {
	reg := NewRegistry()
	info := ingestSynth(t, reg, 10, 1)
	if err := reg.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(info.ID); ok {
		t.Error("deleted dataset still listed")
	}
	if len(reg.List()) != 0 {
		t.Error("deleted dataset still in List")
	}
	var ae *api.Error
	if err := reg.Delete(info.ID); !errors.As(err, &ae) || ae.Code != api.CodeDatasetNotFound {
		t.Errorf("double delete: %v, want %s", err, api.CodeDatasetNotFound)
	}
}
