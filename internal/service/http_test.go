package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/core"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 2})
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(NewServer(reg, mgr))
	t.Cleanup(srv.Close)
	return srv, mgr
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

// TestServerEndToEnd drives the full acceptance scenario over HTTP:
// ingest a synthetic dataset, anonymize it at k=2 through a sharded
// job while watching progress advance, download the result, and verify
// that every published fingerprint hides at least k subscribers.
func TestServerEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	const k = 2

	// --- Ingest over HTTP (streaming body). ---
	table := synthTable(t, 50, 2)
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/datasets?name=e2e&lat=%g&lon=%g&days=%d",
		srv.URL, table.Center.Lat, table.Center.Lon, table.SpanDays)
	resp, err := http.Post(url, "text/csv", bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ds DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if ds.Users != table.Users() || ds.Records != len(table.Records) {
		t.Fatalf("ingested %d users / %d records, want %d / %d",
			ds.Users, ds.Records, table.Users(), len(table.Records))
	}

	// --- Submit a sharded job. ---
	spec, _ := json.Marshal(JobSpec{DatasetID: ds.ID, K: k, Shards: 2})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// --- Poll until done; progress must never move backwards. ---
	var last float64
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s at %.2f", job.State, job.Progress)
		}
		getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &job)
		if job.Progress < last {
			t.Fatalf("progress went backwards: %.3f after %.3f", job.Progress, last)
		}
		last = job.Progress
		if job.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	if job.Progress != 1 {
		t.Errorf("done job progress = %g", job.Progress)
	}
	if job.Stats == nil || job.Stats.InputUsers != ds.Users {
		t.Errorf("job stats wrong: %+v", job.Stats)
	}
	if job.Accuracy == nil {
		t.Error("job accuracy summary missing")
	}

	// --- Download and verify the anonymized dataset. ---
	resp = getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("result content type %q", ct)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	published, err := cdr.ReadAnonymizedCSV(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateKAnonymity(published, k); err != nil {
		t.Errorf("downloaded dataset not %d-anonymous: %v", k, err)
	}
	if got := published.Users(); got != ds.Users {
		t.Errorf("published dataset hides %d users, want %d", got, ds.Users)
	}

	// --- Adversarial check via internal/analysis: no probe with
	// partial trajectory knowledge pins fewer than k subscribers. ---
	original, err := table.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	uniq, err := analysis.PartialKnowledgeUniqueness(
		original, published, 4, 60, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if uniq.UniqueFraction != 0 {
		t.Errorf("%.1f%% of probes identify a unique subscriber", 100*uniq.UniqueFraction)
	}
	if uniq.MeanCrowd < float64(k) {
		t.Errorf("mean matching crowd %.2f < k = %d", uniq.MeanCrowd, k)
	}

	// --- /metrics counts the dataset and the finished job. ---
	fams := scrape(t, srv.URL)
	if got := value(t, fams, "glove_datasets", nil); got != 1 {
		t.Errorf("glove_datasets = %g, want 1", got)
	}
	if got := value(t, fams, "glove_jobs_finished_total", map[string]string{"state": "done"}); got != 1 {
		t.Errorf(`glove_jobs_finished_total{state="done"} = %g, want 1`, got)
	}

	// --- Eviction: DELETE on a finished job needs an explicit purge
	// (a racing cancel must not destroy the result); with it, the job
	// and then the dataset are freed. ---
	del := func(url string) int {
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(srv.URL + "/v1/jobs/" + job.ID); code != http.StatusConflict {
		t.Errorf("DELETE finished job without purge: status %d", code)
	}
	if code := del(srv.URL + "/v1/jobs/" + job.ID + "?purge=1"); code != http.StatusNoContent {
		t.Errorf("purge finished job: status %d", code)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("purged job still served: status %d", resp.StatusCode)
	}
	if code := del(srv.URL + "/v1/datasets/" + ds.ID); code != http.StatusNoContent {
		t.Errorf("delete dataset: status %d", code)
	}
	if resp := getJSON(t, srv.URL+"/v1/datasets/"+ds.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted dataset still served: status %d", resp.StatusCode)
	}
}

// TestServerIngestBodyLimit checks the raw-byte ingestion cap.
func TestServerIngestBodyLimit(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	t.Cleanup(mgr.Close)
	h := NewServer(reg, mgr)
	h.MaxIngestBytes = 64
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	body := "user,lat,lon,minute\n" + strings.Repeat("u,1,2,3\n", 100)
	resp, err := http.Post(srv.URL+"/v1/datasets", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", resp.StatusCode)
	}
}

// TestServerCancellation cancels a running job over HTTP and checks it
// lands in the cancelled state.
func TestServerCancellation(t *testing.T) {
	srv, _ := newTestServer(t)

	table := synthTable(t, 600, 2)
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/datasets?days=2", "text/csv", &raw)
	if err != nil {
		t.Fatal(err)
	}
	var ds DatasetInfo
	json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()

	spec, _ := json.Marshal(JobSpec{DatasetID: ds.ID, K: 2, Shards: 1, Workers: 1})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	// Wait until running, then DELETE.
	deadline := time.Now().Add(30 * time.Second)
	for job.State == JobQueued && time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &job)
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	for !job.State.Terminal() && time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &job)
		time.Sleep(2 * time.Millisecond)
	}
	if job.State != JobCancelled {
		t.Fatalf("job state after cancel = %s (%s)", job.State, job.Error)
	}

	// The result of a cancelled job is a conflict, not a download.
	resp = getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d", resp.StatusCode)
	}
}

func TestServerErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	// Bad ingest parameters and bodies.
	resp, _ := http.Post(srv.URL+"/v1/datasets?lat=bogus", "text/csv", strings.NewReader(""))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad lat: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/v1/datasets", "text/csv", strings.NewReader("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown resources.
	if resp := getJSON(t, srv.URL+"/v1/datasets/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/nope/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/nope", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("cancel of unknown job: status %d", resp.StatusCode)
		}
	}

	// Bad job specs reject with invalid_spec; an unknown dataset is a
	// 404 with its own code.
	for _, body := range []string{"not json", `{"unknown_field":1}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d", body, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"dataset_id":"nope","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset spec: status %d, want 404", resp.StatusCode)
	}

	// Health endpoint reports the version.
	var health map[string]string
	getJSON(t, srv.URL+"/healthz", &health)
	if health["status"] != "ok" || health["version"] == "" {
		t.Errorf("healthz = %v", health)
	}
}
