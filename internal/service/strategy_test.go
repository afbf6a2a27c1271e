package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/core"
)

func TestJobSpecValidateStrategy(t *testing.T) {
	good := []JobSpec{
		{DatasetID: "ds-1", K: 2, Strategy: "auto"},
		{DatasetID: "ds-1", K: 2, Strategy: "single"},
		{DatasetID: "ds-1", K: 2, Strategy: "chunked", ChunkSize: 10},
		{DatasetID: "ds-1", K: 2, Index: "dense"},
		{DatasetID: "ds-1", K: 2, Index: "sparse"},
		{DatasetID: "ds-1", K: 3, ChunkSize: 6}, // auto strategy allows chunking
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []JobSpec{
		{DatasetID: "ds-1", K: 2, Strategy: "gpu"},
		{DatasetID: "ds-1", K: 2, Index: "matrix"},
		{DatasetID: "ds-1", K: 2, ChunkSize: -5},
		{DatasetID: "ds-1", K: 5, ChunkSize: 9},                      // < 2k
		{DatasetID: "ds-1", K: 2, Strategy: "single", ChunkSize: 10}, // contradictory
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// Invalid planner parameters are rejected at submission over HTTP with
// 400, before any dataset work happens.
func TestServerSubmitBadPlannerParams(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, body := range []string{
		`{"dataset_id": "ds-1", "k": 2, "strategy": "warp"}`,
		`{"dataset_id": "ds-1", "k": 2, "index": "quadtree"}`,
		`{"dataset_id": "ds-1", "k": 2, "chunk_size": -1}`,
		`{"dataset_id": "ds-1", "k": 4, "chunk_size": 6}`,
		`{"dataset_id": "ds-1", "k": 2, "strategy": "single", "chunk_size": 8}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400 (error %q)", body, resp.StatusCode, e["error"])
		}
	}
}

// A job submitted with an explicit strategy runs through the planner
// end-to-end: the resolved plan is surfaced on the status and in
// /v1/metrics, and the result is still k-anonymous.
func TestServerExplicitStrategyEndToEnd(t *testing.T) {
	srv, mgr := newTestServer(t)
	table := synthTable(t, 40, 2)
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/datasets?name=strat&days=2", "text/csv", &raw)
	if err != nil {
		t.Fatal(err)
	}
	var ds DatasetInfo
	json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	spec, _ := json.Marshal(JobSpec{
		DatasetID: ds.ID, K: 2, Shards: 1,
		Strategy: "chunked", ChunkSize: 10, Index: "sparse",
	})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, job.Error)
	}

	final := waitForState(t, mgr, job.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Plan == nil {
		t.Fatal("done job carries no plan")
	}
	if final.Plan.Strategy != core.StrategyChunked || final.Plan.ChunkSize != 10 {
		t.Errorf("plan = %+v, want chunked at 10", final.Plan)
	}
	if final.Plan.Index != core.IndexSparse {
		t.Errorf("plan index = %q, want sparse", final.Plan.Index)
	}

	rel, err := mgr.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	result := decodeRelease(t, rel)
	if err := core.ValidateKAnonymity(result, 2); err != nil {
		t.Errorf("result not 2-anonymous: %v", err)
	}
	if result.Users() != ds.Users {
		t.Errorf("result hides %d users, want %d", result.Users(), ds.Users)
	}

	var rep MetricsReport
	getJSON(t, srv.URL+"/v1/metrics", &rep)
	if rep.JobsByStrategy[core.StrategyChunked] != 1 {
		t.Errorf("jobs_by_strategy = %v, want one chunked", rep.JobsByStrategy)
	}
	if rep.JobsByIndex[core.IndexSparse] != 1 {
		t.Errorf("jobs_by_index = %v, want one sparse", rep.JobsByIndex)
	}
}

// Manager-wide defaults fill empty spec fields before validation, so a
// daemon started with gloved -strategy/-chunk-size/-index steers every
// plain submission.
func TestManagerPlannerDefaults(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{
		DefaultStrategy:  "chunked",
		DefaultChunkSize: 12,
		DefaultIndex:     "sparse",
	})
	defer mgr.Close()

	info := ingestSynth(t, reg, 30, 2)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Strategy != "chunked" || st.Spec.ChunkSize != 12 || st.Spec.Index != "sparse" {
		t.Errorf("defaults not applied: %+v", st.Spec)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Plan == nil || final.Plan.Strategy != core.StrategyChunked || final.Plan.Index != core.IndexSparse {
		t.Errorf("plan = %+v, want chunked/sparse", final.Plan)
	}

	// An explicit spec value wins over the default.
	st2, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Shards: 1, Strategy: "single", ChunkSize: -0, Index: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Spec.Strategy != "single" || st2.Spec.Index != "dense" {
		t.Errorf("explicit spec overridden: %+v", st2.Spec)
	}
	waitForState(t, mgr, st2.ID, func(s JobStatus) bool { return s.State.Terminal() })

	// A bad daemon default surfaces at submission.
	badMgr := NewManager(reg, ManagerOptions{DefaultStrategy: "warp"})
	defer badMgr.Close()
	if _, err := badMgr.Submit(JobSpec{DatasetID: info.ID, K: 2}); err == nil {
		t.Error("bad default strategy accepted")
	}
}
