package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/pkg/client"
)

// newService spins a real gloved HTTP surface for the SDK to drive.
// The SDK itself never touches internal/service — only this test
// harness does, to host the server.
func newService(t *testing.T) *httptest.Server {
	t.Helper()
	reg := service.NewRegistry()
	mgr := service.NewManager(reg, service.ManagerOptions{MaxConcurrentJobs: 2})
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(service.NewServer(reg, mgr))
	t.Cleanup(srv.Close)
	return srv
}

// scrapeValue reads the unlabeled sample of one family from the
// server's Prometheus exposition.
func scrapeValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value
			}
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// synthCSV renders a synthetic table as the raw-record CSV the ingest
// endpoint consumes, returning the table for later comparisons.
func synthCSV(t *testing.T, users, days int) (*cdr.Table, []byte) {
	t.Helper()
	cfg := synth.CIV(users)
	cfg.Days = days
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	return table, buf.Bytes()
}

// TestClientEndToEnd drives the full round trip through pkg/client
// only: ingest → append → submit a windowed job → stream its events →
// download every window release → verify each is k-anonymous — the
// tentpole acceptance path of the wire contract.
func TestClientEndToEnd(t *testing.T) {
	srv := newService(t)
	ctx := context.Background()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" || h.Version == "" {
		t.Fatalf("health = %+v, %v", h, err)
	}

	// --- Ingest (streaming) and append (bumps the feed version). ---
	table, csvBytes := synthCSV(t, 40, 2)
	half := bytes.Index(csvBytes[len(csvBytes)/2:], []byte("\n")) + len(csvBytes)/2 + 1
	ds, err := c.CreateDataset(ctx, bytes.NewReader(csvBytes[:half]),
		client.IngestOptions{Name: "e2e", Lat: table.Center.Lat, Lon: table.Center.Lon, Days: table.SpanDays})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Version != 1 {
		t.Fatalf("fresh dataset version = %d", ds.Version)
	}
	header := csvBytes[:bytes.IndexByte(csvBytes, '\n')+1]
	rest := append(append([]byte(nil), header...), csvBytes[half:]...)
	ds, err = c.AppendRecords(ctx, ds.ID, bytes.NewReader(rest))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Version != 2 || ds.Records != len(table.Records) {
		t.Fatalf("after append: version %d, %d records (want 2, %d)", ds.Version, ds.Records, len(table.Records))
	}

	// --- Submit a windowed job and wait on the event stream. ---
	job, err := c.SubmitJob(ctx, client.JobSpec{DatasetID: ds.ID, K: k, Shards: 1, WindowHours: 24})
	if err != nil {
		t.Fatal(err)
	}
	var seen []client.JobEvent
	final, err := c.WatchJob(ctx, job.ID, func(e client.JobEvent) { seen = append(seen, e) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.JobState("done") {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.DatasetVersion != 2 {
		t.Errorf("job snapshotted version %d, want 2", final.DatasetVersion)
	}
	if len(final.Windows) < 2 {
		t.Fatalf("expected a multi-window run, got %d windows", len(final.Windows))
	}

	// --- Replay the full event log (deterministic after completion)
	// and pin ordering/termination through the SDK parser. ---
	stream, err := c.JobEvents(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var events []client.JobEvent
	for {
		e, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) < 4 {
		t.Fatalf("replayed only %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("replay seq %d at position %d", e.Seq, i)
		}
	}
	if events[0].State != api.JobQueued || !events[len(events)-1].Terminal() {
		t.Errorf("replay bounds wrong: first %+v, last %+v", events[0], events[len(events)-1])
	}
	doneWindows := 0
	for _, e := range events {
		if e.Type == api.EventWindow && e.Window.State == api.WindowDone {
			doneWindows++
		}
	}
	if doneWindows != len(final.Windows) {
		t.Errorf("%d window-done events for %d windows", doneWindows, len(final.Windows))
	}
	if stream.LastSeq() != len(events) {
		t.Errorf("LastSeq = %d, want %d", stream.LastSeq(), len(events))
	}
	// Live-watched events (if the watch attached before completion)
	// must be a prefix-consistent slice of the replay.
	for i, e := range seen {
		if e.Seq != events[len(events)-len(seen)+i].Seq && e.Seq != i+1 {
			// seen starts at 1 when the watch attached before the run.
			t.Errorf("watched event %d has seq %d", i, e.Seq)
			break
		}
	}

	// --- Download every window release; each must be independently
	// k-anonymous and cover the window's subscribers. ---
	for _, w := range final.Windows {
		body, err := c.WindowResult(ctx, job.ID, w.Index)
		if err != nil {
			t.Fatalf("window %d: %v", w.Index, err)
		}
		raw, err := io.ReadAll(body)
		body.Close()
		if err != nil {
			t.Fatal(err)
		}
		rel, err := cdr.ReadAnonymizedCSV(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("window %d release unparseable: %v", w.Index, err)
		}
		if err := core.ValidateKAnonymity(rel, k); err != nil {
			t.Errorf("window %d not %d-anonymous: %v", w.Index, k, err)
		}
		if got := rel.Users(); got != w.Users {
			t.Errorf("window %d hides %d users, want %d", w.Index, got, w.Users)
		}
		if rel.Len() != w.Groups {
			t.Errorf("window %d has %d groups, status says %d", w.Index, rel.Len(), w.Groups)
		}
	}

	// A multi-window job has no aggregate result.
	if _, err := c.JobResult(ctx, job.ID); client.ErrorCode(err) != api.CodeResultWindowed {
		t.Errorf("aggregate result of windowed job: %v", err)
	}

	// --- Listings through the SDK paginate. ---
	all, err := c.AllDatasets(ctx)
	if err != nil || len(all) != 1 {
		t.Errorf("AllDatasets = %v, %v", all, err)
	}
	jp, err := c.ListJobs(ctx, client.ListOptions{Limit: 1})
	if err != nil || len(jp.Jobs) != 1 {
		t.Errorf("ListJobs = %+v, %v", jp, err)
	}

	// --- /metrics counts the finished windowed job's releases. ---
	if got := scrapeValue(t, srv.URL, "glove_window_releases_total"); got != float64(len(final.Windows)) {
		t.Errorf("glove_window_releases_total = %g, want %d", got, len(final.Windows))
	}

	// --- Cleanup through the SDK; the purged job 404s afterwards. ---
	if err := c.PurgeJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetJob(ctx, job.ID); client.ErrorCode(err) != api.CodeJobNotFound {
		t.Errorf("purged job: %v", err)
	}
	if err := c.DeleteDataset(ctx, ds.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClientAPIError pins the typed error surface: code, status,
// request id, and details all arrive from the envelope.
func TestClientAPIError(t *testing.T) {
	srv := newService(t)
	c, err := client.New(srv.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.GetDataset(context.Background(), "ds-999999")
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if ae.Code != api.CodeDatasetNotFound || ae.StatusCode != http.StatusNotFound {
		t.Errorf("APIError = %+v", ae)
	}
	if ae.RequestID == "" || ae.Details["request_id"] != ae.RequestID {
		t.Errorf("request id missing from APIError: %+v", ae)
	}
	if client.ErrorCode(err) != api.CodeDatasetNotFound {
		t.Errorf("ErrorCode = %q", client.ErrorCode(err))
	}
	if !strings.Contains(ae.Error(), "dataset_not_found") {
		t.Errorf("Error() = %q", ae.Error())
	}

	// A non-envelope error body (proxy page) still yields a usable
	// APIError instead of a decode failure.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer plain.Close()
	pc, _ := client.New(plain.URL, client.WithRetries(0))
	_, err = pc.Health(context.Background())
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway || ae.Code != api.CodeInternal {
		t.Errorf("non-envelope error = %v", err)
	}
}

// TestClientRetry pins the transient-retry behavior: 503s with the
// envelope are retried with backoff until the server recovers, and
// WithRetries(0) disables that.
func TestClientRetry(t *testing.T) {
	var calls int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.Errorf(api.CodeQueueFull, "try later"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.Health{Status: "ok", Version: "test"})
	}))
	defer flaky.Close()

	c, _ := client.New(flaky.URL, client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("health after retries = %+v, %v (calls %d)", h, err, calls)
	}
	if calls != 3 {
		t.Errorf("server saw %d calls, want 3", calls)
	}

	calls = 0
	c0, _ := client.New(flaky.URL, client.WithRetries(0))
	if _, err := c0.Health(context.Background()); client.ErrorCode(err) != api.CodeQueueFull {
		t.Errorf("no-retry error = %v", err)
	}
	if calls != 1 {
		t.Errorf("no-retry client made %d calls", calls)
	}

	// A cancelled context aborts the backoff wait promptly.
	calls = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc, _ := client.New(flaky.URL, client.WithBackoff(time.Hour, time.Hour))
	if _, err := cc.Health(ctx); err == nil {
		t.Error("cancelled context retried to success")
	}
}

// TestClientWaitJobPollFallback exercises WaitJob against a server
// without the events route: the client must fall back to polling and
// still return the terminal status.
func TestClientWaitJobPollFallback(t *testing.T) {
	var polls int
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("GET /v1/jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Errorf(api.CodeNotFound, "no events here"))
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		polls++
		st := api.JobStatus{ID: "job-1", State: api.JobRunning}
		if polls >= 3 {
			st.State = api.JobDone
			st.Progress = 1
		}
		writeJSON(w, st)
	})
	legacy := httptest.NewServer(mux)
	defer legacy.Close()

	c, _ := client.New(legacy.URL, client.WithBackoff(time.Millisecond, 2*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.WaitJob(ctx, "job-1")
	if err != nil || st.State != api.JobDone {
		t.Fatalf("WaitJob = %+v, %v after %d polls", st, err, polls)
	}
	if polls < 3 {
		t.Errorf("only %d polls", polls)
	}
}

// TestClientWatchJobDaemonRestart pins the restart-detection fallback:
// when the daemon restarts mid-watch (a new X-Glove-Boot-ID on
// reconnect), the recovered event log numbers from 1 again, so resuming
// with the old cursor would skip the whole recovered history. The
// client must drop the stale cursor and replay fresh.
func TestClientWatchJobDaemonRestart(t *testing.T) {
	var (
		mu          sync.Mutex
		boot        = "boot-1"
		finished    bool
		boot2Afters []string
	)
	sse := func(w http.ResponseWriter, events []api.JobEvent) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, e := range events {
			raw, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "data: %s\n\n", raw)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b := boot
		mu.Unlock()
		w.Header().Set("X-Glove-Boot-ID", b)
		if b == "boot-1" {
			// First boot: three events, stream ends without a terminal
			// one (the daemon "crashed" mid-job) — then the boot flips.
			sse(w, []api.JobEvent{
				{Seq: 1, Type: api.EventState, JobID: "job-1", State: api.JobQueued},
				{Seq: 2, Type: api.EventState, JobID: "job-1", State: api.JobRunning},
				{Seq: 3, Type: api.EventProgress, JobID: "job-1", Progress: 0.5},
			})
			mu.Lock()
			boot = "boot-2"
			mu.Unlock()
			return
		}
		// Second boot: the recovered log restarts at seq 1. A stale
		// after=3 cursor selects nothing; only a fresh replay reaches
		// the terminal event.
		mu.Lock()
		boot2Afters = append(boot2Afters, r.URL.Query().Get("after"))
		mu.Unlock()
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		full := []api.JobEvent{
			{Seq: 1, Type: api.EventState, JobID: "job-1", State: api.JobQueued},
			{Seq: 2, Type: api.EventState, JobID: "job-1", State: api.JobRunning},
			{Seq: 3, Type: api.EventState, JobID: "job-1", State: api.JobDone},
		}
		var out []api.JobEvent
		for _, e := range full {
			if e.Seq > after {
				out = append(out, e)
			}
		}
		sse(w, out)
		if len(out) > 0 && out[len(out)-1].Terminal() {
			mu.Lock()
			finished = true
			mu.Unlock()
		}
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		st := api.JobStatus{ID: "job-1", State: api.JobRunning}
		if finished {
			st.State = api.JobDone
			st.Progress = 1
		}
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, _ := client.New(srv.URL, client.WithBackoff(time.Millisecond, 2*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seen []int
	st, err := c.WatchJob(ctx, "job-1", func(e client.JobEvent) { seen = append(seen, e.Seq) })
	if err != nil || st.State != api.JobDone {
		t.Fatalf("WatchJob = %+v, %v", st, err)
	}
	// The stale-cursor probe reaches boot-2 first (that is how the boot
	// change is discovered), but it must be abandoned unread and
	// followed by a fresh from-the-beginning replay.
	mu.Lock()
	afters := append([]string(nil), boot2Afters...)
	mu.Unlock()
	if len(afters) < 2 || afters[0] != "3" || afters[len(afters)-1] != "" {
		t.Fatalf("boot-2 saw after cursors %q, want a stale probe then a fresh replay", afters)
	}
	// The callback saw both boots' logs: seqs restarting at 1 mark the
	// post-restart replay.
	want := []int{1, 2, 3, 1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("callback saw seqs %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("callback saw seqs %v, want %v", seen, want)
		}
	}
}

// TestClientBatchResult covers the batch (non-windowed) download path
// plus transparent gzip: the bytes the SDK hands back parse and
// validate regardless of the transport's content negotiation.
func TestClientBatchResult(t *testing.T) {
	srv := newService(t)
	ctx := context.Background()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	table, csvBytes := synthCSV(t, 30, 2)
	ds, err := c.CreateDataset(ctx, bytes.NewReader(csvBytes),
		client.IngestOptions{Lat: table.Center.Lat, Lon: table.Center.Lon, Days: table.SpanDays})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{DatasetID: ds.ID, K: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.JobDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	body, err := c.JobResult(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	rel, err := cdr.ReadAnonymizedCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateKAnonymity(rel, 2); err != nil {
		t.Error(err)
	}
	if rel.Users() != ds.Users {
		t.Errorf("release hides %d users, want %d", rel.Users(), ds.Users)
	}

	// Windows of a batch job do not exist.
	if _, err := c.WindowResult(ctx, job.ID, 0); client.ErrorCode(err) != api.CodeWindowNotFound {
		t.Errorf("window of batch job: %v", err)
	}
}
