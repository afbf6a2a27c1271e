package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// scrape fetches the Prometheus exposition and parses it through the
// strict exposition validator, so every scrape in this file doubles as
// a format check.
func scrape(t *testing.T, baseURL string) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("scrape content type %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	out := make(map[string]*obs.Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

// value returns the single sample of a family matching the given
// name+label filter, failing when none matches.
func value(t *testing.T, fams map[string]*obs.Family, name string, labels map[string]string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("family %s missing from scrape", name)
	}
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			got := ""
			for _, l := range s.Labels {
				if l.Name == k {
					got = l.Value
				}
			}
			if got != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("no %s sample with labels %v", name, labels)
	return 0
}

// TestServerExpositionRoundTrip is the acceptance pin for GET /metrics:
// after real traffic (ingest, a sharded batch job, a windowed job, and
// an error response) every line of a live scrape must survive the
// strict exposition parser, and the core series must reflect the work
// that happened.
func TestServerExpositionRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	table := synthTable(t, 40, 2)
	ds := ingestTable(t, srv.URL, table, "exp")

	st := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, Shards: 2})
	waitJobDone(t, srv.URL, st.ID)
	wst := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, WindowHours: 24})
	waitJobDone(t, srv.URL, wst.ID)
	// One envelope error, so an error status lands in the HTTP series.
	if resp, err := http.Get(srv.URL + "/v1/jobs/job-999999"); err == nil {
		resp.Body.Close()
	}

	fams := scrape(t, srv.URL)

	if got := value(t, fams, "glove_datasets", nil); got != 1 {
		t.Errorf("glove_datasets = %g, want 1", got)
	}
	if got := value(t, fams, "glove_ingest_records_total", nil); got != float64(len(table.Records)) {
		t.Errorf("glove_ingest_records_total = %g, want %d", got, len(table.Records))
	}
	if got := value(t, fams, "glove_jobs_submitted_total", nil); got != 2 {
		t.Errorf("glove_jobs_submitted_total = %g, want 2", got)
	}
	if got := value(t, fams, "glove_jobs_finished_total", map[string]string{"state": "done"}); got != 2 {
		t.Errorf(`glove_jobs_finished_total{state="done"} = %g, want 2`, got)
	}
	if got := value(t, fams, "glove_jobs_running", nil); got != 0 {
		t.Errorf("glove_jobs_running = %g after all jobs done", got)
	}
	if got := value(t, fams, "glove_window_releases_total", nil); got < 1 {
		t.Errorf("glove_window_releases_total = %g, want >= 1", got)
	}
	if got := value(t, fams, "glove_shards_total", nil); got < 3 {
		t.Errorf("glove_shards_total = %g, want >= 3 (2 batch shards + windows)", got)
	}
	if got := value(t, fams, "glove_http_requests_total",
		map[string]string{"route": "/v1/jobs/{id}", "method": "GET", "status": "404"}); got < 1 {
		t.Errorf("404 request series = %g, want >= 1", got)
	}
	// The route label must be the bounded pattern, never a raw path.
	for _, s := range fams["glove_http_requests_total"].Samples {
		for _, l := range s.Labels {
			if l.Name == "route" && strings.Contains(l.Value, "job-") {
				t.Errorf("route label leaked a raw path: %q", l.Value)
			}
		}
	}
	// Runtime gauges from the satellite: process health + boot identity.
	if got := value(t, fams, "glove_process_goroutines", nil); got < 1 {
		t.Errorf("glove_process_goroutines = %g", got)
	}
	if _, ok := fams["glove_process_heap_inuse_bytes"]; !ok {
		t.Error("glove_process_heap_inuse_bytes missing")
	}
	if got := value(t, fams, "glove_boot_info", nil); got != 1 {
		t.Errorf("glove_boot_info = %g, want 1", got)
	}
	// Histograms rode through ParseText, which enforces cumulative
	// buckets ending at +Inf; pin that the job-duration histogram saw
	// both jobs.
	hist, ok := fams["glove_job_duration_seconds"]
	if !ok {
		t.Fatal("glove_job_duration_seconds missing from scrape")
	}
	count := -1.0
	for _, s := range hist.Samples {
		if s.Name == "glove_job_duration_seconds_count" {
			count = s.Value
		}
	}
	if count != 2 {
		t.Errorf("glove_job_duration_seconds_count = %g, want 2", count)
	}
}

// TestJobTraceEndpoint pins the trace acceptance criterion: a windowed
// job's span tree covers plan, every window, per-window shards, and the
// engine's index-build/merge phases grafted under each shard.
func TestJobTraceEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	table := synthTable(t, 40, 2)
	ds := ingestTable(t, srv.URL, table, "trace")
	st := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, WindowHours: 24})
	waitJobDone(t, srv.URL, st.ID)

	var tr api.JobTrace
	resp := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/trace", &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if tr.JobID != st.ID || tr.State != JobDone {
		t.Fatalf("trace header = %s/%s", tr.JobID, tr.State)
	}
	root := tr.Root
	if root == nil || root.Kind != obs.SpanJob {
		t.Fatalf("root span = %+v", root)
	}
	if root.Unfinished {
		t.Error("terminal job has an unfinished root span")
	}

	kinds := make(map[obs.SpanKind]int)
	var walk func(s *api.TraceSpan)
	var shardWithPhases bool
	walk = func(s *api.TraceSpan) {
		kinds[s.Kind]++
		if s.Kind == obs.SpanShard {
			var build, merge bool
			for _, c := range s.Children {
				build = build || c.Kind == obs.SpanIndexBuild
				merge = merge || c.Kind == obs.SpanMerge
			}
			if build && merge {
				shardWithPhases = true
			}
			if _, ok := s.Attrs["fingerprints"]; !ok {
				t.Errorf("shard span %q has no fingerprints attr", s.Name)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)

	if kinds[obs.SpanPlan] != 1 {
		t.Errorf("plan spans = %d, want 1", kinds[obs.SpanPlan])
	}
	if want := len(waitJobDone(t, srv.URL, st.ID).Windows); kinds[obs.SpanWindow] != want {
		t.Errorf("window spans = %d, want %d", kinds[obs.SpanWindow], want)
	}
	if kinds[obs.SpanShard] < 1 {
		t.Errorf("shard spans = %d, want >= 1", kinds[obs.SpanShard])
	}
	if !shardWithPhases {
		t.Error("no shard span carries index_build + merge children")
	}
	if kinds[obs.SpanValidate] < 1 {
		t.Errorf("validate spans = %d, want >= 1", kinds[obs.SpanValidate])
	}

	// Each release is measured at its commit under one analysis span, a
	// child of its window's span after validation; nothing runs after
	// the last window.
	windows := 0
	for _, c := range root.Children {
		if c.Kind == obs.SpanAnalysis {
			t.Error("an analysis span under the root")
		}
		if c.Kind != obs.SpanWindow {
			continue
		}
		windows++
		var analyses int
		validated := false
		for _, a := range c.Children {
			validated = validated || a.Kind == obs.SpanValidate
			if a.Kind != obs.SpanAnalysis {
				continue
			}
			analyses++
			if !validated {
				t.Errorf("window %s: analysis span before validation", c.Name)
			}
			if _, ok := a.Attrs["fingerprints"]; !ok {
				t.Errorf("window %s: analysis span has no fingerprints attr", c.Name)
			}
			if skipped, ok := a.Attrs["skipped"]; ok {
				t.Errorf("window %s: analysis of a 40-user window skipped: %v", c.Name, skipped)
			}
			if _, ok := a.Attrs["build_ms"]; ok {
				t.Errorf("window %s: analysis span has build_ms; nothing is built", c.Name)
			}
			// Where the commit's measurement time goes: the k-gap pass
			// with its candidate pairs and, from the second release on,
			// the linkage pair against the previous one.
			keys := []string{"kgap_ms", "kgap_candidates"}
			if windows > 1 {
				keys = append(keys, "linkage_ms")
			} else if _, ok := a.Attrs["linkage_ms"]; ok {
				t.Errorf("window %s: the first release has a linkage pair", c.Name)
			}
			var parts float64
			for _, key := range keys {
				v, ok := a.Attrs[key].(float64)
				if !ok || v < 0 {
					t.Errorf("window %s: analysis span %s = %v, want a non-negative number", c.Name, key, a.Attrs[key])
				}
				if key != "kgap_candidates" {
					parts += v
				}
			}
			if parts > a.DurationMS {
				t.Errorf("window %s: analysis parts sum to %g ms, more than the span's %g ms", c.Name, parts, a.DurationMS)
			}
		}
		if analyses != 1 {
			t.Errorf("window %s has %d analysis spans, want 1", c.Name, analyses)
		}
	}
	if windows < 2 || kinds[obs.SpanAnalysis] != windows {
		t.Fatalf("%d analysis spans over %d windows, want one per window of a multi-window job", kinds[obs.SpanAnalysis], windows)
	}
}

// TestJobTraceNotFound pins the stable error code for a job that never
// ran: registered in the code table, 404 on the wire.
func TestJobTraceNotFound(t *testing.T) {
	srv, mgr := newTestServer(t)
	// A queued job that never started has no trace; inject one directly
	// so the condition is deterministic rather than a scheduling race.
	mgr.mu.Lock()
	mgr.jobs["job-queued"] = newJob("job-queued", JobSpec{})
	mgr.order = append(mgr.order, "job-queued")
	mgr.mu.Unlock()

	resp, err := http.Get(srv.URL + "/v1/jobs/job-queued/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace status %d, want 404", resp.StatusCode)
	}
	var envelope api.Error
	if err := decodeBody(resp, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != api.CodeTraceNotFound {
		t.Fatalf("code = %q, want %q", envelope.Code, api.CodeTraceNotFound)
	}
	found := false
	for _, c := range api.Codes() {
		found = found || c == api.CodeTraceNotFound
	}
	if !found {
		t.Error("trace_not_found is not in the registered code table")
	}
}

// TestMetricsReportCappedAndIncremental pins the satellite fix to the
// JSON report: the completed-job detail list is bounded by retention
// and the cap, while the lifetime totals keep counting across eviction.
func TestMetricsReportCappedAndIncremental(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{MaxConcurrentJobs: 2, MaxFinishedJobs: 3})
	t.Cleanup(mgr.Close)
	srvh := NewServer(reg, mgr)
	srv := newLocalServer(t, srvh)

	table := synthTable(t, 20, 2)
	ds := ingestTable(t, srv, table, "cap")
	const jobs = 5
	for i := 0; i < jobs; i++ {
		st := submitJob(t, srv, JobSpec{DatasetID: ds.ID, K: 2})
		waitJobDone(t, srv, st.ID)
	}

	var rep MetricsReport
	getJSON(t, srv+"/v1/metrics", &rep)
	if rep.CompletedTotal != jobs {
		t.Errorf("CompletedTotal = %d, want %d (must survive eviction)", rep.CompletedTotal, jobs)
	}
	if len(rep.Completed) > 3 {
		t.Errorf("Completed detail = %d entries, want <= 3 after eviction", len(rep.Completed))
	}
	for i := 1; i < len(rep.Completed); i++ {
		if rep.Completed[i].FinishedAt.After(*rep.Completed[i-1].FinishedAt) {
			t.Error("Completed detail not newest-first")
		}
	}
	if rep.Runtime.Goroutines < 1 || rep.Runtime.BootID == "" {
		t.Errorf("runtime block incomplete: %+v", rep.Runtime)
	}
}

// TestExpositionMonotonicUnderJobChurn scrapes concurrently with job
// churn (run under -race in CI): every scrape must parse, and the
// submitted-jobs counter must never move backwards between scrapes.
func TestExpositionMonotonicUnderJobChurn(t *testing.T) {
	srv, _ := newTestServer(t)
	table := synthTable(t, 20, 2)
	ds := ingestTable(t, srv.URL, table, "churn")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			st := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2})
			waitJobDone(t, srv.URL, st.ID)
		}
		close(done)
	}()

	last := -1.0
	for {
		select {
		case <-done:
			wg.Wait()
			if got := value(t, scrape(t, srv.URL), "glove_jobs_submitted_total", nil); got != 4 {
				t.Errorf("final glove_jobs_submitted_total = %g, want 4", got)
			}
			return
		default:
		}
		fams := scrape(t, srv.URL)
		got := value(t, fams, "glove_jobs_submitted_total", nil)
		if got < last {
			t.Fatalf("glove_jobs_submitted_total went backwards: %g after %g", got, last)
		}
		last = got
	}
}

// decodeBody decodes a JSON response body already held open.
func decodeBody(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// newLocalServer spins an httptest server around a handler with
// cleanup, returning its base URL.
func newLocalServer(t *testing.T, h http.Handler) string {
	t.Helper()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return s.URL
}
