package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
)

// ingestTable uploads a table and returns its registered info.
func ingestTable(t *testing.T, baseURL string, table *cdr.Table, name string) DatasetInfo {
	t.Helper()
	var raw bytes.Buffer
	if err := cdr.WriteCSV(&raw, table); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/datasets?name=%s&lat=%g&lon=%g&days=%d",
		baseURL, name, table.Center.Lat, table.Center.Lon, table.SpanDays)
	resp, err := http.Post(url, "text/csv", bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ds DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	return ds
}

// submitJob posts a spec and returns the accepted status.
func submitJob(t *testing.T, baseURL string, spec JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJobDone polls until the job is terminal and asserts it is done.
func waitJobDone(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var st JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		getJSON(t, baseURL+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
	}
	return st
}

// TestServerErrorEnvelope pins the contract invariant that no handler
// answers an error outside the structured envelope: every error path —
// including the mux 404/405 fallthroughs and the ingestion byte cap —
// yields a JSON body with a registered machine-readable code, the
// request id echoed in the details, and the status the code maps to.
func TestServerErrorEnvelope(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	t.Cleanup(mgr.Close)
	h := NewServer(reg, mgr)
	h.MaxIngestBytes = 64
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	registered := make(map[api.Code]bool)
	for _, c := range api.Codes() {
		registered[c] = true
	}

	oversized := "user,lat,lon,minute\n" + strings.Repeat("u,1,2,3\n", 100)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   api.Code
	}{
		{"route fallthrough", "GET", "/nope", "", 404, api.CodeNotFound},
		{"deep fallthrough", "GET", "/v1/unknown/deep/path", "", 404, api.CodeNotFound},
		{"method mismatch", "PUT", "/v1/datasets", "", 405, api.CodeMethodNotAllowed},
		{"method mismatch on item", "PATCH", "/v1/jobs/job-000001", "", 405, api.CodeMethodNotAllowed},
		{"bad lat", "POST", "/v1/datasets?lat=bogus", "x", 400, api.CodeInvalidArgument},
		{"garbage body", "POST", "/v1/datasets", "garbage", 400, api.CodeInvalidArgument},
		{"oversized body", "POST", "/v1/datasets", oversized, 413, api.CodeBodyTooLarge},
		{"unknown dataset", "GET", "/v1/datasets/ds-999999", "", 404, api.CodeDatasetNotFound},
		{"delete unknown dataset", "DELETE", "/v1/datasets/ds-999999", "", 404, api.CodeDatasetNotFound},
		{"append unknown dataset", "POST", "/v1/datasets/ds-999999/records", "x", 404, api.CodeDatasetNotFound},
		{"bad limit", "GET", "/v1/datasets?limit=bogus", "", 400, api.CodeInvalidArgument},
		{"negative limit", "GET", "/v1/jobs?limit=-3", "", 400, api.CodeInvalidArgument},
		{"garbage page token", "GET", "/v1/datasets?page_token=%21%21%21", "", 400, api.CodeInvalidPageToken},
		{"cross-collection token", "GET", "/v1/jobs?page_token=" + api.EncodePageToken("datasets", "ds-000001"), "", 400, api.CodeInvalidPageToken},
		{"bad spec json", "POST", "/v1/jobs", "not json", 400, api.CodeInvalidSpec},
		{"oversized spec body", "POST", "/v1/jobs", `{"dataset_id":"` + strings.Repeat("x", 2<<20) + `"}`, 413, api.CodeBodyTooLarge},
		{"unknown spec field", "POST", "/v1/jobs", `{"zap":1}`, 400, api.CodeInvalidSpec},
		{"spec k too small", "POST", "/v1/jobs", `{"dataset_id":"x","k":1}`, 400, api.CodeInvalidSpec},
		{"spec unknown dataset", "POST", "/v1/jobs", `{"dataset_id":"nope","k":2}`, 404, api.CodeDatasetNotFound},
		{"unknown job", "GET", "/v1/jobs/job-999999", "", 404, api.CodeJobNotFound},
		{"cancel unknown job", "DELETE", "/v1/jobs/job-999999", "", 404, api.CodeJobNotFound},
		{"result of unknown job", "GET", "/v1/jobs/job-999999/result", "", 404, api.CodeJobNotFound},
		{"events of unknown job", "GET", "/v1/jobs/job-999999/events", "", 404, api.CodeJobNotFound},
		{"bad event cursor", "GET", "/v1/jobs/job-999999/events?after=x", "", 400, api.CodeInvalidArgument},
		{"window of unknown job", "GET", "/v1/jobs/job-999999/windows/0/result", "", 404, api.CodeJobNotFound},
		{"trace of unknown job", "GET", "/v1/jobs/job-999999/trace", "", 404, api.CodeJobNotFound},
		{"bad window index", "GET", "/v1/jobs/job-999999/windows/zero/result", "", 400, api.CodeInvalidArgument},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q, want application/json", ct)
			}
			reqID := resp.Header.Get("X-Request-ID")
			if reqID == "" {
				t.Error("missing X-Request-ID header")
			}
			var envelope api.Error
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("body is not the envelope: %v", err)
			}
			if envelope.Code != tc.code {
				t.Errorf("code = %q, want %q", envelope.Code, tc.code)
			}
			if !registered[envelope.Code] {
				t.Errorf("code %q is not registered", envelope.Code)
			}
			if envelope.Message == "" {
				t.Error("empty message")
			}
			if got, _ := envelope.Details["request_id"].(string); got != reqID {
				t.Errorf("details.request_id = %q, header %q", got, reqID)
			}
			if tc.status == 405 {
				if allow := resp.Header.Get("Allow"); allow == "" {
					t.Error("405 without Allow header")
				}
			}
			if envelope.Code == api.CodeQueueFull && resp.Header.Get("Retry-After") == "" {
				t.Error("queue_full without Retry-After")
			}
		})
	}

	// An inbound X-Request-ID is echoed rather than replaced.
	req, _ := http.NewRequest("GET", srv.URL+"/nope", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("X-Request-ID = %q, want the caller's", got)
	}
}

// TestServerPagination covers the cursor boundaries on both listings:
// full walk, exact-limit page, empty listing, and the stale cursor.
func TestServerPagination(t *testing.T) {
	srv, _ := newTestServer(t)

	// Empty listing: one empty page, no token.
	var page api.DatasetPage
	getJSON(t, srv.URL+"/v1/datasets", &page)
	if len(page.Datasets) != 0 || page.NextPageToken != "" {
		t.Fatalf("empty listing page = %+v", page)
	}

	table := synthTable(t, 12, 2)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, ingestTable(t, srv.URL, table, fmt.Sprintf("p%d", i)).ID)
	}

	// Walk with limit 2: pages of 2, 2, 1 in ingestion order.
	var got []string
	url := srv.URL + "/v1/datasets?limit=2"
	pages := 0
	for {
		var p api.DatasetPage
		getJSON(t, url, &p)
		pages++
		if pages < 3 && len(p.Datasets) != 2 {
			t.Fatalf("page %d has %d items", pages, len(p.Datasets))
		}
		for _, d := range p.Datasets {
			got = append(got, d.ID)
		}
		if p.NextPageToken == "" {
			break
		}
		url = srv.URL + "/v1/datasets?limit=2&page_token=" + p.NextPageToken
	}
	if pages != 3 || strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("walk = %v over %d pages, want %v", got, pages, ids)
	}

	// Exact-limit page: limit == total leaves no next token.
	var exact api.DatasetPage
	getJSON(t, srv.URL+"/v1/datasets?limit=5", &exact)
	if len(exact.Datasets) != 5 || exact.NextPageToken != "" {
		t.Fatalf("exact-limit page = %d items, token %q", len(exact.Datasets), exact.NextPageToken)
	}

	// Stale cursor: delete the dataset a token names, then resume.
	var first api.DatasetPage
	getJSON(t, srv.URL+"/v1/datasets?limit=1", &first)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets/"+first.Datasets[0].ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp := getJSON(t, srv.URL+"/v1/datasets?limit=1&page_token="+first.NextPageToken, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale cursor status = %d, want 400", resp.StatusCode)
	}

	// Jobs listing paginates the same way.
	ds := ingestTable(t, srv.URL, table, "jobsrc")
	var jobIDs []string
	for i := 0; i < 3; i++ {
		jobIDs = append(jobIDs, submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, Shards: 1}).ID)
	}
	var jp api.JobPage
	getJSON(t, srv.URL+"/v1/jobs?limit=2", &jp)
	if len(jp.Jobs) != 2 || jp.NextPageToken == "" {
		t.Fatalf("jobs page = %d items, token %q", len(jp.Jobs), jp.NextPageToken)
	}
	var jp2 api.JobPage
	getJSON(t, srv.URL+"/v1/jobs?limit=2&page_token="+jp.NextPageToken, &jp2)
	if len(jp2.Jobs) != 1 || jp2.NextPageToken != "" {
		t.Fatalf("jobs page 2 = %d items, token %q", len(jp2.Jobs), jp2.NextPageToken)
	}
	if jp.Jobs[0].ID != jobIDs[0] || jp2.Jobs[0].ID != jobIDs[2] {
		t.Fatalf("jobs order: %s..%s, want %v", jp.Jobs[0].ID, jp2.Jobs[0].ID, jobIDs)
	}
	for _, id := range jobIDs {
		waitJobDone(t, srv.URL, id)
	}
}

// sseEvent is one parsed Server-Sent-Events frame.
type sseEvent struct {
	id    string
	event string
	data  api.JobEvent
}

// readSSE parses an SSE stream to EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	var hasData bool
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if hasData {
				out = append(out, cur)
			}
			cur, hasData = sseEvent{}, false
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			hasData = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerEventStream pins SSE ordering and termination: the stream
// replays the whole lifecycle in order — queued first, strictly
// increasing dense sequence numbers, monotone progress, every window
// running before done — and the connection closes right after the
// terminal state event without the client hanging up.
func TestServerEventStream(t *testing.T) {
	srv, _ := newTestServer(t)
	table := synthTable(t, 40, 2)
	ds := ingestTable(t, srv.URL, table, "sse")
	st := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, Shards: 2, WindowHours: 24})

	// Subscribe immediately — likely mid-run — and read to EOF; the
	// server must close the stream after the terminal event.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}

	if events[0].data.Type != api.EventState || events[0].data.State != JobQueued {
		t.Errorf("first event = %+v, want queued state", events[0].data)
	}
	last := events[len(events)-1].data
	if !last.Terminal() || last.State != JobDone {
		t.Errorf("last event = %+v, want terminal done state", last)
	}

	lastProgress := 0.0
	windowState := make(map[int]WindowState)
	for i, e := range events {
		if e.data.Seq != i+1 {
			t.Fatalf("event %d has seq %d (dense ordering broken)", i, e.data.Seq)
		}
		if e.id != fmt.Sprint(e.data.Seq) || e.event != string(e.data.Type) {
			t.Errorf("frame fields (id %q, event %q) disagree with payload %+v", e.id, e.event, e.data)
		}
		if e.data.JobID != st.ID {
			t.Errorf("event %d names job %q", i, e.data.JobID)
		}
		switch e.data.Type {
		case api.EventProgress:
			if e.data.Progress < lastProgress {
				t.Errorf("progress went backwards: %g after %g", e.data.Progress, lastProgress)
			}
			lastProgress = e.data.Progress
		case api.EventWindow:
			w := e.data.Window
			if w.State == WindowDone {
				if windowState[w.Index] != WindowRunning {
					t.Errorf("window %d done without running first", w.Index)
				}
				if w.Groups <= 0 {
					t.Errorf("done window %d reports %d groups", w.Index, w.Groups)
				}
			}
			windowState[w.Index] = w.State
		}
	}
	if len(windowState) == 0 {
		t.Error("windowed job emitted no window events")
	}

	// Resume: ?after=N replays only what follows, and a finished job's
	// stream still terminates immediately.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?after=" + fmt.Sprint(len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tail := readSSE(t, resp.Body)
	if len(tail) != 1 || tail[0].data.Seq != len(events) || !tail[0].data.Terminal() {
		t.Errorf("resumed stream = %+v, want exactly the terminal event", tail)
	}

	// Last-Event-ID works the same way.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(len(events)-1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if tail := readSSE(t, resp.Body); len(tail) != 1 {
		t.Errorf("Last-Event-ID resume replayed %d events, want 1", len(tail))
	}

	// Resuming at (or past) the terminal event must close the stream
	// immediately — a terminal job appends nothing more, so the server
	// cannot sit on the connection heartbeating forever.
	done := make(chan []sseEvent, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?after=" + fmt.Sprint(len(events)))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		done <- readSSE(t, resp.Body)
	}()
	select {
	case tail := <-done:
		if len(tail) != 0 {
			t.Errorf("resume past terminal replayed %d events, want 0", len(tail))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("resume past terminal: stream never terminated")
	}

	// A batch job runs as one window, but that window is internal: its
	// stream carries no window event.
	batch := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, Shards: 2})
	resp, err = http.Get(srv.URL + "/v1/jobs/" + batch.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events = readSSE(t, resp.Body)
	for _, e := range events {
		if e.data.Type == api.EventWindow {
			t.Errorf("batch job streamed a window event: %+v", e.data)
		}
	}
	if last := events[len(events)-1].data; last.State != JobDone {
		t.Errorf("batch job stream ended on %+v, want done", last)
	}
}

// TestServerResultCaching covers the immutable-release conveniences:
// a strong ETag on results, 304 on If-None-Match, and gzip encoding
// when the client advertises it — with identical bytes either way.
func TestServerResultCaching(t *testing.T) {
	srv, _ := newTestServer(t)
	table := synthTable(t, 30, 2)
	ds := ingestTable(t, srv.URL, table, "etag")
	st := submitJob(t, srv.URL, JobSpec{DatasetID: ds.ID, K: 2, Shards: 1})
	waitJobDone(t, srv.URL, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.Contains(etag, st.ID) {
		t.Fatalf("ETag = %q", etag)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Errorf("Vary = %q", vary)
	}

	// Conditional re-download is free.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/result", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("If-None-Match: status %d, %d body bytes", resp.StatusCode, len(body))
	}

	// A weak or multi-tag header still matches.
	req.Header.Set("If-None-Match", `"other", W/`+etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("weak multi-tag If-None-Match: status %d", resp.StatusCode)
	}

	// Explicit gzip negotiation (bypassing the transport's transparent
	// handling) yields a gzip body that inflates to the same bytes.
	req, _ = http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/result", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q", enc)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, plain) {
		t.Error("gzip body inflates to different bytes")
	}

	// q=0 refuses gzip.
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if enc := resp2.Header.Get("Content-Encoding"); enc == "gzip" {
		t.Error("gzip served despite q=0")
	}
}
