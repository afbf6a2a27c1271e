package service

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// fetchRelease downloads one release with the given Accept-Encoding and
// returns the response (body already read) and its body bytes. The
// explicit header bypasses the transport's transparent gzip handling,
// so a gzip body arrives as sent.
func fetchRelease(t testing.TB, url, acceptEncoding, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", acceptEncoding)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// checkRelease downloads a release both ways and checks the serving
// contract: each body carries its exact Content-Length, the gzip body
// inflates to the identity body, and the ETag answers a conditional
// request with 304. It returns the identity body.
func checkRelease(t *testing.T, url string) []byte {
	t.Helper()
	resp, csv := fetchRelease(t, url, "identity", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, csv)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("identity download: Content-Encoding %q", enc)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(csv)) {
		t.Errorf("identity download: Content-Length %q for %d body bytes", cl, len(csv))
	}

	resp, gz := fetchRelease(t, url, "gzip", "")
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("gzip download: Content-Encoding %q", enc)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(gz)) {
		t.Errorf("gzip download: Content-Length %q for %d body bytes", cl, len(gz))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, csv) {
		t.Error("gzip body inflates to different bytes than the identity body")
	}

	etag := resp.Header.Get("ETag")
	resp, body := fetchRelease(t, url, "gzip", etag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("If-None-Match %s: status %d, %d body bytes", etag, resp.StatusCode, len(body))
	}
	return csv
}

// TestWindowReleaseServedFromStoredBytes pins the release-serving
// contract on the bytes stored at commit: a window release downloads
// byte-identically twice in one daemon life and again after a restart
// from the raw journal and from a checkpoint, and every download obeys
// the Content-Length, gzip and 304 contract.
func TestWindowReleaseServedFromStoredBytes(t *testing.T) {
	dir := t.TempDir()
	jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
	info := ingestSynth(t, reg, 40, 2)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 24})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone || len(final.Windows) < 2 {
		t.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
	}
	path := fmt.Sprintf("/v1/jobs/%s/windows/%d/result", st.ID, final.Windows[0].Index)

	download := func(mgr *Manager, reg *Registry) []byte {
		t.Helper()
		srv := httptest.NewServer(NewServer(reg, mgr))
		defer srv.Close()
		return checkRelease(t, srv.URL+path)
	}
	want := download(mgr, reg)
	if got := download(mgr, reg); !bytes.Equal(got, want) {
		t.Error("second download differs from the first")
	}
	rel, err := mgr.WindowResult(st.ID, final.Windows[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedCSV(t, rel), want) {
		t.Error("download differs from the stored release")
	}
	crashClose(mgr, reg, jrnl)

	// Restart from the raw journal, then checkpoint and restart again.
	jrnl2, reg2, mgr2, _ := bootService(t, dir, ManagerOptions{})
	if got := download(mgr2, reg2); !bytes.Equal(got, want) {
		t.Error("download after a journal replay differs from the original")
	}
	mgr2.Drain(time.Second)
	if err := jrnl2.Checkpoint(reg2, mgr2); err != nil {
		t.Fatal(err)
	}
	crashClose(mgr2, reg2, jrnl2)
	jrnl3, reg3, mgr3, _ := bootService(t, dir, ManagerOptions{})
	defer crashClose(mgr3, reg3, jrnl3)
	if got := download(mgr3, reg3); !bytes.Equal(got, want) {
		t.Error("download after a checkpoint restart differs from the original")
	}
}

// discardResponse is a ResponseWriter that drops the body: the
// allocation guard below counts the server's allocations only.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// storedReleaseJob adopts a done one-window job whose release is the
// encoded synthetic input of the given size, without running GLOVE (the
// serving path reads only the stored bytes), and returns the release's
// CSV length.
func storedReleaseJob(t *testing.T, mgr *Manager, id string, users int) int {
	t.Helper()
	ds, err := tableView(t, synthTable(t, users, 1)).BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	csv, rel, err := encodeRelease(ds)
	if err != nil {
		t.Fatal(err)
	}
	job := newJob(id, JobSpec{K: 2, WindowHours: 24})
	job.state = JobDone
	job.windows = []*jobWindow{{index: 0, state: WindowDone, users: users, result: rel}}
	mgr.adoptRestored(job)
	return len(csv)
}

// TestReleaseDownloadAllocsIndependentOfSize guards against a
// per-download encode coming back. A gzip download writes the stored
// bytes, so a 2000-user release costs no more allocations than a
// 250-user one. An identity download inflates them, and the inflater
// allocates a few Huffman tables per compressed block (about four per
// 64 KiB of CSV): its growth is held under one allocation per 8 KiB,
// where a per-download encode allocates several per ~60-byte row.
func TestReleaseDownloadAllocsIndependentOfSize(t *testing.T) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	srv := NewServer(reg, mgr)
	small := storedReleaseJob(t, mgr, "job-small", 250)
	large := storedReleaseJob(t, mgr, "job-large", 2000)
	if large < 4*small {
		t.Fatalf("releases of %d and %d bytes are too close in size to compare", small, large)
	}
	for _, c := range []struct {
		enc   string
		slack float64
	}{
		{"gzip", 2},
		{"identity", float64(large-small) / 8192},
	} {
		allocs := func(id string) float64 {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/windows/0/result", nil)
			req.Header.Set("Accept-Encoding", c.enc)
			return testing.AllocsPerRun(20, func() {
				srv.ServeHTTP(&discardResponse{header: make(http.Header)}, req)
			})
		}
		a250, a2000 := allocs("job-small"), allocs("job-large")
		if a2000 > a250+c.slack {
			t.Errorf("%s download: %.0f allocations for a %d-byte release, %.0f for a %d-byte one (slack %.0f)",
				c.enc, a2000, large, a250, small, c.slack)
		}
	}
}

// BenchmarkReleaseDownload measures one download of a committed
// 250-subscriber, one-day window release (k=2) over loopback, as a
// client fetches it right after its commit event: the transport
// negotiates gzip, so the stored gzip bytes are served and the client
// inflates them.
func BenchmarkReleaseDownload(b *testing.B) {
	reg := NewRegistry()
	mgr := NewManager(reg, ManagerOptions{})
	defer mgr.Close()
	info := ingestSynth(b, reg, 250, 1)
	st, err := mgr.Submit(JobSpec{DatasetID: info.ID, K: 2, WindowHours: 24})
	if err != nil {
		b.Fatal(err)
	}
	final := waitForState(b, mgr, st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != JobDone || len(final.Windows) != 1 {
		b.Fatalf("job finished %s with %d windows: %s", final.State, len(final.Windows), final.Error)
	}
	rel, err := mgr.WindowResult(st.ID, final.Windows[0].Index)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()
	url := fmt.Sprintf("%s/v1/jobs/%s/windows/%d/result", srv.URL, st.ID, final.Windows[0].Index)
	size := int64(rel.csvLen)
	download := func() {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != size {
			b.Fatalf("downloaded %d of %d bytes: %v", n, size, err)
		}
	}
	// One untimed download opens the keep-alive connection, so even a
	// -benchtime=1x sample (make bench-json) times a download, not a
	// TCP handshake.
	download()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		download()
	}
}
