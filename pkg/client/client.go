// Package client is the typed Go SDK for the gloved anonymization
// service. It is built directly on the wire contract of internal/api —
// the same DTOs the server marshals, re-exported here, so client and
// server can never drift — and deliberately never imports
// internal/service (enforced by a build gate in the Makefile).
//
// Every method takes a context and maps non-2xx responses to a typed
// *APIError carrying the structured envelope; transient failures
// (connection errors, 429/502/503/504) of replayable requests are
// retried with exponential backoff. Dataset ingestion streams the
// caller's reader straight onto the wire, and WaitJob follows the
// job's Server-Sent-Events stream, falling back to status polling when
// streaming is unavailable.
//
//	c, _ := client.New("http://localhost:8080")
//	ds, _ := c.CreateDataset(ctx, csvFile, client.IngestOptions{Name: "civ", Days: 14})
//	job, _ := c.SubmitJob(ctx, client.JobSpec{DatasetID: ds.ID, K: 2})
//	done, _ := c.WaitJob(ctx, job.ID)
//	body, _ := c.JobResult(ctx, done.ID)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// Wire DTOs, re-exported from the contract package.
type (
	DatasetInfo  = api.DatasetInfo
	DatasetPage  = api.DatasetPage
	JobSpec      = api.JobSpec
	JobStatus    = api.JobStatus
	JobPage      = api.JobPage
	JobState     = api.JobState
	JobEvent     = api.JobEvent
	WindowStatus = api.WindowStatus
	WindowState  = api.WindowState
	JobTrace     = api.JobTrace
	TraceSpan    = api.TraceSpan
	Health       = api.Health
	Code         = api.Code
)

// APIError is the typed error for any non-2xx response: the HTTP
// status, the request id the server assigned, and the structured
// envelope (code, message, details) the contract guarantees.
type APIError struct {
	StatusCode int
	RequestID  string
	Code       Code
	Message    string
	Details    map[string]any
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.StatusCode)
}

// ErrorCode extracts the machine-readable code from any error returned
// by this package ("" when err is not an *APIError).
func ErrorCode(err error) Code {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// Client talks to one gloved server.
type Client struct {
	baseURL   string
	httpc     *http.Client
	userAgent string

	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (for custom
// transports, proxies, or TLS). Avoid setting its Timeout — it would
// sever long event streams; use per-call contexts instead.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetries bounds how many times a transient failure is retried
// (0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff tunes the retry schedule: the first delay and its cap
// (delays double between attempts).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = base, max }
}

// WithUserAgent overrides the User-Agent header.
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: server URL %q needs an http(s) scheme", baseURL)
	}
	c := &Client{
		baseURL:    strings.TrimRight(u.String(), "/"),
		httpc:      &http.Client{},
		userAgent:  "glove-client/" + apiVersionTag(),
		maxRetries: 3,
		backoff:    100 * time.Millisecond,
		maxBackoff: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// apiVersionTag keeps the default User-Agent honest without importing
// internal/version (which would be fine) — the path version suffices.
func apiVersionTag() string { return "v1" }

// --- datasets ---

// IngestOptions is the metadata of a dataset ingestion; zero fields
// fall back to the server defaults.
type IngestOptions struct {
	Name string
	// Lat / Lon are the projection center; both zero means "use the
	// server default".
	Lat, Lon float64
	// Days is the recording span; 0 uses the server default.
	Days int
}

// CreateDataset streams a raw record CSV (user,lat,lon,minute) into a
// new dataset. The body is not replayable, so this call is never
// retried.
func (c *Client) CreateDataset(ctx context.Context, records io.Reader, opt IngestOptions) (DatasetInfo, error) {
	q := url.Values{}
	if opt.Name != "" {
		q.Set("name", opt.Name)
	}
	if opt.Lat != 0 || opt.Lon != 0 {
		q.Set("lat", strconv.FormatFloat(opt.Lat, 'g', -1, 64))
		q.Set("lon", strconv.FormatFloat(opt.Lon, 'g', -1, 64))
	}
	if opt.Days != 0 {
		q.Set("days", strconv.Itoa(opt.Days))
	}
	var info DatasetInfo
	err := c.doUpload(ctx, "/v1/datasets", q, records, &info)
	return info, err
}

// AppendRecords streams additional records onto a dataset feed and
// returns the metadata with the bumped version. Not retried (streaming
// body).
func (c *Client) AppendRecords(ctx context.Context, datasetID string, records io.Reader) (DatasetInfo, error) {
	var info DatasetInfo
	err := c.doUpload(ctx, "/v1/datasets/"+url.PathEscape(datasetID)+"/records", nil, records, &info)
	return info, err
}

// GetDataset fetches one dataset's metadata.
func (c *Client) GetDataset(ctx context.Context, datasetID string) (DatasetInfo, error) {
	var info DatasetInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(datasetID), nil, nil, &info)
	return info, err
}

// DeleteDataset removes a dataset and frees its records.
func (c *Client) DeleteDataset(ctx context.Context, datasetID string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/datasets/"+url.PathEscape(datasetID), nil, nil, nil)
}

// ListOptions selects one page of a listing; see api.Paginate for the
// cursor semantics.
type ListOptions struct {
	Limit     int
	PageToken string
}

func (o ListOptions) query() url.Values {
	q := url.Values{}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	if o.PageToken != "" {
		q.Set("page_token", o.PageToken)
	}
	return q
}

// ListDatasets fetches one page of the dataset listing.
func (c *Client) ListDatasets(ctx context.Context, opt ListOptions) (DatasetPage, error) {
	var page DatasetPage
	err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", opt.query(), nil, &page)
	return page, err
}

// AllDatasets walks every page of the dataset listing.
func (c *Client) AllDatasets(ctx context.Context) ([]DatasetInfo, error) {
	var out []DatasetInfo
	opt := ListOptions{}
	for {
		page, err := c.ListDatasets(ctx, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Datasets...)
		if page.NextPageToken == "" {
			return out, nil
		}
		opt.PageToken = page.NextPageToken
	}
}

// --- jobs ---

// SubmitJob submits an anonymization job. A queue_full rejection is
// transient and retried automatically.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", nil, spec, &st)
	return st, err
}

// GetJob fetches a job's live status.
func (c *Client) GetJob(ctx context.Context, jobID string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(jobID), nil, nil, &st)
	return st, err
}

// ListJobs fetches one page of the job listing.
func (c *Client) ListJobs(ctx context.Context, opt ListOptions) (JobPage, error) {
	var page JobPage
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", opt.query(), nil, &page)
	return page, err
}

// CancelJob requests cancellation of a queued or running job and
// returns its status; cancelling a terminal job is a job_terminal
// error.
func (c *Client) CancelJob(ctx context.Context, jobID string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(jobID), nil, nil, &st)
	return st, err
}

// ErrNotPurged reports that PurgeJob found the job still active: the
// server cancelled it (its cancel-before-purge semantics) but retained
// it. Wait for the job to turn terminal, then purge again.
var ErrNotPurged = errors.New("client: job was still active; cancelled but not purged")

// PurgeJob deletes a terminal job and its retained result from the
// server. An active job is cancelled instead and ErrNotPurged is
// returned, so the no-op is observable without a second status fetch.
func (c *Client) PurgeJob(ctx context.Context, jobID string) error {
	q := url.Values{}
	q.Set("purge", "1")
	// A purge answers 204 with no body; a cancel answers 200 with the
	// job status, which the decode below makes visible.
	var st JobStatus
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(jobID), q, nil, &st); err != nil {
		return err
	}
	if st.ID != "" {
		return ErrNotPurged
	}
	return nil
}

// JobResult downloads the anonymized CSV of a finished batch (or
// single-window) job. The caller must Close the reader. The transport
// negotiates gzip transparently, so the bytes read are the release
// itself.
func (c *Client) JobResult(ctx context.Context, jobID string) (io.ReadCloser, error) {
	return c.download(ctx, "/v1/jobs/"+url.PathEscape(jobID)+"/result")
}

// WindowResult downloads one window's release of a windowed job,
// available as soon as that window commits.
func (c *Client) WindowResult(ctx context.Context, jobID string, window int) (io.ReadCloser, error) {
	return c.download(ctx, fmt.Sprintf("/v1/jobs/%s/windows/%d/result", url.PathEscape(jobID), window))
}

// --- service-level ---

// Health checks liveness and reports the server version.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil, &h)
	return h, err
}

// JobTrace fetches the span tree a job's run recorded (plan, windows,
// shards, index-build/merge phases). A job that never started has no
// trace — a trace_not_found error.
func (c *Client) JobTrace(ctx context.Context, jobID string) (JobTrace, error) {
	var tr JobTrace
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(jobID)+"/trace", nil, nil, &tr)
	return tr, err
}

// --- plumbing ---

// doJSON performs a request whose body (if any) is a marshalled JSON
// value — replayable, so transient failures retry with backoff.
func (c *Client) doJSON(ctx context.Context, method, path string, query url.Values, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, method, path, query, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if attempt < c.maxRetries && c.sleep(ctx, attempt, "") {
				continue
			}
			return lastErr
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			defer resp.Body.Close()
			if out == nil || resp.StatusCode == http.StatusNoContent {
				io.Copy(io.Discard, resp.Body)
				return nil
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
			}
			return nil
		}
		apiErr := decodeError(resp)
		resp.Body.Close()
		lastErr = apiErr
		if transientStatus(method, resp.StatusCode) && attempt < c.maxRetries &&
			c.sleep(ctx, attempt, resp.Header.Get("Retry-After")) {
			continue
		}
		return lastErr
	}
}

// doUpload performs a streaming-body request. The body cannot be
// replayed, so there is exactly one attempt.
func (c *Client) doUpload(ctx context.Context, path string, query url.Values, body io.Reader, out any) error {
	req, err := c.newRequest(ctx, http.MethodPost, path, query, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding POST %s response: %w", path, err)
	}
	return nil
}

// download GETs a streaming response, retrying transient failures that
// happen before any body bytes are handed to the caller.
func (c *Client) download(ctx context.Context, path string) (io.ReadCloser, error) {
	body, _, err := c.downloadHeader(ctx, path)
	return body, err
}

// downloadHeader is download plus the response header, for callers that
// need response metadata — the event stream reads X-Glove-Boot-ID from
// it to detect daemon restarts across reconnects.
func (c *Client) downloadHeader(ctx context.Context, path string) (io.ReadCloser, http.Header, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, http.MethodGet, path, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: GET %s: %w", path, err)
			if attempt < c.maxRetries && c.sleep(ctx, attempt, "") {
				continue
			}
			return nil, nil, lastErr
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp.Body, resp.Header, nil
		}
		apiErr := decodeError(resp)
		resp.Body.Close()
		lastErr = apiErr
		if transientStatus(http.MethodGet, resp.StatusCode) && attempt < c.maxRetries &&
			c.sleep(ctx, attempt, resp.Header.Get("Retry-After")) {
			continue
		}
		return nil, nil, lastErr
	}
}

func (c *Client) newRequest(ctx context.Context, method, path string, query url.Values, body io.Reader) (*http.Request, error) {
	u := c.baseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, fmt.Errorf("client: building %s %s: %w", method, path, err)
	}
	req.Header.Set("User-Agent", c.userAgent)
	return req, nil
}

// transientStatus classifies the HTTP statuses worth retrying. For
// non-idempotent methods (submit is a POST) only 429/503 qualify —
// those promise the server did not execute the request — while an
// ambiguous 502/504 from a gateway may have landed it, and replaying
// would duplicate the side effect.
func transientStatus(method string, status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return method == http.MethodGet || method == http.MethodHead
	}
	return false
}

// sleep blocks for the attempt's backoff delay, returning false when
// the context ended first. A server Retry-After hint overrides the
// computed backoff (capped so a hostile or confused server cannot
// stall the client for hours); Retry-After: 0 keeps the backoff.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter string) bool {
	// attempt can grow without bound in polling loops; past a few
	// doublings the cap always wins, and shifting further would
	// overflow to zero and busy-spin.
	d := c.maxBackoff
	if attempt < 16 {
		if v := c.backoff << attempt; v < d {
			d = v
		}
	}
	const maxRetryAfter = 30 * time.Second
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
		if d > maxRetryAfter {
			d = maxRetryAfter
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// decodeError turns a non-2xx response into the typed *APIError. A
// body that is not the envelope (a proxy error page, say) still yields
// a usable APIError with an internal code and the raw snippet.
func decodeError(resp *http.Response) *APIError {
	out := &APIError{
		StatusCode: resp.StatusCode,
		RequestID:  resp.Header.Get("X-Request-ID"),
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var envelope api.Error
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Code == "" {
		out.Code = api.CodeInternal
		out.Message = fmt.Sprintf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return out
	}
	out.Code = envelope.Code
	out.Message = envelope.Message
	out.Details = envelope.Details
	return out
}
