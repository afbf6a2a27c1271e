package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/version"
)

// Server is the HTTP front of the service: the wire contract of
// internal/api over the Registry and Manager, behind a small middleware
// stack (request IDs, panic recovery, access logging, per-route
// timeouts). Every non-2xx response body is the api.Error envelope.
//
//	POST   /v1/datasets                    ingest a raw record CSV (streaming body)
//	GET    /v1/datasets                    list datasets (cursor pagination)
//	GET    /v1/datasets/{id}               dataset metadata
//	POST   /v1/datasets/{id}/records       append records to the feed (bumps version)
//	POST   /v1/jobs                        submit an anonymization job (JSON JobSpec)
//	GET    /v1/jobs                        list jobs (cursor pagination)
//	GET    /v1/jobs/{id}                   job status with live progress
//	DELETE /v1/jobs/{id}                   cancel a queued or running job (?purge=1 deletes)
//	GET    /v1/jobs/{id}/events            Server-Sent-Events job stream
//	GET    /v1/jobs/{id}/result            download the anonymized CSV (ETag, gzip)
//	GET    /v1/jobs/{id}/windows/{w}/result  download one window's release (ETag, gzip)
//	GET    /v1/jobs/{id}/trace             per-job span tree (JSON)
//	GET    /metrics                        Prometheus text exposition
//	GET    /healthz                        liveness + version
type Server struct {
	// MaxIngestBytes bounds the request body of a single ingestion
	// (0 = unlimited). Unlike Registry.MaxRecords it caps raw bytes, so
	// a pathological body that never completes a CSV record cannot grow
	// the reader's buffer without limit.
	MaxIngestBytes int64

	// Log, when non-nil, receives one structured record per request
	// (method, path, route, status, bytes, duration, request_id) plus
	// panic traces — log/slog replaced the old ad-hoc access-log lines.
	Log *slog.Logger

	// RouteTimeout is the processing budget of the quick JSON routes
	// (listings, status, trace, health — never the streaming ingest,
	// download, or event routes). 0 uses DefaultRouteTimeout; negative
	// disables the budget.
	RouteTimeout time.Duration

	reg    *Registry
	mgr    *Manager
	mux    *http.ServeMux
	tel    *Telemetry
	bootID string
	reqSeq atomic.Uint64
}

// DefaultRouteTimeout is the quick-route budget when Server.RouteTimeout
// is left zero.
const DefaultRouteTimeout = 15 * time.Second

// sseHeartbeat paces the keep-alive comments of an idle event stream.
const sseHeartbeat = 15 * time.Second

// NewServer wires the routes. Every path is registered method-agnostic
// and dispatched by route(), so a method mismatch yields the envelope
// 405 with an Allow header rather than the mux default.
func NewServer(reg *Registry, mgr *Manager) *Server {
	s := &Server{reg: reg, mgr: mgr, mux: http.NewServeMux()}
	var boot [4]byte
	if _, err := rand.Read(boot[:]); err == nil {
		s.bootID = hex.EncodeToString(boot[:])
	} else {
		s.bootID = "req"
	}
	if mgr != nil {
		s.tel = mgr.tel
		s.tel.registerBoot(s.bootID)
	}
	s.route("/v1/datasets", map[string]http.HandlerFunc{
		http.MethodGet:  s.quick(s.handleListDatasets),
		http.MethodPost: s.handleIngest,
	})
	s.route("/v1/datasets/{id}", map[string]http.HandlerFunc{
		http.MethodGet:    s.quick(s.handleGetDataset),
		http.MethodDelete: s.handleDeleteDataset,
	})
	s.route("/v1/datasets/{id}/records", map[string]http.HandlerFunc{
		http.MethodPost: s.handleAppendRecords,
	})
	// The mutating routes (the dataset delete above included) stay
	// outside the quick() budget: they cannot usefully time out, and a
	// 504 issued while the detached handler still enqueues, cancels or
	// deletes would invite clients to replay a call whose side effect
	// already happened.
	s.route("/v1/jobs", map[string]http.HandlerFunc{
		http.MethodGet:  s.quick(s.handleListJobs),
		http.MethodPost: s.handleSubmitJob,
	})
	s.route("/v1/jobs/{id}", map[string]http.HandlerFunc{
		http.MethodGet:    s.quick(s.handleGetJob),
		http.MethodDelete: s.handleCancelJob,
	})
	s.route("/v1/jobs/{id}/events", map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobEvents,
	})
	s.route("/v1/jobs/{id}/result", map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobResult,
	})
	s.route("/v1/jobs/{id}/windows/{w}/result", map[string]http.HandlerFunc{
		http.MethodGet: s.handleWindowResult,
	})
	s.route("/v1/jobs/{id}/trace", map[string]http.HandlerFunc{
		http.MethodGet: s.quick(s.handleJobTrace),
	})
	s.route("/metrics", map[string]http.HandlerFunc{
		http.MethodGet: s.handlePrometheus,
	})
	s.route("/healthz", map[string]http.HandlerFunc{
		http.MethodGet: s.quick(s.handleHealthz),
	})
	// Everything else is the envelope 404, not the mux's text default.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, api.Errorf(api.CodeNotFound, "no route for %s", r.URL.Path))
	})
	return s
}

// route registers one path with explicit method dispatch: a known path
// with an unsupported method answers 405 + Allow in the envelope. HEAD
// rides on GET (the http package suppresses the body).
func (s *Server) route(pattern string, handlers map[string]http.HandlerFunc) {
	methods := make([]string, 0, len(handlers))
	for m := range handlers {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	allow := strings.Join(methods, ", ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		h, ok := handlers[r.Method]
		if !ok && r.Method == http.MethodHead {
			h, ok = handlers[http.MethodGet]
		}
		if !ok {
			w.Header().Set("Allow", allow)
			writeError(w, r, api.Errorf(api.CodeMethodNotAllowed,
				"method %s is not allowed on %s", r.Method, r.URL.Path).With("allow", allow))
			return
		}
		h(w, r)
	})
}

// ctxKeyRequestID carries the request id through the request context so
// error envelopes can reference it.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID).(string)
	return id
}

// ServeHTTP is the middleware stack: request-ID assignment, panic
// recovery, request metrics, and structured request logging around the
// method-dispatching mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", reqID)
	// The boot ID lets clients detect a daemon restart on reconnect: a
	// changed value means in-memory event sequence numbers reset, so a
	// resumed SSE stream must replay from scratch instead of trusting a
	// pre-restart Last-Event-ID.
	w.Header().Set("X-Glove-Boot-ID", s.bootID)
	r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, reqID))

	rec := &responseRecorder{ResponseWriter: w}
	start := time.Now()
	s.tel.httpStart()
	defer func() {
		// ServeMux stamped the matched pattern onto the request, so the
		// route label is bounded ("/v1/jobs/{id}", never the raw path);
		// unmatched paths share one label. Deferred so panicking
		// (aborted) requests are still counted.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.tel.httpDone(route, r.Method, rec.statusOr200(), rec.bytes, time.Since(start))
		if s.Log != nil {
			s.Log.Info("request",
				"method", r.Method, "path", r.URL.Path, "route", route,
				"status", rec.statusOr200(), "bytes", rec.bytes,
				"duration", time.Since(start).Round(time.Microsecond),
				"request_id", reqID)
		}
	}()
	func() {
		defer func() {
			if p := recover(); p != nil {
				if s.Log != nil && p != http.ErrAbortHandler {
					s.Log.Error("panic",
						"method", r.Method, "path", r.URL.Path,
						"request_id", reqID, "panic", fmt.Sprint(p),
						"stack", string(debug.Stack()))
				}
				if p == http.ErrAbortHandler || rec.wroteHeader {
					// The response already started (or the handler asked
					// for an abort): converting the panic to a normal
					// return would let net/http terminate the truncated
					// body as a seemingly complete response. Abort the
					// connection instead so clients can detect it.
					panic(http.ErrAbortHandler)
				}
				writeError(rec, r, api.Errorf(api.CodeInternal, "internal server error"))
			}
		}()
		s.mux.ServeHTTP(rec, r)
	}()
}

// responseRecorder observes status and size for the access log while
// passing Flush (SSE) and the underlying writer (ResponseController)
// through.
type responseRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (w *responseRecorder) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseRecorder) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.wroteHeader = true
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *responseRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *responseRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *responseRecorder) statusOr200() int {
	if w.wroteHeader {
		return w.status
	}
	return http.StatusOK
}

// quick wraps a JSON handler with the per-route processing budget: the
// handler runs against a buffered response that is only copied to the
// wire when it finishes in time; past the budget the client gets the
// timeout envelope instead of a half-written body. Streaming routes
// (ingest, downloads, events) are never wrapped.
func (s *Server) quick(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.RouteTimeout
		if d == 0 {
			d = DefaultRouteTimeout
		}
		if d < 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
		buf := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() {
				// The outer recovery middleware cannot see a panic on
				// this goroutine; convert it here.
				if p := recover(); p != nil {
					if s.Log != nil {
						s.Log.Error("panic",
							"method", r.Method, "path", r.URL.Path,
							"request_id", requestID(r), "panic", fmt.Sprint(p),
							"stack", string(debug.Stack()))
					}
					buf.reset()
					writeError(buf, r, api.Errorf(api.CodeInternal, "internal server error"))
				}
			}()
			h(buf, r)
		}()
		select {
		case <-done:
			buf.copyTo(w)
		case <-ctx.Done():
			writeError(w, r, api.Errorf(api.CodeTimeout,
				"request exceeded the %s route budget", d))
		}
	}
}

// bufferedResponse is the in-memory ResponseWriter behind quick().
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

func (b *bufferedResponse) reset() {
	b.header = make(http.Header)
	b.status = 0
	b.buf.Reset()
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.buf.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders any error as the structured envelope, deriving the
// HTTP status from the code and stamping the request id into the
// details. Non-envelope errors become CodeInternal — the pinned
// invariant that no handler responds outside the contract.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	var ae *api.Error
	if !errors.As(err, &ae) {
		switch {
		case errors.Is(err, ErrQueueFull):
			ae = api.Errorf(api.CodeQueueFull, "%v", err)
		default:
			ae = api.Errorf(api.CodeInternal, "%v", err)
		}
	}
	// Copy before annotating: manager errors can be shared values and
	// the envelope must not accumulate per-request details across
	// requests.
	out := &api.Error{Code: ae.Code, Message: ae.Message}
	for k, v := range ae.Details {
		out.With(k, v)
	}
	if id := requestID(r); id != "" {
		out.With("request_id", id)
	}
	if out.Code == api.CodeQueueFull {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, out.Code.HTTPStatus(), out)
}

// handleIngest streams the request body into a new dataset. Metadata
// rides in query parameters: name, lat, lon (projection center, default
// the Ivory Coast center used throughout the repo) and days (span).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, lon, days := 7.54, -5.55, 14
	var err error
	if v := q.Get("lat"); v != "" {
		if lat, err = strconv.ParseFloat(v, 64); err != nil {
			writeError(w, r, api.Errorf(api.CodeInvalidArgument, "bad lat %q", v))
			return
		}
	}
	if v := q.Get("lon"); v != "" {
		if lon, err = strconv.ParseFloat(v, 64); err != nil {
			writeError(w, r, api.Errorf(api.CodeInvalidArgument, "bad lon %q", v))
			return
		}
	}
	if v := q.Get("days"); v != "" {
		if days, err = strconv.Atoi(v); err != nil {
			writeError(w, r, api.Errorf(api.CodeInvalidArgument, "bad days %q", v))
			return
		}
	}
	body := r.Body
	if s.MaxIngestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.MaxIngestBytes)
	}
	info, err := s.reg.Ingest(body, q.Get("name"), geo.LatLon{Lat: lat, Lon: lon}, days)
	if err != nil {
		writeError(w, r, ingestError(err, s.MaxIngestBytes))
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// ingestError classifies a streaming-ingestion failure: the byte-cap
// violation is body_too_large, anything else is a bad body or bad
// metadata.
func ingestError(err error, maxBytes int64) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return api.Errorf(api.CodeBodyTooLarge, "%v", tooBig).With("limit_bytes", maxBytes)
	}
	return api.Errorf(api.CodeInvalidArgument, "%v", err)
}

// handleAppendRecords streams additional records onto a registered
// dataset — the continuous-feed path. The response carries the updated
// metadata including the bumped monotone version; jobs snapshot a
// version when they start and never observe later appends.
func (s *Server) handleAppendRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.reg.Get(id); !ok {
		writeError(w, r, api.Errorf(api.CodeDatasetNotFound, "unknown dataset %q", id).With("dataset_id", id))
		return
	}
	body := r.Body
	if s.MaxIngestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.MaxIngestBytes)
	}
	info, err := s.reg.Append(id, body)
	if err != nil {
		writeError(w, r, ingestError(err, s.MaxIngestBytes))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// pageParams extracts and normalizes the cursor-pagination query
// parameters: the clamped page limit and the decoded resume cursor
// (empty = from the start).
func pageParams(r *http.Request, collection string) (limit int, after string, err error) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return 0, "", api.Errorf(api.CodeInvalidArgument, "bad limit %q", v)
		}
	}
	limit = api.ClampPageLimit(limit)
	if token := q.Get("page_token"); token != "" {
		if after, err = api.DecodePageToken(collection, token); err != nil {
			return 0, "", err
		}
	}
	return limit, after, nil
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	limit, after, err := pageParams(r, "datasets")
	if err != nil {
		writeError(w, r, err)
		return
	}
	page, more, ok := s.reg.ListPage(after, limit)
	if !ok {
		writeError(w, r, api.ErrStalePageToken("datasets", after))
		return
	}
	if page == nil {
		page = []DatasetInfo{}
	}
	next := ""
	if more {
		next = api.EncodePageToken("datasets", page[len(page)-1].ID)
	}
	writeJSON(w, http.StatusOK, api.DatasetPage{Datasets: page, NextPageToken: next})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.reg.Get(id)
	if !ok {
		writeError(w, r, api.Errorf(api.CodeDatasetNotFound, "unknown dataset %q", id).With("dataset_id", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxJobSpecBytes caps the submit body: a JobSpec is a handful of
// scalars, so anything past this is hostile or broken, and the cap
// keeps json.Decoder from buffering an arbitrary body into memory the
// way the streaming routes' MaxIngestBytes guard already does.
const maxJobSpecBytes = 1 << 20

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, r, api.Errorf(api.CodeBodyTooLarge, "%v", tooBig).
				With("limit_bytes", maxJobSpecBytes))
			return
		}
		writeError(w, r, api.Errorf(api.CodeInvalidSpec, "bad job spec: %v", err))
		return
	}
	st, err := s.mgr.Submit(spec)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	limit, after, err := pageParams(r, "jobs")
	if err != nil {
		writeError(w, r, err)
		return
	}
	page, more, ok := s.mgr.ListPage(after, limit)
	if !ok {
		writeError(w, r, api.ErrStalePageToken("jobs", after))
		return
	}
	if page == nil {
		page = []JobStatus{}
	}
	next := ""
	if more {
		next = api.EncodePageToken("jobs", page[len(page)-1].ID)
	}
	writeJSON(w, http.StatusOK, api.JobPage{Jobs: page, NextPageToken: next})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, r, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancelJob implements DELETE on a job: an active job is
// cancelled; a terminal job is removed from memory only when the client
// passes ?purge=1. The explicit flag keeps a cancel attempt that races
// a just-finished job from silently destroying its result.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	purge := r.URL.Query().Get("purge") != ""
	st, err := s.mgr.Cancel(id)
	if err == nil {
		writeJSON(w, http.StatusOK, st)
		return
	}
	var ae *api.Error
	if !purge || !errors.As(err, &ae) || ae.Code != api.CodeJobTerminal {
		writeError(w, r, err)
		return
	}
	if rerr := s.mgr.Remove(id); rerr != nil {
		writeError(w, r, rerr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobEvents streams the job's event log as Server-Sent Events:
// every past event replays first (so a late subscriber still sees the
// whole lifecycle), then the stream follows live appends and ends after
// the terminal state event. ?after=N (or the standard Last-Event-ID
// header) resumes past the events already seen.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after := 0
	seqParam := r.URL.Query().Get("after")
	if seqParam == "" {
		seqParam = r.Header.Get("Last-Event-ID")
	}
	if seqParam != "" {
		n, err := strconv.Atoi(seqParam)
		if err != nil || n < 0 {
			writeError(w, r, api.Errorf(api.CodeInvalidArgument, "bad event cursor %q", seqParam))
			return
		}
		after = n
	}
	if _, ok := s.mgr.Get(id); !ok {
		writeError(w, r, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id))
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		evs, wake, ok := s.mgr.EventsSince(id, after)
		if !ok {
			// Evicted mid-stream; the client falls back to polling and
			// observes the 404.
			return
		}
		for _, e := range evs {
			if err := writeSSE(w, e); err != nil {
				return
			}
			after = e.Seq
			if e.Terminal() {
				rc.Flush()
				return
			}
		}
		if len(evs) > 0 {
			rc.Flush()
			continue
		}
		// Nothing new: a terminal job appends no further events, so the
		// log is complete and the client resumed at or past the terminal
		// event — end the stream instead of heartbeating forever. The
		// terminal event is appended under the same lock that flips the
		// state, but the transition may land between the read above and
		// this check: then wake is already closed, and the loop must
		// send that event before it ends the stream.
		if st, ok := s.mgr.Get(id); !ok || st.State.Terminal() {
			select {
			case <-wake:
				continue
			default:
				return
			}
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			rc.Flush()
		}
	}
}

// writeSSE renders one event as an SSE frame: id carries the sequence
// number, event the type, data the JSON payload.
func writeSSE(w io.Writer, e api.JobEvent) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Status before Result: a done job's dataset version is immutable,
	// so reading it first (and letting Result 404 a racing purge) never
	// serves a release under a zero-version ETag.
	st, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, r, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id))
		return
	}
	rel, err := s.mgr.Result(id)
	if err != nil {
		writeError(w, r, err)
		return
	}
	serveCSV(w, r, id+".csv", s.resultETag(id, -1, st.DatasetVersion), rel)
}

// handleWindowResult serves one window's release of a windowed job.
// Completed windows download while the job is still running later ones
// — the continuous-release property.
func (s *Server) handleWindowResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	win, err := strconv.Atoi(r.PathValue("w"))
	if err != nil {
		writeError(w, r, api.Errorf(api.CodeInvalidArgument, "bad window index %q", r.PathValue("w")))
		return
	}
	st, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, r, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id))
		return
	}
	rel, err := s.mgr.WindowResult(id, win)
	if err != nil {
		writeError(w, r, err)
		return
	}
	serveCSV(w, r, fmt.Sprintf("%s-w%d.csv", id, win), s.resultETag(id, win, st.DatasetVersion), rel)
}

// resultETag derives the strong validator of an immutable release: the
// server boot id (job sequence numbers and dataset versions restart
// with the daemon, so the tag must not survive a restart), the job id,
// the window (when per-window), and the dataset version the job
// snapshotted. Repeated downloads of the same release get 304s; a
// different daemon incarnation never aliases them.
func (s *Server) resultETag(id string, window, datasetVersion int) string {
	if window >= 0 {
		return fmt.Sprintf("%q", fmt.Sprintf("%s.%s.w%d.v%d", s.bootID, id, window, datasetVersion))
	}
	return fmt.Sprintf("%q", fmt.Sprintf("%s.%s.v%d", s.bootID, id, datasetVersion))
}

// serveCSV writes one anonymized release from the bytes stored at its
// commit, with the conditional-request and compression conveniences: a
// matching If-None-Match answers 304 with no body, clients advertising
// gzip receive the stored gzip bytes as they are, other clients the CSV
// inflated from them, and every body carries its Content-Length.
// Nothing is encoded or compressed per request.
func serveCSV(w http.ResponseWriter, r *http.Request, filename, etag string, rel *Release) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "text/csv")
	h.Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", filename))
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		h.Set("Content-Length", strconv.Itoa(len(rel.gz)))
		w.Write(rel.gz)
		return
	}
	h.Set("Content-Length", strconv.Itoa(rel.csvLen))
	// A failure mid-body leaves the response short of its
	// Content-Length, which the client sees as a truncated download.
	rel.writeCSV(w)
}

// etagMatch implements the If-None-Match comparison (weak comparison:
// a W/ prefix on either side is ignored, as RFC 9110 prescribes for
// If-None-Match).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		if strings.TrimPrefix(candidate, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client advertised gzip with a
// non-zero quality.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, q, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(coding) != "gzip" {
			continue
		}
		q = strings.TrimSpace(q)
		if q == "" {
			return true
		}
		if val, ok := strings.CutPrefix(q, "q="); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			return err == nil && f > 0
		}
		return true
	}
	return false
}

// handleJobTrace serves the per-job span tree recorded by the run.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.mgr.Trace(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// handlePrometheus serves the text exposition of every registered
// instrument. Deliberately outside the quick() budget: the render is a
// bounded in-memory walk and the scrape path should not compete with
// slow JSON routes for the buffered-response machinery.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		writeError(w, r, api.Errorf(api.CodeNotFound, "metrics are not enabled on this server"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.tel.Reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok", Version: version.Version})
}
