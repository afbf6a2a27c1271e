package api

// JobEventType discriminates the payload of a job event.
type JobEventType string

const (
	// EventState reports a job state transition. The stream ends after
	// the event whose State is terminal.
	EventState JobEventType = "state"
	// EventProgress reports overall job progress advancing (coalesced
	// to whole-percent steps, so a stream replays in bounded space).
	EventProgress JobEventType = "progress"
	// EventWindow reports a window of a windowed job changing state;
	// a "done" window's release is downloadable the moment the event
	// is observed.
	EventWindow JobEventType = "window"
	// EventSpan summarizes a completed trace span (plan, window,
	// validate); the full tree is at GET /v1/jobs/{id}/trace.
	EventSpan JobEventType = "span"
)

// JobEvent is one entry of a job's append-only event log, streamed by
// GET /v1/jobs/{id}/events as a Server-Sent Event: the SSE `id` field
// carries Seq, the `event` field carries Type, and the `data` field
// carries the JSON encoding of the whole struct. A client resumes a
// broken stream with ?after=<seq> (or the standard Last-Event-ID
// header) and never misses or repeats an event.
type JobEvent struct {
	// Seq numbers events from 1 per job, dense and strictly
	// increasing in emission order.
	Seq   int          `json:"seq"`
	Type  JobEventType `json:"type"`
	JobID string       `json:"job_id"`

	// State and Error accompany EventState.
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`

	// Progress accompanies EventProgress (overall fraction in (0, 1]).
	Progress float64 `json:"progress,omitempty"`

	// Window accompanies EventWindow.
	Window *WindowEvent `json:"window,omitempty"`

	// Span accompanies EventSpan.
	Span *SpanEvent `json:"span,omitempty"`
}

// WindowEvent describes one window transition of a windowed job.
type WindowEvent struct {
	// Index is the absolute window index (WindowStatus.Index), the
	// same index /v1/jobs/{id}/windows/{index}/result serves.
	Index int         `json:"index"`
	State WindowState `json:"state"`
	// Groups is the published group count of a done window.
	Groups int `json:"groups,omitempty"`
}

// SpanEvent summarizes one completed trace span in the event log. Only
// coarse per-job phases are summarized (plan, each window, validate,
// analysis) — per-shard spans stay in the trace tree so the event log
// stays small.
type SpanEvent struct {
	// Kind is the span vocabulary entry (obs.SpanKinds); append-only.
	Kind string `json:"kind"`
	// Name distinguishes repeated kinds, e.g. the window label.
	Name string `json:"name,omitempty"`
	// DurationMS is the span's wall-clock duration in milliseconds.
	DurationMS float64 `json:"duration_ms"`
}

// Terminal reports whether this event closes the stream.
func (e JobEvent) Terminal() bool {
	return e.Type == EventState && e.State.Terminal()
}
