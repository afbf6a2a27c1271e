package obs

import (
	"sync"
	"time"
)

// SpanKind names a phase of job execution. Kinds are append-only wire
// vocabulary, like metric names and API error codes: clients switch on
// them, so removing or renaming one is a breaking change.
type SpanKind string

const (
	SpanJob        SpanKind = "job"
	SpanPlan       SpanKind = "plan"
	SpanWindow     SpanKind = "window"
	SpanShard      SpanKind = "shard"
	SpanIndexBuild SpanKind = "index_build"
	SpanMerge      SpanKind = "merge"
	SpanValidate   SpanKind = "validate"
	SpanAnalysis   SpanKind = "analysis"
)

// SpanKinds lists every registered kind; tests pin that emitted spans
// stay within this vocabulary.
func SpanKinds() []SpanKind {
	return []SpanKind{SpanJob, SpanPlan, SpanWindow, SpanShard, SpanIndexBuild, SpanMerge, SpanValidate, SpanAnalysis}
}

// Span is an immutable snapshot of one recorded span, JSON-shaped for
// the /v1/jobs/{id}/trace endpoint.
type Span struct {
	Kind       SpanKind       `json:"kind"`
	Name       string         `json:"name,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Unfinished bool           `json:"unfinished,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Span        `json:"children,omitempty"`
}

type node struct {
	kind     SpanKind
	name     string
	start    time.Time
	end      time.Time // zero while open
	attrs    map[string]any
	children []*node
}

// Trace records a tree of spans for one job. All mutation goes through
// a single trace-level mutex: span starts and ends are rare (per
// phase, not per record), so contention is negligible next to the work
// they bracket, and shard goroutines can record concurrently.
type Trace struct {
	mu   sync.Mutex
	root *node
}

// NewTrace starts a trace whose root span opens now.
func NewTrace(kind SpanKind, name string) *Trace {
	return &Trace{root: &node{kind: kind, name: name, start: time.Now()}}
}

// ActiveSpan is a handle to one open span. The zero value is a valid
// no-op handle: every method on it is safe and does nothing, so
// instrumented code paths never need nil checks.
type ActiveSpan struct {
	t *Trace
	n *node
}

// Root returns the handle to the root span.
func (t *Trace) Root() ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, n: t.root}
}

// Child opens a sub-span starting now.
func (s ActiveSpan) Child(kind SpanKind, name string) ActiveSpan {
	if s.t == nil {
		return ActiveSpan{}
	}
	c := &node{kind: kind, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.n.children = append(s.n.children, c)
	s.t.mu.Unlock()
	return ActiveSpan{t: s.t, n: c}
}

// SetAttr attaches a key/value attribute to the span.
func (s ActiveSpan) SetAttr(key string, value any) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if s.n.attrs == nil {
		s.n.attrs = make(map[string]any)
	}
	s.n.attrs[key] = value
	s.t.mu.Unlock()
}

// AddCompleted records an already-finished sub-span — used to graft
// phases timed inside the engine (index build, merge loop) onto the
// trace without threading span handles through the hot path.
func (s ActiveSpan) AddCompleted(kind SpanKind, name string, start time.Time, d time.Duration, attrs map[string]any) {
	if s.t == nil {
		return
	}
	c := &node{kind: kind, name: name, start: start, end: start.Add(d), attrs: attrs}
	s.t.mu.Lock()
	s.n.children = append(s.n.children, c)
	s.t.mu.Unlock()
}

// End closes the span and returns its duration. Ending twice keeps the
// first end time.
func (s ActiveSpan) End() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	if s.n.end.IsZero() {
		s.n.end = now
	}
	d := s.n.end.Sub(s.n.start)
	s.t.mu.Unlock()
	return d
}

// Snapshot returns the current span tree. Open spans are marked
// Unfinished with their duration measured up to now, so traces of
// running jobs are meaningful.
func (t *Trace) Snapshot() *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.snapshot(now)
}

func (n *node) snapshot(now time.Time) *Span {
	s := &Span{Kind: n.kind, Name: n.name, Start: n.start}
	end := n.end
	if end.IsZero() {
		end = now
		s.Unfinished = true
	}
	s.DurationMS = float64(end.Sub(n.start)) / float64(time.Millisecond)
	if len(n.attrs) > 0 {
		s.Attrs = make(map[string]any, len(n.attrs))
		for k, v := range n.attrs {
			s.Attrs[k] = v
		}
	}
	for _, c := range n.children {
		s.Children = append(s.Children, c.snapshot(now))
	}
	return s
}
