package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// validTransition encodes the job state machine: queued jobs start
// running or are cancelled before starting; running jobs finish, fail,
// or are cancelled; terminal states never change.
func validTransition(from, to JobState) bool {
	switch from {
	case JobQueued:
		return to == JobRunning || to == JobCancelled
	case JobRunning:
		return to == JobDone || to == JobFailed || to == JobCancelled
	}
	return false
}

// anonymizeOptions translates the spec into the core options for one
// shard. Strategy, chunk size and index stay auto: the planner picks
// them from the shard's size.
func anonymizeOptions(s JobSpec, workers int, progress func(done, total int)) core.AnonymizeOptions {
	return core.AnonymizeOptions{
		Glove: core.GloveOptions{
			K: s.K,
			Suppress: core.SuppressionThresholds{
				MaxSpatialMeters:   s.SuppressKm * 1000,
				MaxTemporalMinutes: s.SuppressMin,
			},
			Workers:  workers,
			Progress: progress,
		},
	}
}

// Job is one anonymization run owned by the Manager.
type Job struct {
	mu sync.Mutex

	id      string
	spec    JobSpec
	state   JobState
	err     string
	created time.Time

	started  time.Time
	finished time.Time

	// cancel aborts the running job's context; cancelRequested
	// distinguishes a user cancellation from an internal failure when
	// the run returns a context error.
	cancel          context.CancelFunc
	cancelRequested bool

	// plan is the resolved execution plan of the largest shard, and
	// shards the effective shard count it was resolved over — of the
	// first runnable window.
	plan   *core.Plan
	shards int

	// datasetVersion is the registry version of the snapshot being
	// anonymized (set when the run takes its snapshot), and
	// snapshotRecords, for a frozen run, that snapshot's record count.
	datasetVersion  int
	snapshotRecords int
	// windows is the per-window state of the job, in time order; a batch
	// job's single window is internal (batchJob).
	windows []*jobWindow

	// events is the job's append-only event log, replayed and streamed
	// by GET /v1/jobs/{id}/events. eventCh is closed and replaced on
	// every append, broadcasting to blocked subscribers; progressPct is
	// the last whole-percent bucket emitted, coalescing the firehose of
	// shard progress callbacks into at most ~100 events per job.
	events      []api.JobEvent
	eventCh     chan struct{}
	progressPct int

	// onEvent, when set, journals every event-log append (attached at
	// submission on durable daemons). suppressJournal silences it — set
	// when a graceful drain cancels a running job, so the journal keeps
	// saying "running" and the next boot requeues the job instead of
	// restoring a cancellation the user never asked for.
	onEvent         func(api.JobEvent)
	suppressJournal bool

	// resume carries a recovered job's committed prefix into
	// executeWindows; consumed once by takeResume.
	resume *windowResume

	// trace is the job's span recorder, created when the run starts;
	// nil for jobs that never ran (the trace_not_found condition).
	trace *obs.Trace

	// accuracyRuns folds the accuracy of every committed release, for
	// the job's accuracy summary; nil when it cannot cover them all (a
	// recovered release journaled without its runs).
	accuracyRuns *metrics.AccuracyRuns

	stats             *core.GloveStats
	accuracy          *metrics.Summary
	anonymousFraction *float64
	linkage           *analysis.LinkageResult
}

// batchJob reports whether a job is a batch job (window_hours 0). Such a
// job runs as one frozen window over its whole snapshot, and that window
// is internal: its status lists no windows, its event stream carries no
// window events, /windows/{w}/result serves nothing, and it counts
// toward no window metric. /result serves its release.
func batchJob(spec JobSpec) bool {
	return spec.WindowHours == 0
}

// traceRoot hands the run its root span; the zero ActiveSpan of an
// untraced job is a no-op recorder.
func (j *Job) traceRoot() obs.ActiveSpan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace.Root()
}

// newJob builds a queued job and seeds its event log with the queued
// state event, so a subscriber that connects immediately still sees the
// full lifecycle from the first transition.
func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		id:           id,
		spec:         spec,
		state:        JobQueued,
		created:      time.Now().UTC(),
		eventCh:      make(chan struct{}),
		accuracyRuns: &metrics.AccuracyRuns{},
	}
	j.events = []api.JobEvent{{Seq: 1, Type: api.EventState, JobID: id, State: JobQueued}}
	return j
}

// appendEventLocked stamps and stores one event and wakes every
// subscriber blocked in eventsSince. Caller holds j.mu. A nil eventCh
// (zero-value Job, as unit tests construct) is tolerated: there is
// nobody to wake yet.
func (j *Job) appendEventLocked(e api.JobEvent) {
	e.Seq = len(j.events) + 1
	e.JobID = j.id
	j.events = append(j.events, e)
	if j.onEvent != nil && !j.suppressJournal {
		j.onEvent(e)
	}
	if j.eventCh != nil {
		close(j.eventCh)
	}
	j.eventCh = make(chan struct{})
}

// takeResume hands the run its recovered window prefix, at most once.
func (j *Job) takeResume() *windowResume {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.resume
	j.resume = nil
	return r
}

// eventsSince returns the events after sequence number `after` (0 = from
// the beginning). When the log has nothing newer it instead returns a
// channel that is closed on the next append, so subscribers block
// without polling.
func (j *Job) eventsSince(after int) ([]api.JobEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.eventCh == nil {
		j.eventCh = make(chan struct{})
	}
	if after < 0 {
		after = 0
	}
	if after >= len(j.events) {
		return nil, j.eventCh
	}
	// Full-slice expression: appends beyond len never alias into what
	// the subscriber is reading.
	return j.events[after:len(j.events):len(j.events)], nil
}

// emitProgressLocked appends a progress event when the overall fraction
// has advanced at least one whole percent since the last one. Caller
// holds j.mu.
func (j *Job) emitProgressLocked() {
	p := j.progressLocked()
	if pct := int(p * 100); pct > j.progressPct && p > 0 {
		j.progressPct = pct
		j.appendEventLocked(api.JobEvent{Type: api.EventProgress, Progress: p})
	}
}

// jobWindow tracks one window of a job.
type jobWindow struct {
	index                  int
	startMinute, endMinute float64
	records, users         int

	state         WindowState
	shardProgress []float64
	groups        int
	stats         *core.GloveStats
	quality       ReleaseQuality
	// result is the window's published release, committed atomically
	// when the window completes; a cancelled or failed window never
	// stores a partial release.
	result *Release
}

// appendWindow registers a window as pending, or finds it when it is
// already registered (a frozen run registers its whole layout before
// the first window runs), and returns its position in j.windows (the
// index the per-window mutators take, distinct from the window's feed
// index). Windows are registered in index order.
func (j *Job) appendWindow(index int, startMinute, endMinute float64, records, users int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	for pos := len(j.windows) - 1; pos >= 0 && j.windows[pos].index >= index; pos-- {
		if j.windows[pos].index == index {
			return pos
		}
	}
	j.windows = append(j.windows, &jobWindow{
		index:       index,
		startMinute: startMinute,
		endMinute:   endMinute,
		records:     records,
		users:       users,
		state:       WindowPending,
	})
	return len(j.windows) - 1
}

// commitEmptyWindow records a window the feed skipped entirely: the
// follow run emits an explicit empty event so a consumer can
// distinguish "no data in this window" from "release still pending",
// and the window is terminal with no release to download.
func (j *Job) commitEmptyWindow(index int, startMinute, endMinute float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.windows = append(j.windows, &jobWindow{
		index:       index,
		startMinute: startMinute,
		endMinute:   endMinute,
		state:       WindowEmpty,
	})
	j.emitWindowLocked(index, WindowEmpty, 0)
}

// emitWindowLocked appends a window event, except for a batch job, whose
// window is internal. Caller holds j.mu.
func (j *Job) emitWindowLocked(index int, state WindowState, groups int) {
	if batchJob(j.spec) {
		return
	}
	j.appendEventLocked(api.JobEvent{Type: api.EventWindow,
		Window: &api.WindowEvent{Index: index, State: state, Groups: groups}})
}

// startWindow marks a window running with the given shard count.
func (j *Job) startWindow(w, shards int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.windows[w].state = WindowRunning
	j.windows[w].shardProgress = make([]float64, shards)
	j.emitWindowLocked(j.windows[w].index, WindowRunning, 0)
}

// setWindowShardProgress records one shard's completion fraction inside
// a window.
func (j *Job) setWindowShardProgress(w, shard int, frac float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jw := j.windows[w]
	if shard >= 0 && shard < len(jw.shardProgress) && frac > jw.shardProgress[shard] {
		jw.shardProgress[shard] = frac
		j.emitProgressLocked()
	}
}

// abortOpenWindowsLocked marks every not-yet-done window aborted when
// the job lands in a non-done terminal state, so no window appears
// in-flight forever. Caller holds j.mu.
func (j *Job) abortOpenWindowsLocked() {
	for _, w := range j.windows {
		if w.state != WindowDone && w.state != WindowEmpty {
			w.state = WindowAborted
			j.emitWindowLocked(w.index, WindowAborted, 0)
		}
	}
}

// commitWindow publishes a completed window's release, which holds
// groups anonymity groups, with its measurements; runs are the
// release's accuracy runs, folded into the job's.
func (j *Job) commitWindow(w int, rel *Release, groups int, stats *core.GloveStats, quality ReleaseQuality, runs metrics.AccuracyRuns) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jw := j.windows[w]
	jw.state = WindowDone
	jw.result = rel
	jw.groups = groups
	jw.stats = stats
	jw.quality = quality
	if j.accuracyRuns != nil {
		j.accuracyRuns.Fold(runs)
	}
	for i := range jw.shardProgress {
		jw.shardProgress[i] = 1
	}
	j.emitWindowLocked(jw.index, WindowDone, jw.groups)
	j.emitProgressLocked()
}

// qualityLocked aggregates the committed releases' measurements into
// the job's: the anonymous fraction Σ anonymous / Σ users, nil unless
// every release has its count, and the linkage of every consecutive
// release pair, nil unless there are two releases and every pair was
// measured. Caller holds j.mu.
func (j *Job) qualityLocked() (*float64, *analysis.LinkageResult) {
	var anon, users, released int
	anonOK, linkOK := true, true
	link := &analysis.LinkageResult{KnownSamples: linkageKnownSamples}
	for _, w := range j.windows {
		if w.state != WindowDone {
			continue
		}
		released++
		if q := w.quality.Anonymous; q != nil {
			anon += *q
			users += w.users
		} else {
			anonOK = false
		}
		if released > 1 {
			if p := w.quality.Linkage; p != nil {
				link.Add(*p)
			} else {
				linkOK = false
			}
		}
	}
	var frac *float64
	if anonOK && users > 0 {
		f := float64(anon) / float64(users)
		frac = &f
	}
	if !linkOK || released < 2 {
		link = nil
	}
	return frac, link
}

// transition moves the job to the target state, enforcing the state
// machine, and appends the state event (reading j.err, so callers set
// the error message before transitioning); it must be called with j.mu
// held.
func (j *Job) transition(to JobState) error {
	if !validTransition(j.state, to) {
		return fmt.Errorf("service: job %s: invalid transition %s -> %s", j.id, j.state, to)
	}
	j.state = to
	now := time.Now().UTC()
	switch to {
	case JobRunning:
		j.started = now
	case JobDone, JobFailed, JobCancelled:
		j.finished = now
	}
	j.appendEventLocked(api.JobEvent{Type: api.EventState, State: to, Error: j.err})
	return nil
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the status snapshot; caller holds j.mu (the
// journal's terminal record and checkpoint capture reuse it under a
// lock they already hold).
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:                j.id,
		Spec:              j.spec,
		State:             j.state,
		Progress:          j.progressLocked(),
		Shards:            j.shards,
		Error:             j.err,
		Plan:              j.plan,
		DatasetVersion:    j.datasetVersion,
		CreatedAt:         j.created,
		Stats:             j.stats,
		Accuracy:          j.accuracy,
		AnonymousFraction: j.anonymousFraction,
		Linkage:           j.linkage,
	}
	windows := j.windows
	if batchJob(j.spec) {
		windows = nil
	}
	for _, w := range windows {
		ws := WindowStatus{
			Index:          w.index,
			StartMinute:    w.startMinute,
			EndMinute:      w.endMinute,
			Records:        w.records,
			Users:          w.users,
			State:          w.state,
			Progress:       w.progressLocked(),
			Groups:         w.groups,
			Stats:          w.stats,
			ReleaseQuality: w.quality,
		}
		st.Windows = append(st.Windows, ws)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// progressLocked is the job's overall completion fraction; the caller
// holds j.mu.
func (j *Job) progressLocked() float64 {
	switch j.state {
	case JobDone:
		return 1
	case JobRunning, JobFailed, JobCancelled:
		// Failed/cancelled jobs keep the last observed fraction rather
		// than snapping back to zero.
		// Weight each window by its subscriber count (the dominant cost
		// driver) so a big window does not look done because three small
		// ones finished.
		var sum, total float64
		for _, w := range j.windows {
			weight := float64(w.users)
			sum += weight * w.progressLocked()
			total += weight
		}
		if total > 0 {
			return sum / total
		}
	}
	return 0
}

// uncommittedProgress caps the progress of a window that has not
// committed: its shards may all have finished while validation and the
// journal commit are still to come, and a window — hence a windowed
// job — reads complete only once its release is committed.
const uncommittedProgress = 0.99

// progressLocked is the window's mean shard fraction, capped below 1
// until the window commits; the caller holds the owning job's mutex.
func (w *jobWindow) progressLocked() float64 {
	if w.state == WindowDone || w.state == WindowEmpty {
		return 1
	}
	if len(w.shardProgress) == 0 {
		return 0
	}
	var sum float64
	for _, p := range w.shardProgress {
		sum += p
	}
	return min(sum/float64(len(w.shardProgress)), uncommittedProgress)
}

// Release is one committed release as it is stored and served: its
// canonical anonymized CSV, compressed once at commit with
// gzip.BestSpeed, and the length of that CSV. A download writes the
// stored gzip bytes, or streams them inflated to a client that does not
// accept gzip; the journal takes the CSV at the commit itself, and only
// a checkpoint inflates it again. Keeping the compressed copy alone
// keeps a committed release at a fraction of its CSV's size.
type Release struct {
	gz     []byte
	csvLen int
}

// encodeBuffers and gzipWriters recycle the scratch state of
// encodeRelease and newRelease: a release is encoded and compressed
// into pooled buffers and copied out at its exact size, so a stored
// release pins no slack capacity and a commit allocates no fresh
// compressor.
var (
	encodeBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	gzipWriters   = sync.Pool{New: func() any {
		// NewWriterLevel fails only on an invalid level.
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return zw
	}}
)

// encodeRelease serializes a validated release, once, through the
// canonical anonymized-CSV writer: it returns the CSV, for the journal,
// and the stored Release. The decode/re-encode round trip is
// byte-identical, so a resumed run publishes the same bytes.
func encodeRelease(out *core.Dataset) ([]byte, *Release, error) {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	if err := cdr.WriteAnonymizedCSV(buf, out); err != nil {
		return nil, nil, err
	}
	csv := bytes.Clone(buf.Bytes())
	rel, err := newRelease(csv)
	if err != nil {
		return nil, nil, err
	}
	return csv, rel, nil
}

// newRelease compresses an encoded release CSV into its stored form.
func newRelease(csv []byte) (*Release, error) {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(buf)
	if _, err := zw.Write(csv); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return &Release{gz: bytes.Clone(buf.Bytes()), csvLen: len(csv)}, nil
}

// writeCSV streams the release's CSV, inflated from the stored bytes.
func (r *Release) writeCSV(w io.Writer) error {
	zr, err := gzip.NewReader(bytes.NewReader(r.gz))
	if err != nil {
		return err
	}
	_, err = io.Copy(w, zr)
	return err
}

// CSV returns the release's canonical anonymized CSV.
func (r *Release) CSV() ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, r.csvLen))
	if err := r.writeCSV(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// captureWindowLocked journals one committed window for checkpoints,
// with the release CSV inflated from its stored bytes. Caller holds
// j.mu; only done and empty windows are capturable.
func (j *Job) captureWindowLocked(w *jobWindow) (RecoveredResult, error) {
	jw := journalWindow{
		Index:           w.index,
		StartMinute:     w.startMinute,
		EndMinute:       w.endMinute,
		Records:         w.records,
		Users:           w.users,
		SnapshotRecords: j.snapshotRecords,
	}
	if !j.spec.Follow {
		jw.DatasetVersion = j.datasetVersion
	}
	if w.state == WindowEmpty {
		jw.Empty = true
		return RecoveredResult{Window: jw}, nil
	}
	jw.Groups = w.groups
	jw.Stats = w.stats
	jw.ReleaseQuality = w.quality
	csv, err := w.result.CSV()
	if err != nil {
		return RecoveredResult{}, err
	}
	return RecoveredResult{Window: jw, CSV: csv}, nil
}

// capture converts the job into its checkpoint form: every committed
// window, plus — for terminal jobs, except drain-cancelled ones whose
// cancellation the journal deliberately never saw — the status and the
// full event log. An interrupted job is
// thus captured as its submission plus its committed windows, exactly the
// shape a journal replay produces for it, so restarting from a
// checkpoint and restarting from a raw journal converge to the same
// state. Every release is captured as its CSV, inflated from the bytes
// stored at its commit; nothing is re-encoded.
func (j *Job) capture() (*RecoveredJob, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rj := &RecoveredJob{ID: j.id, Spec: j.spec, CreatedAt: j.created}
	if j.accuracyRuns != nil {
		// Folding replaces the slices, never writes into them, so the
		// copy stays valid after j.mu is released.
		runs := *j.accuracyRuns
		rj.AccuracyRuns = &runs
	}
	for _, w := range j.windows {
		if w.state != WindowDone && w.state != WindowEmpty {
			continue
		}
		r, err := j.captureWindowLocked(w)
		if err != nil {
			return nil, err
		}
		rj.Results = append(rj.Results, r)
	}
	if !j.state.Terminal() || j.suppressJournal {
		return rj, nil
	}
	st := j.statusLocked()
	rj.Status = &st
	rj.Events = append([]api.JobEvent(nil), j.events...)
	return rj, nil
}
