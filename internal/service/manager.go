// Package service is the resident anonymization subsystem behind the
// gloved daemon: a dataset registry fed by streaming CSV ingestion, a
// job manager that runs GLOVE k-anonymization asynchronously with
// per-job progress and cancellation, and a shard scheduler that
// partitions a dataset by subscriber and anonymizes the shards through
// a bounded worker pool before merging outputs and accounting.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ErrQueueFull is returned by Submit when the job queue is at capacity;
// the condition is transient and the submission can be retried. The
// HTTP layer maps it to the queue_full envelope code.
var ErrQueueFull = fmt.Errorf("service: job queue is full")

// ManagerOptions tunes the job manager.
type ManagerOptions struct {
	// MaxConcurrentJobs is the number of jobs executed simultaneously
	// (each job additionally parallelizes internally); <= 0 means 1.
	MaxConcurrentJobs int
	// QueueLimit bounds the number of queued-but-not-started jobs;
	// <= 0 means 256. Submissions beyond the limit are rejected.
	QueueLimit int
	// Workers is the default per-job CPU parallelism when a spec leaves
	// it unset; <= 0 uses all CPUs.
	Workers int
	// AnalysisMaxFingerprints caps the measurement of each release at
	// its commit, per window: a window holding more users skips its
	// k-gap anonymizability pass and both cross-window linkage pairs it
	// belongs to. <= 0 means 2000.
	AnalysisMaxFingerprints int

	// MaxFinishedJobs bounds how many terminal (done/failed/cancelled)
	// jobs the manager retains in memory, evicting the oldest-finished
	// first — a resident daemon must not grow without bound as results
	// accumulate. 0 means the default of 64; negative disables the
	// bound. Evicted jobs disappear from the API exactly as an explicit
	// DELETE ?purge=1 would.
	MaxFinishedJobs int
	// MaxFinishedAge additionally evicts terminal jobs older than this
	// (measured from their finish time); 0 disables age-based eviction.
	MaxFinishedAge time.Duration

	// MaxFollowWindows caps how many windows a follow job may commit
	// before finishing, daemon-wide (gloved -follow-max-windows flag):
	// the effective bound is the smaller of this and the spec's
	// follow_windows when both are set. <= 0 leaves follow jobs
	// unbounded — they run until cancelled or their spec bound.
	MaxFollowWindows int

	// Telemetry receives the manager's metrics; nil creates a fresh one
	// (NewManager also attaches it to the registry), so callers of the
	// plain NewRegistry/NewManager/NewServer wiring get instrumentation
	// without threading anything.
	Telemetry *Telemetry
	// Log, when non-nil, receives structured job-lifecycle records
	// correlated by job_id.
	Log *slog.Logger
	// Journal, when non-nil, makes the job lifecycle durable: every
	// submission, committed release, terminal record (status and event
	// log) and removal is journaled, and Restore rebuilds jobs from a
	// replay at boot. nil runs the manager fully in memory (the
	// non-durable default).
	Journal *Journal
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.MaxConcurrentJobs <= 0 {
		o.MaxConcurrentJobs = 1
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 256
	}
	if o.AnalysisMaxFingerprints <= 0 {
		o.AnalysisMaxFingerprints = 2000
	}
	if o.MaxFinishedJobs == 0 {
		o.MaxFinishedJobs = 64
	}
	return o
}

// Manager owns the job lifecycle: submission, queueing, execution on a
// fixed pool of executor goroutines, cancellation, and result retention.
type Manager struct {
	reg  *Registry
	opt  ManagerOptions
	tel  *Telemetry
	log  *slog.Logger
	jrnl *Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	// draining flips during a graceful drain: executors leave queued
	// jobs queued (requeued next boot) and jobs the drain deadline kills
	// suppress their journal cancellation so the journal keeps calling
	// them running. Atomic because runJob reads it while holding job.mu,
	// where taking m.mu would invert the eviction lock order.
	draining atomic.Bool

	mu     sync.Mutex
	seq    int
	jobs   map[string]*Job
	order  []string
	closed bool
}

// NewManager starts a manager executing jobs against the registry.
// Close must be called to release its executor goroutines.
func NewManager(reg *Registry, opt ManagerOptions) *Manager {
	opt = opt.withDefaults()
	if opt.Telemetry == nil {
		opt.Telemetry = NewTelemetry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		reg:        reg,
		opt:        opt,
		tel:        opt.Telemetry,
		log:        opt.Log,
		jrnl:       opt.Journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, opt.QueueLimit),
		jobs:       make(map[string]*Job),
	}
	m.tel.registerQueueDepth(func() float64 { return float64(len(m.queue)) })
	if reg != nil {
		reg.attachTelemetry(m.tel)
	}
	m.wg.Add(opt.MaxConcurrentJobs)
	for i := 0; i < opt.MaxConcurrentJobs; i++ {
		go m.executor()
	}
	return m
}

// Close stops accepting jobs, cancels any running ones, and waits for
// the executors to exit. Queued jobs that never started are moved to
// cancelled. Safe to call after Drain: it then only cancels whatever
// the drain deadline left behind.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	m.baseCancel()
	m.wg.Wait()

	// Anything still sitting in the (now drained) queue map as queued
	// was never picked up: mark it cancelled so clients see a terminal
	// state. The cancellation is not journaled, so the next boot
	// requeues the job.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == JobQueued {
			j.err = "service shut down before the job started"
			j.transition(JobCancelled)
			m.tel.jobNeverStarted()
		}
		j.mu.Unlock()
	}
}

// Drain is the graceful half of shutdown: stop admitting work, let
// running jobs finish for up to timeout, then cancel whatever remains.
// Queued jobs are deliberately left queued — the journal records them
// as submitted, so the next boot requeues them — and jobs the deadline
// kills suppress their journal cancellation for the same reason. Call
// Close afterwards to reap the executors, and Journal.Checkpoint
// between the two to write the clean-shutdown snapshot.
func (m *Manager) Drain(timeout time.Duration) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.draining.Store(true)
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		if m.log != nil {
			m.log.Warn("drain deadline exceeded, cancelling running jobs", "timeout", timeout)
		}
		m.baseCancel()
		<-done
	}
}

// Submit validates the spec, registers a new job, and enqueues it.
// The only field it fills is Workers, from the manager-wide default.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	info, ok := m.reg.Get(spec.DatasetID)
	if !ok {
		return JobStatus{}, api.Errorf(api.CodeDatasetNotFound, "unknown dataset %q", spec.DatasetID).
			With("dataset_id", spec.DatasetID)
	}
	// A follow job's feed grows after submission, so its current user
	// count proves nothing; each window is checked against k when it
	// closes instead.
	if !spec.Follow && info.Users < spec.K {
		return JobStatus{}, api.Errorf(api.CodeInvalidSpec, "dataset %s hides %d users, cannot %d-anonymize",
			info.ID, info.Users, spec.K)
	}
	if spec.Workers <= 0 {
		spec.Workers = m.opt.Workers
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, api.Errorf(api.CodeShuttingDown, "manager is shut down")
	}
	m.seq++
	job := newJob(fmt.Sprintf("job-%06d", m.seq), spec)
	// Journal the submission BEFORE the enqueue: an executor may pick
	// the job up and journal its releases the moment it hits the
	// channel, and those must replay after the submission. Still under
	// m.mu, so journal order matches ID order.
	if err := m.jrnl.jobSubmitted(job.id, spec, job.created); err != nil {
		m.seq--
		m.mu.Unlock()
		return JobStatus{}, err
	}
	// Snapshot the status before the enqueue: once the job is on the
	// queue an idle executor may start it, and the caller must see the
	// state it submitted, not a racing "running" (m.mu -> job.mu is the
	// lock order evictFinishedLocked also takes).
	status := job.Status()
	// The enqueue happens under m.mu so Close (which also takes m.mu)
	// cannot close the channel between the closed check and the send.
	// The send is non-blocking: a full queue rejects the submission.
	select {
	case m.queue <- job:
	default:
		// Cancel the already-journaled submission out of the log.
		m.jrnl.jobEvicted(job.id)
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (limit %d)", ErrQueueFull, m.opt.QueueLimit)
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.mu.Unlock()
	// Make the accepted submission durable before acknowledging it.
	if err := m.jrnl.commit(); err != nil {
		return JobStatus{}, err
	}

	m.tel.jobSubmitted()
	if m.log != nil {
		m.log.Info("job submitted", "job_id", job.id,
			"dataset_id", spec.DatasetID, "k", spec.K, "window_hours", spec.WindowHours)
	}
	return status, nil
}

// Get returns the status of a job.
func (m *Manager) Get(id string) (JobStatus, bool) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return job.Status(), true
}

// ListPage returns up to limit job statuses after the given id (empty
// = from the start) in submission order, plus whether more remain —
// the cursor-pagination primitive, snapshotting only the requested
// page instead of every retained job. ok is false when after names no
// current job (a stale cursor, e.g. the job was evicted).
func (m *Manager) ListPage(after string, limit int) (page []JobStatus, more, ok bool) {
	m.mu.Lock()
	m.evictFinishedLocked()
	start := 0
	if after != "" {
		idx := -1
		for i, id := range m.order {
			if id == after {
				idx = i
				break
			}
		}
		if idx < 0 {
			m.mu.Unlock()
			return nil, false, false
		}
		start = idx + 1
	}
	end := start + limit
	if end > len(m.order) {
		end = len(m.order)
	}
	jobs := make([]*Job, 0, end-start)
	for _, id := range m.order[start:end] {
		jobs = append(jobs, m.jobs[id])
	}
	more = end < len(m.order)
	m.mu.Unlock()
	for _, j := range jobs {
		page = append(page, j.Status())
	}
	return page, more, true
}

// Cancel requests cancellation of a queued or running job. Queued jobs
// move to cancelled immediately, journaled as terminal; running jobs
// are interrupted via their context and reach the cancelled state when
// the run unwinds.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id)
	}
	job.mu.Lock()
	switch {
	case job.state == JobQueued:
		job.cancelRequested = true
		job.err = "cancelled before start"
		job.transition(JobCancelled)
		job.mu.Unlock()
		m.tel.jobNeverStarted()
		// Now terminal: journaled, and subject to retention like any
		// finished job.
		m.journalTerminal(job)
		m.mu.Lock()
		m.evictFinishedLocked()
		m.mu.Unlock()
	case job.state == JobRunning:
		job.cancelRequested = true
		if job.cancel != nil {
			job.cancel()
		}
		job.mu.Unlock()
	default: // terminal
		state := job.state
		job.mu.Unlock()
		return JobStatus{}, api.Errorf(api.CodeJobTerminal, "job %s already %s", id, state).
			With("state", string(state))
	}
	return job.Status(), nil
}

// Remove deletes a terminal job and its retained result, so a
// long-running daemon does not accumulate finished jobs forever, and
// makes the removal durable before returning. Queued or running jobs
// must be cancelled first.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id)
	}
	job.mu.Lock()
	state := job.state
	job.mu.Unlock()
	if !state.Terminal() {
		m.mu.Unlock()
		return api.Errorf(api.CodeJobNotTerminal, "job %s is %s, cancel it before removing", id, state).
			With("state", string(state))
	}
	err := m.dropLocked(id)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.jrnl.commit()
}

// dropLocked removes a terminal job after journaling its removal, so a
// replay does not resurrect it: the one path of an explicit purge and a
// retention eviction. A job whose removal the journal refused stays.
// Caller holds m.mu.
func (m *Manager) dropLocked(id string) error {
	if err := m.jrnl.jobEvicted(id); err != nil {
		return err
	}
	delete(m.jobs, id)
	m.order = removeID(m.order, id)
	return nil
}

// Result returns the release of a finished job: its single committed
// window's. A batch job always has exactly one; a windowed job whose run
// produced one release serves it here too (byte-identical to the batch
// result), while multi-window jobs publish per-window releases via
// WindowResult instead.
func (m *Manager) Result(id string) (*Release, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != JobDone {
		return nil, api.Errorf(api.CodeResultNotReady, "job %s is %s, no result", id, job.state).
			With("state", string(job.state))
	}
	var rel *Release
	released := 0
	for _, w := range job.windows {
		if w.state == WindowDone {
			rel = w.result
			released++
		}
	}
	if released != 1 {
		return nil, api.Errorf(api.CodeResultWindowed,
			"job %s produced %d windowed releases, download them per window", id, released).
			With("windows", len(job.windows))
	}
	return rel, nil
}

// WindowResult returns the release of one window of a windowed job.
// Completed windows are downloadable as soon as they finish — while the
// job is still running later windows, and even when the job was
// cancelled afterwards (a committed window is a complete, validated
// release; cancellation only prevents windows that never finished).
func (m *Manager) WindowResult(id string, w int) (*Release, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if batchJob(job.spec) {
		return nil, api.Errorf(api.CodeWindowNotFound, "job %s is not windowed", id)
	}
	// w is the absolute window index reported in WindowStatus.Index
	// (indices may jump over empty windows).
	for _, jw := range job.windows {
		if jw.index != w {
			continue
		}
		if jw.state != WindowDone {
			return nil, api.Errorf(api.CodeWindowNotReady, "job %s window %d is %s, no release", id, w, jw.state).
				With("window_state", string(jw.state))
		}
		return jw.result, nil
	}
	return nil, api.Errorf(api.CodeWindowNotFound, "job %s has no window %d", id, w).With("window", w)
}

// EventsSince exposes a job's event log to the SSE endpoint: the events
// after sequence number `after`, or (when the log has nothing newer) a
// channel closed on the next append. ok is false for unknown or evicted
// jobs, which ends the stream.
func (m *Manager) EventsSince(id string, after int) (evs []api.JobEvent, wake <-chan struct{}, ok bool) {
	m.mu.Lock()
	job, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return nil, nil, false
	}
	evs, wake = job.eventsSince(after)
	return evs, wake, true
}

// executor pops jobs off the queue until the queue closes.
func (m *Manager) executor() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob drives one job from queued to a terminal state.
func (m *Manager) runJob(job *Job) {
	if m.draining.Load() {
		// Graceful drain: leave the job queued instead of starting (or
		// cancelling) it. The journal records only the submission, so the
		// next boot requeues it.
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state != JobQueued {
		// Cancelled while waiting in the queue.
		job.mu.Unlock()
		return
	}
	if m.baseCtx.Err() != nil {
		// Shutdown: skip the run entirely instead of starting a doomed
		// job that would burn planShards work before noticing.
		job.err = "service shut down before the job started"
		job.transition(JobCancelled)
		m.tel.jobNeverStarted()
		job.mu.Unlock()
		return
	}
	job.cancel = cancel
	job.trace = obs.NewTrace(obs.SpanJob, job.id)
	job.transition(JobRunning)
	spec := job.spec
	started := job.started
	job.mu.Unlock()

	m.tel.jobStarted()
	if m.log != nil {
		m.log.Info("job started", "job_id", job.id)
	}

	stats, err := m.executeWindows(ctx, job, spec)

	// The run has returned, so nothing folds into accuracyRuns any more.
	// Summarizing it walks every committed sample; do it outside job.mu
	// so status polling never blocks behind it.
	job.mu.Lock()
	runs := job.accuracyRuns
	job.mu.Unlock()
	var accuracy *metrics.Summary
	if runs != nil {
		if sum, serr := runs.Summarize(); serr == nil {
			accuracy = &sum
		}
	}

	job.mu.Lock()
	job.cancel = nil
	// Every terminal state reports the quality of the releases the run
	// committed, a cancelled or failed job's included.
	job.accuracy = accuracy
	job.anonymousFraction, job.linkage = job.qualityLocked()
	// A cancel acknowledged after the last window committed must still
	// win: never report "done" for a job the client was told is being
	// cancelled.
	// Window aborts are recorded (and their events emitted) before the
	// terminal transition, so an event stream always ends on the
	// terminal state event.
	switch {
	case job.cancelRequested || ctx.Err() != nil:
		if m.draining.Load() && !job.cancelRequested {
			// Killed by the drain deadline, not by the user: keep the
			// cancellation out of the journal so the job is requeued at
			// the next boot instead of restored as cancelled.
			job.suppressJournal = true
		}
		job.err = "cancelled"
		job.abortOpenWindowsLocked()
		job.transition(JobCancelled)
	case err != nil:
		job.err = err.Error()
		job.abortOpenWindowsLocked()
		job.transition(JobFailed)
	default:
		job.stats = stats
		job.transition(JobDone)
	}
	job.trace.Root().End()
	state := job.state
	finished := job.finished
	job.mu.Unlock()

	m.journalTerminal(job)

	m.tel.jobFinished(state, finished.Sub(started))
	if m.log != nil {
		attrs := []any{"job_id", job.id, "state", string(state),
			"duration", finished.Sub(started)}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		m.log.Info("job finished", attrs...)
	}

	// The job just turned terminal: apply the retention policy so a
	// resident daemon sheds the oldest finished jobs and their results.
	m.mu.Lock()
	m.evictFinishedLocked()
	m.mu.Unlock()
}

// journalTerminal makes a job's terminal state durable: its one
// terminal record, the full status and event log. Every release was
// journaled at its window's commit. Drain-cancelled jobs are skipped on
// purpose. Caller does not hold job.mu.
func (m *Manager) journalTerminal(job *Job) {
	if m.jrnl == nil {
		return
	}
	job.mu.Lock()
	if job.suppressJournal {
		job.mu.Unlock()
		return
	}
	st := job.statusLocked()
	// Safe to marshal unlocked: appends never write inside this slice.
	events := job.events
	job.mu.Unlock()

	if err := m.jrnl.jobTerminalStatus(job.id, st, events); err != nil && m.log != nil {
		m.log.Error("journaling terminal status failed", "job_id", job.id, "error", err.Error())
	}
}

// evictFinishedLocked enforces the terminal-job retention policy,
// removing the oldest-finished jobs beyond MaxFinishedJobs and any
// terminal job older than MaxFinishedAge. Caller holds m.mu.
func (m *Manager) evictFinishedLocked() {
	type finished struct {
		id string
		at time.Time
	}
	var term []finished
	for _, id := range m.order {
		job := m.jobs[id]
		job.mu.Lock()
		if job.state.Terminal() {
			term = append(term, finished{id, job.finished})
		}
		job.mu.Unlock()
	}
	sort.Slice(term, func(i, j int) bool { return term[i].at.Before(term[j].at) })

	evict := make(map[string]bool)
	if m.opt.MaxFinishedAge > 0 {
		cutoff := time.Now().UTC().Add(-m.opt.MaxFinishedAge)
		for _, f := range term {
			if f.at.Before(cutoff) {
				evict[f.id] = true
			}
		}
	}
	if max := m.opt.MaxFinishedJobs; max >= 0 {
		excess := len(term) - len(evict) - max
		for _, f := range term {
			if excess <= 0 {
				break
			}
			if !evict[f.id] {
				evict[f.id] = true
				excess--
			}
		}
	}
	for _, f := range term {
		if evict[f.id] {
			// A refused journal append keeps the job until the next pass.
			m.dropLocked(f.id)
		}
	}
}

// jobList snapshots the retained jobs in submission order for the
// journal checkpoint.
func (m *Manager) jobList() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	return jobs
}

// seqNum exposes the job ID counter for journal checkpoints, so a
// restore never reissues the ID of an evicted job.
func (m *Manager) seqNum() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Restore rebuilds the manager's jobs from a journal replay. Terminal
// jobs come back verbatim — status, event log, downloadable releases.
// Interrupted jobs are re-enqueued and resume after their last committed
// window, every committed release immutable, its measurements read from
// its journal frame: a batch job killed after its commit runs nothing
// again, and only reports its plan and totals. A batch or windowed job reads
// the dataset cut back to the snapshot its commits saw, not records
// appended since; a job that committed nothing restarts from scratch on
// the dataset as it stands. Call before the daemon serves traffic;
// requeued jobs may start executing immediately.
func (m *Manager) Restore(st *RecoveredState) error {
	m.mu.Lock()
	if st.JobSeq > m.seq {
		m.seq = st.JobSeq
	}
	m.mu.Unlock()
	for _, rj := range st.Jobs {
		if rj.Status != nil {
			job, err := restoreTerminalJob(rj)
			if err != nil {
				return fmt.Errorf("service: restore job %s: %w", rj.ID, err)
			}
			m.adoptRestored(job)
			m.jrnl.jobRecovered("restored")
			continue
		}
		if err := m.requeueRecovered(rj); err != nil {
			return fmt.Errorf("service: requeue job %s: %w", rj.ID, err)
		}
	}
	return nil
}

// adoptRestored registers a rebuilt job without journaling anything —
// everything about it is already in the journal.
func (m *Manager) adoptRestored(job *Job) {
	m.mu.Lock()
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.mu.Unlock()
}

// requeueRecovered re-enqueues an interrupted job under its original ID.
// The submission is already journaled, so nothing is re-journaled here;
// the new run journals its releases and terminal record like any other.
func (m *Manager) requeueRecovered(rj *RecoveredJob) error {
	job := newJob(rj.ID, rj.Spec)
	job.created = rj.CreatedAt
	if len(rj.Events) > 0 {
		job.events = append([]api.JobEvent(nil), rj.Events...)
	}
	outcome := "requeued"
	resume, err := buildWindowResume(job, rj)
	if err != nil {
		return err
	}
	if resume != nil {
		job.resume = resume
		outcome = "resumed"
	}

	m.mu.Lock()
	select {
	case m.queue <- job:
	default:
		// The recovered backlog exceeds the queue; surface the loss as a
		// cancellation instead of silently dropping the job.
		job.mu.Lock()
		job.err = "job queue full after recovery"
		job.transition(JobCancelled)
		job.mu.Unlock()
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.mu.Unlock()
	m.jrnl.jobRecovered(outcome)
	if m.log != nil {
		m.log.Info("job recovered", "job_id", job.id, "outcome", outcome)
	}
	return nil
}

// buildWindowResume reconstructs a job's committed prefix: the
// jobWindow entries with their journaled measurements (so recovered
// releases stay downloadable, as their journaled bytes), the job's
// accuracy folded from the frames' runs, and the resume state
// executeWindows seeds its loop with — floor, release count, aggregate
// stats, the last release's index — so the continuation is
// byte-identical to a run that never crashed. No release is decoded. nil
// when no window was committed (the job simply restarts).
func buildWindowResume(job *Job, rj *RecoveredJob) (*windowResume, error) {
	resume := &windowResume{floor: -1, first: -1, stats: &core.GloveStats{}}
	job.accuracyRuns = &metrics.AccuracyRuns{}
	if rj.AccuracyRuns != nil {
		job.accuracyRuns.Fold(*rj.AccuracyRuns)
	}
	for _, r := range rj.Results {
		w := r.Window
		if w.Index > resume.floor {
			resume.floor = w.Index
		}
		job.snapshotRecords = max(job.snapshotRecords, w.SnapshotRecords)
		job.datasetVersion = max(job.datasetVersion, w.DatasetVersion)
		jw := &jobWindow{
			index:       w.Index,
			startMinute: w.StartMinute,
			endMinute:   w.EndMinute,
			records:     w.Records,
			users:       w.Users,
			state:       WindowEmpty,
		}
		if !w.Empty {
			var err error
			if jw.result, err = newRelease(r.CSV); err != nil {
				return nil, fmt.Errorf("window %d release: %w", w.Index, err)
			}
			jw.state = WindowDone
			jw.groups = w.Groups
			jw.stats = w.Stats
			jw.quality = w.ReleaseQuality
			switch {
			case w.AccuracyRuns != nil:
				if job.accuracyRuns != nil {
					job.accuracyRuns.Fold(*w.AccuracyRuns)
				}
			case rj.AccuracyRuns == nil:
				// Journaled before releases were measured at their commit:
				// the job's accuracy cannot cover this release.
				job.accuracyRuns = nil
			}
			if resume.first < 0 {
				resume.first = w.Index
			}
			resume.released++
			resume.last = w.Index
			resume.stats.Add(w.Stats)
		}
		job.windows = append(job.windows, jw)
	}
	if resume.floor < 0 {
		return nil, nil
	}
	return resume, nil
}

// restoreTerminalJob rebuilds a finished job verbatim from its journaled
// terminal status, event log, and releases; the releases are kept as
// their journaled bytes, never decoded. A batch job's status lists no
// window, so its one window is rebuilt from its release frame, if it
// committed one (a journal written before batch jobs ran as one window
// marks that frame "batch").
func restoreTerminalJob(rj *RecoveredJob) (*Job, error) {
	st := rj.Status
	job := &Job{
		id:                rj.ID,
		spec:              st.Spec,
		state:             st.State,
		err:               st.Error,
		created:           st.CreatedAt,
		eventCh:           make(chan struct{}),
		plan:              st.Plan,
		shards:            st.Shards,
		datasetVersion:    st.DatasetVersion,
		stats:             st.Stats,
		accuracy:          st.Accuracy,
		anonymousFraction: st.AnonymousFraction,
		linkage:           st.Linkage,
	}
	if st.StartedAt != nil {
		job.started = *st.StartedAt
	}
	if st.FinishedAt != nil {
		job.finished = *st.FinishedAt
	}
	job.events = append([]api.JobEvent(nil), rj.Events...)
	results := make(map[int]*Release, len(rj.Results))
	for _, r := range rj.Results {
		if r.Window.Empty {
			continue
		}
		rel, err := newRelease(r.CSV)
		if err != nil {
			return nil, fmt.Errorf("window %d release: %w", r.Window.Index, err)
		}
		results[r.Window.Index] = rel
	}
	windows := st.Windows
	if batchJob(st.Spec) {
		// Its one window carries the job's progress (weight 1), or its
		// committed release.
		ws := WindowStatus{Users: 1, State: WindowAborted, Progress: st.Progress}
		if len(rj.Results) > 0 {
			w := rj.Results[0].Window
			ws = WindowStatus{Index: w.Index, Records: w.Records, Users: w.Users,
				State: WindowDone, Groups: w.Groups, Stats: w.Stats, ReleaseQuality: w.ReleaseQuality}
		}
		windows = []WindowStatus{ws}
	}
	// A window's progress has no per-shard breakdown in the status; one
	// slot holding the fraction preserves it, and so the job's.
	for _, ws := range windows {
		job.windows = append(job.windows, &jobWindow{
			index:         ws.Index,
			startMinute:   ws.StartMinute,
			endMinute:     ws.EndMinute,
			records:       ws.Records,
			users:         ws.Users,
			state:         ws.State,
			shardProgress: []float64{ws.Progress},
			groups:        ws.Groups,
			stats:         ws.Stats,
			quality:       ws.ReleaseQuality,
			result:        results[ws.Index],
		})
	}
	return job, nil
}

// planJob partitions src into shards under a plan span, then resolves
// and publishes the execution plan of the largest shard (one
// fingerprint per subscriber), so clients can see what the auto rules
// picked before the run finishes.
func (m *Manager) planJob(job *Job, root obs.ActiveSpan, src *colstore.View, users int, spec JobSpec) ([]*colstore.View, error) {
	span := root.Child(obs.SpanPlan, "")
	shards := planShards(src, users, spec.K, spec.Shards)
	plan, err := core.PlanFor(maxShardUsers(shards), anonymizeOptions(spec, spec.Workers, nil))
	if err != nil {
		span.End()
		return nil, err
	}
	span.SetAttr("strategy", string(plan.Strategy))
	span.SetAttr("index", string(plan.Index))
	span.SetAttr("shards", len(shards))
	span.End()
	m.tel.jobPlanned(&plan)
	job.mu.Lock()
	job.plan = &plan
	job.shards = len(shards)
	job.mu.Unlock()
	return shards, nil
}

// maxShardUsers returns the subscriber count of the largest shard.
func maxShardUsers(shards []*colstore.View) int {
	max := 0
	for _, s := range shards {
		if u := s.NumUsers(); u > max {
			max = u
		}
	}
	return max
}

// Trace returns the span tree a job's execution recorded. Jobs that
// never started (still queued, or cancelled before running) have no
// trace yet — the stable trace_not_found condition.
func (m *Manager) Trace(id string) (api.JobTrace, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return api.JobTrace{}, api.Errorf(api.CodeJobNotFound, "unknown job %q", id).With("job_id", id)
	}
	job.mu.Lock()
	tr := job.trace
	state := job.state
	job.mu.Unlock()
	if tr == nil {
		return api.JobTrace{}, api.Errorf(api.CodeTraceNotFound,
			"job %s has not recorded a trace (state %s)", id, state).
			With("job_id", id).With("state", string(state))
	}
	return api.JobTrace{JobID: id, State: state, Root: tr.Snapshot()}, nil
}
