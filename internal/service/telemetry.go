package service

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Telemetry owns every instrument the service exports at GET /metrics.
// One Telemetry backs one Registry+Manager+Server trio; NewManager
// creates it automatically when ManagerOptions leaves it nil, so the
// existing NewRegistry/NewManager/NewServer wiring gains full
// instrumentation without signature changes. All methods are nil-safe:
// a nil *Telemetry is an inert sink, so unit tests that assemble bare
// Jobs or Registries never need one.
//
// Metric names are append-only wire vocabulary (DESIGN.md Sec. 10).
type Telemetry struct {
	// Reg renders the Prometheus exposition for GET /metrics.
	Reg *obs.Registry

	start time.Time

	httpRequests  *obs.CounterVec // glove_http_requests_total{route,method,status}
	httpDuration  *obs.HistogramVec
	httpInFlight  *obs.Gauge
	httpRespBytes *obs.CounterVec

	datasets       *obs.Gauge
	datasetRecords *obs.Gauge
	ingestRecords  *obs.Counter
	ingestBytes    *obs.Counter

	jobsSubmitted  *obs.Counter
	jobsRunning    *obs.Gauge
	jobsFinished   *obs.CounterVec // {state}
	jobsPlanned    *obs.CounterVec // {strategy,index}
	jobDuration    *obs.Histogram
	windowDuration *obs.Histogram
	windowReleases *obs.Counter
	windowCommit   *obs.Histogram
	streamLag      *obs.Gauge
	shardsRunning  *obs.Gauge
	shardsTotal    *obs.Counter

	mergesTotal       *obs.Counter
	kernelCalls       *obs.Counter
	kernelPruned      *obs.Counter
	indexBuildSeconds *obs.Counter
	mergeSeconds      *obs.Counter
	suppressedSamples *obs.Counter
	linkageProbed     *obs.Counter
	linkageLinked     *obs.Counter

	walFsync          *obs.Histogram
	walBytes          *obs.Counter
	recoveredJobs     *obs.CounterVec // {outcome}
	recoveredDatasets *obs.Counter

	queueOnce    sync.Once
	bootOnce     sync.Once
	colstoreOnce sync.Once
	journalOnce  sync.Once
}

// NewTelemetry registers the service instrument set on a fresh obs
// registry.
func NewTelemetry() *Telemetry {
	r := obs.NewRegistry()
	t := &Telemetry{Reg: r, start: time.Now()}

	t.httpRequests = r.CounterVec("glove_http_requests_total",
		"HTTP requests served, by matched route pattern, method, and status.",
		"route", "method", "status")
	t.httpDuration = r.HistogramVec("glove_http_request_duration_seconds",
		"HTTP request latency by matched route pattern.", nil, "route")
	t.httpInFlight = r.Gauge("glove_http_requests_in_flight",
		"HTTP requests currently being served.")
	t.httpRespBytes = r.CounterVec("glove_http_response_bytes_total",
		"Response body bytes written, by matched route pattern.", "route")

	t.datasets = r.Gauge("glove_datasets",
		"Datasets currently registered.")
	t.datasetRecords = r.Gauge("glove_dataset_records",
		"Records across all registered datasets.")
	t.ingestRecords = r.Counter("glove_ingest_records_total",
		"Records accepted by ingestion and appends.")
	t.ingestBytes = r.Counter("glove_ingest_bytes_total",
		"Request body bytes consumed by ingestion and appends.")

	t.jobsSubmitted = r.Counter("glove_jobs_submitted_total",
		"Jobs accepted by Submit.")
	t.jobsRunning = r.Gauge("glove_jobs_running",
		"Jobs currently executing.")
	t.jobsFinished = r.CounterVec("glove_jobs_finished_total",
		"Jobs reaching a terminal state, by state.", "state")
	t.jobsPlanned = r.CounterVec("glove_jobs_planned_total",
		"Jobs by the execution plan the core planner resolved.",
		"strategy", "index")
	t.jobDuration = r.Histogram("glove_job_duration_seconds",
		"Wall-clock duration of finished jobs.", nil)
	t.windowDuration = r.Histogram("glove_window_duration_seconds",
		"Wall-clock seconds a committed window ran, from the start of its window span to its commit (follow and windowed jobs).", nil)
	t.windowReleases = r.Counter("glove_window_releases_total",
		"Committed per-window releases across windowed jobs.")
	t.windowCommit = r.Histogram("glove_window_commit_seconds",
		"Wall-clock seconds from a window becoming committable to its release being committed (follow and windowed jobs).", nil)
	t.streamLag = r.Gauge("glove_stream_lag_windows",
		"Windows closed by the feed but not yet committed, across running follow jobs.")
	t.shardsRunning = r.Gauge("glove_shards_running",
		"Shard anonymization runs currently executing (pool utilization).")
	t.shardsTotal = r.Counter("glove_shards_total",
		"Shard anonymization runs started.")

	t.mergesTotal = r.Counter("glove_merges_total",
		"GLOVE pairwise merge operations across committed releases.")
	t.kernelCalls = r.Counter("glove_effort_kernel_calls_total",
		"Pruned effort-kernel invocations across committed releases.")
	t.kernelPruned = r.Counter("glove_effort_kernel_pruned_total",
		"Effort-kernel invocations that early-exited via threshold pruning.")
	t.indexBuildSeconds = r.Counter("glove_index_build_seconds_total",
		"Wall-clock seconds spent building pair-effort indexes.")
	t.mergeSeconds = r.Counter("glove_merge_seconds_total",
		"Wall-clock seconds spent in GLOVE merge loops.")
	t.suppressedSamples = r.Counter("glove_suppressed_samples_total",
		"Original samples removed by suppression across committed releases.")
	t.linkageProbed = r.Counter("glove_linkage_probed_total",
		"Subscribers probed by the cross-window linkage attack, summed over committed releases.")
	t.linkageLinked = r.Counter("glove_linkage_linked_total",
		"Probed subscribers the cross-window linkage attack re-linked, summed over committed releases.")

	t.walFsync = r.Histogram("glove_wal_fsync_seconds",
		"Write-ahead journal fsync latency (group commits, rotations, compactions).", nil)
	t.walBytes = r.Counter("glove_wal_bytes_total",
		"Framed bytes appended to the write-ahead journal.")
	t.recoveredJobs = r.CounterVec("glove_recovered_jobs_total",
		"Jobs rebuilt from the journal at boot, by recovery outcome.", "outcome")
	t.recoveredDatasets = r.Counter("glove_recovered_datasets_total",
		"Datasets rebuilt from the journal at boot.")
	return t
}

// registerQueueDepth exposes the manager's queue depth as a live gauge;
// only the first manager attached to this telemetry wires it.
func (t *Telemetry) registerQueueDepth(fn func() float64) {
	if t == nil {
		return
	}
	t.queueOnce.Do(func() {
		t.Reg.GaugeFunc("glove_job_queue_depth",
			"Jobs queued but not yet started.", fn)
	})
}

// registerColstore exposes the columnar storage tier's live footprint:
// resident column bytes and spilled chunks as gauges over the live
// stores, fault-ins and spill-outs as monotone counters surviving
// dataset deletion. Only the first registry attached to this telemetry
// wires them; a table-only registry exports zeros.
func (t *Telemetry) registerColstore(resident, spilled, faults, spills func() float64) {
	if t == nil {
		return
	}
	t.colstoreOnce.Do(func() {
		t.Reg.GaugeFunc("colstore_resident_bytes",
			"Resident column bytes across the registry's columnar stores.", resident)
		t.Reg.GaugeFunc("colstore_spilled_chunks",
			"Column chunks currently living only in the spill file.", spilled)
		t.Reg.CounterFunc("colstore_chunk_faults_total",
			"Column chunks faulted back in from the spill file.", faults)
		t.Reg.CounterFunc("colstore_chunk_spills_total",
			"Column chunks written out to the spill file.", spills)
	})
}

// registerBoot attaches the process-level runtime gauges and boot-info
// series; only the first server attached to this telemetry wires them.
func (t *Telemetry) registerBoot(bootID string) {
	if t == nil {
		return
	}
	t.bootOnce.Do(func() {
		obs.RegisterRuntime(t.Reg, bootID, t.start)
	})
}

// registerJournal exposes a durable daemon's journal: its live size as
// a gauge, and what the boot recovered — the dataset count, and a
// constant glove_journal_recovery_info{clean_shutdown,torn_tail} 1
// series telling how the previous run ended. Only the first journal
// attached to this telemetry wires the gauges.
func (t *Telemetry) registerJournal(log *wal.Log, st *RecoveredState) {
	if t == nil {
		return
	}
	t.recoveredDatasets.Add(float64(len(st.Datasets)))
	t.journalOnce.Do(func() {
		t.Reg.GaugeFunc("glove_wal_size_bytes",
			"Bytes in the write-ahead journal's live segments.",
			func() float64 {
				_, n := log.Size()
				return float64(n)
			})
		info := t.Reg.GaugeVec("glove_journal_recovery_info",
			"Constant 1, labeled with how the run before this boot ended: clean_shutdown (drained and checkpointed) and torn_tail (a frame torn by a crash was truncated off the journal).",
			"clean_shutdown", "torn_tail")
		info.With(strconv.FormatBool(st.CleanShutdown), strconv.FormatBool(st.TornTail)).Set(1)
	})
}

// --- HTTP middleware hooks ---

func (t *Telemetry) httpStart() {
	if t != nil {
		t.httpInFlight.Inc()
	}
}

func (t *Telemetry) httpDone(route, method string, status int, bytes int64, d time.Duration) {
	if t == nil {
		return
	}
	t.httpInFlight.Dec()
	t.httpRequests.With(route, method, strconv.Itoa(status)).Inc()
	t.httpDuration.With(route).Observe(d.Seconds())
	t.httpRespBytes.With(route).Add(float64(bytes))
}

// --- registry hooks ---

func (t *Telemetry) datasetTotals(datasets, records int) {
	if t != nil {
		t.datasets.Set(float64(datasets))
		t.datasetRecords.Set(float64(records))
	}
}

func (t *Telemetry) ingested(records int, bytes int64) {
	if t != nil {
		t.ingestRecords.Add(float64(records))
		t.ingestBytes.Add(float64(bytes))
	}
}

// --- manager hooks ---

func (t *Telemetry) jobSubmitted() {
	if t != nil {
		t.jobsSubmitted.Inc()
	}
}

func (t *Telemetry) jobStarted() {
	if t != nil {
		t.jobsRunning.Inc()
	}
}

func (t *Telemetry) jobPlanned(p *core.Plan) {
	if t != nil && p != nil {
		t.jobsPlanned.With(string(p.Strategy), string(p.Index)).Inc()
	}
}

// jobFinished counts a terminal job.
func (t *Telemetry) jobFinished(state JobState, d time.Duration) {
	if t == nil {
		return
	}
	t.jobsRunning.Dec()
	t.jobsFinished.With(string(state)).Inc()
	t.jobDuration.Observe(d.Seconds())
}

// jobNeverStarted accounts a queued job cancelled before it ran: it is
// terminal (counted in jobs_finished_total) but was never running, so
// the running gauge must not move.
func (t *Telemetry) jobNeverStarted() {
	if t != nil {
		t.jobsFinished.With(string(JobCancelled)).Inc()
	}
}

// releaseCommitted folds one committed release — a batch job's
// included — into the engine and linkage counters, so a job's work
// shows while it runs and whatever way it ends.
func (t *Telemetry) releaseCommitted(stats *core.GloveStats, q ReleaseQuality) {
	if t == nil {
		return
	}
	t.mergesTotal.Add(float64(stats.Merges))
	t.kernelCalls.Add(float64(stats.EffortKernelCalls))
	t.kernelPruned.Add(float64(stats.EffortKernelPruned))
	t.indexBuildSeconds.Add(time.Duration(stats.IndexBuildNanos).Seconds())
	t.mergeSeconds.Add(time.Duration(stats.MergeNanos).Seconds())
	t.suppressedSamples.Add(float64(stats.SuppressedSamples))
	if q.Linkage != nil {
		t.linkageProbed.Add(float64(q.Linkage.Probed))
		t.linkageLinked.Add(float64(q.Linkage.Linked))
	}
}

// windowCommitted counts one committed window release: run is its own
// run time, from the start of its window span to its commit, and wait
// the time from the window becoming committable to its commit, which
// includes the earlier windows of the same pass.
func (t *Telemetry) windowCommitted(run, wait time.Duration) {
	if t != nil {
		t.windowReleases.Inc()
		t.windowDuration.Observe(run.Seconds())
		t.windowCommit.Observe(wait.Seconds())
	}
}

// streamLagDelta moves the shared stream-lag gauge by a delta: each
// follow job adds newly closed windows as it discovers them and
// subtracts what it commits (and its remainder on exit), so concurrent
// follow jobs aggregate correctly without a last-writer-wins Set.
func (t *Telemetry) streamLagDelta(d float64) {
	if t != nil && d != 0 {
		t.streamLag.Add(d)
	}
}

// --- durability hooks ---

// walSynced and walAppended are handed to wal.Options as method values;
// both tolerate a nil receiver like every other hook.
func (t *Telemetry) walSynced(d time.Duration) {
	if t != nil {
		t.walFsync.Observe(d.Seconds())
	}
}

func (t *Telemetry) walAppended(n int) {
	if t != nil {
		t.walBytes.Add(float64(n))
	}
}

// jobRecovered counts one job rebuilt at boot: outcome "restored"
// (terminal job served verbatim), "requeued" (interrupted job that
// committed no window, restarted from scratch), or "resumed"
// (interrupted job continuing after its last committed window).
func (t *Telemetry) jobRecovered(outcome string) {
	if t != nil {
		t.recoveredJobs.With(outcome).Inc()
	}
}

func (t *Telemetry) shardStarted() {
	if t != nil {
		t.shardsTotal.Inc()
		t.shardsRunning.Inc()
	}
}

func (t *Telemetry) shardDone() {
	if t != nil {
		t.shardsRunning.Dec()
	}
}
