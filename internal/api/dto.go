package api

import (
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// DatasetInfo is the public metadata of a registered dataset.
type DatasetInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Records  int    `json:"records"`
	Users    int    `json:"users"`
	SpanDays int    `json:"span_days"`
	// Version is a monotone counter starting at 1, incremented by every
	// record append. Jobs snapshot the dataset at submission of the run,
	// so a job's reported dataset_version names exactly the feed state it
	// anonymized.
	Version   int        `json:"version"`
	Center    geo.LatLon `json:"center"`
	CreatedAt time.Time  `json:"created_at"`
	UpdatedAt time.Time  `json:"updated_at"`
}

// DatasetPage is one page of GET /v1/datasets.
type DatasetPage struct {
	Datasets []DatasetInfo `json:"datasets"`
	// NextPageToken resumes the listing after the last dataset of this
	// page; empty when the listing is exhausted.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// JobPage is one page of GET /v1/jobs.
type JobPage struct {
	Jobs          []JobStatus `json:"jobs"`
	NextPageToken string      `json:"next_page_token,omitempty"`
}

// Health is the payload of GET /healthz.
type Health struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

// JobState is the lifecycle state of an anonymization job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// JobSpec is the client-supplied description of an anonymization job.
// It fixes the release (k, suppression) and the window shape; how each
// shard executes (strategy, chunk size, index) is picked by
// core.PlanFor from the shard's size alone.
type JobSpec struct {
	// DatasetID names a dataset previously registered via ingestion.
	DatasetID string `json:"dataset_id"`
	// K is the anonymity level (>= 2).
	K int `json:"k"`
	// SuppressKm / SuppressMin optionally discard over-generalized
	// samples (Sec. 7.1); 0 disables that dimension.
	SuppressKm  float64 `json:"suppress_km,omitempty"`
	SuppressMin float64 `json:"suppress_min,omitempty"`
	// Shards is the requested number of dataset shards anonymized
	// independently; <= 0 lets the scheduler pick one per worker. The
	// effective count is clamped so every shard can k-anonymize on its
	// own.
	Shards int `json:"shards,omitempty"`
	// Workers bounds the job's CPU parallelism; <= 0 uses all CPUs.
	Workers int `json:"workers,omitempty"`

	// WindowHours, when > 0, turns the job into a continuous-release
	// run: the dataset snapshot is partitioned into time windows of this
	// many hours (aligned at multiples from the dataset epoch) and each
	// window is anonymized independently into its own release, published
	// as it completes. 0 anonymizes the whole snapshot in one release.
	WindowHours float64 `json:"window_hours,omitempty"`

	// Follow, when true, turns a windowed job into a streaming run: the
	// job subscribes to the dataset's appends and commits each window the
	// moment the feed moves past it (a record in a later window proves
	// the earlier one closed), instead of splitting one frozen snapshot.
	// Windows the feed skipped entirely are reported as explicit empty
	// windows. Requires window_hours > 0. The job runs until cancelled
	// unless follow_windows bounds it.
	Follow bool `json:"follow,omitempty"`
	// FollowWindows bounds how many non-empty windows a follow job
	// commits before finishing on its own; 0 follows until cancelled (or
	// until the daemon-wide cap, when one is configured). Empty windows
	// do not count toward the bound.
	FollowWindows int `json:"follow_windows,omitempty"`
}

// Validate checks the statically checkable parts of the spec. A
// violation is reported as an *Error with CodeInvalidSpec.
func (s JobSpec) Validate() error {
	if s.DatasetID == "" {
		return Errorf(CodeInvalidSpec, "job without dataset_id")
	}
	if s.K < 2 {
		return Errorf(CodeInvalidSpec, "job k = %d, need k >= 2", s.K)
	}
	if !finiteNonNegative(s.SuppressKm) || !finiteNonNegative(s.SuppressMin) {
		return Errorf(CodeInvalidSpec, "suppression thresholds %g km, %g min: need finite and >= 0",
			s.SuppressKm, s.SuppressMin)
	}
	if !finiteNonNegative(s.WindowHours) {
		return Errorf(CodeInvalidSpec, "window_hours %g, need finite and >= 0", s.WindowHours)
	}
	// WindowDuration must neither truncate to zero nor overflow.
	if ns := s.WindowHours * float64(time.Hour); s.WindowHours > 0 && !(ns >= 1 && ns < math.MaxInt64) {
		return Errorf(CodeInvalidSpec, "window_hours %g is not a duration between 1 ns and %.0f hours",
			s.WindowHours, float64(math.MaxInt64)/float64(time.Hour))
	}
	if s.Follow && s.WindowHours == 0 {
		return Errorf(CodeInvalidSpec, "follow requires window_hours > 0")
	}
	if s.FollowWindows < 0 {
		return Errorf(CodeInvalidSpec, "negative follow_windows %d", s.FollowWindows)
	}
	if s.FollowWindows > 0 && !s.Follow {
		return Errorf(CodeInvalidSpec, "follow_windows %d set without follow", s.FollowWindows)
	}
	return nil
}

// finiteNonNegative reports whether x is a number in [0, +Inf).
func finiteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// WindowDuration converts the spec's window length for the partitioner.
func (s JobSpec) WindowDuration() time.Duration {
	return time.Duration(s.WindowHours * float64(time.Hour))
}

// WindowState is the lifecycle of one window of a windowed job. A
// window becomes downloadable the moment it is done — releases stream
// out while later windows are still running.
type WindowState string

const (
	WindowPending WindowState = "pending"
	WindowRunning WindowState = "running"
	WindowDone    WindowState = "done"
	// WindowAborted marks windows that never completed because the job
	// failed or was cancelled; they published nothing.
	WindowAborted WindowState = "aborted"
	// WindowEmpty marks a window of a follow job the feed skipped
	// entirely: the gap is reported explicitly (with its own window
	// event) so downstream consumers can distinguish "no data in this
	// interval" from "release still pending". Empty windows publish
	// nothing and have no downloadable result.
	WindowEmpty WindowState = "empty"
)

// WindowStatus is the per-window progress and accounting of a windowed
// job, one entry per non-empty time window of the snapshot.
type WindowStatus struct {
	// Index is the window's position on the absolute time axis (window i
	// covers minutes [i*w, (i+1)*w) of the dataset epoch).
	Index int `json:"index"`
	// StartMinute / EndMinute delimit the half-open window interval.
	StartMinute float64 `json:"start_minute"`
	EndMinute   float64 `json:"end_minute"`
	// Records and Users describe the window's slice of the snapshot.
	Records int `json:"records"`
	Users   int `json:"users"`

	State WindowState `json:"state"`
	// Progress advances from 0 to 1 over the window's anonymization.
	Progress float64 `json:"progress"`
	// Groups and Stats are populated once the window is done; the
	// window's release is then downloadable at
	// /v1/jobs/{id}/windows/{index}/result.
	Groups int              `json:"groups,omitempty"`
	Stats  *core.GloveStats `json:"stats,omitempty"`
	// ReleaseQuality is the done window's release measured at its
	// commit: anonymous, linkage and accuracy.
	ReleaseQuality
}

// ReleaseQuality is what one committed release cost in privacy and
// accuracy, measured once, when the release commits, and journaled with
// it. A job's anonymous_fraction, linkage and accuracy aggregate its
// releases' measurements.
type ReleaseQuality struct {
	// Anonymous counts the window's input fingerprints (one per user,
	// Users in all) that were already k-anonymous before GLOVE ran: the
	// k-gap of Sec. 5 is zero, decided by the thresholded pass
	// (core.KGapAnonymousFraction). nil when the window held more users
	// than the daemon's analysis cap, or in a journal written before
	// releases were measured at their commit.
	Anonymous *int `json:"anonymous,omitempty"`
	// Linkage is the cross-window linkage probe of this release and the
	// previous committed one of the job (its Window is that release's
	// index). nil for a job's first release, when either window held
	// more users than the analysis cap, or in an older journal.
	Linkage *analysis.LinkagePair `json:"linkage,omitempty"`
	// Accuracy summarizes the release's generalized extents per
	// original sample (Figs. 9-11).
	Accuracy *metrics.Summary `json:"accuracy,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job, the payload of
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Progress advances from 0 to 1 over the job's lifetime; while
	// running it is the mean completion fraction across shards.
	Progress float64 `json:"progress"`
	// Shards is the effective shard count chosen by the scheduler — for
	// a windowed or follow job, that of the first runnable window, the
	// one Plan describes (0 until the job plans).
	Shards int    `json:"shards"`
	Error  string `json:"error,omitempty"`

	// Plan is the execution plan the core planner resolved for the
	// job's largest shard (strategy, chunk size, index); nil until the
	// job starts.
	Plan *core.Plan `json:"plan,omitempty"`

	// DatasetVersion is the registry version of the dataset snapshot the
	// job anonymizes; 0 until the run snapshots its input. Appends
	// racing the job bump the dataset's version but never this one.
	DatasetVersion int `json:"dataset_version,omitempty"`
	// Windows holds the per-window progress of a windowed job
	// (window_hours > 0), in time order; empty for batch jobs.
	Windows []WindowStatus `json:"windows,omitempty"`
	// Linkage sums the cross-window linkage pairs of the job's committed
	// releases (WindowStatus.Linkage), one per consecutive pair. It is
	// set once the job is terminal, so a cancelled or failed job reports
	// the releases it committed; nil for batch jobs and single-release
	// runs, or when any pair went unmeasured (a window above the
	// analysis cap, or a release journaled before releases were measured
	// at their commit) — never a partial sum.
	Linkage *analysis.LinkageResult `json:"linkage,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Stats is populated once the job is done. Accuracy summarizes every
	// committed release's extents together, exactly as if their samples
	// were measured as one dataset; like AnonymousFraction and Linkage
	// it is set once the job is terminal, cancelled and failed jobs
	// included, and covers the committed releases only.
	Stats    *core.GloveStats `json:"stats,omitempty"`
	Accuracy *metrics.Summary `json:"accuracy,omitempty"`
	// AnonymousFraction is the fraction of the committed windows' input
	// fingerprints that were already k-anonymous (Sec. 5 k-gap
	// analysis): Σ anonymous / Σ users over the windows, each window's
	// count measured at its commit (WindowStatus.Anonymous). A user
	// active in several windows is one fingerprint per window, and a
	// follow job's fraction excludes the window still open when it
	// stopped. For a batch job it equals the full k-gap pass's fraction
	// on its input bit for bit. nil when any committed window went
	// unmeasured (above the analysis cap, or journaled before releases
	// were measured at their commit) — never a partial number.
	AnonymousFraction *float64 `json:"anonymous_fraction,omitempty"`
}

// MetricsReport aggregates what the service has published so far, the
// payload of GET /v1/metrics.
type MetricsReport struct {
	Datasets    int              `json:"datasets"`
	Jobs        int              `json:"jobs"`
	JobsByState map[JobState]int `json:"jobs_by_state"`
	// JobsByStrategy / JobsByIndex count jobs by the execution plan the
	// core planner resolved (auto rules included), so operators can see
	// which path — single vs chunked, dense vs sparse — their traffic
	// actually takes. Jobs that never started (no plan yet) are absent.
	JobsByStrategy map[core.Strategy]int  `json:"jobs_by_strategy"`
	JobsByIndex    map[core.IndexKind]int `json:"jobs_by_index"`
	// WindowedJobs counts jobs submitted with window_hours > 0;
	// WindowReleases counts the committed per-window releases across
	// them (completed windows of running or cancelled jobs included).
	// Both are incremental lifetime totals: they survive terminal-job
	// eviction rather than being recomputed from retained jobs.
	WindowedJobs   int `json:"windowed_jobs"`
	WindowReleases int `json:"window_releases"`
	// MeanCrossWindowLinkage averages the linked fraction of the
	// cross-window linkage analysis over finished windowed jobs that
	// reported one — the service-wide residual re-identification risk of
	// continuous publication. Nil when no job measured it.
	MeanCrossWindowLinkage *float64 `json:"mean_cross_window_linkage,omitempty"`
	// EffortKernelCalls / EffortKernelPruned aggregate the pruned
	// effort-kernel accounting (DESIGN.md Sec. 8) over every finished
	// job since boot (incremental, eviction-proof), so operators can
	// watch how much Eq. 10 work the threshold pruning is eliding on
	// their real traffic.
	EffortKernelCalls  int `json:"effort_kernel_calls"`
	EffortKernelPruned int `json:"effort_kernel_pruned"`
	// CompletedTotal counts every job that reached the done state since
	// boot; Completed below is capped, so the two can differ.
	CompletedTotal int `json:"completed_total"`
	// Completed holds the per-job utility summaries (accuracy from
	// internal/metrics, anonymizability and cross-window linkage from
	// internal/analysis) of the most recently finished jobs, newest
	// first, capped so the report stays bounded under job churn.
	Completed []JobStatus `json:"completed"`
	// Runtime snapshots process health (goroutines, heap, GC, uptime,
	// boot id) so restarts and leaks are visible without a scraper.
	Runtime obs.RuntimeInfo `json:"runtime"`
	// Colstore snapshots the memory-bounded columnar store that holds
	// every dataset.
	Colstore *ColstoreInfo `json:"colstore,omitempty"`
	// Durability snapshots the write-ahead journal behind gloved
	// -data-dir; omitted entirely on daemons running without one.
	Durability *DurabilityInfo `json:"durability,omitempty"`
}

// ColstoreInfo snapshots the columnar store of the dataset registry:
// the live resident/spilled footprint and the cumulative spill-path
// traffic since boot.
type ColstoreInfo struct {
	// Datasets counts the registered datasets.
	Datasets int `json:"datasets"`
	// ResidentBytes is the column bytes currently held in memory across
	// all columnar stores; bounded by the per-dataset byte budget.
	ResidentBytes int64 `json:"resident_bytes"`
	// ResidentChunks / SpilledChunks split the column chunks by where
	// they currently live.
	ResidentChunks int `json:"resident_chunks"`
	SpilledChunks  int `json:"spilled_chunks"`
	// ChunkFaults / ChunkSpills count chunk reads from and writes to the
	// spill file since boot (monotone, deletion-proof).
	ChunkFaults int64 `json:"chunk_faults"`
	ChunkSpills int64 `json:"chunk_spills"`
}

// DurabilityInfo snapshots the write-ahead journal of a durable daemon
// (gloved -data-dir): the live journal footprint, what the last boot
// recovered, and whether the previous shutdown was clean.
type DurabilityInfo struct {
	// JournalDir is the directory holding the journal segments.
	JournalDir string `json:"journal_dir"`
	// Fsync reports whether commits fsync (gloved -fsync).
	Fsync bool `json:"fsync"`
	// JournalSegments / JournalBytes are the live journal footprint.
	JournalSegments int   `json:"journal_segments"`
	JournalBytes    int64 `json:"journal_bytes"`
	// LastCompaction is when the journal was last compacted to a
	// snapshot (every boot compacts, so this is at least the boot time).
	LastCompaction *time.Time `json:"last_compaction,omitempty"`
	// LastShutdownClean reports whether the previous run ended with the
	// clean-shutdown marker (graceful drain) rather than a crash.
	LastShutdownClean bool `json:"last_shutdown_clean"`
	// TornTailRecovered reports that this boot truncated a partially
	// written frame off the journal tail — the signature of a crash
	// mid-append; everything before the tear was recovered.
	TornTailRecovered bool `json:"torn_tail_recovered,omitempty"`
	// RecoveredDatasets counts datasets rebuilt from the journal at
	// boot; RecoveredJobs counts rebuilt jobs by outcome (restored /
	// requeued / resumed).
	RecoveredDatasets int            `json:"recovered_datasets"`
	RecoveredJobs     map[string]int `json:"recovered_jobs,omitempty"`
}
