package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// journalKind names one journal entry kind. The payload of every WAL
// record is one JSON-encoded journalEntry; the set is append-only
// vocabulary like the error-code registry — replay of an old journal
// must keep working. The named type is what lets glovelint's errcode
// analyzer pin every constructed kind to this registry and the
// registry to the committed vocabulary (internal/lint/vocab/
// journalkinds.txt).
type journalKind string

const (
	jeDatasetCreate journalKind = "ds_create"
	jeDatasetAppend journalKind = "ds_append"
	jeDatasetDelete journalKind = "ds_delete"
	jeJobSubmit     journalKind = "job_submit"
	jeJobEvent      journalKind = "job_event"
	jeJobResult     journalKind = "job_result"
	jeJobStatus     journalKind = "job_status"
	jeJobEvict      journalKind = "job_evict"
	jeCleanShutdown journalKind = "clean_shutdown"
)

// journalEntry is the union of every journaled mutation; Kind selects
// which fields are meaningful.
type journalEntry struct {
	Kind journalKind `json:"kind"`
	// ID is the dataset or job the entry belongs to.
	ID   string    `json:"id,omitempty"`
	At   time.Time `json:"at,omitempty"`
	Name string    `json:"name,omitempty"`
	// Center/SpanDays carry the creation metadata the record CSV format
	// does not (ds_create).
	Center   *geo.LatLon `json:"center,omitempty"`
	SpanDays int         `json:"span_days,omitempty"`
	// CSV holds the raw record CSV of a dataset mutation, or the
	// anonymized release CSV of a job_result.
	CSV    []byte         `json:"csv,omitempty"`
	Spec   *api.JobSpec   `json:"spec,omitempty"`
	Window *journalWindow `json:"window,omitempty"`
	// Status and Events are a job_status frame's terminal status and
	// full event log. Event is only read: a journal written before the
	// terminal frame carried the log holds one job_event frame per
	// event-log append, and its job_status frame no Events.
	Status *api.JobStatus `json:"status,omitempty"`
	Events []api.JobEvent `json:"events,omitempty"`
	Event  *api.JobEvent  `json:"event,omitempty"`
}

// journalWindow is the window metadata persisted with a committed
// release — enough to rebuild the jobWindow across a restart without
// replaying the window's computation.
type journalWindow struct {
	Index       int              `json:"index"`
	StartMinute float64          `json:"start_minute"`
	EndMinute   float64          `json:"end_minute"`
	Records     int              `json:"records,omitempty"`
	Users       int              `json:"users,omitempty"`
	Groups      int              `json:"groups,omitempty"`
	Stats       *core.GloveStats `json:"stats,omitempty"`
	// SnapshotRecords and DatasetVersion are, for a frozen run, the
	// record count and registry version of the snapshot its windows were
	// cut from; a resumed run cuts back to that count and reports that
	// version.
	SnapshotRecords int `json:"snapshot_records,omitempty"`
	DatasetVersion  int `json:"dataset_version,omitempty"`
	// Empty marks a window the feed skipped (committed with no release).
	// Batch is only read: it marks a batch job's release in journals
	// written before batch jobs ran as one window.
	Empty bool `json:"empty,omitempty"`
	Batch bool `json:"batch,omitempty"`
	// ReleaseQuality is the release's measurements, taken before the
	// frame was journaled, and AccuracyRuns its exact accuracy
	// distribution, which a resumed job folds into its accuracy: the
	// release's CSV carries neither sample weights nor full-precision
	// extents. Both are absent from frames journaled before releases
	// were measured at their commit, and AccuracyRuns from a
	// checkpoint's frames (RecoveredJob.AccuracyRuns covers them).
	ReleaseQuality
	AccuracyRuns *metrics.AccuracyRuns `json:"accuracy_runs,omitempty"`
}

// RecoveredResult is one persisted release (or empty-window marker) of
// a recovered job.
//
//lint:ignore dtoplace journal snapshot schema, persisted to the WAL and never sent over the wire
type RecoveredResult struct {
	Window journalWindow `json:"window"`
	CSV    []byte        `json:"csv,omitempty"`
}

// RecoveredDataset is a dataset rebuilt from the journal: its creation
// metadata plus the raw CSV of the create and every append, replayed
// through the normal ingest paths at restore.
//
//lint:ignore dtoplace journal snapshot schema, persisted to the WAL and never sent over the wire
type RecoveredDataset struct {
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	Center    geo.LatLon `json:"center"`
	SpanDays  int        `json:"span_days"`
	CreatedAt time.Time  `json:"created_at"`
	UpdatedAt time.Time  `json:"updated_at"`
	Ops       [][]byte   `json:"ops"`
}

// RecoveredJob is a job rebuilt from the journal. Status non-nil means
// the job reached a terminal state and is restored verbatim; otherwise
// the job died queued/running and normalizeRecovered rewrote it into
// requeue-ready form (Requeue true, fresh event log, committed window
// releases kept in Results).
//
//lint:ignore dtoplace journal snapshot schema, persisted to the WAL and never sent over the wire
type RecoveredJob struct {
	ID        string            `json:"id"`
	Spec      api.JobSpec       `json:"spec"`
	CreatedAt time.Time         `json:"created_at"`
	Events    []api.JobEvent    `json:"events,omitempty"`
	Status    *api.JobStatus    `json:"status,omitempty"`
	Results   []RecoveredResult `json:"results,omitempty"`
	Requeue   bool              `json:"requeue,omitempty"`
	// AccuracyRuns, set by a checkpoint, folds the accuracy of every
	// committed release among Results whose frame carries no runs of its
	// own; nil when the job's accuracy could not cover them.
	AccuracyRuns *metrics.AccuracyRuns `json:"accuracy_runs,omitempty"`
}

// RecoveredState is everything a journal replay reconstructs — and,
// marshalled, the snapshot payload a compaction writes. Replay is a
// pure function of the journal bytes, which makes it idempotent:
// replaying the compaction of a replay yields the same state
// (TestJournalReplayIdempotent).
//
//lint:ignore dtoplace journal snapshot schema, persisted to the WAL and never sent over the wire
type RecoveredState struct {
	DatasetSeq int                 `json:"dataset_seq"`
	JobSeq     int                 `json:"job_seq"`
	Datasets   []*RecoveredDataset `json:"datasets,omitempty"`
	Jobs       []*RecoveredJob     `json:"jobs,omitempty"`

	// CleanShutdown / TornTail describe how the previous run ended; not
	// part of the snapshot (they are per-boot observations).
	CleanShutdown bool `json:"-"`
	TornTail      bool `json:"-"`
}

// Journal threads every service mutation through a wal.Log. A nil
// *Journal is an inert sink (non-durable daemons), mirroring the
// nil-*Telemetry convention.
type Journal struct {
	log *wal.Log
	tel *Telemetry
}

// OpenJournal opens the journal under dir, replays it into a
// RecoveredState, normalizes interrupted jobs into requeue-ready form,
// and compacts the journal down to that state (the boot checkpoint —
// it also consumes the previous clean-shutdown marker, so a later
// crash is detectable). The caller restores the returned state into
// the registry and manager before attaching the journal.
func OpenJournal(dir string, fsync bool, tel *Telemetry) (*Journal, *RecoveredState, error) {
	l, rec, err := wal.Open(dir, wal.Options{
		Fsync:    fsync,
		OnSync:   tel.walSynced,
		OnAppend: tel.walAppended,
	})
	if err != nil {
		return nil, nil, err
	}
	st, err := replayJournal(rec)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	normalizeRecovered(st)
	jl := &Journal{log: l, tel: tel}
	if err := jl.compactTo(st); err != nil {
		l.Close()
		return nil, nil, err
	}
	tel.registerJournal(l, st)
	return jl, st, nil
}

// Close releases the journal.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	return jl.log.Close()
}

func idNum(format, id string) int {
	var n int
	fmt.Sscanf(id, format, &n)
	return n
}

// replayJournal folds the snapshot and every record of a recovered WAL
// into a RecoveredState.
func replayJournal(rec *wal.Recovery) (*RecoveredState, error) {
	st := &RecoveredState{TornTail: rec.TornTail}
	ds := make(map[string]*RecoveredDataset)
	jobs := make(map[string]*RecoveredJob)
	var dsOrder, jobOrder []string
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, st); err != nil {
			return nil, fmt.Errorf("service: journal snapshot: %w", err)
		}
		for _, d := range st.Datasets {
			ds[d.ID] = d
			dsOrder = append(dsOrder, d.ID)
		}
		for _, j := range st.Jobs {
			jobs[j.ID] = j
			jobOrder = append(jobOrder, j.ID)
		}
	}
	for i, payload := range rec.Records {
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return nil, fmt.Errorf("service: journal record %d: %w", i, err)
		}
		switch e.Kind {
		case jeDatasetCreate:
			if e.Center == nil {
				return nil, fmt.Errorf("service: journal: ds_create %s without center", e.ID)
			}
			d := &RecoveredDataset{
				ID: e.ID, Name: e.Name, Center: *e.Center, SpanDays: e.SpanDays,
				CreatedAt: e.At, UpdatedAt: e.At, Ops: [][]byte{e.CSV},
			}
			ds[e.ID] = d
			dsOrder = append(dsOrder, e.ID)
			if n := idNum("ds-%06d", e.ID); n > st.DatasetSeq {
				st.DatasetSeq = n
			}
		case jeDatasetAppend:
			d, ok := ds[e.ID]
			if !ok {
				return nil, fmt.Errorf("service: journal: append to unknown dataset %s", e.ID)
			}
			d.Ops = append(d.Ops, e.CSV)
			d.UpdatedAt = e.At
		case jeDatasetDelete:
			delete(ds, e.ID)
			dsOrder = removeID(dsOrder, e.ID)
		case jeJobSubmit:
			if e.Spec == nil {
				return nil, fmt.Errorf("service: journal: job_submit %s without spec", e.ID)
			}
			j := &RecoveredJob{
				ID: e.ID, Spec: *e.Spec, CreatedAt: e.At,
				// Mirror newJob: the queued event is seeded at creation,
				// never journaled individually.
				Events: []api.JobEvent{{Seq: 1, Type: api.EventState, JobID: e.ID, State: api.JobQueued}},
			}
			jobs[e.ID] = j
			jobOrder = append(jobOrder, e.ID)
			if n := idNum("job-%06d", e.ID); n > st.JobSeq {
				st.JobSeq = n
			}
		case jeJobEvent:
			if j, ok := jobs[e.ID]; ok && e.Event != nil {
				j.Events = append(j.Events, *e.Event)
			}
		case jeJobResult:
			j, ok := jobs[e.ID]
			if !ok || e.Window == nil {
				continue
			}
			r := RecoveredResult{Window: *e.Window, CSV: e.CSV}
			replaced := false
			for k := range j.Results {
				if j.Results[k].Window.Batch == r.Window.Batch && j.Results[k].Window.Index == r.Window.Index {
					j.Results[k] = r
					replaced = true
					break
				}
			}
			if !replaced {
				j.Results = append(j.Results, r)
			}
		case jeJobStatus:
			if j, ok := jobs[e.ID]; ok && e.Status != nil {
				j.Status = e.Status
				if e.Events != nil {
					j.Events = e.Events
				}
			}
		case jeJobEvict:
			delete(jobs, e.ID)
			jobOrder = removeID(jobOrder, e.ID)
		case jeCleanShutdown:
			// Only a marker that is the journal's last word proves a
			// clean shutdown; anything after it means the daemon came
			// back up and died again.
			st.CleanShutdown = i == len(rec.Records)-1
		default:
			// Unknown kinds are skipped, not fatal: an older daemon
			// replaying a newer journal should recover what it can.
		}
	}
	st.Datasets = st.Datasets[:0]
	for _, id := range dsOrder {
		st.Datasets = append(st.Datasets, ds[id])
	}
	st.Jobs = st.Jobs[:0]
	for _, id := range jobOrder {
		st.Jobs = append(st.Jobs, jobs[id])
	}
	return st, nil
}

func removeID(order []string, id string) []string {
	for i, v := range order {
		if v == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// normalizeRecovered rewrites every interrupted (non-terminal) job into
// the exact shape the restarted daemon will install and serve: its
// committed windows (a legacy batch frame journaled by a run that died
// before its terminal status is dropped — the rerun recomputes it) and a
// fresh queued event log with one window event per committed window of
// a job whose windows are not internal (batchJob) — clients
// reconnecting after a restart get a fresh replay, not a continuation
// of a log whose run died. Running the normalization before the boot
// compaction keeps the snapshot and the in-memory restore identical,
// which is what makes a crash-after-boot replay converge to the same
// state.
func normalizeRecovered(st *RecoveredState) {
	for _, j := range st.Jobs {
		if j.Status != nil {
			j.Requeue = false
			continue
		}
		j.Requeue = true
		windows := j.Results[:0]
		for _, r := range j.Results {
			if !r.Window.Batch {
				windows = append(windows, r)
			}
		}
		j.Results = windows
		sort.Slice(j.Results, func(a, b int) bool {
			return j.Results[a].Window.Index < j.Results[b].Window.Index
		})
		evs := []api.JobEvent{{Seq: 1, Type: api.EventState, JobID: j.ID, State: api.JobQueued}}
		if batchJob(j.Spec) {
			j.Events = evs
			continue
		}
		for _, r := range j.Results {
			we := &api.WindowEvent{Index: r.Window.Index, State: api.WindowEmpty}
			if !r.Window.Empty {
				we.State = api.WindowDone
				we.Groups = r.Window.Groups
			}
			evs = append(evs, api.JobEvent{Seq: len(evs) + 1, Type: api.EventWindow, JobID: j.ID, Window: we})
		}
		j.Events = evs
	}
}

// --- append-side hooks (all tolerate a nil *Journal) ---

func (jl *Journal) append(e journalEntry) error {
	if jl == nil {
		return nil
	}
	p, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return jl.log.Append(p)
}

// commit makes everything appended so far durable (group-commit fsync).
func (jl *Journal) commit() error {
	if jl == nil {
		return nil
	}
	return jl.log.Commit()
}

// datasetCreated journals a new dataset with the raw CSV that built it.
// Called under the registry mutex so journal order matches ID
// assignment order; the caller fsyncs before acknowledging.
func (jl *Journal) datasetCreated(info DatasetInfo, csv []byte) error {
	center := info.Center
	return jl.append(journalEntry{
		Kind: jeDatasetCreate, ID: info.ID, Name: info.Name, At: info.CreatedAt,
		Center: &center, SpanDays: info.SpanDays, CSV: csv,
	})
}

func (jl *Journal) datasetAppended(id string, csv []byte, at time.Time) error {
	return jl.append(journalEntry{Kind: jeDatasetAppend, ID: id, CSV: csv, At: at})
}

func (jl *Journal) datasetDeleted(id string) error {
	return jl.append(journalEntry{Kind: jeDatasetDelete, ID: id})
}

func (jl *Journal) jobSubmitted(id string, spec JobSpec, at time.Time) error {
	return jl.append(journalEntry{Kind: jeJobSubmit, ID: id, Spec: &spec, At: at})
}

// jobResult journals a committed release's CSV (nil for an
// empty-window marker) and fsyncs: this is THE commit point of the
// release pipeline. A window whose result frame is durable is
// committed — replay derives the resume floor from the highest
// journaled result — and a crash any time after this call re-publishes
// exactly these bytes.
func (jl *Journal) jobResult(id string, w journalWindow, csv []byte) error {
	if jl == nil {
		return nil
	}
	if err := jl.append(journalEntry{Kind: jeJobResult, ID: id, Window: &w, CSV: csv}); err != nil {
		return err
	}
	return jl.commit()
}

// jobTerminalStatus journals a job's terminal record — its status and full
// event log — and fsyncs: the frame that turns a replayed job from
// "interrupted, requeue" into "finished, restore verbatim".
func (jl *Journal) jobTerminalStatus(id string, status JobStatus, events []api.JobEvent) error {
	if jl == nil {
		return nil
	}
	if err := jl.append(journalEntry{Kind: jeJobStatus, ID: id, Status: &status, Events: events}); err != nil {
		return err
	}
	return jl.commit()
}

// jobEvicted journals a job's removal; it rides the next fsync unless
// the caller commits.
func (jl *Journal) jobEvicted(id string) error {
	return jl.append(journalEntry{Kind: jeJobEvict, ID: id})
}

// compactTo collapses the journal to a snapshot of the given state.
func (jl *Journal) compactTo(st *RecoveredState) error {
	if jl == nil {
		return nil
	}
	p, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return jl.log.Compact(p)
}

// Checkpoint serializes the live registry and manager state, compacts
// the journal down to it, and appends the durable clean-shutdown
// marker — the final act of a graceful drain. Callers must have
// stopped all mutation first (drain complete, HTTP server down).
func (jl *Journal) Checkpoint(reg *Registry, m *Manager) error {
	if jl == nil {
		return nil
	}
	st, err := captureState(reg, m)
	if err != nil {
		return err
	}
	if err := jl.compactTo(st); err != nil {
		return err
	}
	if err := jl.append(journalEntry{Kind: jeCleanShutdown}); err != nil {
		return err
	}
	return jl.commit()
}

// jobRecovered counts a recovery outcome in glove_recovered_jobs_total.
func (jl *Journal) jobRecovered(outcome string) {
	if jl != nil {
		jl.tel.jobRecovered(outcome)
	}
}

// captureState converts the live registry + manager into the same
// RecoveredState shape a replay produces: datasets are re-encoded
// through the canonical record CSV writer (which round-trips
// byte-identically), and releases carry their CSV inflated from the
// bytes stored at their commit.
func captureState(reg *Registry, m *Manager) (*RecoveredState, error) {
	st := &RecoveredState{}
	if reg != nil {
		for _, info := range reg.List() {
			src, cur, ok := reg.SnapshotSource(info.ID)
			if !ok {
				continue
			}
			var buf bytes.Buffer
			if err := cdr.WriteRecordsCSV(&buf, src.EachRecord); err != nil {
				return nil, err
			}
			st.Datasets = append(st.Datasets, &RecoveredDataset{
				ID: cur.ID, Name: cur.Name, Center: cur.Center, SpanDays: cur.SpanDays,
				CreatedAt: cur.CreatedAt, UpdatedAt: cur.UpdatedAt,
				Ops: [][]byte{buf.Bytes()},
			})
		}
		st.DatasetSeq = reg.seqNum()
	}
	if m != nil {
		for _, job := range m.jobList() {
			rj, err := job.capture()
			if err != nil {
				return nil, err
			}
			st.Jobs = append(st.Jobs, rj)
		}
		st.JobSeq = m.seqNum()
	}
	return st, nil
}
