package service

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// windowResume is the committed prefix of a recovered job, rebuilt from
// journaled releases: executeWindows seeds its loop with it so the
// continuation matches an uninterrupted run — same releases, same
// budget accounting, same aggregate stats, same measurements.
type windowResume struct {
	// floor is the highest committed window index (empty windows
	// included); the feed re-scan silently walks past everything at or
	// below it.
	floor int
	// first is the window index of the first recovered release and
	// released the number of recovered releases.
	first, released int
	// last is the window index of the last recovered release, which
	// the next release's linkage pair rebuilds (rebuildRelease).
	last int
	// stats aggregates the recovered windows' run statistics.
	stats *core.GloveStats
}

// maxFollowGap bounds how far ahead of the last committed window a new
// record may land in a follow job. Every skipped window in between is
// committed as an explicit empty window (one jobWindow plus one event
// each), so a corrupt timestamp millions of windows in the future must
// fail the job instead of flooding its event log.
const maxFollowGap = 4096

// executeWindows is the one release executor, driving every job. A
// record cursor advances over the feed and buckets new records into
// window fragments (feedWindows); closed windows are committed in order:
// a window's fragments are fused into one view by colstore.Concat
// (reproducing exactly the record order a cold split of the final feed
// gives that window) and run through the sharded pipeline, each window a
// cold engine run.
// Each release is journaled before it is published, so a restarted job
// resumes after its last committed window.
//
// The mode only changes the feed:
//   - frozen (batch and windowed jobs): one snapshot, bucketed once, and
//     every window closes at the snapshot's end. The whole layout is
//     registered — and every window checked against k — before the
//     first window runs; windows without records are omitted. A batch
//     job (window_hours 0) is one window, the whole snapshot, which
//     stays internal to the job (batchJob). A resumed frozen run cuts
//     the feed back to the snapshot its commits saw.
//   - live (follow jobs): the run subscribes to the dataset's append
//     wake channel and re-snapshots on every wake. A record landing in
//     window w closes every window before w, because appends only move
//     forward on the time axis of a feed; windows the feed skipped are
//     committed as explicit empty windows. The run ends at its window
//     budget (the spec's follow_windows clamped by MaxFollowWindows;
//     empty windows don't count).
//
// Each release is measured at its commit (measureRelease) and the
// measurements are journaled with it, so the run keeps no release but
// the last, for the next linkage pair. Committed releases stay
// downloadable after a cancellation or failure; a window interrupted
// mid-run publishes nothing. The run returns the committed windows'
// summed statistics.
func (m *Manager) executeWindows(ctx context.Context, job *Job, spec JobSpec) (*core.GloveStats, error) {
	d := spec.WindowDuration()
	wmin := d.Minutes()
	frozen := !spec.Follow
	limit := 0
	if !frozen {
		limit = spec.FollowWindows
		if max := m.opt.MaxFollowWindows; max > 0 && (limit <= 0 || limit > max) {
			limit = max
		}
	}
	root := job.traceRoot()

	var (
		cursor        int                          // feed records consumed so far
		pending       = map[int][]*colstore.View{} // open windows: fragments in arrival order
		lastCommitted = -1
		maxSeen       = -1 // highest window index any record landed in
		total         = &core.GloveStats{}
		first         = -1 // window index of the first release
		released      int  // releases committed
		prev          *committedRelease
		rebuildPrev   = -1 // a resumed run's last recovered release, until rebuilt
		lastSnap      *colstore.View
		lag           float64
		planned       bool
		resumeFloor   = -1
		snapRecords   int // frozen runs: the record count of the snapshot
		snapVersion   int // frozen runs: the registry version of the snapshot
	)
	if resume := job.takeResume(); resume != nil {
		// Restarted after a crash or drain: the journal already holds
		// committed releases. The feed is re-scanned from record zero,
		// but everything at or below the floor is skipped — committed
		// windows are never re-opened, re-run, or re-published.
		resumeFloor = resume.floor
		lastCommitted = resume.floor
		first, released = resume.first, resume.released
		rebuildPrev = resume.last
		total = resume.stats
	}
	// The stream-lag gauge counts windows a live feed closed ahead of
	// the job; it is shared across follow jobs, so this run only ever
	// moves it by deltas and returns its remainder on exit.
	setLag := func(n float64) {
		if frozen {
			return
		}
		if n < 0 {
			n = 0
		}
		m.tel.streamLagDelta(n - lag)
		lag = n
	}
	defer setLag(0)

	sparse := func(idx, users int) error {
		if users >= spec.K {
			return nil
		}
		return fmt.Errorf(
			"service: window %d (minutes [%g, %g)) hides %d users, cannot %d-anonymize; use a longer window",
			idx, float64(idx)*wmin, float64(idx+1)*wmin, users, spec.K)
	}

	finish := func() (*core.GloveStats, error) {
		if !planned && first >= 0 {
			// Every window was committed before a restart: report the plan
			// the first window ran under. A recovered job whose journal
			// already met its budget never read the feed; read it as it
			// stands.
			if lastSnap == nil {
				lastSnap, _, _ = m.reg.SnapshotSource(spec.DatasetID)
			}
			if src := committedWindow(lastSnap, d, first); src != nil {
				if _, err := m.planJob(job, root, src, src.NumUsers(), spec); err != nil {
					return nil, err
				}
			}
		}
		return total, nil
	}

	if limit > 0 && released >= limit {
		// The recovered prefix already meets the window budget: finish
		// without consuming the feed, exactly where the pre-crash run
		// would have stopped.
		return finish()
	}

	for {
		// Watch before snapshot: an append racing the snapshot closes
		// this (pre-append) channel, so blocking on it below can never
		// miss records the snapshot didn't show.
		var wake <-chan struct{}
		if !frozen {
			w, ok := m.reg.Watch(spec.DatasetID)
			if !ok {
				return nil, fmt.Errorf("service: dataset %q disappeared", spec.DatasetID)
			}
			wake = w
		}
		snap, info, ok := m.reg.SnapshotSource(spec.DatasetID)
		if !ok {
			return nil, fmt.Errorf("service: dataset %q disappeared", spec.DatasetID)
		}
		job.mu.Lock()
		// A follow job reports its latest snapshot and a frozen job the
		// one its windows are cut from, which a resumed job restored from
		// its frames; frames journaled without a version fall back to
		// the current one.
		if !frozen || job.snapshotRecords == 0 || job.datasetVersion == 0 {
			job.datasetVersion = info.Version
		}
		if frozen && job.snapshotRecords == 0 {
			job.snapshotRecords = snap.NumRecords()
		}
		snapRecords = job.snapshotRecords
		if frozen {
			snapVersion = job.datasetVersion
		}
		job.mu.Unlock()
		if frozen && snapRecords < snap.NumRecords() {
			// Resumed: records appended after the commits are not input.
			var err error
			if snap, err = snap.Prefix(snapRecords); err != nil {
				return nil, err
			}
		}
		lastSnap = snap

		closedAt := time.Now()
		if n := snap.NumRecords(); n > cursor {
			frags, err := feedWindows(snap, cursor, d)
			if err != nil {
				return nil, err
			}
			cursor = n
			for _, f := range frags {
				if f.Index <= resumeFloor {
					// Pre-crash records re-delivered by the post-restart
					// re-scan; their windows' journaled releases are
					// authoritative.
					continue
				}
				if f.Index <= lastCommitted {
					return nil, fmt.Errorf(
						"service: append delivered %d records for window %d (minutes [%g, %g)) after its release was committed; a follow feed must only move forward",
						f.View.NumRecords(), f.Index, f.StartMinute, f.EndMinute)
				}
				if !frozen && f.Index > lastCommitted+maxFollowGap {
					return nil, fmt.Errorf(
						"service: append jumped to window %d, %d windows past the last committed release — refusing to flood the job with empty windows",
						f.Index, f.Index-lastCommitted)
				}
				pending[f.Index] = append(pending[f.Index], f.View)
				if f.Index > maxSeen {
					maxSeen = f.Index
				}
			}
		}
		setLag(float64(maxSeen - 1 - lastCommitted))

		// closed lists the windows this pass commits, in order.
		var closed []int
		if frozen {
			for idx := range pending {
				closed = append(closed, idx)
			}
			sort.Ints(closed)
			// The layout is known up front: register every window as
			// pending, so progress is weighted over the whole run, and
			// fail a too-sparse window before any quadratic work runs or
			// any release is published.
			var tooSparse error
			for _, idx := range closed {
				src := pending[idx][0]
				users := src.NumUsers()
				job.appendWindow(idx, float64(idx)*wmin, float64(idx+1)*wmin, src.NumRecords(), users)
				if tooSparse == nil {
					tooSparse = sparse(idx, users)
				}
			}
			if tooSparse != nil {
				return nil, tooSparse
			}
		} else {
			// Every window strictly below maxSeen is closed; window
			// maxSeen itself stays open — the feed may still append into
			// it.
			for idx := lastCommitted + 1; idx < maxSeen; idx++ {
				closed = append(closed, idx)
			}
		}

		for _, idx := range closed {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start, end := float64(idx)*wmin, float64(idx+1)*wmin
			frags := pending[idx]
			delete(pending, idx)
			if len(frags) == 0 {
				// Journal the empty window as a (release-less) result so
				// the resume floor advances over it: skipped intervals are
				// as immutable across restarts as published ones.
				if err := m.jrnl.jobResult(job.id, journalWindow{
					Index: idx, StartMinute: start, EndMinute: end, Empty: true,
				}, nil); err != nil {
					return nil, err
				}
				job.commitEmptyWindow(idx, start, end)
				lastCommitted = idx
				setLag(float64(maxSeen - 1 - lastCommitted))
				continue
			}
			// A window spread over several appends runs on the
			// concatenation of its fragments.
			src := colstore.Concat(frags...)
			users := src.NumUsers()
			if err := sparse(idx, users); err != nil {
				return nil, err
			}
			var shards []*colstore.View
			if planned {
				shards = planShards(src, users, spec.K, spec.Shards)
			} else {
				// The first runnable window's plan is the one the job
				// reports.
				var err error
				if shards, err = m.planJob(job, root, src, users, spec); err != nil {
					return nil, err
				}
				planned = true
			}
			wspan := root.Child(obs.SpanWindow, fmt.Sprintf("w%d", idx))
			wspan.SetAttr("records", src.NumRecords())
			wspan.SetAttr("users", users)
			wpos := job.appendWindow(idx, start, end, src.NumRecords(), users)
			job.startWindow(wpos, len(shards))
			out, original, stats, err := runShards(ctx, shards, spec, m.tel, wspan, func(shard int, frac float64) {
				job.setWindowShardProgress(wpos, shard, frac)
			})
			if err != nil {
				wspan.End()
				return nil, fmt.Errorf("service: window %d: %w", idx, err)
			}
			vspan := wspan.Child(obs.SpanValidate, "")
			verr := core.ValidateKAnonymity(out, spec.K)
			vspan.End()
			if verr != nil {
				wspan.End()
				return nil, fmt.Errorf("service: window %d failed validation: %w", idx, verr)
			}
			wspan.SetAttr("groups", out.Len())
			aspan := wspan.Child(obs.SpanAnalysis, "")
			if rebuildPrev >= 0 {
				prev = m.rebuildRelease(ctx, snap, d, rebuildPrev, spec)
				rebuildPrev = -1
			}
			quality, runs, cur := m.measureRelease(aspan, idx, original, out, prev, spec)
			aspan.End()
			// The release is encoded once, here: the journal takes this
			// CSV, and the window keeps its compressed copy for downloads
			// and checkpoints.
			csv, rel, err := encodeRelease(out)
			if err != nil {
				wspan.End()
				return nil, fmt.Errorf("service: window %d: encoding release: %w", idx, err)
			}
			// THE commit point of the release pipeline: the release is
			// journaled and fsynced BEFORE it is published. A crash before
			// this returns re-runs the window (nothing was published); a
			// crash after it republishes exactly these bytes from the
			// journal. There is no separate cursor to tear — the resume
			// floor IS the highest journaled result.
			if err := m.jrnl.jobResult(job.id, journalWindow{
				Index:           idx,
				StartMinute:     start,
				EndMinute:       end,
				Records:         src.NumRecords(),
				Users:           users,
				Groups:          out.Len(),
				Stats:           stats,
				SnapshotRecords: snapRecords,
				DatasetVersion:  snapVersion,
				ReleaseQuality:  quality,
				AccuracyRuns:    &runs,
			}, csv); err != nil {
				wspan.End()
				return nil, fmt.Errorf("service: window %d: journaling release: %w", idx, err)
			}
			faultinject.Crash("follow.window.committed")
			job.commitWindow(wpos, rel, out.Len(), stats, quality, runs)
			wspan.End()
			if !batchJob(spec) {
				m.tel.windowCommitted(time.Since(closedAt))
				m.agg.Lock()
				m.agg.windowReleases++
				m.agg.Unlock()
			}
			total.Add(stats)
			if first < 0 {
				first = idx
			}
			released++
			prev = cur
			lastCommitted = idx
			setLag(float64(maxSeen - 1 - lastCommitted))
			if limit > 0 && released >= limit {
				return finish()
			}
		}
		if frozen {
			return finish()
		}

		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wake:
		}
	}
}

// feedWindows buckets snap's records from record `from` on into windows
// of duration d. d == 0 (a batch job, whose frozen run reads from record
// 0) is one window, index 0: the snapshot view itself, so the release
// keeps the snapshot's metadata and record order.
func feedWindows(snap *colstore.View, from int, d time.Duration) ([]colstore.Window, error) {
	if d == 0 {
		return []colstore.Window{{Index: 0, View: snap}}, nil
	}
	return snap.TailWindows(from, d)
}

// committedWindow returns the view of window idx of snap, or nil when
// there is no snapshot, the bucketing fails, or the snapshot lacks the
// window.
func committedWindow(snap *colstore.View, d time.Duration, idx int) *colstore.View {
	if snap == nil {
		return nil
	}
	wins, err := feedWindows(snap, 0, d)
	if err != nil {
		return nil
	}
	for _, w := range wins {
		if w.Index == idx {
			return w.View
		}
	}
	return nil
}
