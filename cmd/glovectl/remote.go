package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/pkg/client"
)

// remoteJob carries the parsed flags of one invocation, local or remote.
type remoteJob struct {
	in          string
	lat, lon    float64
	days        int
	k           int
	suppressKm  float64
	suppressMin float64
	workers     int
	window      float64
	out         string
	trace       bool

	// Streaming mode: follow the feed's appends instead of freezing a
	// snapshot; dataset attaches to a feed already resident on the
	// daemon (a one-shot ingest would never grow, so its last window
	// would never close).
	follow        bool
	followWindows int
	dataset       string
}

// errInterrupted reports a run cancelled (SIGINT) before any release
// was written.
var errInterrupted = errors.New("interrupted, no output written")

// runRemote drives a gloved — resident, or served in process by local
// mode — through the pkg/client SDK: it ingests the input CSV as a
// fresh dataset, submits the job, follows the Server-Sent-Events stream
// for progress, downloads the batch release (or one CSV per window),
// validates every release, and cleans up after itself. The job is
// submitted with one shard (the paper's single global run).
func runRemote(ctx context.Context, server string, job remoteJob, stdout, stderr io.Writer) error {
	c, err := client.New(server)
	if err != nil {
		return err
	}

	var ds client.DatasetInfo
	if job.dataset != "" {
		// Attach to a feed the daemon already owns. It is not ours to
		// delete, so no cleanup.
		if ds, err = c.GetDataset(ctx, job.dataset); err != nil {
			return fmt.Errorf("glovectl: -dataset %s: %w", job.dataset, err)
		}
		fmt.Fprintf(stderr, "glovectl: attached to %s (%d records, %d users, v%d)\n",
			ds.ID, ds.Records, ds.Users, ds.Version)
	} else {
		f, err := os.Open(job.in)
		if err != nil {
			return err
		}
		ds, err = c.CreateDataset(ctx, f, client.IngestOptions{
			Name: filepath.Base(job.in), Lat: job.lat, Lon: job.lon, Days: job.days,
		})
		// The HTTP transport closes request bodies that implement io.Closer;
		// this close is only the fallback for paths that never built a
		// request, so its error is meaningless.
		f.Close()
		if err != nil {
			if ctx.Err() != nil {
				return errInterrupted
			}
			return fmt.Errorf("glovectl: ingesting into %s: %w", server, err)
		}
		// One-shot CLI runs should not accumulate state on the daemon:
		// delete the dataset on every exit path. Cleanup gets its own
		// context so it still runs after a SIGINT cancelled ctx.
		defer func() {
			//lint:ignore ctxflow cleanup must still run after SIGINT cancels ctx
			cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c.DeleteDataset(cctx, ds.ID)
		}()
		fmt.Fprintf(stderr, "glovectl: ingested %s as %s (%d records, %d users)\n",
			job.in, ds.ID, ds.Records, ds.Users)
	}

	spec := client.JobSpec{
		DatasetID:   ds.ID,
		K:           job.k,
		SuppressKm:  job.suppressKm,
		SuppressMin: job.suppressMin,
		// One shard: sharding trades accuracy for throughput; the CLI
		// publishes the paper's single global run, local or remote.
		Shards:        1,
		Workers:       job.workers,
		WindowHours:   job.window,
		Follow:        job.follow,
		FollowWindows: job.followWindows,
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return errInterrupted
		}
		return fmt.Errorf("glovectl: submit: %w", err)
	}
	fmt.Fprintf(stderr, "glovectl: submitted %s (dataset %s v%d)\n", st.ID, ds.ID, ds.Version)
	defer func() {
		//lint:ignore ctxflow job cleanup must still run after SIGINT cancels ctx
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// A still-active job (interrupted run) is only cancelled by the
		// purge request, so wait for it to reach a terminal state and
		// purge again — otherwise the daemon would retain the job until
		// its retention policy fires.
		c.CancelJob(cctx, st.ID) // no-op once terminal
		for c.PurgeJob(cctx, st.ID) == client.ErrNotPurged {
			if _, werr := c.WaitJob(cctx, st.ID); werr != nil {
				return
			}
		}
	}()

	// Follow the event stream; progress is printed in coarse steps so a
	// long run stays observable without drowning the terminal. In
	// streaming mode each committed window is downloaded the moment its
	// done event arrives — the stream may never end, so releases cannot
	// wait for a terminal state.
	lastPct := -10
	streamed := 0
	var streamErr error
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	final, err := c.WatchJob(watchCtx, st.ID, func(e client.JobEvent) {
		switch e.Type {
		case api.EventState:
			fmt.Fprintf(stderr, "glovectl: job %s\n", e.State)
		case api.EventProgress:
			if pct := int(e.Progress * 100); pct >= lastPct+10 {
				lastPct = pct
				fmt.Fprintf(stderr, "glovectl: progress %d%%\n", pct)
			}
		case api.EventWindow:
			switch e.Window.State {
			case api.WindowDone:
				fmt.Fprintf(stderr, "glovectl: window %d done (%d groups)\n", e.Window.Index, e.Window.Groups)
				if job.follow && streamErr == nil {
					if err := streamWindow(ctx, c, st.ID, e.Window.Index, job, stderr); err != nil {
						streamErr = err
						stopWatch()
					} else {
						streamed++
					}
				}
			case api.WindowEmpty:
				fmt.Fprintf(stderr, "glovectl: window %d empty (no records, no release)\n", e.Window.Index)
			case api.WindowRunning:
				fmt.Fprintf(stderr, "glovectl: window %d running\n", e.Window.Index)
			}
		}
	})
	if streamErr != nil {
		return streamErr
	}
	if err != nil {
		if ctx.Err() != nil {
			if streamed > 0 {
				return fmt.Errorf("interrupted, %d window release(s) already written", streamed)
			}
			return errInterrupted
		}
		return err
	}
	// Fetch the trace before the outcome check: the span tree of a
	// failed run is exactly what the flag exists to show.
	if job.trace {
		tr, terr := c.JobTrace(ctx, final.ID)
		if terr != nil {
			fmt.Fprintf(stderr, "glovectl: trace unavailable: %v\n", terr)
		} else {
			fmt.Fprintf(stderr, "glovectl: trace of %s:\n", tr.JobID)
			printSpan(stderr, tr.Root, 1)
		}
	}
	if final.State != api.JobDone {
		return fmt.Errorf("glovectl: job finished %s: %s", final.State, final.Error)
	}

	if job.follow {
		// Every committed release was written as it streamed past.
		printRemoteSummary(stderr, final, job.k)
		fmt.Fprintf(stderr, "glovectl: %d window release(s) written\n", streamed)
		return nil
	}
	if job.window > 0 {
		return downloadWindows(ctx, c, final, job, stderr)
	}
	return downloadBatch(ctx, c, final, job, stdout, stderr)
}

// streamWindow downloads, validates, and writes one committed window
// release of a follow job the moment its done event arrives.
func streamWindow(ctx context.Context, c *client.Client, jobID string, index int, job remoteJob, stderr io.Writer) error {
	raw, err := fetchCSV(func() (io.ReadCloser, error) { return c.WindowResult(ctx, jobID, index) })
	if err != nil {
		return fmt.Errorf("glovectl: window %d: %w", index, err)
	}
	rel, err := cdr.ReadAnonymizedCSV(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("glovectl: window %d release unparseable: %w", index, err)
	}
	if err := validateRelease(rel, nil, job.k, index); err != nil {
		return err
	}
	path := windowOutPath(job.out, index)
	if err := writeBytesAtomic(path, raw); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "glovectl: window %d: %d groups -> %s\n", index, rel.Len(), path)
	return nil
}

// downloadBatch fetches and validates the single release of a batch
// run, writing it to -out (atomically) or stdout.
func downloadBatch(ctx context.Context, c *client.Client, final client.JobStatus, job remoteJob, stdout, stderr io.Writer) error {
	raw, err := fetchCSV(func() (io.ReadCloser, error) { return c.JobResult(ctx, final.ID) })
	if err != nil {
		return err
	}
	published, err := cdr.ReadAnonymizedCSV(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("glovectl: downloaded release unparseable: %w", err)
	}
	if err := validateRelease(published, final.Stats, job.k, -1); err != nil {
		return err
	}
	printRemoteSummary(stderr, final, job.k)
	if job.out == "" {
		_, err := stdout.Write(raw)
		return err
	}
	return writeBytesAtomic(job.out, raw)
}

// downloadWindows fetches every window release the moment the job is
// done, validating each independently and writing them as the
// "out.wN.csv" series.
func downloadWindows(ctx context.Context, c *client.Client, final client.JobStatus, job remoteJob, stderr io.Writer) error {
	type release struct {
		path string
		raw  []byte
	}
	releases := make([]release, 0, len(final.Windows))
	for _, w := range final.Windows {
		raw, err := fetchCSV(func() (io.ReadCloser, error) { return c.WindowResult(ctx, final.ID, w.Index) })
		if err != nil {
			return fmt.Errorf("glovectl: window %d: %w", w.Index, err)
		}
		rel, err := cdr.ReadAnonymizedCSV(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("glovectl: window %d release unparseable: %w", w.Index, err)
		}
		if err := validateRelease(rel, w.Stats, job.k, w.Index); err != nil {
			return err
		}
		path := windowOutPath(job.out, w.Index)
		fmt.Fprintf(stderr, "glovectl: window %d [%.0f, %.0f) min: %d users -> %d groups -> %s\n",
			w.Index, w.StartMinute, w.EndMinute, w.Users, rel.Len(), path)
		releases = append(releases, release{path, raw})
	}
	// Nothing is written until every release validated, so a failed
	// run leaves no partial series behind.
	for _, r := range releases {
		if err := writeBytesAtomic(r.path, r.raw); err != nil {
			return err
		}
	}
	printRemoteSummary(stderr, final, job.k)
	if final.Linkage != nil {
		fmt.Fprintf(stderr, "glovectl: cross-window linkage: %s\n", final.Linkage)
	}
	return nil
}

// printSpan renders one node of a job trace as an indented tree line,
// attributes sorted for stable output, then recurses into children.
func printSpan(w io.Writer, s *client.TraceSpan, depth int) {
	if s == nil {
		return
	}
	name := string(s.Kind)
	if s.Name != "" {
		name += " " + s.Name
	}
	line := fmt.Sprintf("%s%s %.1fms", strings.Repeat("  ", depth), name, s.DurationMS)
	if s.Unfinished {
		line += " (unfinished)"
	}
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%v", k, s.Attrs[k])
		}
	}
	fmt.Fprintln(w, line)
	for _, c := range s.Children {
		printSpan(w, c, depth+1)
	}
}

// fetchCSV drains one download into memory (releases are small relative
// to the raw feed; buffering enables validate-before-write).
// Cancellation flows through the context captured by open.
func fetchCSV(open func() (io.ReadCloser, error)) ([]byte, error) {
	body, err := open()
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return io.ReadAll(body)
}

// validateRelease gates a downloaded release on k-anonymity, and on
// the truthfulness accounting that every missing subscriber is
// explained by suppression discards.
func validateRelease(ds *core.Dataset, stats *core.GloveStats, k, window int) error {
	where := "release"
	if window >= 0 {
		where = fmt.Sprintf("window %d", window)
	}
	if err := core.ValidateKAnonymity(ds, k); err != nil {
		return fmt.Errorf("glovectl: %s validation failed: %w", where, err)
	}
	if stats != nil {
		missing := stats.InputUsers - ds.Users()
		if missing != stats.DiscardedUsers {
			return fmt.Errorf("glovectl: %s: %d subscribers missing but %d accounted as discarded",
				where, missing, stats.DiscardedUsers)
		}
	}
	return nil
}

// printRemoteSummary prints the run's diagnostics from the
// server-computed status: the resolved plan, the run statistics, the
// accuracy of the published data and the input's k-gap
// anonymizability.
func printRemoteSummary(stderr io.Writer, final client.JobStatus, k int) {
	if p := final.Plan; p != nil {
		if p.Strategy == core.StrategyChunked {
			fmt.Fprintf(stderr, "glovectl: plan: strategy=%s chunk=%d index=%s\n", p.Strategy, p.ChunkSize, p.Index)
		} else {
			fmt.Fprintf(stderr, "glovectl: plan: strategy=%s index=%s\n", p.Strategy, p.Index)
		}
	}
	if s := final.Stats; s != nil {
		fmt.Fprintf(stderr,
			"glovectl: %d-anonymized into %d groups (%d merges); suppressed %d samples (%d users discarded)\n",
			k, s.OutputFingerprints, s.Merges, s.SuppressedSamples, s.DiscardedUsers)
	}
	if a := final.Accuracy; a != nil {
		fmt.Fprintf(stderr,
			"glovectl: accuracy: position mean %.0f m / median %.0f m; time mean %.0f min / median %.0f min\n",
			a.MeanPositionM, a.MedianPositionM, a.MeanTimeMin, a.MedianTimeMin)
	}
	if f := final.AnonymousFraction; f != nil {
		fmt.Fprintf(stderr, "glovectl: k-gap: %.1f%% of input fingerprints were already %d-anonymous\n", *f*100, k)
	}
}
