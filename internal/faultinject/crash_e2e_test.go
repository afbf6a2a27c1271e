//go:build faultinject

package faultinject_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/client"
)

// The kill/restart matrix: a real gloved binary (built with the
// faultinject tag) is crashed at each named point via GLOVE_CRASH,
// restarted, and driven through pkg/client to prove the recovery
// invariants — no torn releases, no lost committed windows, no
// double-published windows, and a mutation is applied iff it was
// journaled, regardless of whether the client saw the ack.

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func glovedBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "gloved-faultinject-*")
		if buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "gloved")
		cmd := exec.Command("go", "build", "-tags", "faultinject", "-o", bin, "./cmd/gloved")
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building gloved: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "gloved")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exit   chan error
	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon launches gloved against dataDir on an ephemeral port and
// waits for its "listening on" line. env arms crash points
// (GLOVE_CRASH / GLOVE_CRASH_SKIP); both are explicitly cleared when
// absent so stray environment can never arm a scenario.
func startDaemon(t *testing.T, dataDir string, env map[string]string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-access-log=false"}, extraArgs...)
	d := &daemon{cmd: exec.Command(glovedBinary(t), args...), exit: make(chan error, 1)}
	crash, skip := "", ""
	if env != nil {
		crash, skip = env["GLOVE_CRASH"], env["GLOVE_CRASH_SKIP"]
	}
	d.cmd.Env = append(os.Environ(), "GLOVE_CRASH="+crash, "GLOVE_CRASH_SKIP="+skip)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, " listening on "); i >= 0 && strings.HasPrefix(line, "gloved:") {
				select {
				case addrCh <- strings.TrimSpace(line[i+len(" listening on "):]):
				default:
				}
			}
		}
	}()
	go func() { d.exit <- d.cmd.Wait() }()
	t.Cleanup(func() { d.cmd.Process.Kill() })
	select {
	case d.addr = <-addrCh:
	case err := <-d.exit:
		t.Fatalf("daemon exited before listening: %v\n%s", err, d.stderrText())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// waitKilled asserts the daemon died at an armed crash point (exit 137).
func (d *daemon) waitKilled(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.exit:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 137 {
			t.Fatalf("daemon exit = %v, want the crash-point kill (137)\n%s", err, d.stderrText())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not die at the armed crash point\n%s", d.stderrText())
	}
}

// stop shuts the daemon down gracefully (SIGTERM → drain → checkpoint).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exit:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\n%s", err, d.stderrText())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon ignored SIGTERM\n%s", d.stderrText())
	}
}

func newClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.New("http://"+addr, client.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// windowCSV builds an ingest/append body whose records all land in the
// 1 h window w, one record per user at distinct minutes.
func windowCSV(w int, users ...string) string {
	var b strings.Builder
	b.WriteString("user,lat,lon,minute\n")
	for i, u := range users {
		fmt.Fprintf(&b, "%s,7.5,-5.5,%d\n", u, w*60+i)
	}
	return b.String()
}

func windowRelease(t *testing.T, ctx context.Context, c *client.Client, jobID string, w int) []byte {
	t.Helper()
	rc, err := c.WindowResult(ctx, jobID, w)
	if err != nil {
		t.Fatalf("window %d: %v", w, err)
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCrashTornDatasetCreate crashes mid-WAL-write of the very first
// journal frame (the dataset creation): the torn frame must be
// truncated at the next boot and the dataset must not exist — the
// client never saw an ack, so nothing durable may claim it happened.
func TestCrashTornDatasetCreate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dataDir := t.TempDir()

	d := startDaemon(t, dataDir, map[string]string{"GLOVE_CRASH": "wal.append.partial"})
	c := newClient(t, d.addr)
	if _, err := c.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c")),
		client.IngestOptions{Name: "torn", Lat: 7.54, Lon: -5.55, Days: 1}); err == nil {
		t.Fatal("ingest survived an armed crash point")
	}
	d.waitKilled(t)

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	all, err := c2.AllDatasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("torn, unacknowledged ingest resurrected: %+v", all)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil || !m.Durability.TornTailRecovered || m.Durability.LastShutdownClean {
		t.Errorf("durability after torn-tail recovery: %+v", m.Durability)
	}
	// The feed can simply be re-sent: recovery left a consistent journal.
	if _, err := c2.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c")),
		client.IngestOptions{Name: "torn", Lat: 7.54, Lon: -5.55, Days: 1}); err != nil {
		t.Fatalf("re-ingest after recovery: %v", err)
	}
}

// TestCrashAppendCommittedNotAcked crashes after an append was
// journaled and fsynced but before the client saw the 200: the mutation
// is durable, so the restarted daemon must serve it — re-sending the
// append would double-apply.
func TestCrashAppendCommittedNotAcked(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dataDir := t.TempDir()

	d := startDaemon(t, dataDir, map[string]string{"GLOVE_CRASH": "registry.append.committed"})
	c := newClient(t, d.addr)
	// The create path commits without the append crash point, so this
	// succeeds even in the armed daemon.
	ds, err := c.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c")),
		client.IngestOptions{Name: "feed", Lat: 7.54, Lon: -5.55, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRecords(ctx, ds.ID, strings.NewReader(windowCSV(1, "a", "b"))); err == nil {
		t.Fatal("append survived an armed crash point")
	}
	d.waitKilled(t)

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	got, err := c2.GetDataset(ctx, ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != 5 {
		t.Fatalf("recovered dataset has %d records, want 5 (the fsynced append must be applied)", got.Records)
	}
}

// TestCrashFollowWindowCommitted is the streaming acceptance scenario:
// the daemon is killed between journaling a follow window's release and
// publishing it. The restart must treat the journaled release as
// committed — resume past it, serve exactly its bytes, publish exactly
// one done event per window — and the final output must be
// byte-identical to an uninterrupted control run of the same feed.
func TestCrashFollowWindowCommitted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	spec := func(dsID string) client.JobSpec {
		return client.JobSpec{DatasetID: dsID, K: 2, Workers: 1, Shards: 1,
			WindowHours: 1, Follow: true, FollowWindows: 2}
	}
	feed := func(t *testing.T, c *client.Client, crashing bool) (client.DatasetInfo, client.JobStatus) {
		ds, err := c.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c", "d")),
			client.IngestOptions{Name: "feed", Lat: 7.54, Lon: -5.55, Days: 1})
		if err != nil {
			t.Fatal(err)
		}
		job, err := c.SubmitJob(ctx, spec(ds.ID))
		if err != nil {
			t.Fatal(err)
		}
		// Window-1 records close window 0; wait for its commit so the
		// first crash-point hit is consumed before window 1 can close.
		if _, err := c.AppendRecords(ctx, ds.ID, strings.NewReader(windowCSV(1, "a", "b"))); err != nil {
			t.Fatalf("append window 1: %v", err)
		}
		for {
			st, err := c.GetJob(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Windows) > 0 && st.Windows[0].State == api.WindowDone {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Window-2 records close window 1, whose commit meets the
		// 2-window budget — and, in the armed daemon, kills the process,
		// racing this request's response; only the control run may
		// demand an ack.
		if _, err := c.AppendRecords(ctx, ds.ID, strings.NewReader(windowCSV(2, "c", "d"))); err != nil && !crashing {
			t.Fatalf("append window 2: %v", err)
		}
		return ds, job
	}

	// Control: the same feed against an uninterrupted daemon.
	ctrl := startDaemon(t, t.TempDir(), nil)
	cc := newClient(t, ctrl.addr)
	_, ctrlJob := feed(t, cc, false)
	if st, err := cc.WaitJob(ctx, ctrlJob.ID); err != nil || st.State != api.JobDone {
		t.Fatalf("control job = %+v, %v", st, err)
	}
	want0 := windowRelease(t, ctx, cc, ctrlJob.ID, 0)
	want1 := windowRelease(t, ctx, cc, ctrlJob.ID, 1)
	ctrl.stop(t)

	// Crash run: skip the window-0 commit, die at the window-1 commit —
	// after its release hit the journal, before it was published.
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, map[string]string{
		"GLOVE_CRASH": "follow.window.committed", "GLOVE_CRASH_SKIP": "1"})
	c := newClient(t, d.addr)
	_, job := feed(t, c, true)
	d.waitKilled(t)

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	final, err := c2.WaitJob(ctx, job.ID)
	if err != nil || final.State != api.JobDone {
		t.Fatalf("resumed job = %+v, %v", final, err)
	}
	if got := windowRelease(t, ctx, c2, job.ID, 0); !bytes.Equal(got, want0) {
		t.Error("window-0 release differs from the uninterrupted control run")
	}
	if got := windowRelease(t, ctx, c2, job.ID, 1); !bytes.Equal(got, want1) {
		t.Error("window-1 release (journaled but unpublished at the crash) differs from the control run")
	}
	// Exactly one done event per window in the recovered log: the
	// journaled-but-unpublished window must not commit twice.
	stream, err := c2.JobEvents(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	done := map[int]int{}
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Window != nil && ev.Window.State == api.WindowDone {
			done[ev.Window.Index]++
		}
	}
	if done[0] != 1 || done[1] != 1 {
		t.Errorf("window done events after recovery: %v, want exactly one per window", done)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil || m.Durability.RecoveredJobs["resumed"] != 1 {
		t.Errorf("durability after resume: %+v", m.Durability)
	}
}

// TestCrashWindowedWindowCommitted runs the same kill point through a
// windowed job, which shares the follow executor and its commit point:
// the daemon dies after window 1's release hit the journal and before it
// was published. The restart must resume after window 1 — re-running
// neither committed window — with exactly one done event per window and
// releases byte-identical to an uninterrupted control run.
func TestCrashWindowedWindowCommitted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	windows := []string{
		windowCSV(0, "a", "b", "c", "d"),
		windowCSV(1, "a", "b", "c"),
		windowCSV(2, "b", "c", "d"),
	}
	run := func(t *testing.T, c *client.Client) client.JobStatus {
		ds, err := c.CreateDataset(ctx, strings.NewReader(windows[0]),
			client.IngestOptions{Name: "feed", Lat: 7.54, Lon: -5.55, Days: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range windows[1:] {
			if _, err := c.AppendRecords(ctx, ds.ID, strings.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}
		job, err := c.SubmitJob(ctx, client.JobSpec{DatasetID: ds.ID, K: 2, Workers: 1, Shards: 1, WindowHours: 1})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}

	ctrl := startDaemon(t, t.TempDir(), nil)
	cc := newClient(t, ctrl.addr)
	ctrlJob := run(t, cc)
	if st, err := cc.WaitJob(ctx, ctrlJob.ID); err != nil || st.State != api.JobDone {
		t.Fatalf("control job = %+v, %v", st, err)
	}
	want := make([][]byte, len(windows))
	for w := range windows {
		want[w] = windowRelease(t, ctx, cc, ctrlJob.ID, w)
	}
	ctrl.stop(t)

	// Crash run: skip the window-0 commit, die at the window-1 commit.
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, map[string]string{
		"GLOVE_CRASH": "follow.window.committed", "GLOVE_CRASH_SKIP": "1"})
	job := run(t, newClient(t, d.addr))
	d.waitKilled(t)

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	final, err := c2.WaitJob(ctx, job.ID)
	if err != nil || final.State != api.JobDone {
		t.Fatalf("resumed job = %+v, %v", final, err)
	}
	for w := range windows {
		if got := windowRelease(t, ctx, c2, job.ID, w); !bytes.Equal(got, want[w]) {
			t.Errorf("window-%d release differs from the uninterrupted control run", w)
		}
	}
	stream, err := c2.JobEvents(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	done, ran := map[int]int{}, map[int]int{}
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Window == nil {
			continue
		}
		switch ev.Window.State {
		case api.WindowDone:
			done[ev.Window.Index]++
		case api.WindowRunning:
			ran[ev.Window.Index]++
		}
	}
	if done[0] != 1 || done[1] != 1 || done[2] != 1 {
		t.Errorf("window done events after recovery: %v, want exactly one per window", done)
	}
	if ran[0] != 0 || ran[1] != 0 || ran[2] != 1 {
		t.Errorf("window running events after recovery: %v, want only window 2 to run again", ran)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil || m.Durability.RecoveredJobs["resumed"] != 1 {
		t.Errorf("durability after resume: %+v", m.Durability)
	}
}

// TestCrashBatchWindowCommitted runs the same kill point through a batch
// job, which is one frozen window over its snapshot: the daemon dies
// after the release hit the journal and before it was published. The
// restart must not run GLOVE again — its trace has no shard span — and
// must serve the control run's release and stats, with the batch job's
// window kept internal.
func TestCrashBatchWindowCommitted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Each daemon starts empty, so the job is its first.
	const jobID = "job-000001"
	submit := func(c *client.Client) error {
		ds, err := c.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c", "d", "e")),
			client.IngestOptions{Name: "batch", Lat: 7.54, Lon: -5.55, Days: 1})
		if err != nil {
			return err
		}
		_, err = c.SubmitJob(ctx, client.JobSpec{DatasetID: ds.ID, K: 2, Workers: 1, Shards: 1})
		return err
	}
	result := func(t *testing.T, c *client.Client, jobID string) []byte {
		t.Helper()
		rc, err := c.JobResult(ctx, jobID)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		raw, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	stats := func(t *testing.T, st client.JobStatus) core.GloveStats {
		t.Helper()
		if st.Stats == nil {
			t.Fatalf("job %s has no stats", st.ID)
		}
		s := *st.Stats
		s.IndexBuildNanos, s.MergeNanos = 0, 0
		return s
	}

	ctrl := startDaemon(t, t.TempDir(), nil)
	cc := newClient(t, ctrl.addr)
	if err := submit(cc); err != nil {
		t.Fatal(err)
	}
	want, err := cc.WaitJob(ctx, jobID)
	if err != nil || want.State != api.JobDone {
		t.Fatalf("control job = %+v, %v", want, err)
	}
	wantCSV := result(t, cc, jobID)
	ctrl.stop(t)

	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, map[string]string{
		"GLOVE_CRASH": "follow.window.committed", "GLOVE_CRASH_SKIP": "0"})
	// The job can reach the crash point before the daemon answers its
	// submission, which the commit's fsync made durable either way.
	submit(newClient(t, d.addr))
	d.waitKilled(t)

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	final, err := c2.WaitJob(ctx, jobID)
	if err != nil || final.State != api.JobDone {
		t.Fatalf("resumed job = %+v, %v", final, err)
	}
	if !bytes.Equal(result(t, c2, jobID), wantCSV) {
		t.Error("batch release differs from the uninterrupted control run")
	}
	if got, w := stats(t, final), stats(t, want); got != w {
		t.Errorf("stats %+v, want the control run's %+v", got, w)
	}
	if len(final.Windows) != 0 {
		t.Errorf("batch job lists windows after recovery: %+v", final.Windows)
	}
	tr, err := c2.JobTrace(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(s *api.TraceSpan)
	walk = func(s *api.TraceSpan) {
		if s.Kind == obs.SpanShard {
			t.Errorf("resumed trace has shard span %q: GLOVE ran again", s.Name)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root)
}

// TestDrainCleanShutdown pins the graceful path: SIGTERM drains, writes
// the checkpoint and clean-shutdown marker, and the next boot both
// reports the clean shutdown and serves the checkpointed state.
func TestDrainCleanShutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dataDir := t.TempDir()

	d := startDaemon(t, dataDir, nil)
	c := newClient(t, d.addr)
	ds, err := c.CreateDataset(ctx, strings.NewReader(windowCSV(0, "a", "b", "c")),
		client.IngestOptions{Name: "kept", Lat: 7.54, Lon: -5.55, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.stop(t)
	if !strings.Contains(d.stderrText(), "journal checkpointed, shutdown clean") {
		t.Fatalf("no checkpoint confirmation in shutdown log:\n%s", d.stderrText())
	}

	d2 := startDaemon(t, dataDir, nil)
	defer d2.stop(t)
	c2 := newClient(t, d2.addr)
	got, err := c2.GetDataset(ctx, ds.ID)
	if err != nil || got.Records != ds.Records {
		t.Fatalf("checkpointed dataset after restart: %+v, %v", got, err)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil || !m.Durability.LastShutdownClean {
		t.Errorf("clean shutdown not reported: %+v", m.Durability)
	}
}
