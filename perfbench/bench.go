package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/pkg/client"
)

// bench holds what every pass of one run shares.
type bench struct {
	wl      workload
	size    size
	inputs  []*jobInput
	gloved  string
	workDir string
	out     io.Writer
	passes  int
}

// opCounter counts attempted and failed operations: HTTP calls, jobs
// and release validations. Safe for concurrent use.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

// check counts one operation, failed when err is not nil.
func (o *opCounter) check(err error, what string) bool {
	if err != nil {
		o.fail(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
	return true
}

func (o *opCounter) fail(msg string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	if len(o.messages) < 20 {
		o.messages = append(o.messages, msg)
	}
}

// releaseID names one release: the job's position in the run and the
// release key (window index, or batchKey).
type releaseID struct{ job, key int }

// jobRun is what one job measured.
type jobRun struct {
	in        *jobInput
	id        string
	datasetID string
	// ingest is the summed duration of the job's ingest requests,
	// submit that of SubmitJob.
	ingest, submit time.Duration
	// jobDur runs from jobFrom to the terminal done event, release from
	// releaseFrom to the end of the last release download. They are
	// SubmitJob and the first ingest byte sent, except on a follow job:
	// there both are the due time of its last append, because the
	// append schedule sets everything before it.
	jobDur, release      time.Duration
	jobFrom, releaseFrom time.Time
	// downloads are the job's releases, kept for validation once the
	// job has ended.
	downloads []download
	done      bool // the job ended done
	ok        bool // done, with every release valid
	status    client.JobStatus
	trace     *client.TraceSpan
}

// download is one release as fetched: its bytes, when it was due and
// when its last byte arrived.
type download struct {
	key      int
	raw      []byte
	due, eof time.Time
}

// passResult is everything one pass over the run's jobs measured.
type passResult struct {
	traced bool
	ops    opCounter

	setup   []float64 // seconds, one per daemon launch
	peakRSS float64   // MiB
	jobs    []*jobRun

	mu         sync.Mutex
	releases   map[releaseID][sha256.Size]byte
	parsed     map[int]*core.Dataset // the first job's releases, by key
	accuracy   metrics.Accuracy
	appendMS   jobSeries // due time → ack of every ingest request
	commitMS   jobSeries // due time → valid release downloaded
	downloadMS []float64 // request → EOF of every release download
	genLateMS  []float64 // how late the generator sent each append

	// metricsBefore/After bracket a traced pass; lagMax is the largest
	// glove_stream_lag_windows sampled during it.
	metricsBefore, metricsAfter map[string]float64
	lagMax                      float64
}

// pass starts a daemon (after launches-1 throwaway launches timed for
// set-up), runs every job of the run on it in order, and stops it.
func (b *bench) pass(ctx context.Context, traced bool, launches int) (*passResult, error) {
	b.passes++
	p := &passResult{
		traced:   traced,
		releases: make(map[releaseID][sha256.Size]byte),
		parsed:   make(map[int]*core.Dataset),
	}
	for i := 1; i <= launches; i++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("pass%d-daemon%d", b.passes, i))
		d, err := startDaemon(ctx, b.gloved, dir)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, d.setup.Seconds())
		if i < launches {
			d.stop()
			continue
		}
		err = b.runJobs(ctx, d, p)
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runJobs drives every job on d; in a traced pass it also brackets the
// jobs with /metrics scrapes and samples the stream-lag gauge.
func (b *bench) runJobs(ctx context.Context, d *daemon, p *passResult) error {
	var stopSampler func()
	if p.traced {
		var err error
		if p.metricsBefore, err = d.scrape(ctx); err != nil {
			return err
		}
		stopSampler = sampleLag(ctx, d, p)
	}
	for j, in := range b.inputs {
		jr := &jobRun{in: in}
		b.job(ctx, d, p, j, jr)
		p.jobs = append(p.jobs, jr)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if p.traced {
		stopSampler()
		var err error
		if p.metricsAfter, err = d.scrape(ctx); err != nil {
			return err
		}
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return fmt.Errorf("reading gloved peak RSS: %w", err)
	}
	p.peakRSS = rss
	return nil
}

// sampleLag polls glove_stream_lag_windows every 50 ms until the
// returned stop function is called; stop waits for the poller to end.
func sampleLag(ctx context.Context, d *daemon, p *passResult) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			m, err := d.scrape(ctx)
			if !p.ops.check(err, "sampling /metrics") {
				continue
			}
			p.mu.Lock()
			if v := m["glove_stream_lag_windows"]; v > p.lagMax {
				p.lagMax = v
			}
			p.mu.Unlock()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func (b *bench) ingestOptions(j int) client.IngestOptions {
	center := synth.CIV(b.size.users).Center
	return client.IngestOptions{
		Name: fmt.Sprintf("%s-%d", b.wl.name, j),
		Lat:  center.Lat, Lon: center.Lon,
		Days: b.size.days,
	}
}

func (b *bench) spec(datasetID string, in *jobInput) client.JobSpec {
	s := client.JobSpec{DatasetID: datasetID, K: benchK, WindowHours: b.size.windowHours}
	if b.size.follow {
		s.Follow = true
		s.FollowWindows = in.followWindows
	}
	return s
}

// job runs one job: ingest, submit, follow the events, and download
// each release as it is published. Batch and windowed jobs
// run in a closed loop: the whole feed is ingested chunk by chunk, then
// the job is submitted. A follow job is fed by startAppends instead.
// Releases are validated once the job has ended, so the benchmark's
// own checks never run beside the daemon's work or inside a latency.
func (b *bench) job(ctx context.Context, d *daemon, p *passResult, j int, jr *jobRun) {
	jr.releaseFrom = time.Now()
	info, err := d.c.CreateDataset(ctx, bytes.NewReader(jr.in.csv), b.ingestOptions(j))
	jr.ingest = time.Since(jr.releaseFrom)
	if !p.ops.check(err, "create dataset") {
		return
	}
	jr.datasetID = info.ID
	defer b.cleanup(ctx, d, p, jr)
	p.appendMS.add(&p.mu, j, jr.ingest)
	if !b.size.follow {
		for _, c := range jr.in.appends {
			sent := time.Now()
			_, err := d.c.AppendRecords(ctx, jr.datasetID, bytes.NewReader(c.csv))
			took := time.Since(sent)
			jr.ingest += took
			if !p.ops.check(err, fmt.Sprintf("append chunk %d", c.index)) {
				return
			}
			p.appendMS.add(&p.mu, j, took)
		}
	}
	b.runJob(ctx, d, p, j, jr)
	b.validateJob(p, j, jr)
}

// startAppends feeds a follow job with an open loop: the first chunk
// created the dataset, then one append per later chunk is due every
// interval from start regardless of how the daemon keeps up, and every
// latency is timed from its due time. It returns each window's closing
// due time, the last append's due time, and a function that waits for
// the loop, which ends early when stop closes.
func (b *bench) startAppends(ctx context.Context, d *daemon, p *passResult, j int, jr *jobRun, start time.Time, stop <-chan struct{}) (map[int]time.Time, time.Time, func()) {
	in := jr.in
	due := func(index int) time.Time {
		return start.Add(time.Duration(index-in.firstChunk) * b.size.interval)
	}
	// Window w closes with the first append of a later window.
	closes := make(map[int]time.Time, len(in.originals))
	for w := range in.originals {
		i := sort.Search(len(in.appends), func(i int) bool { return in.appends[i].index > w })
		if i < len(in.appends) {
			closes[w] = due(in.appends[i].index)
		}
	}
	var wg sync.WaitGroup
	var ingest time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range in.appends {
			at := due(c.index)
			timer := time.NewTimer(time.Until(at))
			select {
			case <-stop:
				timer.Stop()
				return
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			sent := time.Now()
			p.addSample(&p.genLateMS, sent.Sub(at))
			_, err := d.c.AppendRecords(ctx, jr.datasetID, bytes.NewReader(c.csv))
			ack := time.Now()
			ingest += ack.Sub(sent)
			if p.ops.check(err, fmt.Sprintf("append chunk %d", c.index)) {
				p.appendMS.add(&p.mu, j, ack.Sub(at))
			}
		}
	}()
	last := start
	if n := len(in.appends); n > 0 {
		last = due(in.appends[n-1].index)
	}
	return closes, last, func() {
		wg.Wait()
		jr.ingest += ingest
	}
}

// runJob submits the job and consumes its event stream: each published
// release is downloaded as its event arrives.
func (b *bench) runJob(ctx context.Context, d *daemon, p *passResult, j int, jr *jobRun) {
	in := jr.in
	jr.jobFrom = time.Now()
	st, err := d.c.SubmitJob(ctx, b.spec(jr.datasetID, in))
	jr.submit = time.Since(jr.jobFrom)
	if !p.ops.check(err, "submit job") {
		return
	}
	jr.id = st.ID
	events, err := openEvents(ctx, d.c, st.ID)
	if !p.ops.check(err, "open event stream") {
		return
	}
	var closes map[int]time.Time
	if b.size.follow {
		stop := make(chan struct{})
		var wait func()
		closes, jr.jobFrom, wait = b.startAppends(ctx, d, p, j, jr, time.Now(), stop)
		jr.releaseFrom = jr.jobFrom
		defer wait()
		defer close(stop)
	}

	// A windowed job's window is due once the previous window's release
	// is out (window 0 at SubmitJob), so its commit latency is the
	// window's pipeline as the client sees it.
	var final client.JobState
	prevRelease := jr.jobFrom
	for a := range events.ch {
		switch ev := a.ev; {
		case ev.Type == api.EventWindow && ev.Window != nil && ev.Window.State == api.WindowDone:
			due := prevRelease
			if closes != nil {
				due = closes[ev.Window.Index]
			}
			prevRelease = a.at
			b.download(ctx, d, p, jr, ev.Window.Index, due)
		case ev.Type == api.EventWindow && ev.Window != nil && ev.Window.State == api.WindowAborted:
			p.ops.fail(fmt.Sprintf("job %s window %d aborted", st.ID, ev.Window.Index))
		case ev.Terminal():
			final = ev.State
			jr.jobDur = a.at.Sub(jr.jobFrom)
			if ev.State == api.JobDone && b.size.windowHours == 0 {
				b.download(ctx, d, p, jr, batchKey, a.at)
			}
		}
	}
	if !p.ops.check(events.err, "event stream") {
		return
	}
	if final != api.JobDone {
		p.ops.fail(fmt.Sprintf("job %s ended %q", st.ID, final))
		return
	}
	p.ops.check(nil, "job")
	jr.done = true

	jr.status, err = d.c.GetJob(ctx, st.ID)
	if !p.ops.check(err, "get job") {
		return
	}
	if p.traced {
		tr, err := d.c.JobTrace(ctx, st.ID)
		if p.ops.check(err, "job trace") {
			jr.trace = tr.Root
		}
	}
}

// cleanup purges the job and deletes its dataset, so daemon memory
// does not grow with the number of jobs a run makes.
func (b *bench) cleanup(ctx context.Context, d *daemon, p *passResult, jr *jobRun) {
	if jr.id != "" {
		p.ops.check(d.c.PurgeJob(ctx, jr.id), "purge job")
	}
	p.ops.check(d.c.DeleteDataset(ctx, jr.datasetID), "delete dataset")
}

// download fetches one release to EOF and keeps it for validation.
func (b *bench) download(ctx context.Context, d *daemon, p *passResult, jr *jobRun, key int, due time.Time) {
	start := time.Now()
	var body io.ReadCloser
	var err error
	if key == batchKey {
		body, err = d.c.JobResult(ctx, jr.id)
	} else {
		body, err = d.c.WindowResult(ctx, jr.id, key)
	}
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(body)
		body.Close()
	}
	eof := time.Now()
	if !p.ops.check(err, fmt.Sprintf("download release %d of %s", key, jr.id)) {
		return
	}
	p.addSample(&p.downloadMS, eof.Sub(start))
	jr.downloads = append(jr.downloads, download{key: key, raw: raw, due: due, eof: eof})
}

// validateJob checks every release a finished job published and records
// the valid ones. The job counts, with its release time and commit
// latencies, only when it published one valid release per expected key.
func (b *bench) validateJob(p *passResult, j int, jr *jobRun) {
	if !jr.done {
		return
	}
	valid := 0
	var last time.Time
	for _, dl := range jr.downloads {
		orig, ok := jr.in.originals[dl.key]
		if !ok {
			p.ops.fail(fmt.Sprintf("job %s published unexpected release %d", jr.id, dl.key))
			continue
		}
		rel, err := validateRelease(dl.raw, orig, benchK)
		if !p.ops.check(err, fmt.Sprintf("release %d of %s", dl.key, jr.id)) {
			continue
		}
		acc := metrics.Measure(rel)
		p.mu.Lock()
		p.releases[releaseID{j, dl.key}] = sha256.Sum256(dl.raw)
		if j == 0 {
			p.parsed[dl.key] = rel
		}
		p.accuracy.PositionMeters = append(p.accuracy.PositionMeters, acc.PositionMeters...)
		p.accuracy.TimeMinutes = append(p.accuracy.TimeMinutes, acc.TimeMinutes...)
		p.commitMS.addLocked(j, dl.eof.Sub(dl.due))
		p.mu.Unlock()
		valid++
		if dl.eof.After(last) {
			last = dl.eof
		}
	}
	jr.downloads = nil
	if valid != len(jr.in.originals) {
		p.ops.fail(fmt.Sprintf("job %s published %d valid releases, want %d", jr.id, valid, len(jr.in.originals)))
		return
	}
	jr.release = last.Sub(jr.releaseFrom)
	jr.ok = true
}

func (p *passResult) addSample(dst *[]float64, d time.Duration) {
	p.mu.Lock()
	*dst = append(*dst, ms(d))
	p.mu.Unlock()
}

// jobSeries holds latency samples in milliseconds, one slice per job.
type jobSeries [][]float64

// add records a sample of job j under mu.
func (s *jobSeries) add(mu *sync.Mutex, j int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	s.addLocked(j, d)
}

func (s *jobSeries) addLocked(j int, d time.Duration) {
	for len(*s) <= j {
		*s = append(*s, nil)
	}
	(*s)[j] = append((*s)[j], ms(d))
}

// minPerJob is the sample count from which a job's own 90th percentile
// has ten samples beyond it.
const minPerJob = 100

// quantile is the series' q-quantile. When every job has minPerJob
// samples it is the median over jobs of each job's own quantile, so a
// disturbance during one job cannot set it; otherwise it is the
// quantile of all samples pooled.
func (s jobSeries) quantile(q float64) float64 {
	perJob := make([]float64, 0, len(s))
	for _, xs := range s {
		if len(xs) < minPerJob {
			return quantile(s.pooled(), q)
		}
		perJob = append(perJob, quantile(xs, q))
	}
	return median(perJob)
}

func (s jobSeries) pooled() []float64 {
	var all []float64
	for _, xs := range s {
		all = append(all, xs...)
	}
	return all
}

// digest is one SHA-256 over every release of the pass: the SHA-256s
// of the releases' bytes, in job then window order.
func (p *passResult) digest() string {
	ids := make([]releaseID, 0, len(p.releases))
	for id := range p.releases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].job != ids[b].job {
			return ids[a].job < ids[b].job
		}
		return ids[a].key < ids[b].key
	})
	h := sha256.New()
	for _, id := range ids {
		sum := p.releases[id]
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// arrival is one job event and when the benchmark received it.
type arrival struct {
	ev client.JobEvent
	at time.Time
}

// eventFeed delivers a job's events until the terminal one. err is set
// before ch closes when the stream broke first.
type eventFeed struct {
	ch  chan arrival
	err error
}

// openEvents follows a job's event stream on its own goroutine, which
// stamps each event on arrival so a slow consumer cannot hide latency.
func openEvents(ctx context.Context, c *client.Client, jobID string) (*eventFeed, error) {
	s, err := c.JobEvents(ctx, jobID, 0)
	if err != nil {
		return nil, err
	}
	// Sized above the event count of the largest job (a follow job of
	// 119 windows logs about 600), so the reader never waits on the
	// consumer.
	f := &eventFeed{ch: make(chan arrival, 4096)}
	go func() {
		defer close(f.ch)
		defer s.Close()
		for {
			ev, err := s.Next()
			if err != nil {
				f.err = fmt.Errorf("stream ended before the terminal event: %w", err)
				return
			}
			f.ch <- arrival{ev: ev, at: time.Now()}
			if ev.Terminal() {
				return
			}
		}
	}()
	return f, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
