package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/synth"
)

// size is the input scale of a workload's job.
type size struct {
	users int
	days  int
	// feedHours is the span of records one ingest request carries: the
	// feed arrives in chunks of that many hours.
	feedHours float64
	// windowHours > 0 makes each job windowed; follow turns it into a
	// follow job whose chunks are appended one per interval.
	windowHours float64
	follow      bool
	interval    time.Duration
}

func (s size) String() string {
	kind := "batch"
	switch {
	case s.follow:
		kind = fmt.Sprintf("follow window_hours=%g append_every=%v", s.windowHours, s.interval)
	case s.windowHours > 0:
		kind = fmt.Sprintf("windowed window_hours=%g", s.windowHours)
	}
	return fmt.Sprintf("civ users=%d days=%d k=%d feed_hours=%g %s", s.users, s.days, benchK, s.feedHours, kind)
}

// workload is one named traffic mix.
type workload struct {
	name        string
	full, smoke size
	// nominal is the wall time of one full-size job on a 2-CPU machine.
	// It turns -seconds into a fixed job count, so two runs with one
	// seed make the same jobs and release the same bytes.
	nominal time.Duration
}

// benchK is the anonymity level of every job.
const benchK = 2

var workloads = map[string]workload{
	"batch-10k": {
		name:    "batch-10k",
		full:    size{users: 10000, days: 1, feedHours: 1},
		smoke:   size{users: 300, days: 1, feedHours: 1},
		nominal: 25 * time.Second,
	},
	"windowed-week": {
		name:    "windowed-week",
		full:    size{users: 250, days: 7, feedHours: 24, windowHours: 24},
		smoke:   size{users: 60, days: 3, feedHours: 24, windowHours: 24},
		nominal: 1500 * time.Millisecond,
	},
	"follow-daily": {
		name:    "follow-daily",
		full:    size{users: 250, days: 7, feedHours: 24, windowHours: 24, follow: true, interval: 150 * time.Millisecond},
		smoke:   size{users: 60, days: 3, feedHours: 24, windowHours: 24, follow: true, interval: 20 * time.Millisecond},
		nominal: 1750 * time.Millisecond,
	},
	"follow-hourly": {
		name:    "follow-hourly",
		full:    size{users: 300, days: 5, feedHours: 1, windowHours: 1, follow: true, interval: 100 * time.Millisecond},
		smoke:   size{users: 200, days: 1, feedHours: 1, windowHours: 1, follow: true, interval: 20 * time.Millisecond},
		nominal: 10 * time.Second,
	},
}

// jobsFor is the number of jobs a run makes: as many nominal jobs as
// fit in the measuring time, at least one. Smoke runs make one.
func jobsFor(wl workload, sz size, seconds int) int {
	if sz != wl.full {
		return 1
	}
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(wl.nominal)))
	if n < 1 {
		n = 1
	}
	return n
}

// batchKey is the release key of a batch job's single result; windowed
// and follow releases are keyed by their window index.
const batchKey = -1

// chunk is one append: the records of feedHours hours. A follow job's
// chunk is due at the job's start plus index × interval.
type chunk struct {
	index int
	csv   []byte
}

// jobInput is everything one job sends and everything its releases are
// checked against, generated before any timing starts.
type jobInput struct {
	// csv is the dataset creation body, the feed's first chunk; appends
	// are its later chunks in feed order. firstChunk is the index of
	// the chunk csv holds.
	csv        []byte
	appends    []chunk
	firstChunk int
	// originals maps a release key to the generated fingerprints that
	// release must hide.
	originals map[int]*core.Dataset
	// table is the whole generated feed, for the direct layer calls.
	table *cdr.Table
	// followWindows is the number of windows a follow job commits: every
	// non-empty window the last append closes.
	followWindows int
}

// jobSeed derives job j's input seed from the run's seed: job 0 uses
// the seed itself.
func jobSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// generateInputs builds every job's input from synth's CIV profile.
func generateInputs(wl workload, sz size, seed int64, jobs int) ([]*jobInput, error) {
	out := make([]*jobInput, jobs)
	for j := range out {
		in, err := generateJob(sz, jobSeed(seed, j))
		if err != nil {
			return nil, fmt.Errorf("%s job %d input: %w", wl.name, j, err)
		}
		out[j] = in
	}
	return out, nil
}

func generateJob(sz size, seed int64) (*jobInput, error) {
	cfg := synth.CIV(sz.users)
	cfg.Seed = seed
	cfg.Days = sz.days
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &jobInput{table: table, originals: make(map[int]*core.Dataset)}
	chunks, err := table.SplitByWindow(hours(sz.feedHours))
	if err != nil {
		return nil, err
	}
	in.firstChunk = chunks[0].Index
	for i, c := range chunks {
		body, err := encodeRecords(c.Table)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			in.csv = body
		} else {
			in.appends = append(in.appends, chunk{index: c.Index, csv: body})
		}
	}
	if sz.windowHours == 0 {
		in.originals[batchKey], err = table.BuildDataset()
		return in, err
	}
	wins, err := table.SplitByWindow(hours(sz.windowHours))
	if err != nil {
		return nil, err
	}
	for _, w := range wins {
		if n := w.Table.Users(); n < benchK {
			return nil, fmt.Errorf("window %d hides %d users, below k=%d", w.Index, n, benchK)
		}
		if in.originals[w.Index], err = w.Table.BuildDataset(); err != nil {
			return nil, err
		}
	}
	if sz.follow {
		// The feed's last window is never closed, so it publishes
		// nothing.
		delete(in.originals, wins[len(wins)-1].Index)
		in.followWindows = len(wins) - 1
		if in.followWindows < 1 {
			return nil, fmt.Errorf("follow feed has %d windows, need at least 2", len(wins))
		}
	}
	return in, nil
}

func hours(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

func encodeRecords(t *cdr.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
