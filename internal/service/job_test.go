package service

import (
	"testing"

	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/synth"
)

func TestJobStateMachine(t *testing.T) {
	states := []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}
	allowed := map[[2]JobState]bool{
		{JobQueued, JobRunning}:    true,
		{JobQueued, JobCancelled}:  true,
		{JobRunning, JobDone}:      true,
		{JobRunning, JobFailed}:    true,
		{JobRunning, JobCancelled}: true,
	}
	for _, from := range states {
		for _, to := range states {
			got := validTransition(from, to)
			if want := allowed[[2]JobState{from, to}]; got != want {
				t.Errorf("validTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
		}
	}
	for _, s := range states {
		wantTerminal := s == JobDone || s == JobFailed || s == JobCancelled
		if s.Terminal() != wantTerminal {
			t.Errorf("%s.Terminal() = %v", s, s.Terminal())
		}
	}
}

func TestJobTransitionEnforced(t *testing.T) {
	j := &Job{id: "job-test", state: JobQueued}
	if err := j.transition(JobDone); err == nil {
		t.Error("queued -> done accepted")
	}
	if err := j.transition(JobRunning); err != nil {
		t.Fatal(err)
	}
	if j.started.IsZero() {
		t.Error("started timestamp not set")
	}
	if err := j.transition(JobDone); err != nil {
		t.Fatal(err)
	}
	if j.finished.IsZero() {
		t.Error("finished timestamp not set")
	}
	if err := j.transition(JobRunning); err == nil {
		t.Error("done -> running accepted")
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{DatasetID: "ds-1", K: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []JobSpec{
		{K: 2},                    // no dataset
		{DatasetID: "ds-1", K: 1}, // k too small
		{DatasetID: "ds-1", K: 2, SuppressKm: -1},    // negative threshold
		{DatasetID: "ds-1", K: 2, SuppressMin: -0.5}, // negative threshold
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func synthTable(t testing.TB, users, days int) *cdr.Table {
	t.Helper()
	cfg := synth.CIV(users)
	cfg.Days = days
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// tableView loads a table into a fresh resident store and returns its
// snapshot: a table-side reference enters the view-typed pipeline
// stages (planShards, runShards) this way.
func tableView(t *testing.T, table *cdr.Table) *colstore.View {
	t.Helper()
	s := colstore.New(cdr.Meta{Center: table.Center, SpanDays: table.SpanDays}, colstore.Options{})
	t.Cleanup(func() { s.Close() })
	if err := s.Append(table.Records...); err != nil {
		t.Fatal(err)
	}
	return s.Snapshot()
}

// viewTable copies a view's records into a table, the reference side of
// the window-split and analysis comparisons.
func viewTable(t *testing.T, v *colstore.View) *cdr.Table {
	t.Helper()
	meta := v.TableMeta()
	table := &cdr.Table{Center: meta.Center, SpanDays: meta.SpanDays}
	if err := v.EachRecord(func(r cdr.Record) error {
		table.Records = append(table.Records, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return table
}

func TestPlanShards(t *testing.T) {
	table := synthTable(t, 40, 2)
	users := table.Users()
	view := tableView(t, table)

	shards := planShards(view, users, 2, 4, 1)
	if len(shards) < 1 || len(shards) > 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	var total int
	for i, s := range shards {
		if s.NumUsers() < 2 {
			t.Errorf("shard %d hides %d users < k", i, s.NumUsers())
		}
		total += s.NumRecords()
	}
	if total != len(table.Records) {
		t.Errorf("shards hold %d records, want %d", total, len(table.Records))
	}

	// Requesting more shards than 2k-sized groups exist clamps.
	shards = planShards(view, users, 10, 100, 1)
	if max := users / 20; len(shards) > max {
		t.Errorf("%d shards for %d users at k=10, max %d", len(shards), users, max)
	}

	// Tiny dataset: single shard.
	shards = planShards(view, users, users/2+1, 8, 1)
	if len(shards) != 1 {
		t.Errorf("got %d shards for k > users/4, want 1", len(shards))
	}
}

func TestMergeShardResults(t *testing.T) {
	mk := func(ids ...string) *core.Dataset {
		fps := make([]*core.Fingerprint, len(ids))
		for i, id := range ids {
			f := core.NewFingerprint(id, []core.Sample{{DX: 1, DY: 1, DT: 1, Weight: 1}})
			f.Count = 2
			f.Members = []string{id + "-a", id + "-b"}
			fps[i] = f
		}
		return core.NewDataset(fps)
	}
	results := []shardResult{
		{out: mk("g1", "g2"), stats: &core.GloveStats{InputUsers: 4, Merges: 2}},
		{out: mk("g1"), stats: &core.GloveStats{InputUsers: 2, Merges: 1}},
	}
	merged, stats, err := mergeShardResults(results, true)
	if err != nil {
		t.Fatal(err)
	}
	// Same group name in two shards must not collide after prefixing.
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged dataset invalid: %v", err)
	}
	if merged.Len() != 3 {
		t.Errorf("merged %d groups, want 3", merged.Len())
	}
	if stats.InputUsers != 6 || stats.Merges != 3 {
		t.Errorf("stats not summed: %+v", stats)
	}
	if stats.OutputFingerprints != 3 {
		t.Errorf("OutputFingerprints = %d", stats.OutputFingerprints)
	}
}
