package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/wal"
)

// legacyJournal is a journal written by gloved before its frames carried
// raw bodies (commit a5af3ff), every frame one JSON object with its CSVs
// inline as base64: a snapshot holding dataset ds-000001 and the done
// batch job job-000001, then ds_create ds-000002, ds_append to it,
// job_submit job-000002 (a windowed job over two hourly windows), its two
// job_result frames and its job_status frame. want.json is
// journalSummary of the state that code restored from it.
const legacyJournal = "testdata/legacy-journal"

// copyLegacyJournal copies the legacy journal's segment into a fresh
// directory and returns the directory.
func copyLegacyJournal(t *testing.T) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(legacyJournal, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("legacy journal segments %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// journalSummary renders what a boot restored, for comparison with the
// state another build of gloved restored from the same journal: every
// dataset's metadata and the SHA-256 of its records, every job's
// status (quality included), and the SHA-256 of every release.
func journalSummary(t *testing.T, reg *Registry, mgr *Manager) []byte {
	t.Helper()
	type summary struct {
		Datasets []DatasetInfo     `json:"datasets"`
		Records  map[string]string `json:"records_sha256"`
		Jobs     []JobStatus       `json:"jobs"`
		Releases map[string]string `json:"releases_sha256"`
	}
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	s := summary{Datasets: reg.List(), Records: map[string]string{}, Releases: map[string]string{}}
	for _, info := range s.Datasets {
		s.Records[info.ID] = digest(sourceCSV(t, reg, info.ID))
	}
	jobs, _, _ := mgr.ListPage("", 100)
	for _, st := range jobs {
		s.Jobs = append(s.Jobs, st)
		if len(st.Windows) == 0 {
			rel, err := mgr.Result(st.ID)
			if err != nil {
				t.Fatalf("%s: %v", st.ID, err)
			}
			s.Releases[st.ID] = digest(storedCSV(t, rel))
			continue
		}
		for _, w := range st.Windows {
			rel, err := mgr.WindowResult(st.ID, w.Index)
			if err != nil {
				t.Fatalf("%s window %d: %v", st.ID, w.Index, err)
			}
			s.Releases[fmt.Sprintf("%s/w%d", st.ID, w.Index)] = digest(storedCSV(t, rel))
		}
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// requireRawSnapshot checks that the journal under dir was compacted in
// the raw layout: its newest segment opens with a snapshot frame whose
// payload starts with rawLayout, and every record frame after it is raw
// too.
func requireRawSnapshot(t *testing.T, dir string) {
	t.Helper()
	_, _, frames, _ := lastSegment(t, dir)
	if len(frames) == 0 || frames[0].Kind != wal.KindSnapshot {
		t.Fatal("the newest segment does not open with a snapshot")
	}
	for i, f := range frames {
		if len(f.Payload) == 0 || f.Payload[0] != rawLayout {
			t.Errorf("frame %d (kind %d) is not in the raw layout: %.20q", i, f.Kind, f.Payload)
		}
	}
}

// A journal written in the legacy layout boots to exactly the state the
// code that wrote it restored, and the boot compaction rewrites it in
// the raw layout, which boots to that state again.
func TestJournalLegacyLayoutReplays(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(legacyJournal, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyLegacyJournal(t)
	for boot := 1; boot <= 2; boot++ {
		jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
		got := journalSummary(t, reg, mgr)
		crashClose(mgr, reg, jrnl)
		if !bytes.Equal(got, want) {
			t.Fatalf("boot %d restored\n%s\nwant\n%s", boot, got, want)
		}
		requireRawSnapshot(t, dir)
	}
}

// Replay decodes each frame by its own layout: a legacy journal with
// raw-layout frames appended after it replays to the legacy state plus
// the new frames' records.
func TestJournalLegacyThenRawFrames(t *testing.T) {
	dir := copyLegacyJournal(t)
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 6 || rec.Snapshot[0] != '{' {
		t.Fatalf("legacy journal holds %d records, snapshot %.10q", len(rec.Records), rec.Snapshot)
	}
	jl := &Journal{log: l}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := jl.datasetAppended("ds-000002", []byte(windowCSV(2, "p", "s")), at); err != nil {
		t.Fatal(err)
	}
	info := DatasetInfo{ID: "ds-000003", Name: "third", SpanDays: 1, CreatedAt: at, Center: geo.LatLon{Lat: 7.54, Lon: -5.55}}
	if err := jl.datasetCreated(info, []byte(windowCSV(0, "x", "y", "z"))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, _, frames, _ := lastSegment(t, dir)
	if n := len(frames); n != 9 || frames[n-1].Payload[0] != rawLayout || frames[n-3].Payload[0] != '{' {
		t.Fatalf("journal of %d frames, want the 7 legacy frames followed by 2 raw ones", n)
	}

	for boot := 1; boot <= 2; boot++ {
		jrnl, reg, mgr, _ := bootService(t, dir, ManagerOptions{})
		got2, _ := reg.Get("ds-000002")
		got3, ok := reg.Get("ds-000003")
		wantJobs, _, _ := mgr.ListPage("", 100)
		crashClose(mgr, reg, jrnl)
		if got2.Records != 9 || got2.Version != 3 || !got2.UpdatedAt.Equal(at) {
			t.Errorf("boot %d: ds-000002 restored as %+v, want 9 records at version 3", boot, got2)
		}
		if !ok || got3.Records != 3 || got3.Name != "third" {
			t.Errorf("boot %d: ds-000003 restored as %+v (found %v)", boot, got3, ok)
		}
		if len(wantJobs) != 2 || wantJobs[0].State != JobDone || wantJobs[1].State != JobDone {
			t.Errorf("boot %d: jobs %+v, want the legacy journal's two done jobs", boot, wantJobs)
		}
		requireRawSnapshot(t, dir)
	}
}
