package service

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wal"
)

// FuzzJobSpecValidate pins the submission gate against hostile specs:
// JobSpec.Validate never panics, every spec it accepts has finite
// suppression thresholds and a windowed spec's WindowDuration is
// positive, and every accepted spec plans cleanly — core.PlanFor returns
// no error for any dataset size a k-anonymization can run on (n >= 2k),
// so a job can never pass validation only to fail at its first shard's
// plan.
func FuzzJobSpecValidate(f *testing.F) {
	seeds := []JobSpec{
		{},
		{DatasetID: "ds-1", K: 2},
		{DatasetID: "ds-1", K: 1},
		{DatasetID: "ds-1", K: 2, Shards: 2, Workers: 1},
		{DatasetID: "ds-1", K: 2, Shards: -1, Workers: -1},
		{DatasetID: "ds-1", K: 2, Shards: 1 << 30, Workers: 1 << 30},
		{DatasetID: "ds-1", K: 3},
		// k whose smallest run (2k) lands on the planner's size
		// thresholds, and at the edge of 2k overflowing.
		{DatasetID: "ds-1", K: core.DenseIndexMaxN / 2},
		{DatasetID: "ds-1", K: core.DefaultChunkSize / 2},
		{DatasetID: "ds-1", K: core.SingleRunMaxN / 2},
		{DatasetID: "ds-1", K: core.SingleRunMaxN},
		{DatasetID: "ds-1", K: math.MaxInt/2 - 1},
		{DatasetID: "ds-1", K: math.MaxInt},
		{DatasetID: "ds-1", K: 2, SuppressKm: 5, SuppressMin: 120},
		{DatasetID: "ds-1", K: 2, SuppressKm: -1},
		{DatasetID: "ds-1", K: 2, WindowHours: 12.5},
		{DatasetID: "ds-1", K: 2, WindowHours: -1},
		{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: 3},
		{DatasetID: "d", K: 2, WindowHours: 1, Follow: true, FollowWindows: -1},
		{DatasetID: "d", K: 2, FollowWindows: 3},
		{DatasetID: "d", K: 2, Follow: true},
		{DatasetID: "d", K: 2, SuppressKm: math.NaN()},
		{DatasetID: "d", K: 2, SuppressMin: math.NaN()},
		{DatasetID: "d", K: 2, SuppressKm: math.Inf(1)},
		{DatasetID: "d", K: 2, SuppressMin: math.Inf(-1)},
		{DatasetID: "d", K: 2, SuppressKm: 1e300, SuppressMin: 1e300},
		{DatasetID: "d", K: 2, WindowHours: math.NaN()},
		{DatasetID: "d", K: 2, WindowHours: math.Inf(1)},
		{DatasetID: "d", K: 2, WindowHours: math.Inf(-1)},
		{DatasetID: "d", K: 2, WindowHours: 1e300},
		{DatasetID: "d", K: 2, WindowHours: 2.6e6},
		{DatasetID: "d", K: 2, WindowHours: 1e-300},
	}
	for _, s := range seeds {
		f.Add(s.DatasetID, s.K, s.SuppressKm, s.SuppressMin, s.Shards, s.Workers,
			s.WindowHours, s.Follow, s.FollowWindows)
	}

	f.Fuzz(func(t *testing.T, id string, k int, supKm, supMin float64, shards, workers int,
		windowHours float64, follow bool, followWindows int) {
		spec := JobSpec{
			DatasetID: id, K: k, SuppressKm: supKm, SuppressMin: supMin,
			Shards: shards, Workers: workers,
			WindowHours: windowHours, Follow: follow, FollowWindows: followWindows,
		}
		if spec.Validate() != nil {
			return
		}
		if math.IsNaN(supKm) || math.IsInf(supKm, 0) || math.IsNaN(supMin) || math.IsInf(supMin, 0) {
			t.Fatalf("accepted spec %+v has non-finite suppression thresholds", spec)
		}
		if windowHours > 0 && spec.WindowDuration() <= 0 {
			t.Fatalf("accepted spec %+v has window duration %v", spec, spec.WindowDuration())
		}
		if k > math.MaxInt/2-1 {
			return // no dataset size reaches 2k
		}
		opt := anonymizeOptions(spec, 0, nil)
		for _, n := range []int{
			2 * k, 2*k + 1,
			core.DenseIndexMaxN, core.DenseIndexMaxN + 1,
			core.DefaultChunkSize + 1, core.SingleRunMaxN, core.SingleRunMaxN + 1,
		} {
			if n < 2*k {
				continue
			}
			if _, err := core.PlanFor(n, opt); err != nil {
				t.Fatalf("accepted spec %+v fails to plan n=%d: %v", spec, n, err)
			}
		}
	})
}

// FuzzJournalEntryDecode pins the journal's frame decoders against
// hostile payloads: replay decodes any payload, as a snapshot or as a
// record, or returns an error, and never panics, even when a header
// length runs past the payload; and every entry decodeEntry returns
// re-encodes, in the raw layout, to a frame that decodes back to the
// same entry and body.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzJournalEntryDecode -fuzztime 30s ./internal/service/
func FuzzJournalEntryDecode(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	spec := JobSpec{DatasetID: "ds-000001", K: 2, WindowHours: 24}
	status := api.JobStatus{ID: "job-000001", State: JobDone, CreatedAt: at}
	csv := []byte("user,lat,lon,minute\na,7.5,-5.5,10\n")
	for _, e := range []journalEntry{
		{Kind: jeDatasetCreate, ID: "ds-000001", Name: "feed", At: at, Center: &center, SpanDays: 7, body: csv},
		{Kind: jeDatasetAppend, ID: "ds-000001", At: at, body: csv},
		{Kind: jeDatasetDelete, ID: "ds-000001"},
		{Kind: jeJobSubmit, ID: "job-000001", Spec: &spec, At: at},
		{Kind: jeJobResult, ID: "job-000001", Window: &journalWindow{Index: 3, Groups: 2}, body: []byte("group,count\n")},
		{Kind: jeJobResult, ID: "job-000001", Window: &journalWindow{Index: 4, Empty: true}},
		{Kind: jeJobStatus, ID: "job-000001", Status: &status, Events: []api.JobEvent{{Seq: 1, Type: api.EventState}}},
		{Kind: jeCleanShutdown},
	} {
		hdr, err := encodeEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		frame := append(hdr, e.body...)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	snapHdr, snapBody, err := encodeSnapshot(&RecoveredState{DatasetSeq: 1,
		Datasets: []*RecoveredDataset{{ID: "ds-000001", Center: center, SpanDays: 1, Ops: [][]byte{csv, csv}}},
		Jobs:     []*RecoveredJob{{ID: "job-000001", Results: []RecoveredResult{{CSV: csv}, {Window: journalWindow{Empty: true}}}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(snapHdr, snapBody...))
	f.Add(append(snapHdr, snapBody[:len(snapBody)-1]...))
	for _, seed := range []string{
		"",
		"\x01",
		"\x01\x05{}",
		"\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01{}",
		"\x01\x02{}body",
		"\x02\x02{}",
		`{"kind":"ds_create","id":"ds-000001","center":{"Lat":1,"Lon":2},"csv":"dXNlcg=="}`,
		`{"kind":"job_event","id":"job-000001","event":{"seq":2}}`,
		`{"kind":"ds_append","csv":"!!"}`,
		`{"datasets":[null],"jobs":[null]}`,
		"\x01\x18{\"datasets\":[{}],\"jobs\":[]}\x05",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		replayJournal(&wal.Recovery{Snapshot: payload, Records: [][]byte{payload}})
		replayJournal(&wal.Recovery{Records: [][]byte{payload}})
		e, err := decodeEntry(payload)
		if err != nil {
			return
		}
		hdr, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		back, err := decodeEntry(append(hdr, e.body...))
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if got, want := mustJSON(t, back), mustJSON(t, e); !bytes.Equal(got, want) || !bytes.Equal(back.body, e.body) {
			t.Fatalf("entry round-trips as %s body %q, want %s body %q", got, back.body, want, e.body)
		}
	})
}
