package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cdr"
	"repro/internal/geo"
	"repro/internal/synth"
	"repro/internal/wal"
)

// dailyFeed renders a users-subscriber CIV feed of days days as one
// record CSV per day, the chunks a daily operator feed sends: the first
// creates the dataset, the rest are appended.
func dailyFeed(t testing.TB, users, days int) [][]byte {
	t.Helper()
	table := synthTable(t, users, days)
	wins, err := table.SplitByWindow(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, w := range wins {
		var buf bytes.Buffer
		if err := cdr.WriteCSV(&buf, w.Table); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// ingestFeed creates a dataset from the feed's first chunk and appends
// the rest, each body a *bytes.Reader that reports its size the way an
// HTTP body reports its Content-Length.
func ingestFeed(t testing.TB, reg *Registry, feed [][]byte) DatasetInfo {
	t.Helper()
	info, err := reg.Ingest(bytes.NewReader(feed[0]), "feed", synth.CIV(1).Center, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range feed[1:] {
		if info, err = reg.Append(info.ID, bytes.NewReader(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	return info
}

// BenchmarkRegistryAppend measures the journaled ingest path a daily
// feed pays, fsync on: a 250-subscriber CIV dataset created from its
// first day, then six daily appends. alloc/payload is the bytes
// allocated per byte of CSV ingested.
func BenchmarkRegistryAppend(b *testing.B) {
	feed := dailyFeed(b, 250, 7)
	payload := 0
	for _, chunk := range feed {
		payload += len(chunk)
	}
	dir := b.TempDir()
	var ms runtime.MemStats
	var allocated uint64
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jdir := filepath.Join(dir, "journal")
		os.RemoveAll(jdir)
		jrnl, _, err := OpenJournal(jdir, true, nil)
		if err != nil {
			b.Fatal(err)
		}
		reg := NewRegistry()
		reg.AttachJournal(jrnl)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()

		ingestFeed(b, reg, feed)

		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
		reg.Close()
		jrnl.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(allocated)/float64(b.N)/float64(payload), "alloc/payload")
}

// BenchmarkJournalReplay measures a boot of a journal holding a
// seven-day feed (a create and six appends): OpenJournal's replay and
// boot compaction, then Registry.Restore re-ingesting every chunk.
func BenchmarkJournalReplay(b *testing.B) {
	feed := dailyFeed(b, 250, 7)
	src := filepath.Join(b.TempDir(), "src")
	jrnl, _, err := OpenJournal(src, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	reg.AttachJournal(jrnl)
	want := ingestFeed(b, reg, feed)
	reg.Close()
	jrnl.Close()
	segs, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		b.Fatalf("no journal segment (%v)", err)
	}
	var size int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "boot")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		jl, st, err := OpenJournal(dir, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		reg := NewRegistry()
		if err := reg.Restore(st); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if got, ok := reg.Get(want.ID); !ok || got.Records != want.Records {
			b.Fatalf("restored %+v, want %d records", got, want.Records)
		}
		reg.Close()
		jl.Close()
		b.StartTimer()
	}
}

// FuzzRegistryIngest drives hostile bodies through the journaled create
// and append paths, the record scanner and the presized journal tee
// included. An accepted body journals one frame whose body is exactly
// the request's bytes, and a replay of the journal restores the record
// count the registry reports; a rejected body journals nothing, bumps
// no version and leaves no record behind, staged or published.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzRegistryIngest -fuzztime 30s ./internal/service/
func FuzzRegistryIngest(f *testing.F) {
	for _, seed := range [][2]string{
		{windowCSV(0, "a", "b"), windowCSV(1, "a", "c")},
		{windowCSV(0, "a"), "user,lat,lon,minute\r\n\r\n\"b,c\",7.5,-5.5,70\r\nd,7.5,-5.5,71"},
		{windowCSV(0, "a"), "user,lat,lon,minute\n"},
		{windowCSV(0, "a"), "user,lat,lon,minute\nb,7.5,-5.5,70\nc,7.5,-5.5\n"},
		{windowCSV(0, "a"), "user,lat,lon,minute\nb,7.5,-5.5,NaN\n"},
		{windowCSV(0, "a"), "user,lat,lon,minute\nb\",7.5,-5.5,70\n"},
		{"", windowCSV(1, "a")},
		{"user,lat,lon,minute\n\"a\nb\",7.5,-5.5,1\n", "nope"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	center := geo.LatLon{Lat: 7.54, Lon: -5.55}
	f.Fuzz(func(t *testing.T, create, add []byte) {
		dir := t.TempDir()
		jrnl, _, err := OpenJournal(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		defer reg.Close()
		reg.AttachJournal(jrnl)
		frames := func() []wal.Frame {
			_, _, fr, _ := lastSegment(t, dir)
			return fr
		}
		// lastBody checks that the journal grew by one frame of the
		// given kind and returns its body.
		lastBody := func(before int, kind journalKind) []byte {
			fr := frames()
			if len(fr) != before+1 {
				t.Fatalf("accepted %s journaled %d frames", kind, len(fr)-before)
			}
			e := frameEntry(t, fr[len(fr)-1])
			if e.Kind != kind {
				t.Fatalf("accepted %s journaled a %s frame", kind, e.Kind)
			}
			return e.body
		}

		n := len(frames())
		info, err := reg.Ingest(bytes.NewReader(create), "feed", center, 1)
		if err != nil {
			if got := len(frames()); got != n || len(reg.List()) != 0 {
				t.Fatalf("rejected create (%v) left %d frames and datasets %v", err, got-n, reg.List())
			}
			jrnl.Close()
			return
		}
		if body := lastBody(n, jeDatasetCreate); !bytes.Equal(body, create) {
			t.Fatalf("create journaled %q, the request was %q", body, create)
		}

		n = len(frames())
		after, err := reg.Append(info.ID, bytes.NewReader(add))
		if err != nil {
			if got := len(frames()); got != n {
				t.Fatalf("rejected append (%v) journaled %d frames", err, got-n)
			}
			// A staged record left behind would surface in the next
			// append's count.
			if after, err = reg.Append(info.ID, strings.NewReader(windowCSV(2, "z"))); err != nil {
				t.Fatal(err)
			}
			if after.Records != info.Records+1 || after.Version != info.Version+1 {
				t.Fatalf("after a rejected append, a one-record append made %+v from %+v", after, info)
			}
		} else if body := lastBody(n, jeDatasetAppend); !bytes.Equal(body, add) {
			t.Fatalf("append journaled %q, the request was %q", body, add)
		}
		src, _, _ := reg.SnapshotSource(info.ID)
		if src.NumRecords() != after.Records {
			t.Fatalf("dataset view holds %d records, its info %d", src.NumRecords(), after.Records)
		}
		jrnl.Close()

		jrnl, st, err := OpenJournal(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer jrnl.Close()
		replayed := NewRegistry()
		defer replayed.Close()
		if err := replayed.Restore(st); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if got, ok := replayed.Get(info.ID); !ok || got.Records != after.Records || got.Version != after.Version {
			t.Fatalf("replay restored %+v, want %d records at version %d", got, after.Records, after.Version)
		}
	})
}

// A client that declares a Content-Length far above both its body and
// MaxIngestBytes, then ends the body early, gets a clean envelope error,
// and the journal tee is presized to the clamp, not to the declared
// length. With no MaxIngestBytes the clamp is maxIngestSizeHint; an
// honest Content-Length presizes the tee to the body.
func TestIngestDeclaredLengthClamped(t *testing.T) {
	const declared = 1 << 40
	body := windowCSV(0, "a", "b")
	for _, tc := range []struct {
		name      string
		maxBytes  int64
		declared  int64
		status    int
		teeCap    int
		path      func(ds string) string
		wantCode  api.Code
		truncated bool
	}{
		{"create capped", 4096, declared, http.StatusBadRequest, 4096, nil, api.CodeInvalidArgument, true},
		{"append capped", 4096, declared, http.StatusBadRequest, 4096, func(ds string) string { return "/v1/datasets/" + ds + "/records" }, api.CodeInvalidArgument, true},
		{"create uncapped", 0, declared, http.StatusBadRequest, maxIngestSizeHint, nil, api.CodeInvalidArgument, true},
		{"create honest", 0, int64(len(body)), http.StatusCreated, len(body), nil, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The server waits a moment before closing a connection
			// whose body it did not read to the end.
			t.Parallel()
			jrnl, _, err := OpenJournal(t.TempDir(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer jrnl.Close()
			reg := NewRegistry()
			mgr := NewManager(reg, ManagerOptions{Journal: jrnl})
			defer mgr.Close()
			reg.AttachJournal(jrnl)
			h := NewServer(reg, mgr)
			h.MaxIngestBytes = tc.maxBytes
			srv := httptest.NewServer(h)
			defer srv.Close()

			path := "/v1/datasets?days=1"
			if tc.path != nil {
				ds, err := reg.Ingest(strings.NewReader(body), "feed", geo.LatLon{Lat: 7.54, Lon: -5.55}, 1)
				if err != nil {
					t.Fatal(err)
				}
				path = tc.path(ds.ID)
			}
			var tees []int
			reg.onTee = func(n int) { tees = append(tees, n) }

			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: gloved\r\nContent-Type: text/csv\r\nContent-Length: %d\r\n\r\n%s", path, tc.declared, body)
			if tc.truncated {
				// The body ends here, far short of its declared length.
				conn.(*net.TCPConn).CloseWrite()
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.wantCode != "" {
				var envelope api.Error
				if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
					t.Fatalf("body is not the envelope: %v", err)
				}
				if envelope.Code != tc.wantCode {
					t.Errorf("code %q (%s), want %q", envelope.Code, envelope.Message, tc.wantCode)
				}
			}
			if len(tees) != 1 || tees[0] != tc.teeCap {
				t.Errorf("journal tees presized to %v, want one of %d bytes", tees, tc.teeCap)
			}
		})
	}
}
