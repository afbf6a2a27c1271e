package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opt Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec = openT(t, dir, Options{})
	if rec.TornTail {
		t.Fatal("unexpected torn tail")
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestTornTailTruncatedAndReported(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("keep-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Append a frame header that promises more bytes than follow — the
	// shape a crash mid-write leaves behind.
	path := segFiles(t, dir)[0]
	full := AppendFrame(nil, KindRecord, []byte("never finished"))
	torn := full[:len(full)-5]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	before, _ := os.Stat(path)

	l, rec := openT(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.TornBytes != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", rec.TornBytes, len(torn))
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d records, want 5", len(rec.Records))
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}

	// The journal must accept appends after truncation and replay them.
	if err := l.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec = openT(t, dir, Options{})
	if rec.TornTail || len(rec.Records) != 6 || string(rec.Records[5]) != "after-tear" {
		t.Fatalf("post-tear append lost: torn=%v n=%d", rec.TornTail, len(rec.Records))
	}
}

func TestTornHeaderOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	l.Append([]byte("x"))
	l.Close()
	path := segFiles(t, dir)[0]
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{7, 0, 0}) // 3 bytes of an 8-byte header
	f.Close()
	_, rec := openT(t, dir, Options{})
	if !rec.TornTail || rec.TornBytes != 3 || len(rec.Records) != 1 {
		t.Fatalf("bad recovery: %+v", rec)
	}
}

func TestInteriorCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	l.Append([]byte("first-record-payload"))
	l.Append([]byte("second-record-payload"))
	l.Close()
	path := segFiles(t, dir)[0]
	data, _ := os.ReadFile(path)
	data[12] ^= 0xff // inside the first frame's payload
	os.WriteFile(path, data, 0o644)
	_, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestZeroLengthFrameIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, segName(1)), make([]byte, 16), 0o644)
	_, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// Rotation must trigger exactly when a segment reaches SegmentBytes —
// the frame that lands exactly on the boundary closes the segment, one
// byte short does not.
func TestSegmentRotationExactBoundary(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 23)
	frameLen := len(AppendFrame(nil, KindRecord, payload))

	t.Run("exact", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{SegmentBytes: int64(2 * frameLen)})
		l.Append(payload)
		if n := len(segFiles(t, dir)); n != 1 {
			t.Fatalf("rotated early: %d segments", n)
		}
		l.Append(payload) // lands exactly at SegmentBytes
		if n := len(segFiles(t, dir)); n != 2 {
			t.Fatalf("no rotation at exact boundary: %d segments", n)
		}
		l.Append(payload)
		l.Close()
		_, rec := openT(t, dir, Options{SegmentBytes: int64(2 * frameLen)})
		if len(rec.Records) != 3 {
			t.Fatalf("replay across rotation lost records: %d", len(rec.Records))
		}
	})

	t.Run("one-byte-short", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{SegmentBytes: int64(2*frameLen) + 1})
		l.Append(payload)
		l.Append(payload)
		if n := len(segFiles(t, dir)); n != 1 {
			t.Fatalf("rotated one byte early: %d segments", n)
		}
		l.Close()
	})
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		l.Append([]byte(fmt.Sprintf("pre-compact-%02d", i)))
	}
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("want multiple segments before compact, got %d", n)
	}
	if err := l.Compact([]byte("snapshot-state")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("old segments survive compaction: %d files", n)
	}
	l.Append([]byte("post-compact"))
	l.Close()

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "snapshot-state" {
		t.Fatalf("Snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "post-compact" {
		t.Fatalf("post-compact records = %q", rec.Records)
	}
	segs, bytes := l.Size()
	_ = segs
	_ = bytes
}

// A snapshot-led segment is the replay base even when older segments
// still exist on disk (a crash between Compact's fsync and its
// deletes).
func TestReplayPicksNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	l.Append([]byte("old"))
	l.Close()
	// Hand-write a later snapshot-led segment, leaving segment 1 behind.
	frame := AppendFrame(nil, KindSnapshot, []byte("snap"))
	frame = AppendFrame(frame, KindRecord, []byte("new"))
	os.WriteFile(filepath.Join(dir, segName(2)), frame, 0o644)

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "snap" || len(rec.Records) != 1 || string(rec.Records[0]) != "new" {
		t.Fatalf("replay = snapshot %q records %q", rec.Snapshot, rec.Records)
	}
}

// Concurrent committers share fsyncs: every Commit succeeds, the data
// replays, and at least one fsync was observed.
func TestGroupCommitFsync(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	syncs := 0
	l, _ := openT(t, dir, Options{Fsync: true, OnSync: func(time.Duration) {
		mu.Lock()
		syncs++
		mu.Unlock()
	}})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}
	l.Close()
	mu.Lock()
	if syncs == 0 {
		t.Fatal("no fsync observed")
	}
	mu.Unlock()
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), writers*per)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 256)
	for _, fsync := range []bool{false, true} {
		b.Run(fmt.Sprintf("fsync=%v", fsync), func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{Fsync: fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
				if err := l.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// failingFile is a segment file whose nth write stores only half its
// bytes and fails, the way a full disk or an I/O error leaves a segment.
type failingFile struct {
	*os.File
	writes, failAt int
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// A failed or short write poisons the log: the append that hit it
// fails, and so does every later append and commit, so no frame is
// ever written behind the partial one. A reopen then sees at most a
// torn tail, never interior corruption.
func TestFailedWritePoisonsLog(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Fsync: fsync})
			// Each append is two writes, its header and its body: the
			// fourth write is the second append's body.
			l.f = &failingFile{File: l.f.(*os.File), failAt: 4}
			if err := l.Append([]byte("first")); err != nil {
				t.Fatal(err)
			}
			body := bytes.Repeat([]byte("b"), 1<<13)
			if err := l.Append([]byte("head"), body); err == nil {
				t.Fatal("append over a failed write succeeded")
			}
			for i := 0; i < 3; i++ {
				if err := l.Append([]byte("later")); err == nil {
					t.Fatal("append after a failed write succeeded")
				}
				if err := l.Commit(); err == nil {
					t.Fatal("commit after a failed write succeeded")
				}
			}
			if err := l.Compact([]byte("snap")); err == nil {
				t.Fatal("compaction after a failed write succeeded")
			}
			l.Close()

			_, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after a failed write: %v", err)
			}
			if len(rec.Records) != 1 || string(rec.Records[0]) != "first" {
				t.Fatalf("replayed %q, want only the frame before the failure", rec.Records)
			}
		})
	}
}

// A payload handed over in parts is one frame: it replays as the
// concatenation, and its bytes on disk equal AppendFrame's encoding.
func TestAppendPartsIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	big := bytes.Repeat([]byte("x"), 1<<13)
	parts := [][]byte{[]byte("hdr"), nil, big, []byte("tail"), big}
	if err := l.Append(parts...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	want := bytes.Join(parts, nil)
	data, err := os.ReadFile(segFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, AppendFrame(nil, KindRecord, want)) {
		t.Fatal("multi-part frame differs from its joined encoding")
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], want) {
		t.Fatalf("replayed %d records", len(rec.Records))
	}
}
