package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "gloved ") {
		t.Errorf("version output %q", stdout.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:0"}, &stdout, &stderr); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run(context.Background(), []string{"-retain-age", "-1s"}, &stdout, &stderr); err == nil {
		t.Error("negative -retain-age accepted")
	}
}

// TestRunServeAndShutdown boots the daemon on an ephemeral port, checks
// the health endpoint, and verifies that cancelling the context shuts
// it down cleanly — the same path a SIGINT takes.
func TestRunServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout bytes.Buffer
	stderr := &syncBuffer{}

	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &stdout, stderr) }()

	// Wait for the "listening on" line to learn the port.
	re := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never started: %q", stderr.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// syncBuffer is a bytes.Buffer safe for concurrent use (the daemon
// goroutine logs while the test polls).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
