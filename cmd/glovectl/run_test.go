package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/synth"
)

// writeTestCSV generates a small synthetic dataset and writes it to a
// temp CSV, returning its path.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	cfg := synth.CIV(30)
	cfg.Days = 3
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cdr.WriteCSV(f, table); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	in := writeTestCSV(t)
	out := filepath.Join(t.TempDir(), "anon.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-in", in, "-days", "3", "-k", "2", "-out", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "group,count,") {
		t.Errorf("output header wrong: %.60s", data)
	}
	if !strings.Contains(stderr.String(), "2-anonymized") {
		t.Errorf("missing diagnostics: %s", stderr.String())
	}
	// Every published group hides >= 2 users.
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		fields := strings.Split(line, ",")
		if fields[1] == "0" || fields[1] == "1" {
			t.Fatalf("group with count %s published", fields[1])
		}
	}
}

func TestRunToStdout(t *testing.T) {
	in := writeTestCSV(t)
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-in", in, "-days", "3"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "group,count,") {
		t.Error("stdout missing CSV")
	}
}

func TestRunWithSuppression(t *testing.T) {
	in := writeTestCSV(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-in", in, "-days", "3", "-suppress-km", "15", "-suppress-min", "360"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "suppressed") {
		t.Error("missing suppression report")
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{}, &stdout, &stderr); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(context.Background(), []string{"-in", "/nonexistent/file.csv"}, &stdout, &stderr); err == nil {
		t.Error("nonexistent input accepted")
	}
	in := writeTestCSV(t)
	if err := run(context.Background(), []string{"-in", in, "-k", "1"}, &stdout, &stderr); err == nil {
		t.Error("k=1 accepted")
	}
	if err := run(context.Background(), []string{"-in", in, "-lat", "400"}, &stdout, &stderr); err == nil {
		t.Error("invalid projection center accepted")
	}
	if err := run(context.Background(), []string{"-bogus-flag"}, &stdout, &stderr); err == nil {
		t.Error("bogus flag accepted")
	}
	// Malformed CSV content.
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,valid,header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-in", bad}, &stdout, &stderr); err == nil {
		t.Error("malformed CSV accepted")
	}
}

func TestRunVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "glovectl ") {
		t.Errorf("version output %q", stdout.String())
	}
}

// TestRunCancelled interrupts the run via context (the SIGINT path) and
// checks that no partial -out file is left behind.
func TestRunCancelled(t *testing.T) {
	in := writeTestCSV(t)
	out := filepath.Join(t.TempDir(), "anon.csv")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"-in", in, "-days", "3", "-out", out}, &stdout, &stderr)
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("err = %v, want interruption message", err)
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Errorf("partial output file left behind: %v", serr)
	}
	if _, serr := os.Stat(out + ".tmp"); !os.IsNotExist(serr) {
		t.Errorf("temporary output file left behind: %v", serr)
	}
}

// TestRunGoldenDigests pins the SHA-256 of every file glovectl publishes
// for the writeTestCSV input — batch, windowed, an explicit chunked
// plan over the sparse index, and suppression — to the bytes the
// single-table engine run published before local mode became the
// in-process service pipeline. A change to any release byte, in the
// engine or the service, fails here.
func TestRunGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests were taken on amd64; other architectures may fuse
		// floating-point multiply-adds and round positions differently.
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	in := writeTestCSV(t)
	for _, tc := range []struct {
		name string
		args []string
		want map[string]string // output file -> SHA-256
	}{
		{"batch", []string{"-k", "2"}, map[string]string{
			"anon.csv": "50aa76a9ca41f08f48b65da1084a75f530811cdb3bae5ec28e555cd398486586",
		}},
		{"window", []string{"-k", "2", "-window", "24"}, map[string]string{
			"anon.w0.csv": "48e3525e4b76f044703183cc21cd36bc90170a7c955073e24c66ab4dc3d62f89",
			"anon.w1.csv": "9acddde31dc20085eb9357e26d73673cef0bdd4f169b5e895d6ee3aa852198d1",
			"anon.w2.csv": "a27833e943d1a731cc647bf69cd3843f922cd121fd06bf7cb8c463da50525c68",
		}},
		{"suppression", []string{"-k", "2", "-suppress-km", "5", "-suppress-min", "120"}, map[string]string{
			"anon.csv": "780877971143702bb7a5f6cbe5911b32b72cbf0248332d10cf9383b7183deaa8",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-in", in, "-days", "3", "-out", filepath.Join(dir, "anon.csv")}, tc.args...)
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
			}
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != len(tc.want) {
				t.Errorf("wrote %d files, want %d: %v", len(files), len(tc.want), files)
			}
			for name, want := range tc.want {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: sha256 %s, want %s", name, got, want)
				}
			}
		})
	}
}

// -trace needs no -server: local mode records the span tree in its
// in-process daemon and prints it like remote mode does.
func TestRunTraceLocal(t *testing.T) {
	in := writeTestCSV(t)
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-in", in, "-days", "3", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"trace of job-", "  job ", "    plan ", "    shard ", "    validate ", "    analysis "} {
		if !strings.Contains(log, want) {
			t.Errorf("trace output missing %q:\n%s", want, log)
		}
	}
	if !strings.HasPrefix(stdout.String(), "group,count,") {
		t.Error("stdout missing CSV")
	}
}
