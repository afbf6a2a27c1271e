package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/service"
	"repro/internal/version"
)

// run executes glovectl with the given arguments, writing the anonymized
// CSV to stdout (or -out) and diagnostics to stderr. Without -server it
// serves the daemon's pipeline in process and drives it exactly as
// remote mode drives a resident gloved. A cancelled ctx (SIGINT) aborts
// the GLOVE run and leaves no partial output file. Extracted from main
// for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("glovectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("in", "", "input CSV of raw records (required)")
		lat         = fs.Float64("lat", 7.54, "projection center latitude")
		lon         = fs.Float64("lon", -5.55, "projection center longitude")
		days        = fs.Int("days", 14, "recording period in days")
		k           = fs.Int("k", 2, "anonymity level (>= 2)")
		suppressKm  = fs.Float64("suppress-km", 0, "suppress samples wider than this many km (0 = off)")
		suppressMin = fs.Float64("suppress-min", 0, "suppress samples longer than this many minutes (0 = off)")
		out         = fs.String("out", "", "output CSV path for the anonymized dataset (default stdout)")
		workers     = fs.Int("workers", 0, "worker count (0 = all CPUs)")
		window      = fs.Float64("window", 0, "continuous release: anonymize per time window of this many hours (0 = one batch release; requires -out)")
		follow      = fs.Bool("follow", false, "streaming mode: subscribe to the dataset's appends and download each window release as the feed closes it (requires -server and -window)")
		followWin   = fs.Int("follow-windows", 0, "stop -follow after this many committed window releases (0 = run until interrupted)")
		datasetID   = fs.String("dataset", "", "remote mode: run against this existing dataset on the daemon instead of ingesting -in (requires -server)")
		server      = fs.String("server", "", "remote mode: drive a resident gloved at this base URL (e.g. http://localhost:8080) instead of a private in-process one")
		trace       = fs.Bool("trace", false, "print the job's span tree after it finishes")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("glovectl"))
		return nil
	}
	if *in == "" && *datasetID == "" {
		fs.Usage()
		return fmt.Errorf("glovectl: -in is required")
	}
	if *window < 0 {
		return fmt.Errorf("glovectl: -window %g is negative", *window)
	}
	if *window > 0 && *out == "" {
		return fmt.Errorf("glovectl: -window needs -out (one CSV per window release)")
	}

	if *datasetID != "" && *server == "" {
		return fmt.Errorf("glovectl: -dataset needs -server (it names a dataset resident on the daemon)")
	}
	if *follow && *server == "" {
		return fmt.Errorf("glovectl: -follow needs -server (only a resident daemon can watch a feed for appends)")
	}
	if *follow && *window <= 0 {
		return fmt.Errorf("glovectl: -follow needs -window (the release cadence of the stream)")
	}
	if *followWin < 0 {
		return fmt.Errorf("glovectl: -follow-windows %d is negative", *followWin)
	}
	if *followWin > 0 && !*follow {
		return fmt.Errorf("glovectl: -follow-windows needs -follow")
	}
	if *server == "" {
		base, stop, err := serveInProcess()
		if err != nil {
			return err
		}
		defer stop()
		*server = base
	}
	return runRemote(ctx, *server, remoteJob{
		in: *in, lat: *lat, lon: *lon, days: *days,
		k: *k, suppressKm: *suppressKm, suppressMin: *suppressMin,
		workers: *workers, window: *window, out: *out, trace: *trace,
		follow: *follow, followWindows: *followWin, dataset: *datasetID,
	}, stdout, stderr)
}

// serveInProcess starts the gloved service pipeline — registry, job
// manager and HTTP surface — on a loopback listener, so local mode is
// remote mode against a private daemon and publishes exactly what a
// resident gloved would. The measurement of each release is uncapped: a
// local run reports the k-gap fraction and cross-window linkage at any
// window size, as a single-user command can afford the quadratic pass.
// stop shuts
// the listener and the manager down.
func serveInProcess() (base string, stop func(), err error) {
	reg := service.NewRegistry()
	mgr := service.NewManager(reg, service.ManagerOptions{AnalysisMaxFingerprints: math.MaxInt})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: service.NewServer(reg, mgr)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-served
		mgr.Close()
	}, nil
}

// windowOutPath derives the per-window output path: "anon.csv" with
// window 3 becomes "anon.w3.csv".
func windowOutPath(out string, index int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.w%d%s", strings.TrimSuffix(out, ext), index, ext)
}

// writeBytesAtomic writes a downloaded release to path via a temporary
// sibling file and a rename, so an interrupted or failed run never
// leaves a truncated output behind.
func writeBytesAtomic(path string, raw []byte) error {
	tmp := path + ".tmp"
	of, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := of.Write(raw); err != nil {
		of.Close()
		os.Remove(tmp)
		return err
	}
	if err := of.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
