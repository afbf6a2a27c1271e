package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/version"
)

// run starts the daemon and blocks until ctx is cancelled (SIGINT /
// SIGTERM) or the listener fails. Extracted from main for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gloved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxJobs     = fs.Int("max-jobs", 1, "jobs executed concurrently")
		queueLimit  = fs.Int("queue-limit", 256, "queued job limit")
		workers     = fs.Int("workers", 0, "per-job worker count (0 = all CPUs)")
		maxRecords  = fs.Int("max-records", 0, "per-dataset record limit (0 = unlimited)")
		colBudget   = fs.Int64("columnar-budget-mb", 0, "resident column bytes per dataset, in MiB; overflow spills to disk (0 = unbounded)")
		colSpillDir = fs.String("columnar-spill-dir", "", "directory for columnar spill files (empty = system temp)")
		maxBody     = fs.Int64("max-body-bytes", 0, "per-ingestion body byte limit (0 = unlimited)")
		analysisCap = fs.Int("analysis-cap", 2000, "max input fingerprints for the k-gap analysis pass")
		followMaxW  = fs.Int("follow-max-windows", 0, "daemon-wide cap on windows a follow job may commit (0 = unbounded)")
		retainJobs  = fs.Int("retain-jobs", 64, "finished jobs retained in memory, oldest evicted first (0 = unlimited)")
		retainAge   = fs.Duration("retain-age", 0, "evict finished jobs older than this (0 = no age bound)")
		accessLog   = fs.Bool("access-log", true, "log one structured record per request to stderr")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
		pprofAddr   = fs.String("pprof", "", "mount net/http/pprof on this private listen address (empty = disabled)")
		routeTO     = fs.Duration("route-timeout", service.DefaultRouteTimeout, "processing budget of the quick JSON routes (0 = unlimited; streaming routes are never bounded)")
		dataDir     = fs.String("data-dir", "", "directory for the write-ahead journal; datasets, jobs, and committed releases survive restarts (empty = fully in-memory)")
		fsync       = fs.Bool("fsync", true, "fsync journal commits before acknowledging mutations (with -data-dir)")
		drainTO     = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs before they are cancelled")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("gloved"))
		return nil
	}
	if *followMaxW < 0 {
		return fmt.Errorf("gloved: -follow-max-windows %d is negative", *followMaxW)
	}
	if *retainAge < 0 {
		return fmt.Errorf("gloved: -retain-age %v is negative", *retainAge)
	}
	if *routeTO < 0 {
		return fmt.Errorf("gloved: -route-timeout %v is negative", *routeTO)
	}
	if *colBudget < 0 {
		return fmt.Errorf("gloved: -columnar-budget-mb %d is negative", *colBudget)
	}
	if *drainTO < 0 {
		return fmt.Errorf("gloved: -drain-timeout %v is negative", *drainTO)
	}
	// In ManagerOptions, 0 finished jobs means "use the default"; the
	// operator-facing spelling for unlimited is 0 (or below).
	maxFinished := *retainJobs
	if maxFinished <= 0 {
		maxFinished = -1
	}

	// One slog logger backs the request log and the manager's job
	// lifecycle records, so job_id/request_id correlation lands in a
	// single stream.
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	default:
		return fmt.Errorf("gloved: -log-format %q, need text or json", *logFormat)
	}

	// The journal is opened (and replayed) before anything else exists:
	// its recovered state seeds the registry and the manager below.
	tel := service.NewTelemetry()
	var jrnl *service.Journal
	var recovered *service.RecoveredState
	spillDir := *colSpillDir
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fmt.Errorf("gloved: -data-dir: %w", err)
		}
		var err error
		jrnl, recovered, err = service.OpenJournal(*dataDir, *fsync, tel)
		if err != nil {
			return fmt.Errorf("gloved: opening journal: %w", err)
		}
		defer jrnl.Close()
		if spillDir == "" {
			// Keep columnar spill next to the journal instead of the
			// system temp dir, so one -data-dir owns all daemon state.
			spillDir = filepath.Join(*dataDir, "spill")
		}
	}

	reg := service.NewRegistry()
	reg.MaxRecords = *maxRecords
	reg.ColumnarByteBudget = *colBudget << 20
	reg.ColumnarSpillDir = spillDir
	// Deferred before mgr.Close so the spill files outlive job shutdown.
	defer reg.Close()
	if recovered != nil {
		if err := reg.Restore(recovered); err != nil {
			return fmt.Errorf("gloved: %w", err)
		}
	}
	mgr := service.NewManager(reg, service.ManagerOptions{
		MaxConcurrentJobs:       *maxJobs,
		QueueLimit:              *queueLimit,
		Workers:                 *workers,
		AnalysisMaxFingerprints: *analysisCap,
		MaxFinishedJobs:         maxFinished,
		MaxFinishedAge:          *retainAge,
		MaxFollowWindows:        *followMaxW,
		Telemetry:               tel,
		Log:                     logger,
		Journal:                 jrnl,
	})
	defer mgr.Close()
	if recovered != nil {
		// Requeued jobs may start executing the moment they are enqueued.
		if err := mgr.Restore(recovered); err != nil {
			return fmt.Errorf("gloved: %w", err)
		}
	}
	// Attach last: the restore above replays journaled CSV through the
	// normal ingest paths, which must not re-journal it.
	reg.AttachJournal(jrnl)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := service.NewServer(reg, mgr)
	handler.MaxIngestBytes = *maxBody
	if *accessLog {
		handler.Log = logger
	}
	// The operator-facing spelling for "no budget" is 0; the Server's
	// is negative (its 0 means the default).
	handler.RouteTimeout = *routeTO
	if *routeTO == 0 {
		handler.RouteTimeout = -1
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(stderr, "gloved: %s listening on %s\n", version.Version, ln.Addr())

	// The profiling listener is private and separate from the API
	// address: pprof exposes heap contents and must never ride on the
	// public port.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("gloved: -pprof: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		defer psrv.Close()
		go psrv.Serve(pln)
		fmt.Fprintf(stderr, "gloved: pprof listening on %s\n", pln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain, in dependency order: stop accepting connections
	// and let in-flight requests finish; stop admitting jobs and give
	// running ones the drain budget; then checkpoint the journal and
	// append the clean-shutdown marker. The deferred mgr.Close cancels
	// whatever outlived the budget (suppressed from the journal, so the
	// next boot requeues it).
	fmt.Fprintln(stderr, "gloved: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed
	mgr.Drain(*drainTO)
	if jrnl != nil {
		if err := jrnl.Checkpoint(reg, mgr); err != nil {
			fmt.Fprintf(stderr, "gloved: journal checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintln(stderr, "gloved: journal checkpointed, shutdown clean")
		}
	}
	return nil
}
