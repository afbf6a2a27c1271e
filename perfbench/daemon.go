package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/pkg/client"
)

// childProcs pins the daemon's GOMAXPROCS. gloved sizes its hash
// shards from it, so the release bytes depend on it.
const childProcs = 2

// setupLaunches is how many daemons an untraced pass starts to time
// set-up; setup_s is their median.
const setupLaunches = 15

// glovedFlags are the daemon's flags: a loopback address and a fresh
// journal directory. Everything else, -fsync=true included, keeps its
// default.
func glovedFlags(addr, dataDir string) []string {
	return []string{"-addr", addr, "-data-dir", dataDir}
}

// daemon is one running gloved child process.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan error // receives Wait's result once
	base   string
	http   *http.Client
	c      *client.Client
	// setup is the time from launch to the first healthy /healthz.
	setup time.Duration
}

// startDaemon launches gloved with its state under dir and waits until
// /healthz answers.
func startDaemon(ctx context.Context, gloved, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "gloved.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// One event stream plus one request connection.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	hc := &http.Client{Transport: tr}
	base := "http://" + addr
	c, err := client.New(base, client.WithHTTPClient(hc), client.WithRetries(0))
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(gloved, glovedFlags(addr, filepath.Join(dir, "data"))...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{cmd: cmd, log: logf, exited: make(chan error, 1), base: base, http: hc, c: c}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting gloved: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := start.Add(30 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		h, err := c.Health(hctx)
		cancel()
		if err == nil && h.Status != "" {
			d.setup = time.Since(start)
			return d, nil
		}
		select {
		case werr := <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("gloved exited during start-up (%v); see %s", werr, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gloved not healthy after 30s; see %s", logPath)
		}
	}
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// peakRSSMiB reads the child's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop shuts the daemon down gracefully (SIGTERM), killing it if the
// drain takes too long, and waits for the process to end.
func (d *daemon) stop() {
	defer d.log.Close()
	defer d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.exited // already gone
		return
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape reads /metrics and flattens it: each sample name maps to its
// value summed over label sets. Histogram buckets are dropped; their
// _sum and _count stay.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: http %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if !strings.HasSuffix(s.Name, "_bucket") {
				out[s.Name] += s.Value
			}
		}
	}
	return out, nil
}
