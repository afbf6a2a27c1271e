// Command perfbench is the repository's end-to-end benchmark. It starts
// the real gloved binary as a child process on loopback, drives it
// through pkg/client with inputs generated from internal/synth's CIV
// profile, validates every release it downloads, and prints one JSON
// result line. See README.md in this directory for the workloads, the
// metrics and how to run it.
//
//	bash perfbench/run.sh --workload windowed-week --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	gloved   string // path of the gloved binary to drive
	workDir  string // scratch directory for daemon state and logs
	commit   string // source revision, printed in the header
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 25, "nominal measuring time; sizes the fixed number of jobs a run makes")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced pass")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny inputs, for checking the harness itself")
	fs.StringVar(&opt.gloved, "gloved", "", "path of the gloved binary")
	fs.StringVar(&opt.workDir, "work-dir", ".bench_build", "directory for daemon state and logs")
	fs.StringVar(&opt.commit, "commit", "unknown", "source revision printed in the header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d, need 0 or 1\n", trace)
		return 2
	}
	if _, ok := workloads[opt.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if opt.gloved == "" || opt.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -gloved and a positive -seconds are required")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := runBenchmark(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runBenchmark prints the header, runs the workload's passes and
// assembles the result: end-to-end metrics from an untraced pass, or,
// with -trace 1, per-layer metrics from a traced pass run after an
// untraced one (the pair gives the tracing overhead).
func runBenchmark(ctx context.Context, opt options, out io.Writer) (result, error) {
	wl := workloads[opt.workload]
	size := wl.full
	if opt.smoke {
		size = wl.smoke
	}
	jobs := jobsFor(wl, size, opt.seconds)

	workDir, err := os.MkdirTemp(opt.workDir, "perfbench-")
	if err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(workDir)
	gloved, err := filepath.Abs(opt.gloved)
	if err != nil {
		return result{}, err
	}

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%t smoke=%t jobs=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.smoke, jobs)
	fmt.Fprintf(out, "# nproc=%d child_GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), childProcs, runtime.Version(), opt.commit)
	fmt.Fprintf(out, "# gloved %s\n", strings.Join(glovedFlags("<addr>", "<data-dir>"), " "))
	fmt.Fprintf(out, "# input %s\n", size)

	inputs, err := generateInputs(wl, size, opt.seed, jobs)
	if err != nil {
		return result{}, err
	}
	b := &bench{wl: wl, size: size, inputs: inputs, gloved: gloved, workDir: workDir, out: out}

	if !opt.trace {
		p, err := b.pass(ctx, false, setupLaunches)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# digest %s sha256=%s releases=%d\n", opt.workload, p.digest(), len(p.releases))
		p.printSummary(out)
		return b.finish(endToEndMetrics(p), &p.ops), nil
	}

	plain, err := b.pass(ctx, false, 1)
	if err != nil {
		return result{}, err
	}
	traced, err := b.pass(ctx, true, 1)
	if err != nil {
		return result{}, err
	}
	if plain.digest() != traced.digest() {
		// Same inputs, same daemon flags: the releases must not change
		// with tracing on.
		traced.ops.fail("traced pass released different bytes than the untraced pass")
	}
	fmt.Fprintf(out, "# digest %s sha256=%s releases=%d\n", opt.workload, traced.digest(), len(traced.releases))
	stats := traceStats(traced)
	layers := layerMetrics(ctx, b, plain, traced, stats)
	printShares(out, wl, traced, stats, layers)
	return b.finish(layers, &plain.ops, &traced.ops), nil
}

// finish wraps metrics and the passes' operation counts into the
// result, listing what failed.
func (b *bench) finish(ms map[string]metric, counters ...*opCounter) result {
	res := result{Metrics: ms}
	for _, o := range counters {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, msg := range o.messages {
			fmt.Fprintf(b.out, "# FAILED %s\n", msg)
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
