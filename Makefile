GO ?= go

.PHONY: all build vet fmt lint lint-vocab test race race-repeat crash-e2e bench bench-json profile profile-1m expolint examples loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# glovelint runs the stdlib-only analyzer suite (DESIGN.md Sec. 14)
# over every package: error-code/metric/span/journal vocabularies,
# DTO placement (subsumes the old grep-based depcheck at the type-graph
# level), blocking I/O under held mutexes, and context discipline.
lint:
	$(GO) run ./cmd/glovelint

# lint-vocab regenerates the committed vocabulary files under
# internal/lint/vocab/ from the current tree. Regeneration may only
# append — removing or renaming a shipped name fails `make lint`.
lint-vocab:
	$(GO) run ./cmd/glovelint -gen-vocab

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/service/ ./internal/parallel/ ./internal/core/ ./internal/obs/ ./internal/colstore/ ./internal/cdr/ ./internal/wal/ ./internal/faultinject/ ./internal/lint/ ./pkg/client/ ./cmd/glovectl/

# race-repeat reruns, 20 times under the race detector, the tests that
# once passed or failed by scheduling luck: deterministic kernel
# accounting of repeated parallel runs, the dense build's mirrored
# matrix writes from concurrent workers (with counters equal at every
# worker count), registry appends that a concurrent snapshot or a
# refused journal write must not observe, and the queued status Submit
# returns while an idle executor starts the job.
race-repeat:
	$(GO) test -race -count=20 -run 'TestSerialParallelEquivalence|TestDenseBuildEvaluatesPairsOnce' ./internal/core/
	$(GO) test -race -count=20 -run 'TestAppendInvisibleToMidStreamSnapshot|TestAppendJournalFailureLeavesDatasetUnchanged|TestManagerJobLifecycle' ./internal/service/

# crash-e2e runs the kill/restart fault-injection matrix against a real
# gloved binary built with the faultinject tag: torn WAL writes,
# durable-but-unacked appends, a crash between journaling and publishing
# a follow, windowed or batch job's window, and the SIGTERM
# drain/checkpoint path.
crash-e2e:
	$(GO) test -tags faultinject -race ./internal/faultinject/

# expolint pins the Prometheus text-exposition contract: the strict
# parser round-trips over rendered registries and a live /metrics
# scrape of a server that has done real work.
expolint:
	$(GO) test -run Exposition ./internal/obs/ ./internal/service/

# examples runs every program under examples/. `go build ./...` only
# compiles them; each one exits non-zero when a step of the workflow it
# demonstrates fails (a release fails validation, the daemon rejects a
# call).
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# loc prints the number of non-test Go lines, outside the nested
# perfbench module and the benchmark's build directory: the size of the
# program, which a change that deletes a duplicated path should shrink.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# bench-json runs the ablation benchmarks (nearest cache, merge stages,
# reshape, parallel scaling, pruning, chunked, dense-vs-sparse index,
# pruned-vs-naive effort kernel; DESIGN.md Sec. 5) plus the 100k/300k/1M
# scaling series with its peak-heap metrics (DESIGN.md Sec. 11) and
# records the machine-readable stream in BENCH_glove.json so the
# performance trajectory is tracked across PRs. BenchmarkWindowCommit
# pins the streaming pipeline: per-window commit latency must track the
# window's new-data volume, not the total feed size (DESIGN.md Sec. 12).
# BenchmarkWALAppend pins the durability tax: the per-record journal
# append/commit cost every mutation now pays (DESIGN.md Sec. 13).
# BenchmarkAnonymizability pins the per-release k-gap analysis: the full
# pass against the thresholded one gloved runs, at 250, 1,000 and 4,000
# subscribers with its candidate pairs (DESIGN.md Sec. 8).
# BenchmarkReleaseQuality pins what measuring a release adds to each
# window commit of a windowed-week-shaped job, with its allocations: the
# k-gap pass on the window's input, one linkage pair and the accuracy
# fold (DESIGN.md Sec. 7.3).
# BenchmarkReleaseDownload pins the download of a committed window
# release over loopback, with its allocations: a download writes the
# bytes stored at commit (DESIGN.md Sec. 7.2).
# BenchmarkWindowedWeekEngine pins the engine work of a windowed-week
# release (one-day windows, split into user halves) with its kernel
# calls per op: the dense build and merge loop a window commit pays
# (DESIGN.md Sec. 8).
# BenchmarkRegistryAppend pins the journaled ingest path, fsync on: a
# 250-subscriber CIV create plus six daily appends, with the bytes
# allocated per byte of CSV (alloc/payload). BenchmarkJournalReplay pins
# a boot of that feed's journal: replay, boot compaction and the
# registry restore (DESIGN.md Sec. 13).
bench-json:
	$(GO) test -run=^$$ -bench='BenchmarkAblation|BenchmarkAnonymizability|BenchmarkFingerprintEffortKernel|BenchmarkEffortKernel|BenchmarkScaling|BenchmarkWindowCommit|BenchmarkWAL|BenchmarkReleaseDownload|BenchmarkWindowedWeekEngine|BenchmarkReleaseQuality|BenchmarkRegistryAppend|BenchmarkJournalReplay' \
		-benchtime=1x -timeout=30m -json . ./internal/core ./internal/wal ./internal/service > BENCH_glove.json

# profile writes a CPU pprof of the k=2 civ GLOVE run (the
# BenchmarkAblationNearestCache/cached workload, which is dominated by
# the effort kernel) to cpu.pprof; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) test -run=^$$ -bench='BenchmarkAblationNearestCache/cached' \
		-benchtime=3x -cpuprofile=cpu.pprof -o bench.test .

# profile-1m writes a CPU pprof of the 1M-fingerprint index-build and
# merge-burst probe to cpu1m.pprof — the workload the scaling tier
# optimizes; inspect with `go tool pprof cpu1m.pprof`.
profile-1m:
	$(GO) test -run=^$$ -bench='BenchmarkScalingIndexMerge/1m' \
		-benchtime=1x -timeout=30m -cpuprofile=cpu1m.pprof -o bench.test .

check: build vet fmt lint test
