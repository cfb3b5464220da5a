# MONARCH reproduction — common workflows.

GO ?= go

.PHONY: all build test stress bench-smoke race vet lint cover bench bench-all bench-obs bench-peer bench-hotpath bench-write trace-smoke peer-smoke chaos-smoke crash-smoke repro repro-full examples fuzz fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored; the target
# runs it when the binary is on PATH (CI installs it) and degrades to
# vet-only locally so `make lint` never needs network access.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The default test run vets first, includes a short-mode race pass over
# the concurrency-heavy packages (so data races in the
# read/placement/fault paths fail fast without the cost of racing the
# full experiment sweep), repeats the interleaving-sensitive stress
# tests, keeps the benchmark harness compiling, and finishes with a
# brief fuzz smoke over the committed corpora.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -tags debug ./internal/bufpool/
	$(GO) test -race -short ./internal/core/ ./internal/pool/ ./internal/storage/ ./internal/obs/ ./internal/bufpool/ ./internal/peernet/ ./internal/journal/
	$(MAKE) stress
	$(MAKE) bench-smoke
	$(MAKE) trace-smoke
	$(MAKE) peer-smoke
	$(MAKE) chaos-smoke
	$(MAKE) crash-smoke
	$(MAKE) fuzz-smoke

# The evict/re-place/read and fan-in stress tests pass or fail on the
# interleaving they happen to get, so one run proves little: repeat
# them, oversubscribed, plain and under the race detector.
stress:
	GOMAXPROCS=4 $(GO) test -run 'TestEvictReplaceReadRace|TestReadAtHighFanIn' -count=20 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestEvictReplaceReadRace|TestReadAtHighFanIn' -count=20 ./internal/core/

# bench/ is its own module (the BENCHMARK.json ledger harness), so
# `go test ./...` at the root never compiles it: run its tests here so
# a core API change cannot silently break it.
bench-smoke:
	cd bench && $(GO) test ./...

# Race the whole module. The package list comes from `go list` at run
# time, so new packages can never silently drift out of race coverage
# the way a hand-maintained list did.
race:
	$(GO) test -race $$($(GO) list ./...)
	$(GO) test -race -tags debug ./internal/bufpool/

# Statement-coverage floor for the invariant-bearing core package; the
# eviction/quota property suite keeps this comfortably above the floor.
COVER_FLOOR_CORE = 90

cover:
	$(GO) test -cover ./internal/... .
	@$(GO) test -coverprofile=.cover-core.out ./internal/core/ >/dev/null
	@total=$$($(GO) tool cover -func=.cover-core.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f .cover-core.out; \
	echo "internal/core coverage: $$total% (floor $(COVER_FLOOR_CORE)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR_CORE)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "internal/core coverage $$total% fell below the $(COVER_FLOOR_CORE)% floor"; exit 1; }

# Core placement/read benchmarks (whole-file vs chunked), committed as
# a JSON baseline so regressions show up in review.
bench:
	$(GO) test -bench='Placement|ReadAt|Metadata|Init' -benchmem -count=1 ./internal/core/ \
		| $(GO) run ./cmd/monarch-benchjson -o BENCH_chunked.json

# One bench per paper table/figure plus package micro-benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Observability overhead guard: the instrumented mid-copy read path vs
# its baseline, with the run's metrics snapshot embedded. The budgets
# are documented in DESIGN.md §8/§9: instrumented ≤5% over baseline,
# traced ≤5% over instrumented.
bench-obs:
	MONARCH_METRICS_OUT=$(CURDIR)/.bench-metrics.json \
		$(GO) test -bench='ReadAtMidCopy|ReadAtInstrumented|ReadAtTraced' -benchmem -count=1 ./internal/core/ \
		| $(GO) run ./cmd/monarch-benchjson -o BENCH_obs.json -metrics .bench-metrics.json
	rm -f .bench-metrics.json

# Hot-path fan-in guard: the steady-state read path at pinned 1/8/64
# goroutine fan-in, committed as a JSON baseline so the hot-read-path
# speedup stays measurable in-repo.
bench-hotpath:
	$(GO) test -bench='ReadAtParallel|ReadAtSteadyState' -benchmem -count=1 ./internal/core/ \
		| $(GO) run ./cmd/monarch-benchjson -o BENCH_hotpath.json

# Peer wire-protocol benchmarks over both transports (in-process pipe
# isolates codec cost; loopback TCP adds the kernel socket path),
# committed as a JSON baseline.
bench-peer:
	$(GO) test -bench='PeerRead|PeerStat' -benchmem -count=1 ./internal/peernet/ \
		| $(GO) run ./cmd/monarch-benchjson -o BENCH_peer.json

# Write-path benchmarks: foreground ack latency/throughput for
# write-through vs write-back (journaled and not), committed as a JSON
# baseline so ack-path regressions show up in review.
bench-write:
	$(GO) test -bench='WriteThrough|WriteBack' -benchmem -count=1 ./internal/core/ \
		| $(GO) run ./cmd/monarch-benchjson -o BENCH_write.json

# Peer network smoke: two real servers over loopback TCP, a short
# reshuffled sharded job, non-zero exit unless sibling caches served
# reads.
peer-smoke:
	$(GO) run ./cmd/monarch-serve -selftest

# Write-path crash drill: a journaled write-back burst SIGKILLed
# mid-flight, the stack reopened over the same directories, and every
# acked chunk verified byte-identical after WAL replay. Non-zero exit
# on any lost acked byte — or if nothing was left to recover (the
# drill must actually exercise replay).
crash-smoke:
	$(GO) run ./cmd/monarch-serve -crashsmoke

# Churn drill: 6 replicated nodes with gossip membership, one killed
# mid-run and rejoined two epochs later. Non-zero exit unless the kill
# cost zero PFS fallbacks, both membership convergences landed, and no
# goroutines leaked.
chaos-smoke:
	$(GO) run ./cmd/monarch-serve -chaos

# End-to-end trace pipeline smoke: capture a tiny run, analyze the
# artifact, then replay it faithfully — monarch-bench exits non-zero if
# the replay diverges from the capture's trailer.
trace-smoke:
	$(GO) build ./cmd/monarch-bench ./cmd/monarch-inspect
	mkdir -p .trace-smoke
	$(GO) run ./cmd/monarch-bench -capture .trace-smoke/smoke.bin -scale 0.015625 -epochs 2
	$(GO) run ./cmd/monarch-inspect trace .trace-smoke/smoke.bin
	$(GO) run ./cmd/monarch-bench -replay .trace-smoke/smoke.bin
	$(GO) run ./cmd/monarch-bench -replay .trace-smoke/smoke.bin -replay-mode live
	rm -rf .trace-smoke monarch-bench monarch-inspect

# Regenerate every figure/table at the default reduced scale.
repro:
	$(GO) run ./cmd/monarch-bench

# The paper's full methodology: full-size datasets, 7 runs, 3 epochs.
repro-full:
	$(GO) run ./cmd/monarch-bench -scale 1 -runs 7

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multitier
	$(GO) run ./examples/tfpipeline
	$(GO) run ./examples/partialcache
	$(GO) run ./examples/pytorchloader

fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/tfrecord/
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/recordio/
	$(GO) test -fuzz=FuzzReadAt -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzNamespace -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzMetaOracle -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzFrame -fuzztime=30s ./internal/peernet/
	$(GO) test -fuzz=FuzzHeartbeat -fuzztime=30s ./internal/peernet/
	$(GO) test -fuzz=FuzzReplay -fuzztime=30s ./internal/journal/

# A 10-second pass per fuzz target — enough to replay the committed
# corpus and shake out shallow regressions on every `make test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=10s ./internal/tfrecord/
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=10s ./internal/recordio/
	$(GO) test -run='^$$' -fuzz=FuzzReadAt -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzNamespace -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzMetaOracle -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=10s ./internal/peernet/
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=10s ./internal/journal/

clean:
	rm -f test_output.txt bench_output.txt .bench-metrics.json .cover-core.out
