# MONARCH reproduction — common workflows.

GO ?= go

.PHONY: all build test stress cross loc bench-smoke race vet lint cover bench-all bench-ledger bench-check trace-smoke crash-smoke repro repro-full fuzz fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

# Vet, and refuse a tree gofmt would change.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
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

# The default test run vets (gofmt included) first, includes a short-mode race pass over
# the concurrency-heavy packages (so data races in the
# read/placement/fault paths fail fast without the cost of racing the
# full experiment sweep), repeats the interleaving-sensitive stress
# tests, builds for the platforms the build-tagged files split on,
# keeps the benchmark harness compiling, and finishes with a brief fuzz
# smoke over the committed corpora.
test:
	$(MAKE) vet
	$(GO) test ./...
	$(GO) test -tags debug ./internal/bufpool/
	$(GO) test -race -short ./internal/core/ ./internal/pool/ ./internal/storage/ ./internal/obs/ ./internal/bufpool/ ./internal/peernet/ ./internal/journal/ ./internal/dataset/
	$(MAKE) stress
	$(MAKE) cross
	$(MAKE) trace-smoke
	$(MAKE) crash-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke

# The evict/re-place/read and fan-in stress tests pass or fail on the
# interleaving they happen to get, so one run proves little: repeat
# them, oversubscribed, plain and under the race detector. The two
# write-plan races (Remove against a flush in flight, Create against a
# Remove) are pinned by gates, so they repeat for the detector's sake,
# beside the two that are not pinned: writers racing the range flusher
# (whatever the schedule, the PFS ends up holding tier 0's bytes) and a
# claim refused half-way. So do the view-lifetime cases: views held across the removal and
# replacement of the file under them (a mapped view that loses is a
# SIGBUS, not a failed assertion), and a peer response in flight across
# a Remove — by writev and by sendfile, where the name is also replaced
# under the send, two connections stream one descriptor, and a requester
# that hangs up mid-body must leave no reference behind. The placement
# plan's settle table is pinned by a manual pool and Shutdown's
# cancellation by a blocking tier; they repeat for the detector too, with
# reads of a chunked copy's landed prefix while a gated copy holds it. So
# does the concurrent first miss of a fetch-through: N readers race for
# one file's queue, and the losers must never wait on the winner's fetch.
# And the read-ahead's lifetime rule, on the same line: lent views held
# across every release of the pooled buffer under them, readers racing
# promotions on one file — once more under -tags debug, where bufpool
# poisons a buffer on Put, so a view that lost shows 0xDB, not luck —
# and the cold pass's one source op per file, with the bound on the
# fetches whose copy found no room. The placement copy's refusals ride
# along: a source truncated under its window a failure wrapping ErrFault
# (a SIGBUS recovered), a short tier write a failure, never placed.
# Beside the view lifetimes, ReadAt's copy out of a mapping: a tier file
# truncated under it is a fallback (the fault guard), never a SIGBUS; a
# Create'd file is never viewed; a counted tier without views refuses
# without allocating. And the flusher's push out of tier 0's mapping:
# no pooled buffer over OSFS, a copy over MemFS, no writer blocked
# behind a flush in flight, a checkpoint truncated under its flush a
# refusal wrapping ErrFault (a SIGBUS recovered). The writers-race-the-
# flusher property above runs over both tiers, the OSFS one pushing the
# very pages the writers land in.
# Last, the SIGKILL drill with the detector in the burst child as well.
stress:
	GOMAXPROCS=4 $(GO) test -run 'TestEvictReplaceReadRace|TestReadAtHighFanIn' -count=20 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestEvictReplaceReadRace|TestReadAtHighFanIn' -count=20 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestRemoveDuringFlush|TestCreateDuringRemove|TestFlushPlanProperty|TestRangeFlushRefusalKeepsEveryRangeDirty' -count=50 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestPlacementSettleParity|TestChunkedMidCopyReadThrough|TestShutdownCancelsInFlightPlacement|TestFetchThroughConcurrentFirstMiss|TestReadAheadViewOutlivesBuffer|TestReadAheadRule|TestColdPassOneSourceOpPerFile|TestKeptFetchThroughEndsWithItsPass|TestPlacementFaultIsAFailure|TestChunkedShortTierWriteIsAFailure' -count=50 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -tags debug -run 'TestReadAheadViewOutlivesBuffer' -count=20 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestViewReaderConformance/.*/Lifetime|TestViewCopySurvivesAFault|TestViewLendSurvivesAFault|TestCountingRefusesViewsWithoutAllocating' -count=50 ./internal/storage/
	GOMAXPROCS=4 $(GO) test -race -run 'TestReadAtSurvivesTruncatedTierCopy|TestReadAtNeverViewsCreatedFiles' -count=50 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestFlushLendsTierZeroWindows|TestFlushInFlightBlocksNoWriter|TestFlushFaultIsARefusal' -count=50 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -run 'TestReadResponseSurvivesRemove|TestSendfileKeepsTheInode|TestConcurrentStreamsOfOneFile|TestClientGoneMidBody' -count=50 ./internal/peernet/
	GOMAXPROCS=4 $(GO) test -race -run 'TestCrashSmoke' -count=10 .

# OSFS lends views through mmap on unix and refuses them elsewhere, and
# the peer server sends file views with sendfile(2) on linux and by
# writev elsewhere, both in build-tagged files: build every package for
# one platform on each side of those splits (and a second unix), and vet
# the two packages that hold them. Standard library only, so no network.
CROSS_GOOS = darwin freebsd windows
cross:
	@set -e; for os in $(CROSS_GOOS); do \
		echo "GOOS=$$os GOARCH=amd64 go build ./... && go vet ./internal/storage/ ./internal/peernet/"; \
		GOOS=$$os GOARCH=amd64 $(GO) build ./...; \
		GOOS=$$os GOARCH=amd64 $(GO) vet ./internal/storage/ ./internal/peernet/; \
	done

# The line counts ROADMAP tracks, so CHANGES and ROADMAP quote a
# command's output, not a hand count.
loc:
	@for pkg in core peernet storage experiments; do \
		echo "non-test internal/$$pkg: $$(cat $$(ls internal/$$pkg/*.go | grep -v _test.go) | wc -l)"; \
	done
	@for pkg in trace obs; do \
		echo "non-test internal/$$pkg/...: $$(cat $$(find internal/$$pkg -name '*.go' ! -name '*_test.go') | wc -l)"; \
	done
	@wc -l internal/core/core.go internal/core/write.go internal/core/placement.go internal/core/metadata.go cmd/monarch-serve/main.go cmd/monarch-serve/backend.go | sed '$$d'

# bench/ is its own module (the BENCHMARK.json ledger harness), so
# `go test ./...` at the root never compiles it: run its tests here so
# a core API change cannot silently break it. It runs last in `make
# test` because since PR 17 it can go red with nothing broken:
# TestSmoke requires every end-to-end metric non-zero, and a warm
# fit_epochs block at -quick sizes now allocates nothing the runtime
# publishes between two metrics.Read calls, so alloc_mib_per_gib reads
# 0 on about every other run. bench/ is frozen outside benchmark PRs
# (ROADMAP [bench-debts] (a) carries the one-line fix); anything else
# red here is real.
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

# One bench per paper table/figure plus package micro-benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The benchmark ledger (bench/README.md): N runs of every BENCHMARK.json
# workload at this checkout, one JSON record each, appended to NEW. With
# BASE_DIR — a checkout of the commit to compare against — every run is
# paired with the same seed there, appended to BASE, and the two sides
# take turns going first so drift on the machine lands on both.
N ?= 10
BASE ?= ledger-base.jsonl
NEW ?= ledger-new.jsonl
bench-ledger:
	@set -e; for i in $$(seq 1 $(N)); do \
		sides="new base"; if [ $$((i % 2)) -eq 0 ]; then sides="base new"; fi; \
		for side in $$sides; do \
			if [ $$side = new ]; then \
				bash bench/run.sh --workload all --seed $$i --out $(abspath $(NEW)); \
			elif [ -n "$(BASE_DIR)" ]; then \
				bash $(BASE_DIR)/bench/run.sh --workload all --seed $$i --out $(abspath $(BASE)); \
			fi; \
		done; \
	done

# The verdict on two ledger files: one row per workload and end-to-end
# metric, non-zero on a regression past its bound — and on `unresolved`,
# which bench/run.sh -compare only prints: runs too noisy to tell a
# change from nothing are not a pass.
bench-check:
	@out=$$(bash bench/run.sh -compare $(abspath $(BASE)) $(abspath $(NEW))); rc=$$?; echo "$$out"; \
		case "$$out" in *unresolved*) \
			if [ $$rc -eq 0 ]; then echo "bench-check: unresolved pairings are not a pass"; rc=3; fi;; \
		esac; exit $$rc

# Write-path crash drill (crash_test.go; part of `go test ./...` too): a
# journaled write-back burst in a re-exec'd child SIGKILLed mid-flight,
# the stack reopened over the same directories, and every acked chunk
# verified byte-identical after WAL replay. Red on any lost acked byte
# — or if nothing was left to recover (the drill must actually exercise
# replay). Repeated here because where the kill lands is the box's call.
crash-smoke:
	$(GO) test -run 'TestCrashSmoke' -count=3 .

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

fuzz:
	$(GO) test -fuzz='^FuzzReader$$' -fuzztime=30s ./internal/tfrecord/
	$(GO) test -fuzz='^FuzzReader$$' -fuzztime=30s ./internal/recordio/
	$(GO) test -fuzz='^FuzzReadAt$$' -fuzztime=30s ./internal/core/
	$(GO) test -fuzz='^FuzzNamespace$$' -fuzztime=30s ./internal/core/
	$(GO) test -fuzz='^FuzzMetaOracle$$' -fuzztime=30s ./internal/core/
	$(GO) test -fuzz='^FuzzFrame$$' -fuzztime=30s ./internal/peernet/
	$(GO) test -fuzz='^FuzzHeartbeat$$' -fuzztime=30s ./internal/peernet/
	$(GO) test -fuzz='^FuzzRoundtrip$$' -fuzztime=30s ./internal/peernet/
	$(GO) test -fuzz='^FuzzReplay$$' -fuzztime=30s ./internal/journal/
	$(GO) test -fuzz='^FuzzTrace$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/trace/

# A 10-second pass per fuzz target — enough to replay the committed
# corpus and shake out shallow regressions on every `make test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=10s ./internal/tfrecord/
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=10s ./internal/recordio/
	$(GO) test -run='^$$' -fuzz='^FuzzReadAt$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzNamespace$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzMetaOracle$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzFrame$$' -fuzztime=10s ./internal/peernet/
	$(GO) test -run='^$$' -fuzz='^FuzzHeartbeat$$' -fuzztime=10s ./internal/peernet/
	$(GO) test -run='^$$' -fuzz='^FuzzRoundtrip$$' -fuzztime=10s ./internal/peernet/
	$(GO) test -run='^$$' -fuzz='^FuzzReplay$$' -fuzztime=10s ./internal/journal/
	$(GO) test -run='^$$' -fuzz='^FuzzTrace$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/

clean:
	rm -f test_output.txt bench_output.txt .cover-core.out
