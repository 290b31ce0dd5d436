# Tier-1 verify: build + tests (the floor every change must hold).
# Tier-1+ verify: `make check` adds go vet, the afllint invariant
# analyzers, the race detector, which the transport fault-injection
# tests rely on to catch shutdown and reconnect races, and a build of the
# nested aflperf benchmark module.

GO ?= go

.PHONY: build test check vet lint race perf-build bench bench-hot cover fuzz-smoke

# Coverage floor enforced by `make cover` and the CI coverage job.
# Measured at the observability PR; raise when coverage rises, never
# lower it to make a failing build pass.
COVER_FLOOR ?= 76.0

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order each run, so tests that
# secretly depend on a sibling's leftover state fail fast instead of
# passing by accident.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# lint runs the repo's custom go/analysis suite (cmd/afllint): rawrand,
# vecalias, lockio, typederr, floateq, plus the concurrency and
# distributed-invariant analyzers lockorder, goroleak, netdeadline,
# epochfence and hotalloc. Suppress an individual finding with
# `//lint:ignore <analyzer> <reason>` on the line or the line above —
# the reason is mandatory.
#
# It then smoke-tests the `go vet -vettool` protocol path against the
# fixture modules: the clean module must pass and the dirty module must
# fail, so a vet-protocol regression cannot hide behind the standalone
# runner staying green.
lint:
	$(GO) run ./cmd/afllint ./...
	$(GO) build -o bin/afllint ./cmd/afllint
	cd cmd/afllint/testdata/clean && $(GO) vet -vettool=$(CURDIR)/bin/afllint ./...
	@cd cmd/afllint/testdata/dirty && \
	if $(GO) vet -vettool=$(CURDIR)/bin/afllint ./... >/dev/null 2>&1; then \
		echo "vettool smoke: dirty fixture passed, want failure"; exit 1; \
	else \
		echo "vettool smoke: dirty fixture rejected as expected"; \
	fi

race:
	$(GO) test -race -shuffle=on ./...

# perf-build compiles and vets the nested aflperf benchmark module, which
# `./...` does not reach: an API change that breaks the benchmark fails
# here instead of at benchmark time. The binary lands in the ignored bin/.
perf-build:
	cd aflperf && $(GO) build -o $(CURDIR)/bin/ ./... && $(GO) vet ./...

check: build vet lint race perf-build

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-hot measures the //afl:hotpath-annotated functions (filter apply,
# buffer ingest, wire codec, replication record build) with allocation
# counts, gates them against the committed BENCH_8 baseline via
# cmd/benchgate (the two gated paths must stay at half the baseline's
# allocs/op or below, and nothing may regress), then captures an
# overload-experiment throughput snapshot (the served hot path: ingest,
# filter, shed counters). CI uploads the snapshots as BENCH_10.
bench-hot:
	$(GO) test -run=NONE -bench='^BenchmarkHot' -benchmem ./internal/core/ ./internal/fl/ ./internal/transport/ ./internal/topology/ | tee bench-hot.txt
	$(GO) run ./cmd/benchgate -in bench-hot.txt -baseline BENCH_8_allocs.json -out BENCH_10_allocs.json \
		-gate 'BenchmarkHotBufferAdd=0.5,BenchmarkHotWireEdgeBatch=0.5'
	$(GO) run ./cmd/aflbench -exp overload -rounds 8 -metrics-out BENCH_10.json

# cover writes cover.out, prints the per-function breakdown tail, and
# fails when total statement coverage drops below COVER_FLOOR.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{print $$NF}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# fuzz-smoke runs each transport wire-decode fuzzer briefly: adversarial
# bytes against the preamble check and frame decoders of every protocol
# surface — client, edge uplink, root replication, the quorum vote
# exchange, and the raw frame envelope — must yield typed errors, never
# a panic or hang. Go runs one fuzz target per invocation, hence the
# loop.
FUZZ_TARGETS = FuzzDecodeClientMsg FuzzDecodeEdgeMsg FuzzDecodeRootMsg \
	FuzzDecodeReplicaMsg FuzzDecodePrimaryMsg FuzzDecodeVoteMsg \
	FuzzDecodeBinaryEnvelope
fuzz-smoke:
	@for target in $(FUZZ_TARGETS); do \
		$(GO) test -run=NONE -fuzz=$$target'$$' -fuzztime=10s ./internal/transport/ || exit 1; \
	done
