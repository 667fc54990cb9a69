GO ?= go

.PHONY: all tier1 build vet vet-examples lint test test-stream race fuzz-smoke bench paper-bench-smoke bench-smoke loadgen-smoke clean

all: tier1

# tier1 is the acceptance gate: everything must build, vet clean, and pass.
tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-examples lints every shipped example script with the static
# analyzer (videoql vet). The examples are held to the strictest bar:
# any diagnostic at all — even an info — fails the target.
vet-examples:
	@out=$$($(GO) run ./cmd/videoql vet examples/scripts/*.vql); \
	status=$$?; \
	if [ $$status -ne 0 ] || [ -n "$$out" ]; then \
		echo "$$out"; \
		echo "vet-examples: example scripts must vet clean"; \
		exit 1; \
	fi; \
	echo "examples vet clean"

# lint runs the project's own static-analysis suite (videolint: lockcheck,
# ctxcheck, errlatch, metriccheck — see DESIGN.md §5j) over the whole tree,
# plus staticcheck when it is installed. The vettool binary is built into
# bin/ and reused; any unsuppressed diagnostic fails the target.
VIDEOLINT := bin/videolint

$(VIDEOLINT): $(wildcard internal/lint/*.go cmd/videolint/*.go)
	$(GO) build -o $(VIDEOLINT) ./cmd/videolint

lint: $(VIDEOLINT)
	./$(VIDEOLINT) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# test-stream runs the live-subscription suite: the core pump and
# changelog tests, the SSE/webhook server surface, and the end-to-end
# replay demo (videogen -stream into a live server with an SSE
# subscriber converging on the one-shot answer) on the segment backend.
test-stream:
	$(GO) test -run 'TestSubscri|TestSSE|TestWebhook|TestServerClose|TestStatusWriter' ./internal/core/ ./internal/server/ ./internal/store/
	$(GO) test -run 'TestStreamingSubscriptionE2E' ./internal/integration/

# race exercises the parallel evaluator, the shared EDB/memo caches, the
# store write path (backend write-failure injection, range-index readers,
# changelog), the segment backend (crash injection, mem/segment
# equivalence), the materialized-view oracle, the goal-specialization oracle
# (internal/core/specialize_oracle_test.go: Parallel(4) engines,
# concurrent readers on the plan cache), and the server's observability
# counters under the race detector.
race:
	$(GO) test -race ./internal/datalog/... ./internal/store/... ./internal/core/... ./internal/server/...

# fuzz-smoke runs every native fuzz target (the VideoQL parser, the
# interval notation parser, the static analyzer, the snapshot decoder)
# for 5s each; go test -fuzz takes one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 5s ./internal/datalog/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/store

# bench reproduces the paper experiments E1–E15 (the root bench_test.go;
# EXPERIMENTS.md records a reference run).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# paper-bench-smoke runs every paper benchmark (E1–E15) exactly once, so
# a benchmark that breaks, slows by an order of magnitude, or gets one of
# the paper's exact answers wrong shows up in CI instead of only
# compiling.
paper-bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-smoke runs the tracked benchmark's four workloads (probe, scan,
# rules, ingest) on a small corpus, each with its naive-oracle checks;
# any failed op or check fails the target. ~20s. The measured run is
# `bash bench/run.sh -warmup 3 --workload probe --seed 1 --seconds 27
# --trace 0` (see bench/README.md).
bench-smoke:
	$(GO) run ./bench -quick

# loadgen-smoke drives a short open-loop load sweep (experiment E18)
# against an in-process admission-controlled server and fails if
# overload is not graceful: any accepted-then-shed 503, or a
# post-saturation accepted p99 above 2x the pre-saturation baseline,
# is an error. ~30s. The full sweep is `go run ./cmd/loadgen` (see
# README "Operating under load").
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke

clean:
	$(GO) clean ./...
