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

# lint runs the project's own static-analysis suite (videolint: lockcheck
# and ctxcheck — see DESIGN.md §5j) over the whole tree,
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

# test-stream runs the maintained-query suite: the core subscription,
# view and changelog tests, the SSE/webhook/view server surface, the
# registration-order tests (a subscription's snapshot and a view's first
# answer are computed, under the admission gate, before registration
# returns) — the webhook delivery and gate tests again 20 times under
# the race detector on one CPU, where a snapshot computed after
# registration returned would show — and the end-to-end replay demo
# (videogen -stream into a live server with an SSE subscriber
# converging on the one-shot answer) on the segment backend.
test-stream:
	$(GO) test -run 'TestSubscri|TestSSE|TestWebhook|TestServerClose|TestStatusWriter|TestView|TestMaterialize|TestGateHoldsRegistration' ./internal/core/ ./internal/server/ ./internal/store/
	$(GO) test -race -cpu 1 -count 20 -run 'TestWebhookDelivery$$|TestGateHoldsRegistration$$' ./internal/core/ ./internal/server/
	$(GO) test -run 'TestStreamingSubscriptionE2E' ./internal/integration/

# race runs under the race detector every caller the engine's remaining
# locks serve (concurrent Query after Run, Stats/Profile during Run, the
# shared value interner), the constraint solver's step budget, the store
# write path (backend write-failure injection, changelog), the segment
# backend (crash injection, mem/segment equivalence, the block cache),
# the materialized-view and subscription oracles, the goal-specialization
# oracle (concurrent readers on the plan cache), and the server's
# observability counters.
race:
	$(GO) test -race ./internal/constraint/... ./internal/datalog/... ./internal/store/... ./internal/core/... ./internal/server/...

# fuzz-smoke runs every native fuzz target (the VideoQL parser, the
# interval notation parser, the static analyzer, the snapshot decoder,
# the value JSON encoder, the segment block-record decoder, tail-log
# replay, and the segment reader: footer, index, dictionary and blocks)
# for 5s each; go test -fuzz takes one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 5s ./internal/datalog/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzValueJSON$$' -fuzztime 5s ./internal/object
	$(GO) test -run '^$$' -fuzz '^FuzzEachRecord$$' -fuzztime 5s ./internal/store/segment
	$(GO) test -run '^$$' -fuzz '^FuzzReplayTail$$' -fuzztime 5s ./internal/store/segment
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 5s ./internal/store/segment

# bench reproduces the paper experiments E1–E11, E13 and E15 (the root
# bench_test.go; EXPERIMENTS.md records a reference run).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# paper-bench-smoke runs every paper benchmark (E1–E11, E13, E15)
# exactly once, so a benchmark that breaks, slows by an order of
# magnitude, or gets one of the paper's exact answers wrong shows up in
# CI instead of only compiling.
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
