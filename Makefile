# Verify loop for the repo. `make verify` is the default gate for any
# change: the tier-1 build+test pass (ROADMAP.md), go vet, the race
# detector over the concurrent packages (internal/serve is the first
# concurrent code in the repo; its tests — and the cmd tests that
# drive a live server — must stay race-clean), and the project's own
# static-analysis suite (cmd/vplint, see DESIGN.md §"Statically
# enforced invariants").

GO ?= go

.PHONY: verify build test vet lint race bench serve-bench fuzz

verify: vet build test race lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific invariants: Predict purity, replay determinism,
# hot-path allocation discipline, VP1 decode bounds, error discipline,
# lock discipline around guardedby-annotated fields, goroutine
# lifecycle ties, VP1 op/status exhaustiveness, and snapshot
# append/restore symmetry. One process runs all nine rules; the
# deadline keeps that single-pass design honest as the tree grows.
# Non-zero exit on any finding; suppress only with
# //lint:ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/vplint -deadline 60s ./...

race:
	$(GO) test -race ./internal/serve/... ./internal/cluster/... ./internal/autotune/... ./internal/core/... ./internal/engine/... ./cmd/vpserve/... ./cmd/vprouter/... ./cmd/vploadgen/... ./cmd/dfcmsim/...

# Short fuzz smoke over the attacker-facing decoders, the predictor
# spec grammar and the history hashes. CI-friendly: a few seconds per target; crank -fuzztime for
# a real campaign.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrameReaderErrors$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzParseSpec$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzHash$$' -fuzztime=$(FUZZTIME) ./internal/hash
	$(GO) test -run='^$$' -fuzz='^FuzzReadAuto$$' -fuzztime=$(FUZZTIME) ./internal/trace

# Experiment-suite benchmarks, snapshotted to BENCH_engine.json
# (name → ns/op, allocs/op). The full suite runs one iteration per
# figure; the per-event predictor microbenchmarks, batch loops, engine
# replay and serve dispatch paths re-run at steady state
# ($(BENCH_COUNT) counts; benchjson keeps the minimum ns/op and
# maximum allocs/op across repeats) since their 1x numbers are pure
# noise. Before/after comparisons belong to one machine and one
# session: run both trees, or use perfbench (see BENCHMARK.json).
#
# The -zero gates are the CI alloc-regression tripwire: the build
# fails if the steady-state engine replay, the TAGE or perfect-hybrid
# batch loop, either serve dispatch benchmark, or the autotune
# mirror-tap path reports any allocs/op.
BENCH_COUNT ?= 3
bench:
	{ $(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkPredict' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkRunBatch' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkSnapshot' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkEngineReplay$$' -benchmem ./internal/engine/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/serve/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/autotune/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_engine.json \
	    -cmd "make bench (go test -bench . -benchtime 1x -benchmem; Predict*/RunBatch*/Snapshot*/EngineReplay/Serve* at steady state)" \
	    -zero BenchmarkEngineReplay \
	    -zero BenchmarkRunBatchTAGE \
	    -zero BenchmarkRunBatchPerfectHybrid \
	    -zero BenchmarkServeDispatchRunBatch \
	    -zero BenchmarkServeDispatchPredictBatch \
	    -zero BenchmarkServeMirrorTap
	@cat BENCH_engine.json

# Per-op predictor baselines for the serving hot path.
serve-bench:
	$(GO) test -bench=PredictUpdate -benchmem ./internal/core/
