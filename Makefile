# Verify loop for the repo. `make verify` is the default gate for any
# change: the tier-1 build+test pass (ROADMAP.md) — which includes the
# *ZeroAlloc tests holding the engine replay, the RunBatch loops, serve
# dispatch and the autotune mirror tap at 0 allocs/op — go vet, the race
# detector over the concurrent packages (internal/serve is the first
# concurrent code in the repo; its tests — and the cmd tests that
# drive a live server — must stay race-clean), and the project's own
# static-analysis suite (cmd/vplint, see DESIGN.md §"Statically
# enforced invariants").

GO ?= go

.PHONY: verify build test vet lint race bench fuzz

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

# Every go test benchmark: predictor and batch-loop microbenchmarks,
# snapshot, hash, engine replay, serving and autotune paths, and the
# three figure benchmarks. It prints numbers and gates nothing: the
# zero-alloc budgets are the *ZeroAlloc tests in `make test`, and
# before/after comparisons belong to perfbench (BENCHMARK.json).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
