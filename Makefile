# Convenience targets; everything is plain go tooling underneath.

GO ?= go

.PHONY: all build build-tags test race vet lint fmt loc replay-smoke bench-go bench-e2e bench-smoke bench-compare bench-pairs experiments examples clean

all: build build-tags lint test race

build:
	$(GO) build ./...

# The live-capture backend (internal/capture AF_PACKET, cmd/bfwall -iface)
# only compiles behind `linux && afpacket`, and bitvector.Prefetch is
# assembly on amd64 only; this keeps the gated files and the portable body
# from bit-rotting on any development platform.
build-tags:
	GOOS=linux $(GO) build -tags afpacket ./...
	GOOS=linux $(GO) vet -tags afpacket ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis: vet (whose copylocks check reports a copied typed
# atomic), staticcheck (when installed), and bflint — the repo's own
# invariant suite (see internal/lint and DESIGN.md §8) — with the
# stale-allow audit, over both the default and afpacket file sets.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)" ; \
	fi
	$(GO) run ./cmd/bflint -stale-allows ./...
	GOOS=linux $(GO) run ./cmd/bflint -tags afpacket ./...

fmt:
	gofmt -l -w .

# Non-test and test Go lines per package: the table a deletion PR prints
# before and after (ROADMAP item 7). `make loc REF=HEAD~1` counts a commit.
loc:
	scripts/loc.sh $(REF)

# bftrace -pcap → bfreplay -in for both filters, against the totals of the
# seed-1 minute (51,813 frames; bitmap 28,328 / 321, spi 28,320 / 329).
replay-smoke:
	scripts/replay-smoke.sh

# The raw go-test benchmarks (unpinned; exploratory use).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# The wire-to-verdict benchmark BENCHMARK.json names (bench/README.md is
# its ledger): the real bfwall end to end plus every layer priced from
# outside. Results land in .bench_build/result.json; bench-smoke is the
# seconds-long harness check CI runs; compare two result files with
# `make bench-compare A=old.json B=new.json`.
bench-e2e:
	$(GO) run ./bench

bench-smoke:
	$(GO) run ./bench -smoke

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# The pairing rule for a claimed gain (bench/README.md), automated: N
# alternating runs of workloads W on BASE (a git ref, the parent) and on
# the working tree, per-pair values, medians, quartiles and the verdict;
# fails unless the gain may be claimed. `make bench-pairs BASE=HEAD~1`.
N ?= 10
W ?= scan_flood

bench-pairs:
	scripts/bench-pairs.sh $(BASE) $(N) $(W)

# Regenerate every table/figure on stdout (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/bfanalysis
	$(GO) run ./cmd/bfanalysis -insider
	$(GO) run ./cmd/bftrace
	$(GO) run ./cmd/bfsim
	$(GO) run ./cmd/bfattack -order 16
	$(GO) run ./cmd/bfattack -apd
	$(GO) run ./cmd/bfattack -bandwidth
	$(GO) run ./cmd/bfattack -collude
	$(GO) run ./cmd/bfablate
	$(GO) run ./cmd/bfbench -conns 500000
	$(GO) run ./examples/worm_containment

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edge_router
	$(GO) run ./examples/worm_containment
	$(GO) run ./examples/ftp_holepunch
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
