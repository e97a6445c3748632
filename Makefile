# Convenience targets; everything is plain go tooling underneath.

GO ?= go

.PHONY: all build build-tags test race vet lint fmt loc bench-go bench-e2e bench-smoke bench-compare bench-pairs experiments examples clean

all: build build-tags lint test race

build:
	$(GO) build ./...

# The live-capture backend (internal/capture AF_PACKET, cmd/bfwall -iface)
# only compiles behind `linux && afpacket`, bitvector.Prefetch is assembly
# on amd64 only, capture.OpenTrace maps a file on Linux only (every other
# platform reads it) and bitvector asks for huge pages on Linux only; this
# keeps the gated files, the portable body and the fallbacks from
# bit-rotting on any development platform.
build-tags:
	GOOS=linux $(GO) build -tags afpacket ./...
	GOOS=linux $(GO) vet -tags afpacket ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOOS=darwin $(GO) vet ./... && GOOS=darwin $(GO) build ./...

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
# the working tree, per-pair values, medians, quartiles and the verdict on
# METRIC (default wire_pps); fails unless the gain may be claimed.
# `make bench-pairs BASE=HEAD~1`, `make bench-pairs BASE=HEAD~1 METRIC=setup_s`.
N ?= 10
W ?= scan_flood

bench-pairs:
	scripts/bench-pairs.sh $(BASE) $(N) $(W)

# Regenerate every table/figure on stdout (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/bfexp capacity
	$(GO) run ./cmd/bfexp insider
	$(GO) run ./cmd/bfexp trace
	$(GO) run ./cmd/bfexp fig4
	$(GO) run ./cmd/bfexp fig5 -order 16
	$(GO) run ./cmd/bfexp apd
	$(GO) run ./cmd/bfexp bandwidth
	$(GO) run ./cmd/bfexp collude
	$(GO) run ./cmd/bfexp ablate
	$(GO) run ./cmd/bfexp table1 -conns 500000
	$(GO) run ./cmd/bfexp worm

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edge_router
	$(GO) run ./examples/ftp_holepunch
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
