# Standard developer targets. `make verify` is the tier-1 gate plus
# vet and the race detector — run it before sending a change.

GO ?= go

.PHONY: build test vet staticcheck race verify bench bench-all test-short test-cluster test-chaos smoke-service smoke-pipeline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it): skip with a notice
# when the binary is not on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

verify: build vet staticcheck race

# Map-path and storage-byte-path benchmarks, published as BENCH_4.json
# (the baseline/default sub-benchmark pairs become speedup +
# allocation-reduction rows; the checked-in file's baseline section holds
# the rows measured on the commit before MemFS became a block store and
# reduce output an arena, so every row also gets a before/after pair), the
# skew-partitioning benchmarks as BENCH_5.json (hash vs range vs
# split max/mean partition bytes via custom ReportMetric units), and
# the shuffle data-plane benchmarks as BENCH_7.json (raw vs sendfile
# vs compressed throughput with bytes-on-wire per op). The
# anti-combining layer's primitives go to BENCH_anticombine.json, named
# for the layer: its baseline rows are the ones recorded in the
# checked-in file (the map+heap Shared, the stage-everything AntiReducer
# and the sort-and-map AntiMapper they measured are gone from the tree),
# the benchmark rows are this run.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMapBufferSpill|BenchmarkMapPathE2E|BenchmarkMergeIter|BenchmarkSegmentRoundTrip|BenchmarkReduceCollect|BenchmarkMemFSWrite' -benchmem ./internal/mr/ ./internal/iokit/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_4.json -out BENCH_4.json
	$(GO) test -run '^$$' -bench 'BenchmarkSkewPartition' -benchmem ./internal/experiments/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_5.json
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineHandoff' -benchmem ./internal/experiments/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_6.json
	$(GO) test -run '^$$' -bench 'BenchmarkShuffleDataPlane' -benchmem ./internal/mr/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_7.json
	$(GO) test -run '^$$' -bench 'BenchmarkEagerEncode|BenchmarkDecodeEager|BenchmarkSharedAddPop|BenchmarkAntiReducePlain|BenchmarkAntiMapCall|BenchmarkAntiCombineRun' -benchmem ./internal/anticombine/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_anticombine.json -out BENCH_anticombine.json

# Every benchmark in the repository, human-readable.
bench-all:
	$(GO) test -bench=. -benchmem -run XXX ./...

# Everything except the subprocess-spawning cluster integration tests
# (they gate themselves on testing.Short).
test-short:
	$(GO) test -race -short ./...

# Cluster integration: subprocess workers, worker-kill recovery,
# byte-identical output vs the in-process engine.
test-cluster:
	$(GO) test -race -timeout 600s ./internal/cluster/

# Chaos soak: seeded deterministic fault injection over both engines.
# A failure prints its seed; replay one with
# `go test ./internal/chaos/ -run Soak -chaos-seed N`.
test-chaos:
	$(GO) test -race -timeout 600s ./internal/chaos/

# Service smoke: a real antserve daemon with two antwork workers,
# driven by antctl over the HTTP API — one job per tenant, quota
# enforcement, SIGTERM drain, clean shutdown.
smoke-service:
	./scripts/service_smoke.sh

# Pipeline smoke: submit the iterative-PageRank dag pipeline through
# antctl against a real antserve daemon with two workers.
smoke-pipeline:
	./scripts/pipeline_smoke.sh
