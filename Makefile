# Standard developer targets. `make verify` is the tier-1 gate plus
# vet and the race detector — run it before sending a change.

GO ?= go

.PHONY: build test vet staticcheck race verify bench bench-e2e bench-all test-short test-cluster test-chaos fuzz-smoke smoke-examples smoke-service smoke-pipeline loc

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

# One micro-benchmark report per layer, all written the same way:
# `benchjson -baseline F -out F` carries F's recorded before rows (its
# baseline section, or its benchmark rows when it has none yet) into the
# refreshed report and compares every row both have. Each benchmark runs
# six times (-count 6), and benchjson reports the median of the six with
# n and the ns/op quartiles. BENCH_mr.json is the
# map path and the storage byte path (mr + iokit + bytesx); its baseline
# section is the commit before the word-at-a-time hash partitioner, the
# second spill-sort radix round and view record reads (older baselines,
# down to the sequential unpooled configuration, are in git history).
# BENCH_experiments.json is skew partitioning (hash vs range vs split
# max/mean partition bytes, via custom ReportMetric units), the dag
# pipeline handoff, the theta-join's own Map and local band join and
# Query-Suggestion's reduce-side fold; BENCH_transport.json the shuffle data plane (raw vs
# sendfile vs compressed throughput with bytes-on-wire per op);
# BENCH_anticombine.json the anti-combining primitives, against the
# commit before Shared stored its bytes in pooled blocks instead of a
# doubling arena.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMapBufferSpill|BenchmarkSpillSort|BenchmarkMapPathE2E|BenchmarkMergeIter|BenchmarkSegmentRoundTrip|BenchmarkReduceCollect|BenchmarkMemFSWrite|BenchmarkHashPartitioner|BenchmarkReadRecord' -benchmem -count 6 ./internal/mr/ ./internal/iokit/ ./internal/bytesx/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_mr.json -out BENCH_mr.json
	$(GO) test -run '^$$' -bench 'BenchmarkSkewPartition|BenchmarkPipelineHandoff|BenchmarkThetaMap|BenchmarkThetaReduce|BenchmarkCountsFold' -benchmem -count 6 ./internal/experiments/ ./internal/workloads/thetajoin/ ./internal/workloads/querysuggest/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_experiments.json -out BENCH_experiments.json
	$(GO) test -run '^$$' -bench 'BenchmarkShuffleDataPlane' -benchmem -count 6 ./internal/mr/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_transport.json -out BENCH_transport.json
	$(GO) test -run '^$$' -bench 'BenchmarkEagerEncode|BenchmarkDecodeEager|BenchmarkSharedAddPop|BenchmarkSharedFill|BenchmarkSharedSpill|BenchmarkAntiReducePlain|BenchmarkAntiMapCall|BenchmarkAntiCombineRun' -benchmem -count 6 ./internal/anticombine/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -baseline BENCH_anticombine.json -out BENCH_anticombine.json

# End-to-end before/after rows: alternating benchmark/run.sh pairs of
# BASE and this checkout, written to BENCH_e2e.json with both sides'
# medians and quartiles and the pairs won (scripts/e2e_pairs.sh).
# WORKLOADS is a comma-separated subset (default: all).
BASE ?= HEAD~1
PAIRS ?= 10
bench-e2e:
	./scripts/e2e_pairs.sh $(BASE) "$(WORKLOADS)" $(PAIRS)

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

# Fuzz smoke: every Fuzz* target for FUZZTIME each. Plain `go test` only
# replays the seed corpora; this is what lets the mutator look. `go test
# -fuzz` takes one target per invocation, hence the loop.
FUZZTIME ?= 5s
FUZZ_TARGETS = \
	internal/bytesx:FuzzKeyIndex internal/codec:FuzzSnappy internal/codec:FuzzBWSC \
	internal/codec:FuzzSnappyDecompressBlock internal/codec:FuzzBWSCDecompressBlock \
	internal/mr:FuzzReadLenPrefixed internal/mr:FuzzFrameRoundTrip internal/mr:FuzzServerConn \
	internal/mr:FuzzCompressedBody internal/mr:FuzzSegmentFrames internal/mr:FuzzSpillSort \
	internal/anticombine:FuzzDecodeValue internal/anticombine:FuzzShared \
	internal/monoid:FuzzFoldTable internal/datagen:FuzzParseCloudLine \
	internal/workloads/pagerank:FuzzDecodeRank internal/workloads/thetajoin:FuzzThetaReduce \
	internal/workloads/querysuggest:FuzzFinalTop
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./$${t%%:*}; \
	done

# Examples smoke: run every examples/* program. quickstart and pagerank
# exit non-zero when the Anti-Combined run disagrees with the original.
smoke-examples:
	@set -e; for d in examples/*/; do \
		echo "example $$d"; \
		$(GO) run ./$$d; \
	done

# Service smoke: a real antserve daemon with two antwork workers,
# driven by antctl over the HTTP API — one job per tenant, quota
# enforcement, SIGTERM drain, clean shutdown.
smoke-service:
	./scripts/service_smoke.sh

# Pipeline smoke: submit the iterative-PageRank dag pipeline through
# antctl against a real antserve daemon with two workers.
smoke-pipeline:
	./scripts/pipeline_smoke.sh

# Code size: non-test Go lines outside the benchmark module (and the
# parent tree make bench-e2e extracts under .bench_build) — the
# figure a change that claims to simplify quotes before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
