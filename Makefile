GO ?= go

.PHONY: build test vet race check fuzz-smoke golden-check metrics-golden randsvd-smoke ingest-smoke load-smoke cluster-smoke obs-smoke bench-parallel serve-bench query-bench trace-bench randsvd-bench ingest-bench load-bench cluster-bench obstrace-bench experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; the concurrent matio
# range-scan tests (TestConcurrentRangeScanStats, TestConcurrentScansAndReads),
# the worker-sharded svd/core equivalence tests, and the internal/server
# concurrency tests (TestConcurrentQueriesFileBacked hammering the sharded
# row cache + telemetry over a File-backed U, and the graceful-shutdown
# drain test) exercise the shared counters and both parallel pipelines
# under it.
race:
	$(GO) test -race ./...

# fuzz-smoke gives each format fuzzer a short budget on every check run:
# FuzzOpen chews on .smx headers/pages, FuzzReadLabeled on .sqz containers.
# `go test -fuzz` accepts one target per invocation, hence two runs.
fuzz-smoke:
	$(GO) test -run FuzzOpen -fuzz FuzzOpen -fuzztime 10s ./internal/matio
	$(GO) test -run FuzzReadLabeled -fuzz FuzzReadLabeled -fuzztime 10s ./internal/store

# golden-check re-runs only the frozen-fixture compatibility tests: the v1
# .smx and .sqz binaries checked into testdata must keep loading
# bit-for-bit identically.
golden-check:
	$(GO) test -run 'TestGoldenV1' -v ./internal/matio ./internal/store

# metrics-golden pins the observable metrics schemas: the /v1/metrics JSON
# key structure and the Prometheus exposition's family names/types are
# diffed against internal/server/testdata/*.golden, and the new
# observability packages get a dedicated vet pass. Regenerate the goldens
# after an intentional schema change with:
#	go test ./internal/server -run Golden -update-golden
metrics-golden:
	$(GO) vet ./internal/trace ./internal/telemetry ./internal/server
	$(GO) test -run 'TestMetrics.*SchemaGolden' -v ./internal/server

# randsvd-smoke races the randomized sketch compressor against both Gram
# paths end to end (factors, compression, reconstruction scoring) at a
# reduced synthetic scale, writing its record to a throwaway temp file so
# the committed full-scale results/bench_randsvd.json is not clobbered.
randsvd-smoke:
	@tmp=$$(mktemp -t bench_randsvd_smoke.XXXXXX.json) && \
	$(GO) run ./cmd/experiments -workers 1 -randsvd-synth-n 120 -randsvd-synth-m 900 \
		-randsvd-out $$tmp randsvd && rm -f $$tmp

# ingest-smoke drives the live write path end to end on every check run:
# HTTP bulk appends + concurrent reads + background compaction + the
# close/reopen WAL recovery drill, at a reduced scale, writing to a
# throwaway temp file so the committed results/bench_ingest.json survives.
ingest-smoke:
	@tmp=$$(mktemp -t bench_ingest_smoke.XXXXXX.json) && \
	$(GO) run ./cmd/experiments -ingest-cold-n 80 -ingest-batches 4 \
		-ingest-out $$tmp ingest && rm -f $$tmp

# load-smoke drives the closed-/open-loop load harness end to end on every
# check run at a reduced scale — client sweep, GOMAXPROCS sweep, plan-cache
# cold/warm pair and the open-loop run all execute against the live HTTP
# stack — writing to a throwaway temp file so the committed full-scale
# results/bench_load.json survives.
load-smoke:
	@tmp=$$(mktemp -t bench_load_smoke.XXXXXX.json) && \
	$(GO) run ./cmd/experiments -n 150 -load-requests 20 -load-out $$tmp load && rm -f $$tmp

# cluster-smoke stands up the distributed tier end to end on every check
# run — a stateless proxy over 1/2/4 row-sharded store nodes, real HTTP on
# both hops — verifies every pooled aggregate bit-identical to the
# single-node reference with the proxy's disk-access ledger equal to the
# sum of the shard ledgers, then drives a reduced closed-loop mixed
# workload, writing to a throwaway temp file so the committed full-scale
# results/bench_cluster.json survives.
cluster-smoke:
	@tmp=$$(mktemp -t bench_cluster_smoke.XXXXXX.json) && \
	$(GO) run ./cmd/experiments -n 150 -cluster-requests 20 -cluster-out $$tmp cluster && rm -f $$tmp

# obs-smoke pins the observability plane on every check run: the EXPLAIN
# response schema and the proxy's ?scope=cluster&format=prom exposition are
# golden-diffed (regenerate after an intentional change with
# `go test ./internal/server ./internal/cluster -run Golden -update-golden`),
# the scatter/gather trace, hedged-loser and SLO tests run, and the
# obstrace harness asserts the cross-process tracing plane stays under its
# 3% overhead target, writing to a throwaway temp file so the committed
# full-scale results/bench_obstrace.json survives.
obs-smoke:
	$(GO) test -run 'TestExplain|TestBatchExplainHTTP|TestServerSLO' ./internal/server
	$(GO) test -run 'TestClusterTraceScatterGather|TestHedgedLoserSpan|TestClusterExplain|TestClusterPromGolden|TestProxyPromGolden|TestProxySLOHealthz' -v ./internal/cluster
	@tmp=$$(mktemp -t bench_obstrace_smoke.XXXXXX.json) && \
	$(GO) run ./cmd/experiments -n 150 -obstrace-iters 30 -obstrace-assert \
		-obstrace-out $$tmp obstrace && rm -f $$tmp

check: vet race golden-check metrics-golden fuzz-smoke randsvd-smoke ingest-smoke load-smoke cluster-smoke obs-smoke

# bench-parallel runs the worker-count sub-benchmarks for the three sharded
# hot loops. The cmd/experiments "parallel" harness records the same loops
# to results/bench_parallel.json for cross-PR tracking.
bench-parallel:
	$(GO) test -bench 'Parallel' -run '^$$' -benchtime 1x ./internal/svd ./internal/core

# serve-bench drives the HTTP serving stack (8 Zipf-skewed clients against
# an SVDD-compressed phone2000) with and without the row cache, recording
# throughput, latency quantiles, cache hit rate and U-row disk reads to
# results/bench_server.json for cross-PR tracking.
serve-bench:
	$(GO) run ./cmd/experiments server

# query-bench times the aggregate query engine (naive vs projected vs
# factored paths, worker counts 1-8) over a file-backed SVD store and
# records the speedups to results/bench_query.json for cross-PR tracking.
query-bench:
	$(GO) run ./cmd/experiments query

# trace-bench measures the per-request cost-attribution tax: the same
# aggregate evaluations untraced vs with a live trace/ledger on the
# context, recorded to results/bench_trace.json (target: < 3% overhead).
trace-bench:
	$(GO) run ./cmd/experiments trace

# randsvd-bench runs the sketch-compressor harness at full acceptance scale
# (synthetic 400×5000 wide matrix) and records factor/total wall clock, pass
# counts, working sets and RMSPE per path to results/bench_randsvd.json.
randsvd-bench:
	$(GO) run ./cmd/experiments randsvd

# ingest-bench benchmarks the live write path at full scale (phone500 cold
# segment, 1/2/4 bulk writers with readers alongside, background
# compaction) and records rows/sec, bulk and read latency quantiles,
# compaction pauses and WAL recovery time to results/bench_ingest.json.
ingest-bench:
	$(GO) run ./cmd/experiments ingest

# load-bench runs the closed-/open-loop load generator at full scale
# (phone2000, client sweep 1-8, GOMAXPROCS sweep, plan-cache cold/warm
# pair, 400 req/s open-loop run) and records throughput, p50/p99/p999
# latency and the plan-cache p99 margin to results/bench_load.json.
load-bench:
	$(GO) run ./cmd/experiments load

# cluster-bench runs the distributed-tier harness at full scale (phone2000
# sliced over 1/2/4 store nodes behind the proxy, 4 clients × 300 mixed
# requests per shard count) and records throughput, per-endpoint latency
# quantiles and the bit-identity/ledger verdicts to
# results/bench_cluster.json.
cluster-bench:
	$(GO) run ./cmd/experiments cluster

# obstrace-bench measures the distributed observability tax at full scale:
# the same proxy-over-2-shards aggregate and point-read requests with the
# cross-process tracing plane active vs suppressed, plus the explain
# no-extra-IO and estimate-exactness invariants, recorded to
# results/bench_obstrace.json (target: < 3% overhead).
obstrace-bench:
	$(GO) run ./cmd/experiments -obstrace-assert obstrace

experiments:
	$(GO) run ./cmd/experiments
