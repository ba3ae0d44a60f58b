# Pre-PR gate (documented in docs/ARCHITECTURE.md): formatting, vet,
# optional linters, race-detector runs of the concurrency-heavy packages
# and the fault-injection paths, full build. gofmt and go vet always run;
# staticcheck/govulncheck are optional-when-installed (see lint).
#
# check does not run benchmarks (too noisy for a gate). When a change
# touches internal/flitsim's step loop or internal/routing's Choose path,
# run `make bench-flit` / `make bench-routing` and compare the fresh
# "current" numbers against the committed BENCH_*.json baselines the way
# benchstat compares runs — several repetitions, interleaved, on an idle
# machine — before trusting a delta (docs/PERFORMANCE.md).
.PHONY: check build test bench bench-graph bench-routing bench-flit bench-paths bench-serve fmt lint race-graph race-faults race-paths race-serve race-serve-v2 race-chaos race-flit-events flit-event-smoke fuzz-paths fuzz-serve serve-smoke chaos-smoke docs-check flake perfbench

check: fmt lint
	go vet ./...
	go test -race ./internal/telemetry/... ./internal/par/...
	$(MAKE) race-graph
	$(MAKE) race-faults
	$(MAKE) race-paths
	$(MAKE) race-serve
	$(MAKE) race-serve-v2
	$(MAKE) race-chaos
	$(MAKE) race-flit-events
	$(MAKE) flit-event-smoke
	$(MAKE) fuzz-paths
	$(MAKE) serve-smoke
	$(MAKE) docs-check
	$(MAKE) perfbench
	go build ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck and govulncheck run only when installed — the gate must
# stay usable on minimal containers without network access.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

# Every layer shares one immutable packed graph across worker pools; build
# RRG(2000,24,19) — past the old dense-link-table gate — and run a parallel
# all-pairs BFS plus concurrent link-table readers over it under the race
# detector. The CSR arrays must be strictly read-only once frozen.
race-graph:
	go test -race -run 'ParallelAllPairsBFS|FingerprintGolden' ./internal/jellyfish ./internal/graph

# Fault injection touches shared simulator state from par.For workers;
# run every fault test under the race detector as a smoke gate.
race-faults:
	go test -race -run Fault ./...

# The path DB mixes lock-free packed-store reads with mutex-guarded lazy
# fills; run its concurrency regression tests under the race detector.
race-paths:
	go test -race -run 'Race|Concurrent' ./internal/paths

# jfserve serves one goroutine per connection over shared DBs; hammer
# routes-batch from concurrent clients and exercise shutdown draining
# under the race detector.
race-serve:
	go test -race -run 'Concurrent|Shutdown' ./internal/serve

# The binary v2 protocol surface under the race detector: the codec and
# negotiation tests, the JSON/binary differential suite, streaming
# sweeps, the striped-routing-state equivalence test, and the binary
# chaos swarm. This is the gate pinning that sharded adaptive choice
# stays race-free and both codecs answer identically.
race-serve-v2:
	go test -race -count=1 -run 'Binary|Differential|Sweep|Stripe' ./internal/serve ./internal/serve/chaos

# The chaos swarm — rogue clients (slow loris, mid-frame disconnects,
# garbage floods, deadline overruns, injected panics) and retrying
# well-behaved clients against one limited daemon — under the race
# detector: the daemon must stay live and its health counters must
# reconcile with the injected fault schedule.
race-chaos:
	go test -race -count=1 -run Chaos ./internal/serve/chaos

# The event-driven advance jumps the clock over idle spans while the
# fault schedule mutates link state; run the low-load event-driven fault
# test under the race detector so clock jumps and fault events stay
# correctly ordered.
race-flit-events:
	go test -race -count=1 -run 'EventDrivenFault|EventCycle|StepContract' ./internal/flitsim

# Golden-equivalence smoke: event-driven vs cycle-stepped at the three
# golden loads (0.05, 0.30, 0.90) must agree on saturation verdicts and
# delivered throughput, and the exact-equivalence run (rate-1 SP, where
# both modes consume zero injection randomness) must be bit-identical.
flit-event-smoke:
	go test -count=1 -run 'EventCycleEquivalence|ResultGolden' ./internal/flitsim

# End-to-end daemon smoke: in-process server on a real Unix socket,
# every protocol op through the Go client, one raw error frame, clean
# drain on Stop (exits non-zero on any mismatch).
serve-smoke:
	go run ./internal/serve/smoke

# The same chaos swarm without the race detector: the quick liveness
# gate to run after touching the server's limits or shedding paths.
chaos-smoke:
	go test -count=1 -run Chaos -v ./internal/serve/chaos

# Repeat the timing-sensitive tests N times: the serving layer's
# sockets, deadlines, shedding and shutdown, the Go client's context
# handling and the chaos swarms all live under ./internal/serve/...
# (no other package's tests depend on wall-clock timing). Outside check
# because 20 repetitions take minutes; run it after touching the daemon,
# its client or the chaos harness. Every run must pass.
N ?= 20
flake:
	go test -count=$(N) ./internal/serve/...

# The benchmark is a module of its own (perfbench/go.mod), so the root
# `go test ./...` never compiles it; its tests pin the seed-1 simulated
# statistics and path-set digests every workload must reproduce.
perfbench:
	go -C perfbench vet ./... && go -C perfbench test -count=1 ./...

# Relative links in README.md and docs/*.md must point at real files.
docs-check:
	go run ./internal/docscheck

# Short fuzz smoke of both path deserializers (text archive and binary
# cache): 10s each on top of the committed corpus under
# internal/paths/testdata/fuzz. Longer sessions: raise -fuzztime.
fuzz-paths:
	go test -fuzz=FuzzPathsRead -fuzztime=10s -run '^$$' ./internal/paths
	go test -fuzz=FuzzCacheRead -fuzztime=10s -run '^$$' ./internal/paths

# Short fuzz smoke of the binary v2 wire decoders on top of the
# committed corpus under internal/serve/testdata/fuzz (seeded from the
# golden fixtures plus truncations, oversized length prefixes and
# version-skew bytes). Longer sessions: raise -fuzztime.
fuzz-serve:
	go test -fuzz=FuzzBinaryFrame -fuzztime=10s -run '^$$' ./internal/serve
	go test -fuzz=FuzzBinaryBatch -fuzztime=10s -run '^$$' ./internal/serve

build:
	go build ./...

test:
	go test ./...

bench: bench-graph bench-routing bench-flit bench-paths bench-serve
	go test -bench=. -benchmem ./...

# Graph-substrate benchmark: CSR build time vs the old map builder,
# packed bytes/node vs the slice+dense-table representation it replaced,
# BFS all-pairs rate (must not regress vs the slice adjacency) and
# LinkID/LinkEndpoints throughput on RRG(720,24,19) and RRG(2000,24,19),
# written to BENCH_graph.json (committed baseline; methodology in the
# harness doc comment and docs/PERFORMANCE.md).
bench-graph:
	go run ./internal/graph/benchjson -o BENCH_graph.json

# Routing-engine microbenchmarks: ns/op and allocs/op of one Choose call
# per mechanism on k=8 candidate sets, written to BENCH_routing.json (the
# committed file is the baseline to diff against).
bench-routing:
	go run ./internal/routing/benchjson -o BENCH_routing.json

# Cycle-level simulator stepping throughput (cycles/sec, ns/cycle at a
# low, mid and saturating load), written to BENCH_flitsim.json. The file
# keeps its stored "baseline" run across reruns, benchstat-style: compare
# "current" against "baseline" (and against the committed file's
# "current") before and after touching the hot loop; see
# docs/PERFORMANCE.md for the workflow and what the loads exercise.
bench-flit:
	go run ./internal/flitsim/benchjson -o BENCH_flitsim.json

# Path-store benchmark: eager-build throughput, on-disk cache load
# speedup and packed-vs-slice bytes/pair on the medium topology, written
# to BENCH_paths.json (committed baseline; methodology in docs/PATHS.md).
# Takes a minute or two: the build leg recomputes 50k pairs.
bench-paths:
	go run ./internal/paths/benchjson -o BENCH_paths.json

# Serving-layer benchmark: sustained batched lookups/sec and single-op
# round trips/sec against an in-process jfserve on a Unix socket,
# written to BENCH_serve.json (committed baseline; capacity-planning
# notes in docs/SERVICE.md). Client and server share the machine, so
# run it idle and read the number as a per-host floor. It exits non-zero
# when the overload phase sheds nothing or routes nothing: that checks
# the in-flight limiter, not speed, so it stays outside check.
bench-serve:
	go run ./internal/serve/benchjson -o BENCH_serve.json
