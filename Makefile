# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test perfbench test-short race race-short bench bench-store bench-server bench-resilience bench-durability chaos killrestart fsck load load-smoke shard ingest replicate failover experiments fuzz loc clean

all: build vet test perfbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench is its own module (root `go build ./...` skips it) but
# imports internal/*, so an API change there must keep it compiling.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector run. The slowest harness tests carry -short guards,
# so `make race-short` is the quick pre-commit variant.
race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Storage-layer benchmarks: indexed vs re-reading store queries, cached
# vs uncached directive harvesting. CI archives the JSON summary.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreQuery|BenchmarkHarvest' -benchmem \
		./internal/history/ ./internal/core/ | tee bench-store.txt
	$(GO) run ./internal/tools/benchjson -pr 2 -in bench-store.txt

# Service benchmarks: full HTTP round trips against an in-process pcd
# (indexed query, cache-hot harvest pipeline). CI archives the summary.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkServer' -benchmem \
		./internal/server/ | tee bench-server.txt
	$(GO) run ./internal/tools/benchjson -pr 3 -in bench-server.txt

# Resilience benchmarks: client retry/breaker overhead and the fault
# injector's tax on backend ops. CI archives the summary.
bench-resilience:
	$(GO) test -run '^$$' -bench 'BenchmarkResilience' -benchmem \
		./internal/client/ ./internal/history/ | tee bench-resilience.txt
	$(GO) run ./internal/tools/benchjson -pr 4 -in bench-resilience.txt

# Durability benchmarks: WAL append cost per sync policy, journal
# replay cost at restart, and the per-checkpoint write a journaled
# session pays. CI archives the summary (BENCH_PR5.json).
bench-durability:
	$(GO) test -run '^$$' -bench 'BenchmarkDurability' -benchmem \
		./internal/history/ ./internal/server/ | tee bench-durability.txt
	$(GO) run ./internal/tools/benchjson -pr 5 -in bench-durability.txt

# Chaos soak under the race detector: the client→server→store pipeline
# with a seeded fault mix must produce byte-identical diagnosis output
# to a fault-free run (chaosSeed in internal/server/chaos_test.go).
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/server/

# Kill-9 recovery soak: a real pcd is SIGKILLed mid-write (under
# injected torn writes) and mid-session, restarted, and must lose no
# acknowledged write, resume the orphaned session byte-identically, and
# leave a store pcfsck grades clean (killrestart_test.go).
killrestart:
	$(GO) test -race -run 'TestKillRestart' -v .

# Offline store verification. Usage: make fsck STORE=/path/to/store
# (add FSCK_FLAGS=-repair to fix what it finds). Exit code 0 = clean,
# 1 = crash residue, 2 = corruption.
STORE ?= /tmp/hist
fsck:
	$(GO) run ./cmd/pcfsck -store $(STORE) $(FSCK_FLAGS)

# Sustained-traffic load harness (cmd/pcload): drive a live pcd with a
# declarative scenario suite and verify correctness under load. Usage:
# make load SUITE=smoke (any suites/*.toml name, comma-separated for
# several; defaults to every suite). LOAD_PR6.json in the repo records
# the numbers measured when the harness landed.
SUITE ?= smoke
load:
	$(GO) run ./cmd/pcload -suite $(SUITE) -check -v

# The seconds-scale CI variant: the smoke suite only, with the
# correctness bar enforced (non-zero throughput, zero acked-write loss,
# pcfsck-clean store).
load-smoke:
	$(GO) run ./cmd/pcload -suite smoke -check

# Sharded-store smoke: the smoke suite against a self-hosted pcd over a
# 4-shard store kept at SHARD_DIR, an explicit offline pcfsck of the
# resulting sharded layout (exit 0 required), then the scatter-gather
# suite over its own 4-shard store.
SHARD_DIR ?= /tmp/pcshard-store
shard:
	rm -rf $(SHARD_DIR)
	$(GO) run ./cmd/pcload -suite smoke -shards 4 -dir $(SHARD_DIR) -check
	$(GO) run ./cmd/pcfsck -store $(SHARD_DIR)
	$(GO) run ./cmd/pcload -suite shard-scatter -check

# Streaming-ingestion smoke: pcfeed drives 8 concurrent archetype
# streams per wave into a self-hosted pcd with harvesting on (the
# post-run read-back sweep is part of -check), then the kept store must
# pcfsck clean. BENCH_PR8.json in the repo records the harvest-on vs
# harvest-off steps-to-signature numbers (pcfeed -compare).
INGEST_DIR ?= /tmp/pcingest-store
ingest:
	rm -rf $(INGEST_DIR)
	$(GO) run ./cmd/pcfeed -store $(INGEST_DIR) -streams 8 -waves 2 -harvest -check -v
	$(GO) run ./cmd/pcfsck -store $(INGEST_DIR)

# Replication smoke: the kill-the-primary and kill-the-follower process
# harnesses under the race detector (a real replicated pcd pair,
# SIGKILL, promotion, zero acked-write loss, cross-replica pcfsck), the
# replica layer's unit tests, then the replica-failover load suite (a
# shard primary killed mid-traffic, the follower taking over).
replicate:
	$(GO) test -race -run 'TestKillPrimaryFailover|TestKillFollowerMidApply' -v .
	$(GO) test -race ./internal/replica/
	$(GO) run ./cmd/pcload -suite replica-failover -check -v

# Automatic failover smoke: SIGKILL the primary process under load with
# NO scripted promote — the lease-based failure detector must elect and
# promote the follower on its own, fence the revived zombie with the
# typed 409, and lose nothing acked. Then the flapping harness (three
# kill/revive cycles, exactly one writable primary at every step), then
# the auto-failover load suite (a shard backend killed mid-traffic, the
# detector promoting with no operator).
failover:
	$(GO) test -race -run 'TestKillPrimaryAutoFailover|TestFailoverFlapping' -v .
	$(GO) test -race ./internal/replica/
	$(GO) run ./cmd/pcload -suite auto-failover -check -v

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/pcbench -exp all -trials 3

fuzz:
	$(GO) test -fuzz FuzzParseDirectives -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzParseMappings -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzParseFocus -fuzztime 10s ./internal/resource/
	$(GO) test -fuzz FuzzSplitPath -fuzztime 10s ./internal/resource/

# Production size: non-test Go lines outside perfbench/ (and outside
# hidden directories such as build caches) — the net line delta each
# change reports.
loc:
	@find . -path './.*' -prune -o -path ./perfbench -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

clean:
	$(GO) clean -testcache
