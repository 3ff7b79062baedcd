# Convenience targets; everything is plain `go` underneath.
GO ?= go
BENCHTIME ?= 1x
BENCHCOUNT ?= 1
# The archived bench document this tree writes (bench-json) and the two it
# is gated against (bench-diff): its neighbour, and a pinned floor that no
# PR rewrites, so a drift of a few percent a PR cannot pass gate after gate
# (BENCH_BASE.json is a byte copy of BENCH_20.json, the first archive whose
# ServerSubmit and ServerSubmitWAL are both under their PR 4 values). A PR
# that archives new numbers bumps BENCH_N and BENCH_PREV; older documents
# are in git history.
BENCH_N ?= BENCH_20.json
BENCH_PREV ?= BENCH_19.json
BENCH_BASE ?= BENCH_BASE.json

.PHONY: all build test vet fmt lint bench bench-json bench-diff race race-server cluster-smoke elastic-smoke fanout-smoke flake fuzz fuzz-smoke obs recovery longrun scenario-smoke profile-mutex figures experiments soak pfaird pfairload pfairscen report clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# lint fails (unlike `make fmt`, which only lists) so CI can gate on it.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The service layer is the concurrency-heavy code; give it a dedicated
# race gate that stays fast even when the full -race run grows slow.
race-server:
	$(GO) test -race ./internal/server/... ./internal/client/... ./internal/online/... ./internal/obs/...

# cluster-smoke is the replication gate: the in-process 3-node cluster
# (1 leader + 2 followers behind pfair-router) under -race — kill the
# leader mid-traffic, promotion must land in < 2s with zero acked-write
# loss and tardiness ≤ 1 quantum — plus term fencing, the seeded
# leader-kill invariant (acked ≤ recovered ≤ issued), the router's own
# tests (sharding, reply framing, placement, resend rule) and its upstream
# layer's (request differential against http.Client, every reply shape,
# stale pooled connections, a client hanging up mid-feed, the pool bound),
# the log-serving reader's durable-prefix guarantees, and the three
# reaction paths driven by their events alone, tickers never firing: a
# replica ready at catch-up (TestFollowerOfIdle…, TestFollowerReadyExactly…),
# a promotion that reports back and one that fails and is retried
# (TestPromotionReportsBack, TestFailedPromotionIsRetried), the log stream
# woken by the fsync and never missing one (TestReplLog…, TestNextDurable…) —
# and a submit group as the one record it is: keyed jobs:batch requests
# through leader → follower → promoted follower → its follower with ?from=0
# byte identity at every hop (TestBatchThroughFailover…), and a replica fed a
# stream cut at every byte of a batch holding all of it or none
# (TestFollowerOfCutStream…).
cluster-smoke:
	$(GO) test -race -count=1 -v ./internal/cluster/ -run 'TestClusterSmoke|TestFollowerReplicatesAndPromotes|TestStaleLeaderFenced|TestRouter|TestNewRouter|TestUpstream|TestFollowerOfIdleLeaderReadyWithoutTick|TestFollowerReadyExactlyAtTip|TestPromotionReportsBack|TestFailedPromotionIsRetried|TestBatchThroughFailoverByteIdentity|TestFollowerOfCutStreamHoldsWholeBatches'
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestReplLog'
	$(GO) test -race -count=1 ./internal/wal/ -run 'TestReaderTailsConcurrentGroupCommit|TestCrashMidBatch|TestNextDurable|TestThresholdSync|TestStoppedTimerCallback'

# elastic-smoke is the elastic-capacity gate, all under -race: the
# 50-seed resize-storm property harness (grow/shrink/reject/drain mixed
# with crash-at-byte fault injection; recovery must replay the capacity
# history exactly, acked ≤ recovered ≤ issued, tardiness ≤ 1 quantum),
# the failover test that kills a resizing leader and asserts the promoted
# follower lands on the acked capacity state, the boundary tests at m′
# and m′ + 1/q, and the lag-driven autoscaler suite including its
# live-server loop.
elastic-smoke:
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestResizeStormCrashRecovery'
	$(GO) test -race -count=1 -v ./internal/cluster/ -run 'TestElasticFailoverReplaysCapacityHistory'
	$(GO) test -race -count=1 ./internal/online/ -run 'Resize'
	$(GO) test -race -count=1 -v ./internal/admission/ -run 'TestFeasibleBoundaryEveryCaller'
	$(GO) test -race -count=1 ./internal/admission/ ./internal/autoscale/

bench:
	$(GO) test -bench=. -benchmem .

# bench-json archives machine-readable results (root benchmarks incl. the
# PR 1 DVQ/SFQLarge set, plus the service-layer BenchmarkServerSubmit*
# family — ServerSubmitBatch/{16,92}jobs{,_wal} is its batch route, whose
# _wal rows also carry records/op and fsyncs/op, what one round of a batch
# and an advance costs the journal — the
# egress-plane set — DispatchFanout/{1,8,64}subs against
# its per-subscriber-encode baseline, and the pooled /metrics render —
# WireCodec/{json,wire}/…, the six encodings one submit crosses, on
# encoding/json and on the hand-written codec,
# TenantRecord/{0subs,1subs,journaled}, ns and allocs per dispatch on the
# record path, in memory and into a real journal with its group-commit
# fsyncs (target 0 allocs; an iteration is one dispatch, so it runs many), and
# Compact/history={10k,100k}, one compaction behind a short and a long
# dispatch history, at its own iteration count: an iteration is a whole
# compaction, fsyncs included — and RouterHop/{direct,routed}/{submit,advance},
# one request to an in-memory pfaird and the same request through a router in
# front of it, at -cpu 1 as the repository benchmark runs its processes:
# routed minus direct is the CPU the hop costs, not the wake-up latency of a
# second core — and ReplicaReady, a replica's cold start against an idle
# leader until /healthz answers 200, and ReplicaVisible, how long a write
# acked as durable stays invisible on a caught-up replica; an iteration of
# either waits on the cluster's reaction paths, so they run few).
# The checked-in document is generated with BENCHTIME=20x BENCHCOUNT=3;
# benchjson keeps the fastest of the repeated runs, so shared-host noise
# cancels out of the bench-diff gate.
bench-json:
	{ $(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . && \
	  $(GO) test -run '^$$' -bench='BenchmarkServerSubmit|BenchmarkDispatchFanout|BenchmarkMetricsExposition|BenchmarkWireCodec' -benchmem -benchtime=1000x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkTenantRecord' -benchmem -benchtime=200000x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkCompact' -benchmem -benchtime=200x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkRouterHop' -benchmem -benchtime=2000x -cpu 1 -count=$(BENCHCOUNT) ./internal/cluster/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkReplica' -benchmem -benchtime=50x -cpu 1 -count=$(BENCHCOUNT) ./internal/cluster/; } \
	  | $(GO) run ./cmd/benchjson > $(BENCH_N)
	@echo wrote $(BENCH_N)

# bench-diff gates the archived results: the benchmarks BENCH_N shares with
# its neighbour, and with the pinned floor, must not regress in ns/op by
# more than 20%.
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(BENCH_PREV) $(BENCH_N)
	$(GO) run ./cmd/benchjson -diff $(BENCH_BASE) $(BENCH_N)

# fanout-smoke is the egress plane's CI gate, all under -race: the
# 20-seed byte-identity sweep (every NDJSON stream must equal an
# independent re-encode of its records), the 32-subscriber fan-out
# stress with subscribe/unsubscribe churn, both slow-consumer paths
# (lag-bound 410 eviction and the write-stall severing of a wedged
# reader), the raw-frame WAL reader contract, the client's control-line
# decoding, the pfairload -streams mode consuming full fan-out, and the
# stream's byte identity across nodes: batches through leader → follower →
# promoted follower, ?from=0 compared at every hop.
fanout-smoke:
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestStreamByteIdentity20Seeds|TestFanoutStress|TestStreamEvictsLaggingSubscriber|TestStreamStallSeversWedgedReader'
	$(GO) test -race -count=1 -v ./internal/cluster/ -run 'TestBatchThroughFailoverByteIdentity'
	$(GO) test -race -count=1 ./internal/wal/ -run 'TestNextRaw'
	$(GO) test -race -count=1 ./internal/client/ -run 'TestStreamNextGone|TestStreamGoneRoundTrip'
	$(GO) test -race -count=1 ./cmd/pfairload/ -run 'TestStreamsFanout'

# flake re-runs the tests that race real timers against real sockets —
# the stall sever, the lag eviction, the live trace follower — twenty
# times under -race: a tier-1 suite is deterministic only if these are.
flake:
	$(GO) test -race -count=20 ./internal/server/ -run 'TestStreamStallSeversWedgedReader|TestStreamEvictsLaggingSubscriber|TestTraceFollowLive'
	$(GO) test -race -count=20 ./internal/client/ -run 'TestStreamTraceEndToEnd'

fuzz:
	$(GO) test ./internal/core/ -fuzz=FuzzTheorem3 -fuzztime=30s
	$(GO) test ./internal/core/ -fuzz=FuzzTheorem2 -fuzztime=30s
	$(GO) test ./internal/rat/ -fuzz=FuzzParse -fuzztime=15s

# fuzz-smoke runs the durability and decoding fuzz targets briefly —
# enough for CI to catch regressions in the WAL replay path, the
# admission boundary, and the trace-stream decoder without the
# open-ended budget of `make fuzz`. FuzzRecordMatchesJSON and
# FuzzWireMatchesJSON are the contract of the hand-written codecs (the
# journal record's, the API bodies'): whatever they accept or encode,
# encoding/json accepts or encodes the same.
fuzz-smoke:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz=FuzzWALReplay -fuzztime=30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz=FuzzRecordMatchesJSON -fuzztime=30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzTaskParams -fuzztime=30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzWireMatchesJSON -fuzztime=30s
	$(GO) test ./internal/online/ -run '^$$' -fuzz=FuzzResize -fuzztime=30s
	$(GO) test ./internal/client/ -run '^$$' -fuzz=FuzzTraceDecoder -fuzztime=30s
	$(GO) test ./internal/scenario/ -run '^$$' -fuzz=FuzzScenarioSpec -fuzztime=30s

# obs runs the deterministic observability harness: the golden /metrics
# exposition and the write-path golden (journal records, responses and
# trace events of a fixed command script; regenerate either with `go test
# ./internal/server -run Golden -update`), the exact trace-lifecycle
# tests, and the scrape-vs-submit concurrency workout, all under -race.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -v ./internal/server/ -run 'Golden|Trace|ObsConcurrent'
	$(GO) test -race -count=1 ./internal/client/ -run 'TraceDecoder|StreamTrace'

# recovery runs the crash-safety suite — fault-injected WAL recovery,
# checkpoint/restore determinism (through the reference-engine oracle
# too), shutdown edges, SIGTERM drain, and sealed dispatch history: the
# crash-at-every-filesystem-operation sweeps across a sealing compaction,
# the parent-format snapshot, a follower bootstrapped from a leader whose
# history is in files — and the journal's dispatch verification (-v, CI
# greps for them): a parent-format journal of per-decision records, a
# tampered journal that must be counted, a follower that compacts between
# a command and its digest, or its per-decision records under a leader not
# yet upgraded — and the submit group's one record: a crash at every byte
# of a batch's write leaves all of it or none (TornBatch), a journal of
# per-job groups still replays (PerJobGroupJournal), the largest admissible
# batch is journaled or refused before a byte is written (WorstBatch) —
# under the race detector.
recovery:
	$(GO) test -race -count=1 ./internal/wal/ ./internal/faultfs/ ./cmd/pfaird/ \
		./internal/online/ -run 'Checkpoint|Restore|Crash|Recovery|Shutdown|SIGTERM|WAL|ExecutiveMatchesReference'
	$(GO) test -race -count=1 ./internal/server/ -run 'CrashRecovery|Shutdown|SnapshotStorm|CrashNeverAcks|RestoreParentFormatSnapshot|TornBatch|PerJobGroupJournal|WorstBatch'
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestRestoreParentFormatJournal|TestRecoveryCountsTamperedJournal|TestFollowerCompactionBeforeDigest|TestFollowerOfLegacyLeaderCompacts'
	$(GO) test -race -count=1 ./internal/cluster/ -run 'TestFollowerBootstrapFromSealedHistory'

# longrun is the bounded-state soak: the tier-1 flatness gate
# TestLongTenantSnapshotsStayFlat at 10^6 dispatches instead of 60 000 —
# ≈ 2000 compactions, about a minute — logging every 16th compaction's
# snapshot size, bytes written, pause and post-GC runtime.MemStats
# HeapInuse. Snapshot bytes, bytes written per compaction and the heap in
# use are all asserted flat, first quarter against last.
longrun:
	$(GO) test -count=1 -v -timeout 30m ./internal/server/ -run 'TestLongTenantSnapshotsStayFlat' -args -dispatches 1000000

# scenario-smoke is the scenario engine's CI gate: the golden-trace
# byte-compare (same seed + same spec ⇒ byte-identical trace; regenerate
# with `go test ./internal/scenario -run GoldenTrace -update` after an
# intentional format change), exact replay, the ≥100-seed counterfactual
# sweep against the exhaustive oracle, and the pfairscen/pfairload CLI
# paths — all deterministic, all seeded.
scenario-smoke:
	$(GO) test -race -count=1 -v ./internal/scenario/ -run 'TestScenarioGoldenTrace|TestReplayReproducesDispatches|TestExecAndHTTPTargetsAgree|TestCounterfactualMatchesOracle'
	$(GO) test -race -count=1 ./cmd/pfairscen/
	$(GO) test -race -count=1 ./cmd/pfairload/ -run 'TestScenarioMode|TestSeedInSummary'

# profile-mutex captures contention profiles for the submit hot path: run
# the parallel benchmarks with mutex/block profiling on, then inspect with
# `go tool pprof mutex.out`. After the single-writer loop, the profile
# should show no Tenant-level mutex at all — what remains is the WAL lock
# and the runtime's own channel locks.
profile-mutex:
	$(GO) test -run '^$$' -bench 'ServerSubmitParallel|ServerSubmitContended' -benchtime=200x \
		-mutexprofile=mutex.out -blockprofile=block.out ./internal/server/
	@echo "wrote mutex.out, block.out — inspect with: go tool pprof mutex.out"

figures:
	$(GO) run ./cmd/figures all

experiments:
	$(GO) run ./cmd/experiments -trials 30 -out artifacts all

soak:
	$(GO) run ./cmd/soak -trials 2000

pfaird:
	$(GO) run ./cmd/pfaird

pfairload:
	$(GO) run ./cmd/pfairload

pfairscen:
	$(GO) run ./cmd/pfairscen

report:
	$(GO) run ./cmd/report -o report.html

clean:
	rm -rf artifacts report.html
