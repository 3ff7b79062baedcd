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

.PHONY: all build test vet fmt lint bench bench-json bench-diff engines race race-server cluster-smoke elastic-smoke fanout-smoke flake fuzz fuzz-smoke obs recovery tier1-loop longrun scenario-smoke profile-mutex figures experiments soak pfaird pfairload pfairscen report loc docs-check clean

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
# leader mid-traffic, one promotion must land before the first post-kill
# ack (its wall time is logged) with zero acked-write loss and tardiness
# ≤ 1 quantum — plus term fencing, the seeded
# leader-kill invariant (acked ≤ recovered ≤ issued), the router's own
# tests (sharding, reply framing, placement, resend rule) and those of its
# hop through a router front (request differential against http.Client,
# every reply shape, a client hanging up mid-feed, the pool bound), the
# shared hop itself (internal/hop: stale pooled connections, reuse and the
# idle bound, head injection) and the client that rides it (internal/client:
# its own request differential, odd ids, one pool per address, the resend
# rule),
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
# (TestFollowerOfCutStream…) — and the cluster on one transport seam: leader,
# follower and router in one process with no socket, every call a hop.Upstream
# dialing an in-memory network, the follower's ?from=0 stream the leader's
# byte for byte (TestClusterOverPipes), and a sealed follower leaving its old
# leader no connection (TestSealHangsUpOnLeader).
cluster-smoke:
	$(GO) test -race -count=1 -v ./internal/cluster/ -run 'TestClusterSmoke|TestFollowerReplicatesAndPromotes|TestStaleLeaderFenced|TestRouter|TestNewRouter|TestUpstream|TestFollowerOfIdleLeaderReadyWithoutTick|TestFollowerReadyExactlyAtTip|TestPromotionReportsBack|TestFailedPromotionIsRetried|TestBatchThroughFailoverByteIdentity|TestFollowerOfCutStreamHoldsWholeBatches|TestClusterOverPipes|TestSealHangsUpOnLeader'
	$(GO) test -race -count=1 -v ./internal/hop/ ./internal/client/
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
# and an advance costs the journal — TenantBatchRound, one wide_sched round
# (a 92-job batch and an advance of 128 decisions) through the Tenant API
# with its submit-ns/round and advance-ns/round split (TenantBatchRoundJournaled
# is the same round on a durable server that never compacts; its
# resident-B/dispatch is what the unsealed log holds per decision), the
# egress-plane set — DispatchFanout/{1,8,64}subs against
# its per-subscriber-encode baseline, and the pooled /metrics render —
# WireCodec/{json,wire}/…, the six encodings one submit crosses, on
# encoding/json and on the hand-written codec,
# TenantRecord/{0subs,1subs,journaled}, ns and allocs per dispatch on the
# record path, in memory and into a real journal with its group-commit
# fsyncs (target 0 allocs; an iteration is one dispatch, so it runs many), and
# Compact/history={10k,100k}, one compaction behind a short and a long
# dispatch history, at its own iteration count: an iteration is a whole
# compaction, fsyncs included — with Compact/{inline=3.6k,seal=7.3k},
# long_tenant's two shapes of compaction timed alone (a ≈ 3 600-frame
# tail written inline, ≈ 7 300 frames sealed), whose B/op counts the
# copies of those frames — and RouterHop/{direct,routed}/{submit,advance},
# one request to an in-memory pfaird and the same request through a router in
# front of it, at -cpu 1 as the repository benchmark runs its processes:
# routed minus direct is the CPU the hop costs, not the wake-up latency of a
# second core — and ReplicaReady, a replica's cold start against an idle
# leader until /healthz answers 200, and ReplicaVisible, how long a write
# acked as durable stays invisible on a caught-up replica; an iteration of
# either waits on the cluster's reaction paths, so they run few) — and
# Inbound/{nethttp,hop}, one keyed-submit-shaped request to a trivial handler
# through net/http's server (the replaced design, kept as the baseline) and
# through hop.Server, at -cpu 1 like RouterHop.
# The checked-in document is generated with BENCHTIME=20x BENCHCOUNT=3;
# benchjson keeps the fastest of the repeated runs, so shared-host noise
# cancels out of the bench-diff gate.
bench-json:
	{ $(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . && \
	  $(GO) test -run '^$$' -bench='BenchmarkServerSubmit|BenchmarkTenantBatchRound|BenchmarkDispatchFanout|BenchmarkMetricsExposition|BenchmarkWireCodec' -benchmem -benchtime=1000x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkTenantRecord' -benchmem -benchtime=200000x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkCompact' -benchmem -benchtime=200x -count=$(BENCHCOUNT) ./internal/server/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkRouterHop' -benchmem -benchtime=2000x -cpu 1 -count=$(BENCHCOUNT) ./internal/cluster/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkInbound' -benchmem -benchtime=2000x -cpu 1 -count=$(BENCHCOUNT) ./internal/hop/ && \
	  $(GO) test -run '^$$' -bench='BenchmarkReplica' -benchmem -benchtime=50x -cpu 1 -count=$(BENCHCOUNT) ./internal/cluster/; } \
	  | $(GO) run ./cmd/benchjson > $(BENCH_N)
	@echo wrote $(BENCH_N)

# bench-diff gates the archived results: the benchmarks BENCH_N shares with
# its neighbour, and with the pinned floor, must not regress in ns/op by
# more than 20%.
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(BENCH_PREV) $(BENCH_N)
	$(GO) run ./cmd/benchjson -diff $(BENCH_BASE) $(BENCH_N)

# engines is the byte-for-byte gate of the one dispatch loop: DVQ, SFQ
# (aligned and staggered) and drifting SFQ all run on online.Executive, DVQ
# as it is and the others under a boundary clock. The offline CLIs' goldens
# (every table, every rendered schedule), each driver against its retained
# seed engine (sfq, core and exp TestEngineEquivalence; the partial
# schedules at an exhausted horizon), drift.Run's own golden and the
# staggered model as phased drift, the executive against the seed's O(N)
# rescan and NextEvent against the next decision, and the service's write
# path — then the engine rows of the root benchmarks at -cpu 1, one process
# as the benchmark runs them (compare medians of interleaved runs against
# the parent's, not single runs).
engines:
	$(GO) test -count=1 -v ./cmd/experiments/ -run 'TestAllTablesGolden'
	$(GO) test -count=1 -v ./cmd/pfairsim/ -run 'TestRenderGolden'
	$(GO) test -count=1 -v ./internal/sfq/ ./internal/core/ ./internal/exp/ -run 'TestEngineEquivalence|TestHorizonExhaustion'
	$(GO) test -count=1 -v ./internal/drift/
	$(GO) test -count=1 -v ./internal/online/ -run 'TestExecutiveMatchesReference|TestNextEventIsNextDecision'
	$(GO) test -count=1 -v ./internal/server/ -run 'TestWritePathGolden|TestMetricsGolden'
	$(GO) test -run '^$$' -bench 'SFQEngine|SFQLarge|E3SFQOptimal|E9Staggered|E15ClockDrift|DVQEngine|DVQLarge' -benchmem -cpu 1 .

# fanout-smoke is the egress plane's CI gate, all under -race: the
# 20-seed byte-identity sweep (every NDJSON stream must equal an
# independent re-encode of its records), the 32-follower fan-out
# stress with short-lived streams opening and closing, the one
# slow-consumer rule (a lagging follower that keeps reading is served in
# full, from sealed history on; a wedged reader is severed on the write
# stall), the raw-frame WAL reader contract, the client's one Stream
# reader, the pfairload -streams mode consuming full fan-out, and the
# stream's byte identity across nodes: batches through leader → follower →
# promoted follower, ?from=0 compared at every hop — and across the two
# forms of a dispatch log: one script on an in-memory server, whose closed
# chunks are compact records rendered per reader, and on a durable one,
# ?from=k compared at every chunk boundary (TestInMemoryStreamMatchesDurable).
fanout-smoke:
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestStreamByteIdentity20Seeds|TestFanoutStress|TestLaggingFollowerIsPacedNotEvicted|TestStreamStallSeversWedgedReader|TestInMemoryStreamMatchesDurable'
	$(GO) test -race -count=1 -v ./internal/cluster/ -run 'TestBatchThroughFailoverByteIdentity'
	$(GO) test -race -count=1 ./internal/wal/ -run 'TestNextRaw'
	$(GO) test -race -count=1 ./internal/client/ -run 'TestTraceDecoder|TestStreamTraceEndToEnd'
	$(GO) test -race -count=1 ./cmd/pfairload/ -run 'TestStreamsFanout'

# flake re-runs the tests that race real timers against real sockets —
# the stall sever (of a dispatch stream and of a replication follower),
# the live trace follower, and the journal feed's
# wake-up on the fsync, whose take-the-channel-first rule lives in the
# stream loop every feed shares, and hop.Server's own: a follow stream whose
# client closes ends its handler, Shutdown closes an idle connection and
# waits for an active one, a stream whose client stops reading is severed —
# and those that race senders on a tenant's one command queue: a full
# queue's 429, a stop behind a backlog (Close, and a delete journaled after
# the submits queued ahead of it), a delete ending its streams, a command
# refused by a full queue or queued behind a stop never running the closure
# whose answer its sender reads, a drainer handing its role to the next
# waiter, a compaction that drains a queued delete — and the trace
# ring's own concurrent paths, since an append may reallocate its growing
# record slice while AppendFrames readers copy from it and NextAppend
# waiters wake on it (TestRingConcurrent, TestRingWakeSeesAppend, and
# TestTraceFollowLive above) —
# twenty times under -race: a tier-1 suite is deterministic only if these are.
flake:
	$(GO) test -race -count=20 ./internal/server/ -run 'TestStreamStallSeversWedgedReader|TestTraceFollowLive|TestReplLogNoLostWakeup|TestReplLogWakesOnFsync|TestCloseDrainsBacklogThenRefuses|TestRingFullBackpressure|TestRefusedCommandNeverRuns|TestDeleteTenantEndsStreams|TestDeleteJournalsAfterQueuedSubmits|TestDrainerHandsOff|TestCompactionDrainsQueuedDelete'
	$(GO) test -race -count=20 ./internal/obs/ -run 'TestRingConcurrent|TestRingWakeSeesAppend'
	$(GO) test -race -count=20 ./internal/client/ -run 'TestStreamTraceEndToEnd'
	$(GO) test -race -count=20 ./internal/hop/ -run 'TestServerStreamClientGoneEndsHandler|TestServerShutdownClosesIdleWaitsForActive|TestServerStallSeversStream'

# tier1-loop is ROADMAP item 21's gate: the tier-1 suite, `go build ./...
# && go test ./...`, N times in a row (default 50), every second run from
# a fresh, empty GOCACHE in a temporary directory. -count=1 makes every run
# run the tests rather than replay a cached result. It stops at the first
# failing run, prints how many runs passed and the failing tests, and
# leaves that run's output in the printed file.
N ?= 50
tier1-loop:
	@pass=0; log=$$(mktemp); \
	for i in $$(seq 1 $(N)); do \
		cache=$$($(GO) env GOCACHE); fresh=; \
		if [ $$((i % 2)) = 0 ]; then fresh=$$(mktemp -d); cache=$$fresh; fi; \
		GOCACHE=$$cache $(GO) build ./... > $$log 2>&1 && GOCACHE=$$cache $(GO) test -count=1 ./... >> $$log 2>&1; \
		ok=$$?; if [ -n "$$fresh" ]; then chmod -R u+w $$fresh; rm -rf $$fresh; fi; \
		if [ $$ok != 0 ]; then \
			echo "run $$i of $(N) failed, after $$pass passed:"; \
			grep -E '^(--- FAIL|FAIL|panic:)' $$log; echo "output: $$log"; exit 1; \
		fi; \
		pass=$$((pass + 1)); echo "run $$i of $(N) passed$${fresh:+ (fresh GOCACHE)}"; \
	done; rm -f $$log; echo "$$pass of $(N) runs passed"

fuzz:
	$(GO) test ./internal/core/ -fuzz=FuzzTheorem3 -fuzztime=30s
	$(GO) test ./internal/core/ -fuzz=FuzzTheorem2 -fuzztime=30s
	$(GO) test ./internal/rat/ -fuzz=FuzzParse -fuzztime=15s

# fuzz-smoke runs the durability and decoding fuzz targets briefly —
# enough for CI to catch regressions in the WAL replay path, the
# admission boundary, and the client's feed reader without the
# open-ended budget of `make fuzz`. FuzzRecordMatchesJSON and
# FuzzWireMatchesJSON are the contract of the hand-written codecs (the
# journal record's, the API bodies'): whatever they accept or encode,
# encoding/json accepts or encodes the same. FuzzServerMatchesNetHTTP is the
# contract of the inbound HTTP server, hop.Server: fed the same bytes as
# net/http's server, it refuses the same requests and hands its handler the
# same ones. FuzzReplyMatchesNetHTTP is the contract of the outbound reply
# reader, hop.Upstream's: whatever replies it accepts on a connection, it
# reads each as http.ReadResponse does, to the same last byte.
# FuzzColdFrameMatchesWire is the contract of an in-memory
# tenant's compact dispatch records: rendered back, they are the wire frame
# byte for byte, whatever the task name and numbers, and
# FuzzTraceRingMatchesMarshal that of a trace ring's compact records: its
# frames are json.Marshal of the events appended, across growth, wraparound
# and string-table compaction. FuzzIdemMemory holds a tenant's idempotency
# memory to a map and a FIFO of keys: the same answers, the same eviction
# order at MaxIdemKeys, the same checkpoint entries. Each target fuzzes
# for 30 s; minimising a new input is capped at 3 s (the default, 60 s,
# could take a whole budget at 0 execs/sec). A failing input is still
# reported and written to testdata, minimised or not.
FUZZ_SMOKE = -run '^$$' -fuzztime=30s -fuzzminimizetime=3s
fuzz-smoke:
	$(GO) test ./internal/wal/ $(FUZZ_SMOKE) -fuzz=FuzzWALReplay
	$(GO) test ./internal/wal/ $(FUZZ_SMOKE) -fuzz=FuzzRecordMatchesJSON
	$(GO) test ./internal/server/ $(FUZZ_SMOKE) -fuzz=FuzzTaskParams
	$(GO) test ./internal/server/ $(FUZZ_SMOKE) -fuzz=FuzzWireMatchesJSON
	$(GO) test ./internal/server/ $(FUZZ_SMOKE) -fuzz=FuzzColdFrameMatchesWire
	$(GO) test ./internal/server/ $(FUZZ_SMOKE) -fuzz=FuzzIdemMemory
	$(GO) test ./internal/online/ $(FUZZ_SMOKE) -fuzz=FuzzResize
	$(GO) test ./internal/client/ $(FUZZ_SMOKE) -fuzz=FuzzTraceDecoder
	$(GO) test ./internal/obs/ $(FUZZ_SMOKE) -fuzz=FuzzTraceRingMatchesMarshal
	$(GO) test ./internal/scenario/ $(FUZZ_SMOKE) -fuzz=FuzzScenarioSpec
	$(GO) test ./internal/hop/ $(FUZZ_SMOKE) -fuzz=FuzzServerMatchesNetHTTP
	$(GO) test ./internal/hop/ $(FUZZ_SMOKE) -fuzz=FuzzReplyMatchesNetHTTP

# obs runs the deterministic observability harness: the golden /metrics
# exposition and the write-path golden (journal records, responses and
# trace events of a fixed command script; regenerate either with `go test
# ./internal/server -run Golden -update`), the exact trace-lifecycle
# tests, the trace's one dispatch event per deciding command agreeing with
# the journal's digest of it (TestTraceDispatchMatchesDigest), the
# allocation-free per-decision hook (TestTenantRecordAllocs), and the
# scrape-vs-submit concurrency workout, all under -race.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -v ./internal/server/ -run 'Golden|Trace|ObsConcurrent|TestTenantRecordAllocs'
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
# yet upgraded — a compaction after Close has stopped the tenant loops
# (CompactAfterLoopsStop), a tenant that seals its history with no
# compaction (SealsWithoutCompaction; its settle-triggered seal is swept
# by TestCrashRecoverySettleSealSweep), sidecar names that never repeat
# and a sidecar that survives a power cut right after it is created or
# appended to (Sidecar, and faultfs's OpenAppend keeping a file's extent),
# the open history segment — a recovery from a file longer than the
# snapshot names (GrownSegment), a failed append that closes it
# (FailedAppendCloses), a stream whose view is older than its segment
# (StreamViewOlder) — a fuzzy compaction whose checkpoints land past its
# cut and that stops no request (FuzzyCheckpoint, DueCompactionRunsOnce,
# SubmitBesideParkedCheckpoint) — and the submit group's one record: a
# crash at every byte of a batch's write leaves all of it or none
# (TornBatch), a journal of per-job groups still replays
# (PerJobGroupJournal), the largest admissible batch is journaled or
# refused before a byte is written (WorstBatch) — and the snapshot
# payload, written byte for byte as json.Marshal writes it with each
# inline tail (a tenant's frames since its last seal, fewer than half a
# segment) copied in verbatim (-v too: TestSnapshotPayloadMatchesMarshal)
# — under the race detector.
recovery:
	$(GO) test -race -count=1 ./internal/wal/ ./internal/faultfs/ ./cmd/pfaird/ \
		./internal/online/ -run 'Checkpoint|Restore|Crash|Recovery|Shutdown|SIGTERM|WAL|Sidecar|OpenAppend|ExecutiveMatchesReference'
	$(GO) test -race -count=1 ./internal/server/ -run 'CrashRecovery|Shutdown|SnapshotStorm|CrashNeverAcks|RestoreParentFormatSnapshot|TornBatch|PerJobGroupJournal|WorstBatch|CompactAfterLoopsStop|SealsWithoutCompaction|FuzzyCheckpoint|DueCompactionRunsOnce|SubmitBesideParkedCheckpoint|GrownSegment|FailedAppendCloses|StreamViewOlder'
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestRestoreParentFormatJournal|TestRecoveryCountsTamperedJournal|TestFollowerCompactionBeforeDigest|TestFollowerOfLegacyLeaderCompacts|TestSnapshotPayloadMatchesMarshal'
	$(GO) test -race -count=1 ./internal/cluster/ -run 'TestFollowerBootstrapFromSealedHistory'

# longrun is the bounded-state soak: the tier-1 flatness gate
# TestLongTenantSnapshotsStayFlat at 10^6 dispatches instead of 60 000 —
# ≈ 2000 compactions, about a minute — logging every 16th compaction's
# snapshot size, bytes written, pause and post-GC runtime.MemStats
# HeapInuse. Snapshot bytes, bytes written per compaction and the heap in
# use are all asserted flat, first quarter against last. Beside it,
# TestInMemoryTenantBytesPerDispatch holds an in-memory tenant's retained
# heap to ≤ 12 B per decision over the same 10^6 decisions, and
# TestJournaledTenantBytesPerDispatch a journaled tenant's that no
# compaction checkpoints, which seals its own history every 4096
# decisions. TestIdemMemoryBytesPerKey holds the idempotency memory to
# ≤ 48 B per remembered key across five full keyed tenants (20 480 keys).
longrun:
	$(GO) test -count=1 -v -timeout 30m ./internal/server/ -run 'TestLongTenantSnapshotsStayFlat|TestInMemoryTenantBytesPerDispatch|TestJournaledTenantBytesPerDispatch|TestIdemMemoryBytesPerKey' -args -dispatches 1000000

# scenario-smoke is the scenario engine's CI gate: the golden-trace
# byte-compare (same seed + same spec ⇒ byte-identical trace; regenerate
# with `go test ./internal/scenario -run GoldenTrace -update` after an
# intentional format change), exact replay, the ≥100-seed counterfactual
# sweep against the exhaustive oracle, policy names read as the service
# reads them ("" and "pd2" are PD²), and the pfairscen CLI paths —
# -addr against an in-process pfaird included — all deterministic, all
# seeded.
scenario-smoke:
	$(GO) test -race -count=1 -v ./internal/scenario/ -run 'TestScenarioGoldenTrace|TestReplayReproducesDispatches|TestExecAndHTTPTargetsAgree|TestCounterfactualMatchesOracle|TestPolicyNamesResolveLikeTheService'
	$(GO) test -race -count=1 -v ./cmd/pfairscen/
	$(GO) test -race -count=1 ./cmd/pfairload/ -run 'TestSeedInSummary'

# profile-mutex captures contention profiles for the submit hot path: run
# the parallel benchmarks with mutex/block profiling on, then inspect with
# `go tool pprof mutex.out`. No tenant-level or server-level mutex is on
# the submit path — a compaction takes none a request waits on — so what
# remains is the WAL lock and the runtime's own channel locks.
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

# loc prints the line counts of the root module's Go files outside bench/,
# non-test and test apart: raw, and stripped of blank and //-only lines.
# LOC_DIRS narrows it: make loc LOC_DIRS="internal/server cmd/pfaird".
LOC_DIRS ?= .
LOC_FIND = find $(LOC_DIRS) \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
LOC_COUNT = awk '{ n++ } !/^[ \t]*(\/\/.*)?$$/ { s++ } END { printf "%6d raw %6d stripped\n", n, s }'
loc:
	@printf 'non-test '; $(LOC_FIND) ! -name '*_test.go' -exec cat {} + | $(LOC_COUNT)
	@printf 'test     '; $(LOC_FIND) -name '*_test.go' -exec cat {} + | $(LOC_COUNT)

# docs-check holds the prose to the code. It fails when DESIGN.md is over
# 70 000 bytes; when DESIGN.md, README.md, TUTORIAL.md or EXPERIMENTS.md
# cites a Test/Fuzz/Benchmark/Example name that no func in a *_test.go
# declares (a trailing * makes the name a prefix), or opens a backticked
# span with a `-name` flag that no cmd/*/main.go declares (flag.X("name"
# or flag.XVar(&v, "name"; -race is go's own); or when a "DESIGN §N"
# citation in a .go or .md file other than CHANGES.md has no "## N." heading.
docs-check:
	@n=$$(wc -c < DESIGN.md); test $$n -le 70000 || { echo "DESIGN.md is $$n bytes, over 70000"; exit 1; }
	@declared=$$(find . -path ./.git -prune -o -name '*_test.go' -exec grep -ohE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' {} + | cut -c6-); \
	bad=0; for name in $$(grep -ohE '\<(Test|Fuzz|Benchmark|Example)[A-Z][A-Za-z0-9_]*\*?' DESIGN.md README.md TUTORIAL.md EXPERIMENTS.md | sort -u); do \
		case $$name in \
		*\*) echo "$$declared" | grep -q "^$${name%\*}" ;; \
		*) echo "$$declared" | grep -qx "$$name" ;; \
		esac || { echo "cited, declared by no test func: $$name"; bad=1; }; \
	done; test $$bad = 0
	@declared=$$(grep -ohE 'flag\.[A-Za-z0-9]+\((&[^,]+, )?"[a-z0-9-]+"' cmd/*/main.go | sed -E 's/.*"(.*)"/\1/'); \
	bad=0; for name in $$(grep -ohE '`[^`]*`' DESIGN.md README.md TUTORIAL.md EXPERIMENTS.md | grep -oE '^`-[a-z][a-z0-9-]*' | cut -c3- | sort -u); do \
		test "$$name" = race || echo "$$declared" | grep -qx "$$name" || { echo "cited, declared by no cmd/*/main.go flag: -$$name"; bad=1; }; \
	done; test $$bad = 0
	@bad=0; for n in $$(grep -rhoE 'DESIGN(\.md)? §[0-9]+' --include='*.go' --include='*.md' --exclude=CHANGES.md . | sed 's/.*§//' | sort -un); do \
		grep -q "^## $$n\. " DESIGN.md || { echo "DESIGN §$$n is cited, DESIGN.md has no '## $$n.' heading"; bad=1; }; \
	done; test $$bad = 0

clean:
	rm -rf artifacts report.html
