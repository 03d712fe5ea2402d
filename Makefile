GO ?= go

.PHONY: check fmt vet build test bench bench-alloc cluster-faults replication-faults

# check is the tier-1 verify target (see ROADMAP.md): vet, build, and the
# full test suite under the race detector with a hard timeout so lifecycle
# regressions (hangs, deadlocks) fail fast instead of wedging CI. The
# cluster fault-injection suite runs inside `test` (it lives in the regular
# test tree); `cluster-faults` repeats it in isolation with -count=2 for
# the dedicated CI job.
check: vet build test

# fmt fails when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race -timeout 120s ./...

# cluster-faults runs the sharded-coordinator chaos suite — shard map and
# partition invariants, breaker lifecycle, retry/health behavior,
# server drain, the GraphOp wire checks (round trip, binary frame codec,
# oversized and malformed frames, malformed count ops and replies, the
# request and reply fuzz seeds, projected replies), and the four-backend
# RunClusterFaults differential — twice under the race detector to shake
# out timing-dependent flakes.
cluster-faults:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'ClusterFaults|Breaker|ShardMap|Partition|JitteredBackoff|RetryDelay|RetryStops|Health|CloseDrains|GraphOpRoundTrip|GraphOpCount|GraphOpReply|GraphOpRequest|GraphOpProjected|FrameRoundTrip|OversizedFrame|MalformedFrames' \
		./internal/cluster/ ./internal/graph/graphtest/clustertest/ \
		./internal/gserver/ ./internal/core/ ./internal/gdbx/ ./internal/janus/

# replication-faults runs the shard-HA suites — WAL tailing, logical-op
# replication and follower catch-up, automatic failover (promotion, epoch
# fencing, replica reads, write determinacy), the prober backoff bound, and
# the four-backend RunReplicatedCluster differential (bit-identical follower
# state at quiesce, chaos failover, zombie fencing) — twice under the race
# detector: acks, probes, promotion, and fencing race the write load by
# design.
replication-faults:
	$(GO) test -race -count=2 -timeout 600s \
		-run 'Replicat|Failover|Fenc|Promot|Follow|StreamFrom|Cursor|Oplog|ProberBackoff|PartialReportDedup|HealRevives|ReplicaRead' \
		./internal/wal/ ./internal/gserver/ ./internal/cluster/ \
		./internal/graph/graphtest/clustertest/ \
		./internal/core/ ./internal/gdbx/ ./internal/janus/

# bench runs the Go micro-benchmarks (plan cache, batched expansion, and
# any others) without the regular tests.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-alloc is the allocation-regression gate (DESIGN.md §15): it measures
# allocs/op and bytes/op of the batched-expansion path (native backend, no
# SQL) and of the four LinkBench reads through the script path on the
# SQL-backed overlay, and fails any that regresses more than 10% over the
# committed baseline in internal/gremlin/testdata/alloc_baseline.json.
bench-alloc:
	BENCH_ALLOC_GATE=1 $(GO) test -count=1 -run TestAllocBaseline -v ./internal/gremlin/
