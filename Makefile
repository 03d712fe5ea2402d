GO ?= go

.PHONY: check vet build test bench bench-alloc cluster-faults replication-faults

# check is the tier-1 verify target (see ROADMAP.md): vet, build, and the
# full test suite under the race detector with a hard timeout so lifecycle
# regressions (hangs, deadlocks) fail fast instead of wedging CI. The
# cluster fault-injection suite runs inside `test` (it lives in the regular
# test tree); `cluster-faults` repeats it in isolation with -count=2 for
# the dedicated CI job.
check: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race -timeout 120s ./...

# cluster-faults runs the sharded-coordinator chaos suite — shard map and
# partition invariants, breaker lifecycle, retry/health behavior,
# server drain, and the four-backend RunClusterFaults differential — twice
# under the race detector to shake out timing-dependent flakes.
cluster-faults:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'ClusterFaults|Breaker|ShardMap|Partition|JitteredBackoff|RetryDelay|RetryStops|Health|CloseDrains|GraphOpRoundTrip' \
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
# allocs/op of the hot batched-expansion path and fails if it regresses more
# than 10% over the committed baseline in
# internal/gremlin/testdata/alloc_baseline.json.
bench-alloc:
	BENCH_ALLOC_GATE=1 $(GO) test -count=1 -run TestBatchedExpandAllocBaseline -v ./internal/gremlin/
