package janus

import (
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/graph/graphtest/clustertest"
	"db2graph/internal/telemetry"
	"db2graph/internal/wal"
)

// lsmGraph builds a janus graph over the LSM storage engine, loads the
// dataset, checkpoints (flushing the memtable into a run), closes, and
// reopens — so every suite below queries recovered LSM state: manifest,
// runs, and replayed WAL tail.
func lsmGraph(n int, vs, es []*graph.Element) (*Graph, error) {
	mem := wal.NewMemVFS()
	dir := fmt.Sprintf("lsmdb%d", n)
	g, err := OpenLSMVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	if err := loadAll(g, vs, es); err != nil {
		return nil, err
	}
	if err := g.Checkpoint(); err != nil {
		return nil, err
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	return OpenLSMVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
}

// TestLSMConformance runs the full backend conformance suite over
// janus-on-LSM recovered state.
func TestLSMConformance(t *testing.T) {
	n := 0
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		return lsmGraph(n, vs, es)
	})
}

// TestLSMCachedDifferential runs the cached-vs-uncached differential suite
// on janus-on-LSM: the graph-layer cache must return identical results when
// its backing store is the LSM engine.
func TestLSMCachedDifferential(t *testing.T) {
	n := 1000
	graphtest.RunCachedDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		return lsmGraph(n, vs, es)
	})
}

// TestLSMPlannerDifferential runs the cost-based-planner differential suite
// on janus-on-LSM: statistics collection scans through MVCC snapshot reads
// and costed plans must stay bit-identical to the static golden.
func TestLSMPlannerDifferential(t *testing.T) {
	n := 3000
	graphtest.RunPlannerDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		return lsmGraph(n, vs, es)
	})
}

// TestLSMClusterFaults runs the sharded scatter-gather fault suite with
// every shard backed by janus-on-LSM.
func TestLSMClusterFaults(t *testing.T) {
	n := 2000
	clustertest.RunClusterFaults(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		return lsmGraph(n, vs, es)
	})
}

// TestLSMCacheInvalidation runs the mutate-then-query invalidation suite on
// a live (not reopened) janus-on-LSM graph.
func TestLSMCacheInvalidation(t *testing.T) {
	n := 0
	graphtest.RunCacheInvalidation(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		n++
		g, err := OpenLSMVFS(wal.NewMemVFS(), fmt.Sprintf("lsminv%d", n), wal.NoSync(), telemetry.NewRegistry())
		if err != nil {
			return nil, nil, err
		}
		if err := loadAll(g, vs, es); err != nil {
			return nil, nil, err
		}
		return g, g, nil
	})
}

// TestLSMConcurrent runs the concurrency conformance suite on recovered
// janus-on-LSM state.
func TestLSMConcurrent(t *testing.T) {
	n := 3000
	graphtest.RunConcurrent(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		return lsmGraph(n, vs, es)
	})
}

// TestLSMStorageStats checks the engine-discrimination surface gserver
// exposes through !storage.
func TestLSMStorageStats(t *testing.T) {
	g, err := OpenLSMVFS(wal.NewMemVFS(), "db", wal.NoSync(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	vs, es := graphtest.Dataset()
	if err := loadAll(g, vs, es); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := g.StorageStats()
	if st.Engine != "lsm" || st.Keys == 0 || st.LSM == nil || st.LSM.Flushes == 0 {
		t.Fatalf("StorageStats = %+v", st)
	}

	mg := New()
	if mst := mg.StorageStats(); mst.Engine != "cow" || mst.LSM != nil {
		t.Fatalf("in-memory graph StorageStats = %+v", mst)
	}
}
