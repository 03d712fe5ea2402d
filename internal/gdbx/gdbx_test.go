package gdbx

import (
	"context"
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/graph/graphtest/clustertest"
	"db2graph/internal/sql/types"
)

func load(vs, es []*graph.Element, cfg Config) (*Graph, error) {
	g := New(cfg)
	for _, v := range vs {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	for _, e := range es {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	if err := g.Seal(); err != nil {
		return nil, err
	}
	return g, nil
}

func TestConformanceUnlimitedCache(t *testing.T) {
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestConformanceTinyCache(t *testing.T) {
	// A 2-vertex cache forces constant decode/evict; results must be
	// identical.
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{CacheCapacity: 2})
	})
}

func TestFaultInjection(t *testing.T) {
	graphtest.RunFaults(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestClusterFaults(t *testing.T) {
	clustertest.RunClusterFaults(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestReplicatedCluster(t *testing.T) {
	clustertest.RunReplicatedCluster(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		g, err := load(vs, es, Config{AllowOnlineUpdates: true})
		if err != nil {
			return nil, nil, err
		}
		return g, g, nil
	})
}

func TestBatchConformance(t *testing.T) {
	graphtest.RunBatchConformance(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestBatchConformanceTinyCache(t *testing.T) {
	graphtest.RunBatchConformance(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{CacheCapacity: 2})
	})
}

func TestCachedDifferential(t *testing.T) {
	graphtest.RunCachedDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestDupFrontierCounts(t *testing.T) {
	graphtest.RunDupFrontierCounts(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestLivenessDifferential(t *testing.T) {
	graphtest.RunLivenessDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestPlannerDifferential(t *testing.T) {
	graphtest.RunPlannerDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestStatsConformance(t *testing.T) {
	graphtest.RunStatsConformance(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestCacheInvalidation(t *testing.T) {
	graphtest.RunCacheInvalidation(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		g, err := load(vs, es, Config{AllowOnlineUpdates: true})
		if err != nil {
			return nil, nil, err
		}
		return g, g, nil
	})
}

func TestQueryBeforeSealFails(t *testing.T) {
	g := New(Config{})
	g.AddVertex(&graph.Element{ID: "a", Label: "x"})
	if _, err := g.V(context.Background(), &graph.Query{}); err == nil {
		t.Fatal("query before Seal accepted")
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := g.Seal(); err == nil {
		t.Fatal("double Seal accepted")
	}
	if err := g.AddVertex(&graph.Element{ID: "b", Label: "x"}); err == nil {
		t.Fatal("load after Seal accepted")
	}
	if _, err := g.V(context.Background(), &graph.Query{}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	vs, es := graphtest.Dataset()
	g, err := load(vs, es, Config{CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Loop over distinct vertices: the tiny cache must keep missing.
	for round := 0; round < 3; round++ {
		for _, v := range vs {
			if _, err := g.V(context.Background(), &graph.Query{IDs: []string{v.ID}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, misses := g.CacheStats()
	if misses == 0 {
		t.Fatal("tiny cache produced no misses")
	}

	// Unlimited cache with prefetch: all hits.
	g2, _ := load(vs, es, Config{PrefetchOnOpen: true})
	for _, v := range vs {
		g2.V(context.Background(), &graph.Query{IDs: []string{v.ID}})
	}
	hits, misses := g2.CacheStats()
	if misses != 0 || hits == 0 {
		t.Fatalf("prefetched cache: hits=%d misses=%d", hits, misses)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	v := &nativeVertex{
		id:    "v1",
		label: "patient",
		props: map[string]types.Value{"name": types.NewString("A"), "n": types.NewInt(7)},
		out: []edgeRec{{edgeID: "e1", label: "knows", otherV: "v2",
			props: map[string]types.Value{"w": types.NewFloat(0.5)}}},
		in: []edgeRec{{edgeID: "e2", label: "likes", otherV: "v3", props: map[string]types.Value{}}},
	}
	page := encodeNative(v)
	back, err := decodeNative("v1", page)
	if err != nil {
		t.Fatal(err)
	}
	if back.label != "patient" || len(back.out) != 1 || len(back.in) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.out[0].props["w"].F != 0.5 || back.props["n"].I != 7 {
		t.Fatal("props lost")
	}
	if _, err := decodeNative("v1", page[:3]); err == nil {
		t.Fatal("truncated page accepted")
	}
}

func TestStorageBlowupVsRawData(t *testing.T) {
	// The serialized native format duplicates adjacency and inlines
	// property names, so it must be substantially larger than the raw
	// payload — the effect behind Table 3's 6-7x disk usage.
	g := New(Config{})
	rawBytes := 0
	const n = 200
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("v%d", i)
		g.AddVertex(&graph.Element{ID: id, Label: "node",
			Props: map[string]types.Value{"data": types.NewString("0123456789")}})
		rawBytes += len(id) + 10
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(&graph.Element{
			ID: fmt.Sprintf("e%d", i), Label: "link",
			OutV: fmt.Sprintf("v%d", i), InV: fmt.Sprintf("v%d", i+1),
			Props: map[string]types.Value{"time": types.NewInt(int64(i))},
		})
		rawBytes += 16
	}
	g.Seal()
	if g.ByteSize() < int64(rawBytes)*2 {
		t.Fatalf("native storage %d not substantially larger than raw %d", g.ByteSize(), rawBytes)
	}
}

func TestCounts(t *testing.T) {
	vs, es := graphtest.Dataset()
	g, _ := load(vs, es, Config{})
	if g.VertexCount() != len(vs) || g.EdgeCount() != int64(len(es)) {
		t.Fatalf("counts = %d, %d", g.VertexCount(), g.EdgeCount())
	}
	v, err := g.AggV(context.Background(), &graph.Query{}, graph.Agg{Kind: graph.AggCount})
	if err != nil || v.I != int64(len(vs)) {
		t.Fatalf("AggV = %v, %v", v, err)
	}
	v, _ = g.AggE(context.Background(), &graph.Query{Labels: []string{"isa"}}, graph.Agg{Kind: graph.AggCount})
	if v.I != 3 {
		t.Fatalf("AggE(isa) = %v", v)
	}
}

func TestDuplicateAndDanglingLoad(t *testing.T) {
	g := New(Config{})
	g.AddVertex(&graph.Element{ID: "a", Label: "x"})
	if err := g.AddVertex(&graph.Element{ID: "a", Label: "x"}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "zz"}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	g.AddVertex(&graph.Element{ID: "b", Label: "x"})
	g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"})
	if err := g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestConcurrentConformance(t *testing.T) {
	graphtest.RunConcurrent(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{PrefetchOnOpen: true})
	})
}

func TestConcurrentConformanceTinyCache(t *testing.T) {
	// Concurrent readers mutate the LRU under the lock; a 2-vertex cache
	// maximizes decode/evict churn while results must stay identical.
	graphtest.RunConcurrent(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return load(vs, es, Config{CacheCapacity: 2})
	})
}
