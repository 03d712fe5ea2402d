package janus

import (
	"context"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/graph/graphtest/clustertest"
	"db2graph/internal/sql/types"
)

func loadIncremental(vs, es []*graph.Element) (*Graph, error) {
	g := New()
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
	return g, nil
}

func TestConformanceIncrementalLoad(t *testing.T) {
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestBatchConformance(t *testing.T) {
	graphtest.RunBatchConformance(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestCachedDifferential(t *testing.T) {
	graphtest.RunCachedDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestDupFrontierCounts(t *testing.T) {
	graphtest.RunDupFrontierCounts(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestLivenessDifferential(t *testing.T) {
	graphtest.RunLivenessDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestPlannerDifferential(t *testing.T) {
	graphtest.RunPlannerDifferential(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestStatsConformance(t *testing.T) {
	graphtest.RunStatsConformance(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestClusterFaults(t *testing.T) {
	clustertest.RunClusterFaults(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		return loadIncremental(vs, es)
	})
}

func TestReplicatedCluster(t *testing.T) {
	clustertest.RunReplicatedCluster(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		g, err := loadIncremental(vs, es)
		if err != nil {
			return nil, nil, err
		}
		return g, g, nil
	})
}

func TestCacheInvalidation(t *testing.T) {
	graphtest.RunCacheInvalidation(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		g, err := loadIncremental(vs, es)
		if err != nil {
			return nil, nil, err
		}
		return g, g, nil
	})
}

func TestFaultInjection(t *testing.T) {
	graphtest.RunFaults(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		g := New()
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
		return g, nil
	})
}

func TestConformanceBulkLoad(t *testing.T) {
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		g := New()
		l := g.NewBulkLoader()
		for _, v := range vs {
			if err := l.AddVertex(v); err != nil {
				return nil, err
			}
		}
		for _, e := range es {
			if err := l.AddEdge(e); err != nil {
				return nil, err
			}
		}
		if err := l.Flush(); err != nil {
			return nil, err
		}
		return g, nil
	})
}

func TestMemConformance(t *testing.T) {
	// The reference backend passes the same suite, pinning the contract.
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		m := graph.NewMemBackend()
		for _, v := range vs {
			if err := m.AddVertex(v); err != nil {
				return nil, err
			}
		}
		for _, e := range es {
			if err := m.AddEdge(e); err != nil {
				return nil, err
			}
		}
		return m, nil
	})
}

func TestAdjacencyEncodingRoundTrip(t *testing.T) {
	entries := []adjEntry{
		{dir: 0, edgeID: "e1", label: "knows", otherV: "v2",
			props: map[string]types.Value{"since": types.NewInt(2020)}},
		{dir: 1, edgeID: "e2", label: "likes", otherV: "v3", props: map[string]types.Value{}},
	}
	blob := encodeAdj(entries)
	back, err := decodeAdj(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].edgeID != "e1" || back[1].dir != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if back[0].props["since"].I != 2020 {
		t.Fatalf("props lost: %+v", back[0].props)
	}
	if _, err := decodeAdj([]byte{0x05, 0x01}); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if got, err := decodeAdj(nil); err != nil || got != nil {
		t.Fatalf("empty blob: %v, %v", got, err)
	}
}

func TestMutationValidation(t *testing.T) {
	g := New()
	if err := g.AddVertex(&graph.Element{}); err == nil {
		t.Fatal("vertex without id accepted")
	}
	g.AddVertex(&graph.Element{ID: "a", Label: "x"})
	if err := g.AddVertex(&graph.Element{ID: "a", Label: "x"}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "missing"}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	g.AddVertex(&graph.Element{ID: "b", Label: "x"})
	if err := g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestByteSizeGrowsWithData(t *testing.T) {
	g := New()
	if g.ByteSize() != 0 {
		t.Fatal("empty graph has bytes")
	}
	g.AddVertex(&graph.Element{ID: "a", Label: "x",
		Props: map[string]types.Value{"data": types.NewString("payload")}})
	if g.ByteSize() <= 0 {
		t.Fatal("ByteSize did not grow")
	}
}

func TestBulkLoaderValidation(t *testing.T) {
	g := New()
	l := g.NewBulkLoader()
	if err := l.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b"}); err == nil {
		t.Fatal("edge before vertices accepted")
	}
	l.AddVertex(&graph.Element{ID: "a", Label: "x"})
	if err := l.AddVertex(&graph.Element{ID: "a", Label: "x"}); err == nil {
		t.Fatal("duplicate buffered vertex accepted")
	}
	l.AddVertex(&graph.Element{ID: "b", Label: "x"})
	if err := l.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddEdge(&graph.Element{ID: "e", OutV: "a", InV: "b", Label: "l"}); err == nil {
		t.Fatal("duplicate buffered edge accepted")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	els, err := g.VertexEdges(context.Background(), []string{"a"}, graph.DirOut, &graph.Query{})
	if err != nil || len(els) != 1 {
		t.Fatalf("flushed edge missing: %v, %v", els, err)
	}
}

func TestConcurrentConformance(t *testing.T) {
	graphtest.RunConcurrent(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		g := New()
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
		return g, nil
	})
}
