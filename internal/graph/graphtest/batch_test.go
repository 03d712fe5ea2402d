package graphtest_test

import (
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
)

func TestMemBatchConformance(t *testing.T) {
	graphtest.RunBatchConformance(t, buildMem)
}

func TestInstrumentedBackendBatchConformance(t *testing.T) {
	graphtest.RunBatchConformance(t, buildInstrumentedMem)
}

func TestMemCachedDifferential(t *testing.T) {
	graphtest.RunCachedDifferential(t, buildMem)
}

func TestMemPlannerDifferential(t *testing.T) {
	graphtest.RunPlannerDifferential(t, buildMem)
}

func TestMemStatsConformance(t *testing.T) {
	graphtest.RunStatsConformance(t, buildMem)
}

func TestMemCacheInvalidation(t *testing.T) {
	graphtest.RunCacheInvalidation(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		b, err := buildMem(vs, es)
		if err != nil {
			return nil, nil, err
		}
		return b, b.(graph.Mutable), nil
	})
}

func TestMemDupFrontierCounts(t *testing.T) {
	graphtest.RunDupFrontierCounts(t, buildMem)
}

func TestMemLivenessDifferential(t *testing.T) {
	graphtest.RunLivenessDifferential(t, buildMem)
}
