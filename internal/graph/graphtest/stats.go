package graphtest

import (
	"context"
	"testing"

	"db2graph/internal/graph"
)

// RunStatsConformance holds a backend's statistics to ground truth: the
// totals and per-label counts CollectStats returns must equal those of the
// dataset the backend was loaded from.
func RunStatsConformance(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := FanoutDataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	st, err := graph.CollectStats(context.Background(), b)
	if err != nil {
		t.Fatalf("CollectStats: %v", err)
	}
	if st.VertexCount != int64(len(vs)) {
		t.Fatalf("vertex count = %d, want %d", st.VertexCount, len(vs))
	}
	if st.EdgeCount != int64(len(es)) {
		t.Fatalf("edge count = %d, want %d", st.EdgeCount, len(es))
	}
	checkLabels := func(kind string, got map[string]int64, els []*graph.Element) {
		t.Helper()
		want := map[string]int64{}
		for _, el := range els {
			want[el.Label]++
		}
		if len(got) != len(want) {
			t.Fatalf("%s labels = %v, want %v", kind, got, want)
		}
		for label, n := range want {
			if got[label] != n {
				t.Fatalf("%s label %q count = %d, want %d", kind, label, got[label], n)
			}
		}
	}
	checkLabels("vertex", st.VertexLabels, vs)
	checkLabels("edge", st.EdgeLabels, es)
}
