package gremlin

import (
	"fmt"
	"math/rand"
	"testing"

	"db2graph/internal/graph"
)

// benchBackend builds a deterministic scale-free-ish graph on the memory
// backend: n vertices in 4 labels, ~4 out-edges each.
func benchBackend(b *testing.B, n int) *graph.MemBackend {
	b.Helper()
	m := graph.NewMemBackend()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if err := m.AddVertex(&graph.Element{
			ID:    fmt.Sprintf("v%d", i),
			Label: fmt.Sprintf("t%d", i%4),
		}); err != nil {
			b.Fatal(err)
		}
	}
	eid := 0
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			if err := m.AddEdge(&graph.Element{
				ID:     fmt.Sprintf("e%d", eid),
				Label:  fmt.Sprintf("l%d", k%2),
				OutV:   fmt.Sprintf("v%d", i),
				InV:    fmt.Sprintf("v%d", rng.Intn(n)),
				IsEdge: true,
			}); err != nil {
				b.Fatal(err)
			}
			eid++
		}
	}
	return m
}

// BenchmarkPlanCache measures script execution with a cold parse on every
// run (miss) vs the compiled-plan cache serving the parsed, strategy-
// rewritten plan (hit). The difference is the lex+parse+rewrite overhead
// the cache removes from every repeated query.
func BenchmarkPlanCache(b *testing.B) {
	// Small graph: execution is cheap, so the parse/rewrite overhead the
	// cache removes dominates the difference between the two runs.
	m := benchBackend(b, 40)
	const script = `g.V().hasLabel('t1').out('l0').has('id').in().both().dedup().where(out('l1')).order().by('id').limit(5).values('id')`
	b.Run("miss", func(b *testing.B) {
		src := NewSource(m)
		for i := 0; i < b.N; i++ {
			if _, err := RunScript(src, script, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		src := NewSource(m).WithPlanCache(NewPlanCache(0))
		if _, err := RunScript(src, script, nil); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunScript(src, script, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// batchedExpand is the body of BenchmarkBatchedExpand and of the
// allocation gate: a two-hop expansion that emits every second-hop vertex.
// It ends in the elements, not in count(), which would push the last hop
// down as an aggregate and never materialise it.
func batchedExpand(src *Source) *Traversal { return src.V().Out("l0").Out() }

// BenchmarkBatchedExpand measures a two-hop frontier expansion through the
// backend's native vectorized multi-get (one sorted lookup per hop) vs the
// generic per-contract fallback adapter.
func BenchmarkBatchedExpand(b *testing.B) {
	m := benchBackend(b, 2000)
	run := func(b *testing.B, src *Source) {
		b.Helper()
		tr := func() *Traversal { return batchedExpand(src) }
		if _, err := tr().ToList(); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr().ToList(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("native", func(b *testing.B) { run(b, NewSource(m)) })
	b.Run("fallback", func(b *testing.B) { run(b, NewSource(graph.FallbackBatch(m))) })
}
