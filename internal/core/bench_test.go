package core

import (
	"fmt"
	"math/rand"
	"testing"

	"db2graph/internal/gremlin"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/engine"
)

// BenchmarkMultiHopCount runs the multihop workload's query shape,
// g.V(64 ids).out().out().count(), through the overlay on LinkBench graphs,
// cycling through 128 fixed anchor sets. The first hop materializes its
// ~270 neighbours; the second is a count over that frontier, which repeats
// a few vertices. Two graph sizes bracket the vertex and adjacency caches
// (graph.DefaultVersionedCacheEntries each): "cached" fits in them, so once
// warm the first hop resolves from memory and the pushed count reads its
// frontier's cached adjacency groups without SQL; "overflow" is 2.4× their
// size, as in perfbench, so most groups miss and those vertices are counted
// in SQL. Run with -benchmem: allocs/op names this layer when the workload
// regresses.
func BenchmarkMultiHopCount(b *testing.B) {
	for _, tc := range []struct {
		name     string
		vertices int
	}{{"cached", 5000}, {"overflow", 20000}} {
		b.Run(fmt.Sprintf("%s/vertices=%d", tc.name, tc.vertices), func(b *testing.B) {
			d := linkbench.Generate(linkbench.DefaultConfig(tc.vertices))
			db := engine.New()
			cfg, err := d.LoadSQL(db)
			if err != nil {
				b.Fatal(err)
			}
			g, err := Open(db, cfg, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			sets := make([][]any, 128)
			for i := range sets {
				seen := make(map[int64]bool, 64)
				for len(sets[i]) < 64 {
					v := 1 + rng.Int63n(int64(tc.vertices))
					if !seen[v] {
						seen[v] = true
						sets[i] = append(sets[i], d.VertexID(v))
					}
				}
			}
			src := gremlin.NewSource(g)
			run := func(i int) {
				if _, err := src.V(sets[i%len(sets)]...).Out().Out().Count().Next(); err != nil {
					b.Fatal(err)
				}
			}
			for i := range sets { // warm the caches
				run(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}

// BenchmarkIDDecode times the id half of one multihop count statement
// batch: restricting the ten LinkBench link tables' id1 to a 270-id
// frontier, the size of the workload's first hop. The ids decode once per
// call and every table reuses them, so this is one decode plus ten
// fragment binds.
func BenchmarkIDDecode(b *testing.B) {
	d := linkbench.Generate(linkbench.DefaultConfig(2000))
	db := engine.New()
	cfg, err := d.LoadSQL(db)
	if err != nil {
		b.Fatal(err)
	}
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 270)
	for i := range ids {
		ids[i] = d.VertexID(int64(1 + 7*i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo := &idMemo{ids: ids}
		for _, em := range g.topo.Edges {
			if !g.edgeMeta[em].src.restrict(newSQLBuilder(em.Table), memo) {
				b.Fatal("no id decoded")
			}
		}
	}
}
