package core

import (
	"reflect"
	"strings"
	"testing"

	"db2graph/internal/gremlin"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/engine"
)

// TestPerQueryCountsDeterministic pins the work a multi-hop read does: two
// overlays opened cold over the same SQL data each run the same
// g.V(ids).out().out().count() five times and must agree exactly on how
// many statements every SQL pattern ran and on the hits and misses of the
// vertex and adjacency caches. The anchors span several vertex tables and
// repeat one id. An exact per-query count gate rests on this.
func TestPerQueryCountsDeterministic(t *testing.T) {
	db := engine.New()
	cfg, err := linkbench.Generate(linkbench.DefaultConfig(400)).LoadSQL(db)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, id := range append(vertexRange(1, 48), "7") {
		ids = append(ids, "'"+id+"'")
	}
	script := "g.V(" + strings.Join(ids, ", ") + ").out().out().count()"

	type counts struct {
		patterns         map[string]int64
		tables           map[string]bool
		vertex, adjacent [2]int64 // hits, misses
	}
	run := func() counts {
		g, err := Open(db, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		src := g.Traversal()
		var first string
		for i := 0; i < 5; i++ {
			res, err := gremlin.RunScript(src, script, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := gremlin.Display(res); i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("run %d counted %s, run 0 counted %s", i, got, first)
			}
		}
		c := counts{patterns: map[string]int64{}, tables: map[string]bool{}}
		for _, p := range g.Dialect().Patterns() {
			c.patterns[p.SQL] = p.Count
			if strings.HasPrefix(p.Table, "node_") {
				c.tables[p.Table] = true
			}
		}
		m := g.CacheMetrics()
		c.vertex = [2]int64{m["vertex"].Hits, m["vertex"].Misses}
		c.adjacent = [2]int64{m["adjacency"].Hits, m["adjacency"].Misses}
		return c
	}
	a, b := run(), run()

	// Non-vacuity: the anchors hit more than one vertex table, and both
	// caches saw hits (the repeats) as well as misses (the cold first run).
	if len(a.tables) < 2 {
		t.Fatalf("statements read vertex tables %v, want several", a.tables)
	}
	for name, hm := range map[string][2]int64{"vertex": a.vertex, "adjacency": a.adjacent} {
		if hm[0] == 0 || hm[1] == 0 {
			t.Fatalf("%s cache hits/misses = %v, want both non-zero", name, hm)
		}
	}

	if !reflect.DeepEqual(a.patterns, b.patterns) {
		t.Errorf("per-pattern statement counts differ between overlays:\n first  %v\n second %v", a.patterns, b.patterns)
	}
	if a.vertex != b.vertex {
		t.Errorf("vertex cache hits/misses differ: %v vs %v", a.vertex, b.vertex)
	}
	if a.adjacent != b.adjacent {
		t.Errorf("adjacency cache hits/misses differ: %v vs %v", a.adjacent, b.adjacent)
	}
}
