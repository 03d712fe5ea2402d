package core

import (
	"context"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

// TestNarrowFetchNeverCached: out().out().count() fetches the first hop's
// edges and its middle frontier with an empty projection, which the
// adjacency and vertex caches serve, and so does a VerticesByIDs call
// with an empty projection. Their misses must still fetch full rows: a
// later valueMap() over the same edges and vertices, answered from the
// warmed caches, must equal the same read on a cold graph, and every
// cached vertex must be its full row.
func TestNarrowFetchNeverCached(t *testing.T) {
	ctx := context.Background()
	_, g := newLinkGraph(t, 200)
	_, cold := newLinkGraph(t, 200)
	anchors := "g.V('" + strings.Join(vertexRange(1, 20), "','") + "')"
	src := gremlin.NewSource(g)
	if _, err := gremlin.RunScript(src, anchors+".out().out().count()", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.VerticesByIDs(ctx, vertexRange(150, 200), &graph.Query{Projection: []string{}}); err != nil {
		t.Fatal(err)
	}
	before := g.CacheMetrics()
	for _, hop := range []string{".out().valueMap()", ".outE().valueMap()"} {
		got, err := gremlin.RunScript(src, anchors+hop, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gremlin.RunScript(gremlin.NewSource(cold), anchors+hop, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || strings.Count(gremlin.Display(want), "{}") == len(want) {
			t.Fatalf("%s answer %s reads no property, the check is vacuous", hop, gremlin.Display(want))
		}
		if g, w := gremlin.Display(got), gremlin.Display(want); g != w {
			t.Fatalf("%s after a warming count:\n got %s\nwant %s", hop, g, w)
		}
	}
	after := g.CacheMetrics()
	for _, c := range []string{"vertex", "adjacency"} {
		if after[c].Hits == before[c].Hits {
			t.Fatalf("%s cache served none of the reads: %+v", c, after[c])
		}
	}
	// White box: every cached vertex is the full row.
	version := g.DataVersion()
	cached := 0
	for _, vid := range vertexRange(1, 200) {
		el, ok := g.vtxCache.Get(vid, version)
		if !ok || el == nil {
			continue
		}
		cached++
		full, err := cold.V(ctx, &graph.Query{IDs: []string{vid}})
		if err != nil || len(full) != 1 {
			t.Fatalf("V(%s) = %v, %v", vid, full, err)
		}
		if len(el.Props) != len(full[0].Props) {
			t.Fatalf("cached %s has %d properties, the row has %d", vid, len(el.Props), len(full[0].Props))
		}
	}
	if cached < 51 {
		t.Fatalf("%d vertices cached, want at least the 51 VerticesByIDs fetched", cached)
	}
}
