package core

import (
	"context"
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

// newLinkGraph opens the split-layout LinkBench graph of n vertices.
func newLinkGraph(t testing.TB, n int) (*engine.Database, *Graph) {
	t.Helper()
	db := engine.New()
	cfg, err := linkbench.Generate(linkbench.DefaultConfig(n)).LoadSQL(db)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func vertexRange(lo, hi int) []string {
	var out []string
	for v := lo; v <= hi; v++ {
		out = append(out, fmt.Sprint(v))
	}
	return out
}

var countAgg = graph.Agg{Kind: graph.AggCount}

func pushedCount(t *testing.T, g *Graph, vids []string, dir graph.Direction, q *graph.Query) int64 {
	t.Helper()
	v, err := g.AggVertexEdges(context.Background(), vids, dir, q, countAgg)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := v.Int()
	if !ok {
		t.Fatalf("count is %v", v)
	}
	return n
}

// materializedCount counts the incident edges with SQL, bypassing every cache.
func materializedCount(t *testing.T, g *Graph, vids []string, dir graph.Direction, q *graph.Query) int64 {
	t.Helper()
	els, err := g.VertexEdges(context.Background(), vids, dir, q)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(els))
}

func warmAdjacency(t *testing.T, g *Graph, vids []string, dir graph.Direction) {
	t.Helper()
	if _, err := g.EdgesForVertices(context.Background(), vids, dir, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCountFromCachedAdjacencyMixedFrontier counts a frontier whose
// adjacency groups are half cached and whose ids repeat: the cached half
// is read from memory, once per occurrence, the rest from SQL in layers,
// and the sum equals the materialized count of every occurrence — through
// the backend and through a traversal whose count is pushed down.
func TestCountFromCachedAdjacencyMixedFrontier(t *testing.T) {
	_, g := newLinkGraph(t, 300)
	vids := vertexRange(1, 60)
	var warm []string
	for i := 0; i < len(vids); i += 2 {
		warm = append(warm, vids[i])
	}
	for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
		warmAdjacency(t, g, warm, dir)
		hits := g.adjCache.Stats().Hits
		// A repeated id counts once per occurrence: the warm vids[0] from
		// its cached group, the cold vids[1] in a second SQL layer, and
		// vids[1] again in a third.
		frontier := append(append([]string{}, vids...), vids[0], vids[1], vids[1])
		got := pushedCount(t, g, frontier, dir, nil)
		want := materializedCount(t, g, vids, dir, nil) +
			materializedCount(t, g, vids[:1], dir, nil) + 2*materializedCount(t, g, vids[1:2], dir, nil)
		if got != want || want == 0 {
			t.Fatalf("dir %v: count %d, materialized %d", dir, got, want)
		}
		if served := g.adjCache.Stats().Hits - hits; served != int64(len(warm)) {
			t.Fatalf("dir %v: %d cached groups served, want %d", dir, served, len(warm))
		}
	}
	// Fully warm: no SQL at all.
	warmAdjacency(t, g, vids, graph.DirOut)
	want := materializedCount(t, g, vids, graph.DirOut, nil)
	before := statementsRun(g)
	if got := pushedCount(t, g, vids, graph.DirOut, nil); got != want {
		t.Fatalf("warm count %d, materialized %d", got, want)
	}
	if ran := statementsRun(g) - before; ran != 0 {
		t.Fatalf("a fully cached count ran %d statements", ran)
	}

	tr := g.Traversal()
	anchors := make([]any, 0, 40)
	for _, v := range vertexRange(1, 40) {
		anchors = append(anchors, v)
	}
	n, err := tr.V(anchors...).Out().Out().Count().Next()
	if err != nil {
		t.Fatal(err)
	}
	list, err := tr.V(anchors...).Out().Out().ToList()
	if err != nil {
		t.Fatal(err)
	}
	if n.(types.Value).I != int64(len(list)) {
		t.Fatalf("out().out().count() = %v, out().out().toList().size() = %d", n, len(list))
	}
}

// statementsRun is the number of statements the dialect has executed.
func statementsRun(g *Graph) int64 {
	var n int64
	for _, p := range g.Stats() {
		n += p.Count
	}
	return n
}

// TestCountFromCachedAdjacencyAfterWrite warms every group, then changes
// the edges with DML: the count must reflect each write, never a group
// cached before it.
func TestCountFromCachedAdjacencyAfterWrite(t *testing.T) {
	db, g := newLinkGraph(t, 200)
	vids := vertexRange(1, 30)
	warmAdjacency(t, g, vids, graph.DirOut)
	base := pushedCount(t, g, vids, graph.DirOut, nil)
	if want := materializedCount(t, g, vids, graph.DirOut, nil); base != want {
		t.Fatalf("warm count %d, materialized %d", base, want)
	}
	if _, err := db.Exec("INSERT INTO link_t0 VALUES (3, 100000, 1, 'new', 0, 0)"); err != nil {
		t.Fatal(err)
	}
	if got := pushedCount(t, g, vids, graph.DirOut, nil); got != base+1 {
		t.Fatalf("after insert: count %d, want %d", got, base+1)
	}
	warmAdjacency(t, g, vids, graph.DirOut)
	deleted, err := db.Exec("DELETE FROM link_t0 WHERE id1 = 3")
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("delete removed nothing")
	}
	got := pushedCount(t, g, vids, graph.DirOut, nil)
	if want := materializedCount(t, g, vids, graph.DirOut, nil); got != want || got != base+1-int64(deleted) {
		t.Fatalf("after delete: count %d, materialized %d, want %d", got, want, base+1-int64(deleted))
	}
}

// TestCountFromCachedAdjacencyBypass plants a wrong adjacency group for a
// vertex: an unrestricted count reads it, which shows the cache is
// consulted, and every count the group cannot answer — labelled,
// predicated, projected, id-restricted, both() and snapshot reads —
// ignores it and matches the materialized count.
func TestCountFromCachedAdjacencyBypass(t *testing.T) {
	db, g := newLinkGraph(t, 200)
	ctx := context.Background()
	var vid string
	var edges []*graph.Element
	for _, v := range vertexRange(1, 50) { // the vertex with the most out-edges
		els, err := g.VertexEdges(ctx, []string{v}, graph.DirOut, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(els) > len(edges) {
			vid, edges = v, els
		}
	}
	if len(edges) < 2 {
		t.Fatalf("no vertex has 2 out-edges")
	}
	planted := make([]*graph.Element, 1000)
	plant := func() {
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirBoth} {
			g.adjCache.Put(adjKey(vid, dir), g.DataVersion(), planted)
		}
	}
	plant()
	if got := pushedCount(t, g, []string{vid}, graph.DirOut, nil); got != 1000 {
		t.Fatalf("unrestricted count %d did not read the cached group", got)
	}
	label := edges[0].Label
	for name, tc := range map[string]struct {
		q   *graph.Query
		dir graph.Direction
	}{
		"labelled":  {&graph.Query{Labels: []string{label}}, graph.DirOut},
		"predicate": {&graph.Query{Preds: []graph.Pred{{Key: "visibility", Op: graph.OpGte, Value: types.NewInt(0)}}}, graph.DirOut},
		"projected": {&graph.Query{Projection: []string{"data"}}, graph.DirOut},
		"ids":       {&graph.Query{IDs: []string{edges[0].ID, edges[1].ID}}, graph.DirOut},
		"both":      {nil, graph.DirBoth},
	} {
		got := pushedCount(t, g, []string{vid}, tc.dir, tc.q)
		if want := materializedCount(t, g, []string{vid}, tc.dir, tc.q); got != want {
			t.Fatalf("%s: count %d, materialized %d", name, got, want)
		}
	}
	// A snapshot reads a historical state the version tags do not describe.
	snap := g.Snapshot(db.Now())
	if got, want := pushedCount(t, snap, []string{vid}, graph.DirOut, nil), materializedCount(t, snap, []string{vid}, graph.DirOut, nil); got != want {
		t.Fatalf("snapshot count %d, materialized %d", got, want)
	}
}
