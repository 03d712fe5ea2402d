package graphtest

import (
	"context"
	"slices"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

// pushedCountScripts end in a count() that the planner fuses into a vertex
// step, so the engine answers it with pushed AggVertexEdges calls.
//
// The first scripts' incoming frontiers (except in the unique-frontier
// control `g.V('p1', 'p2', 'p3')...`) repeat vertices, so the engine issues
// one call per traverser multiplicity. A repeated seed id (g.V('p1', 'p1'))
// is one traverser per occurrence on every backend (graph.Backend.V).
//
// The rest count over unique frontiers whose edges cross shards once the
// dataset is partitioned, which a sharded count must count exactly once: a
// labelled count from several seeds, edge-property predicates, a
// single-vertex both() (pushed), a multi-vertex both() (materialized), and
// a seed id that does not exist.
//
// The differential golden cannot check these: it runs the same pushed
// path.
var pushedCountScripts = []string{
	`g.V().out().in().count()`,
	`g.V('p1', 'p2', 'p3').out().out().count()`,
	`g.V().both().out().count()`,
	`g.V().out().outE().count()`,
	`g.V('p1', 'd13').out().out().count()`,
	`g.V('p1', 'd13').out().outE('isa').count()`,
	`g.V('p1', 'p1').out().count()`,
	`g.V('p1', 'p1').out().out().count()`,
	`g.V('p1', 'p1').count()`,
	`g.V().in().in().count()`,
	`g.V('p1', 'd11', 'd13', 'd10').outE('isa').count()`,
	`g.V().outE().has('description', '2019').count()`,
	`g.V('p1', 'p2', 'p3').outE().has('description', gt('2018')).count()`,
	`g.V('d11').both().count()`,
	`g.V('d10', 'd11').both().count()`,
	`g.V('nope', 'p1').outE().count()`,
	`g.V('p1').out('hasDisease').out('isa').count()`,
}

// PushedCountScripts returns a copy of the pushed-count scripts for suites
// outside this package (graphtest/clustertest runs them bit-identically at
// every shard count).
func PushedCountScripts() []string {
	return append([]string(nil), pushedCountScripts...)
}

// RunDupFrontierCounts checks the pushed counts (over duplicated frontiers
// and over unique ones) on a backend built by build against the same backend's unoptimized plan,
// which materializes the last hop and counts traversers, and the backend's
// own AggVertexEdges counts (CheckAggCounts).
func RunDupFrontierCounts(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	CheckDupFrontierCounts(t, gremlin.NewSource(b).WithoutStrategies(), gremlin.NewSource(b))
	CheckAggCounts(t, b)
}

// CheckAggCounts calls b.AggVertexEdges directly with vertex id lists that
// repeat ids and name unknown ones, out() and in(), with and without a
// label filter, and compares each count with a plain count over Dataset().
// AggVertexEdges counts over the set of the ids: a repeated id counts its
// edges once. The engine only ever sends distinct ids (pushVertexAgg), so
// the traversal-level checks above cannot see a backend that counts a
// repeat twice.
func CheckAggCounts(t *testing.T, b graph.Backend) {
	t.Helper()
	vs, es := Dataset()
	all := make([]string, 0, 2*len(vs)+2)
	for _, v := range vs {
		all = append(all, v.ID)
	}
	all = append(all, "nope")
	all = append(all, all...)
	idSets := [][]string{
		{"p1", "p1"},
		{"d11", "nope", "d11", "d10", "d11"},
		{"d10", "d13", "d10", "d9"},
		{"nope", "nope"},
		all,
	}
	count := graph.Agg{Kind: graph.AggCount}
	for _, ids := range idSets {
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
			for _, label := range []string{"", "isa"} {
				var q *graph.Query
				if label != "" {
					q = &graph.Query{Labels: []string{label}}
				}
				want := 0
				for _, e := range es {
					end := e.OutV
					if dir == graph.DirIn {
						end = e.InV
					}
					if slices.Contains(ids, end) && (label == "" || e.Label == label) {
						want++
					}
				}
				got, err := b.AggVertexEdges(context.Background(), ids, dir, q, count)
				if err != nil {
					t.Fatalf("AggVertexEdges(%v, %s, %q): %v", ids, dir, label, err)
				}
				if n, ok := got.Int(); !ok || n != int64(want) {
					t.Fatalf("AggVertexEdges(%v, %s, %q) = %v, want %d", ids, dir, label, got, want)
				}
			}
		}
	}
}

// CheckDupFrontierCounts runs the pushed-count scripts on src and fails on
// any answer that differs from golden's.
func CheckDupFrontierCounts(t *testing.T, golden, src *gremlin.Source) {
	t.Helper()
	for _, script := range pushedCountScripts {
		res, err := gremlin.RunScript(golden, script, nil)
		if err != nil {
			t.Fatalf("golden %q: %v", script, err)
		}
		want := renderObjs(res)
		res, err = gremlin.RunScript(src, script, nil)
		if err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		if got := renderObjs(res); got != want {
			t.Fatalf("%q = %s, unoptimized plan gives %s", script, got, want)
		}
	}
}
