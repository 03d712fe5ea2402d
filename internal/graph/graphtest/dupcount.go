package graphtest

import (
	"context"
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/telemetry"
)

// pushedAggScripts end in an aggregate that the planner fuses into a
// vertex step, so the engine answers it with one pushed AggVertexEdges call.
//
// The first scripts' incoming frontiers (except in the unique-frontier
// control `g.V('p1', 'p2', 'p3')...`) repeat vertices, so the engine sends
// each vertex once per traverser on it and the backend must count it as
// often. A repeated seed id (g.V('p1', 'p1')) is one traverser per
// occurrence on every backend (graph.Backend.V). The sum, mean, min and
// max scripts aggregate the hasDisease edges' description, whose values
// parse as numbers, over duplicated frontiers: g.V().out().in() reaches p1
// and p2 twice, and a repeated single vertex pushes its both() down.
//
// The rest count over unique frontiers whose edges cross shards once the
// dataset is partitioned, which a sharded count must count exactly once: a
// labelled count from several seeds, edge-property predicates, a
// single-vertex both() (pushed), a multi-vertex both() (materialized), and
// a seed id that does not exist.
//
// The differential golden cannot check these: it runs the same pushed
// path.
var pushedAggScripts = []string{
	`g.V().out().in().count()`,
	`g.V('p1', 'p2', 'p3').out().out().count()`,
	`g.V().both().out().count()`,
	`g.V().out().outE().count()`,
	`g.V('p1', 'd13').out().out().count()`,
	`g.V('p1', 'd13').out().outE('isa').count()`,
	`g.V('p1', 'p1').out().count()`,
	`g.V('p1', 'p1').out().out().count()`,
	`g.V('p1', 'p1').count()`,
	`g.V().out().in().outE().values('description').sum()`,
	`g.V().out().in().outE('hasDisease').values('description').mean()`,
	`g.V().out().in().outE().values('description').min()`,
	`g.V().out().in().outE().values('description').max()`,
	`g.V().out().out().inE().values('description').sum()`,
	`g.V('p1', 'p1', 'p2').outE().values('description').mean()`,
	`g.V('d11', 'd11').bothE().values('description').sum()`,
	`g.V('d11', 'd11').bothE().count()`,
	`g.V().in().in().count()`,
	`g.V('p1', 'd11', 'd13', 'd10').outE('isa').count()`,
	`g.V().outE().has('description', '2019').count()`,
	`g.V('p1', 'p2', 'p3').outE().has('description', gt('2018')).count()`,
	`g.V('d11').both().count()`,
	`g.V('d10', 'd11').both().count()`,
	`g.V('nope', 'p1').outE().count()`,
	`g.V('p1').out('hasDisease').out('isa').count()`,
}

// PushedAggScripts returns a copy of the pushed-aggregate scripts for
// suites outside this package (graphtest/clustertest runs them
// bit-identically at every shard count).
func PushedAggScripts() []string {
	return append([]string(nil), pushedAggScripts...)
}

// RunDupFrontierCounts checks the pushed aggregates (over duplicated
// frontiers and over unique ones) on a backend built by build against the
// same backend's unoptimized plan, which materializes the last hop and
// aggregates traversers; the backend's own AggVertexEdges counts
// (CheckAggCounts); and the calls a duplicated middle frontier costs
// (CheckDupFrontierCalls).
func RunDupFrontierCounts(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	CheckDupFrontierCounts(t, gremlin.NewSource(b).WithoutStrategies(), gremlin.NewSource(b))
	CheckAggCounts(t, b)
	CheckDupFrontierCalls(t, b)
}

// CheckAggCounts calls b.AggVertexEdges directly with vertex id lists that
// repeat ids and name unknown ones, out() and in(), with and without a
// label filter, and compares each count with a plain count over Dataset().
// AggVertexEdges counts over the multiset of the ids: an edge counts once
// per occurrence of its counted endpoint, which is how the engine sends a
// frontier whose vertices carry several traversers.
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
					if label == "" || e.Label == label {
						for _, id := range ids {
							if id == end {
								want++
							}
						}
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

// DupMiddleCountScript counts 3: its middle frontier repeats one vertex
// and not another, d11 twice (p1→d11, d13→d11) and d10 once (p2→d10),
// and each has one out-edge.
const DupMiddleCountScript = `g.V('p1', 'd13', 'p2').out().out().count()`

// backendMethods are the methods an InstrumentedBackend counts.
var backendMethods = []string{"V", "E", "VertexEdges", "EdgeVertices", "AggV", "AggE", "AggVertexEdges", "VerticesByIDs", "EdgesForVertices"}

// BackendCalls reads the per-method call counters that a backend named
// name, wrapped by graph.Instrument, has recorded in reg.
func BackendCalls(reg *telemetry.Registry, name string) map[string]int64 {
	out := make(map[string]int64, len(backendMethods))
	for _, m := range backendMethods {
		out[m] = reg.Counter(fmt.Sprintf(`graph_backend_calls_total{backend=%q,method=%q}`, name, m)).Value()
	}
	return out
}

// CheckDupFrontierCalls runs DupMiddleCountScript on b and fails unless it
// makes exactly three backend calls, one per hop: the seeds' incident
// edges, their far ends, and a single AggVertexEdges over the repeated
// middle frontier.
func CheckDupFrontierCalls(t *testing.T, b graph.Backend) {
	t.Helper()
	reg := telemetry.NewRegistry()
	res, err := gremlin.RunScript(gremlin.NewSource(graph.Instrument(b, reg)), DupMiddleCountScript, nil)
	if err != nil {
		t.Fatalf("%s: %v", DupMiddleCountScript, err)
	}
	if got := renderObjs(res); got != "3" {
		t.Fatalf("%s = %s, want 3", DupMiddleCountScript, got)
	}
	calls := BackendCalls(reg, b.Name())
	var total int64
	for _, n := range calls {
		total += n
	}
	if total != 3 || calls["AggVertexEdges"] != 1 {
		t.Fatalf("%s made backend calls %v, want 3 with one AggVertexEdges", DupMiddleCountScript, calls)
	}
}

// CheckDupFrontierCounts runs the pushed-aggregate scripts on src and fails on
// any answer that differs from golden's.
func CheckDupFrontierCounts(t *testing.T, golden, src *gremlin.Source) {
	t.Helper()
	for _, script := range pushedAggScripts {
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
