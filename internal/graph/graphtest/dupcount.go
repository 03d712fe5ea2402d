package graphtest

import (
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

// dupFrontierCountScripts end in a count() that the planner fuses into a
// vertex step whose incoming frontier (except in the unique-frontier
// control `g.V('p1', 'p2', 'p3')...`) repeats vertices, so the engine
// answers it with one pushed AggVertexEdges per traverser multiplicity.
// The differential golden cannot check these: it runs the same pushed
// path. A repeated seed id (g.V('p1', 'p1')) is one traverser per
// occurrence on every backend (graph.Backend.V).
var dupFrontierCountScripts = []string{
	`g.V().out().in().count()`,
	`g.V('p1', 'p2', 'p3').out().out().count()`,
	`g.V().both().out().count()`,
	`g.V().out().outE().count()`,
	`g.V('p1', 'd13').out().out().count()`,
	`g.V('p1', 'd13').out().outE('isa').count()`,
	`g.V('p1', 'p1').out().count()`,
	`g.V('p1', 'p1').out().out().count()`,
	`g.V('p1', 'p1').count()`,
}

// RunDupFrontierCounts checks the pushed counts over duplicated frontiers
// on a backend built by build against the same backend's unoptimized plan,
// which materializes the last hop and counts traversers.
func RunDupFrontierCounts(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	CheckDupFrontierCounts(t, gremlin.NewSource(b).WithoutStrategies(), gremlin.NewSource(b))
}

// CheckDupFrontierCounts runs the duplicated-frontier count scripts on src,
// serially and in parallel, and fails on any answer that differs from
// golden's.
func CheckDupFrontierCounts(t *testing.T, golden, src *gremlin.Source) {
	t.Helper()
	for _, script := range dupFrontierCountScripts {
		res, err := gremlin.RunScript(golden, script, nil)
		if err != nil {
			t.Fatalf("golden %q: %v", script, err)
		}
		want := renderObjs(res)
		for _, par := range []int{1, 8} {
			res, err := gremlin.RunScript(src.WithParallelism(par), script, nil)
			if err != nil {
				t.Fatalf("par=%d %q: %v", par, script, err)
			}
			if got := renderObjs(res); got != want {
				t.Fatalf("par=%d %q = %s, unoptimized plan gives %s", par, script, got, want)
			}
		}
	}
}
