// Differential conformance for the cost model. The cost model only
// annotates plans with row estimates for explain(), so a statistics-backed
// source must execute exactly like a static one: the same battery runs
// against a costed source, cold and warm plan cache, and must reproduce the
// static (no statistics) golden BIT-IDENTICALLY — same objects in the same
// order, same per-step traverser counts in profile() reports. explain() must report every plan as costed.
package graphtest

import (
	"context"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/telemetry"
)

// plannerScripts extends the differential battery with fan-out shapes on
// the fan-out dataset: hub hops, multi-label fan-outs, limit/both variants,
// and chained hops over a wide frontier.
var plannerScripts = []string{
	`g.V().out('follows')`,
	`g.V().in('likes')`,
	`g.V().out('follows').values('name')`,
	`g.V().out('mentions','hasDisease')`,
	`g.V().out('mentions','follows').count()`,
	`g.V().out('mentions').limit(5)`,
	`g.V().both('follows')`,
	`g.V('h1').in('follows').out('follows')`,
	`g.V().out('mentions').dedup().count()`,
	`g.V().hasLabel('user').out('follows').in('likes').count()`,
}

// RunPlannerDifferential executes the planner differential suite against a
// backend built by build.
func RunPlannerDifferential(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := FanoutDataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	scripts := append(DifferentialScripts(), plannerScripts...)

	// Golden pass: serial, no statistics, no plan cache, batched lookups
	// through the generic fallback adapter — the pure static semantics.
	golden := gremlin.NewSource(graph.FallbackBatch(b))
	wantRes := make([]string, len(scripts))
	wantProf := make([]string, len(scripts))
	for i, script := range scripts {
		res, err := gremlin.RunScript(golden, script, nil)
		if err != nil {
			t.Fatalf("golden %q: %v", script, err)
		}
		wantRes[i] = renderObjs(res)
		pres, err := gremlin.RunScript(golden, script+".profile()", nil)
		if err != nil {
			t.Fatalf("golden %q profile: %v", script, err)
		}
		wantProf[i] = renderProfile(pres[0].(*telemetry.Profile))
	}

	// Costed passes: statistics collected, plans costed and cached.
	sp := graph.NewStatsProvider(b)
	if _, err := sp.Analyze(context.Background()); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	pc := gremlin.NewPlanCache(0)
	costed := gremlin.NewSource(b).WithPlanCache(pc).WithStats(sp)
	for round := 0; round < 2; round++ { // round 1 hits the plan cache
		for i, script := range scripts {
			res, err := gremlin.RunScript(costed, script, nil)
			if err != nil {
				t.Fatalf("round %d %q: %v", round, script, err)
			}
			if got := renderObjs(res); got != wantRes[i] {
				t.Fatalf("round %d %q diverged\n got: %s\nwant: %s",
					round, script, got, wantRes[i])
			}
			pres, err := gremlin.RunScript(costed, script+".profile()", nil)
			if err != nil {
				t.Fatalf("round %d %q profile: %v", round, script, err)
			}
			if got := renderProfile(pres[0].(*telemetry.Profile)); got != wantProf[i] {
				t.Fatalf("round %d %q profile diverged\n got: %s\nwant: %s",
					round, script, got, wantProf[i])
			}
		}
	}
	if stats := pc.Stats(); stats.Hits == 0 {
		t.Fatalf("plan cache never hit: %+v", stats)
	}

	// Every plan carries the cost model's estimates.
	src := gremlin.NewSource(b).WithStats(sp)
	for _, script := range scripts {
		res, err := gremlin.RunScript(src, script+".explain()", nil)
		if err != nil {
			t.Fatalf("explain %q: %v", script, err)
		}
		rep, ok := res[0].(*gremlin.ExplainReport)
		if !ok {
			t.Fatalf("explain %q returned %T, want *ExplainReport", script, res[0])
		}
		if !rep.Costed {
			t.Fatalf("explain %q: report not costed despite statistics", script)
		}
	}
}
