// Differential conformance for the cached, vectorized read path. The same
// script battery runs twice per configuration — cold and warm, so the second
// run is served by the compiled-plan cache and any backend topology caches —
// over the fan-out dataset, whose hops batch wide frontiers, and every run
// must reproduce the uncached golden BIT-IDENTICALLY: same objects in the same order, and the
// same per-step traverser counts in profile() reports. Caching and batching
// are pure plumbing optimizations; any observable difference is a bug.
package graphtest

import (
	"fmt"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/telemetry"
)

// differentialScripts is the query battery: every backend fan-out shape the
// engine batches (out/in/both, edge hops, otherV), plus plan shapes that
// exercise the strategy rewrites, sub-traversals, side effects, and paths.
var differentialScripts = []string{
	`g.V()`,
	`g.V().count()`,
	`g.V().hasLabel('patient').values('name')`,
	`g.V().out()`,
	`g.V().in('isa')`,
	`g.V().both()`,
	`g.V().both().dedup()`,
	`g.V().outE()`,
	`g.V().inE('isa').outV()`,
	`g.V().outE().otherV()`,
	`g.V().bothE().otherV()`,
	`g.E().bothV()`,
	`g.V().outE().bothV().dedup()`,
	`g.V('p1').out('hasDisease').out('isa')`,
	`g.V('p1', 'p2', 'p3').out().values('conceptName')`,
	`g.V().out().limit(2)`,
	`g.V().out('isa').groupCount()`,
	`g.V().where(out('isa'))`,
	`g.V('p1').repeat(out()).times(2)`,
	`g.V('d13').repeat(out('isa').dedup().store('x')).times(3).cap('x')`,
	`g.V().hasLabel('disease').order().by('conceptName')`,
	`g.V('p1').out().path()`,
	`g.E().count()`,
	`g.V().out().out().count()`,
}

// DifferentialScripts returns a copy of the differential query battery for
// suites that live outside this package (graphtest/clustertest reuses it so
// the sharded coordinator is held to the same bit-identity bar).
func DifferentialScripts() []string {
	return append([]string(nil), differentialScripts...)
}

// RenderObjs renders script results to the canonical comparison form used
// by the differential suites.
func RenderObjs(objs []any) string { return renderObjs(objs) }

// renderProfile flattens a profile report to its deterministic fields: step
// names and traverser counts, but not durations.
func renderProfile(p *telemetry.Profile) string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = fmt.Sprintf("%s[calls=%d,in=%d,out=%d]", s.Name, s.Calls, s.In, s.Out)
	}
	return strings.Join(parts, " -> ")
}

// RunCachedDifferential executes the differential suite against a backend
// built by build.
func RunCachedDifferential(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	vs, es := FanoutDataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}

	// Golden pass: no plan cache, batched lookups forced through the
	// generic fallback adapter so the reference semantics come from the base
	// Backend contract alone.
	golden := gremlin.NewSource(graph.FallbackBatch(b))
	wantRes := make([]string, len(differentialScripts))
	wantProf := make([]string, len(differentialScripts))
	for i, script := range differentialScripts {
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

	pc := gremlin.NewPlanCache(0)
	src := gremlin.NewSource(b).WithPlanCache(pc)
	for round := 0; round < 2; round++ { // round 1 hits the plan cache
		for i, script := range differentialScripts {
			res, err := gremlin.RunScript(src, script, nil)
			if err != nil {
				t.Fatalf("round %d %q: %v", round, script, err)
			}
			if got := renderObjs(res); got != wantRes[i] {
				t.Fatalf("round %d %q diverged\n got: %s\nwant: %s",
					round, script, got, wantRes[i])
			}
			pres, err := gremlin.RunScript(src, script+".profile()", nil)
			if err != nil {
				t.Fatalf("round %d %q profile: %v", round, script, err)
			}
			if got := renderProfile(pres[0].(*telemetry.Profile)); got != wantProf[i] {
				t.Fatalf("round %d %q profile diverged\n got: %s\nwant: %s",
					round, script, got, wantProf[i])
			}
		}
	}
	stats := pc.Stats()
	if stats.Hits == 0 {
		t.Fatalf("plan cache never hit: %+v", stats)
	}
}
