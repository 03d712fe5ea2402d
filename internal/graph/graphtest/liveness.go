package graphtest

import (
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

// livenessScripts observe element properties after hops, through every
// step the property liveness pass (gremlin.ProjectionPushdownStrategy) is
// conservative or narrow under: as()/select(), path(), values(k),
// valueMap(), bare values(), has() inside where(), order().by(k), store(),
// union() and repeat() bodies, and results that are the elements
// themselves. Their answers render properties (renderDeep), so a step
// that fetched fewer properties than a later step reads diverges from the
// unoptimized plan. The count scripts come first: on a backend with
// element caches they warm the caches with the narrow fetches the later
// scripts must not see.
var livenessScripts = []string{
	`g.V().out().out().count()`,
	`g.V().both().out().count()`,
	`g.V().out().in().id()`,
	`g.V().out().valueMap()`,
	`g.V().outE().valueMap()`,
	`g.V().out().as('a').out().select('a')`,
	`g.V().out().as('a').out().as('b').select('a', 'b')`,
	`g.V().out().out().path()`,
	`g.V().out().out().values('conceptName')`,
	`g.V().out().values()`,
	`g.V('p1').values()`,
	`g.V().outE().inV().valueMap(true)`,
	`g.V().inE().outV().dedup().values('name')`,
	`g.V().where(out().has('conceptName', 'diabetes')).valueMap()`,
	`g.V().where(out('isa')).out().values('conceptName')`,
	`g.V().out().dedup().order().by('conceptName').values('conceptName')`,
	`g.V().out().has('conceptName', 'diabetes').in().values('conceptName', 'name')`,
	`g.V().out().store('x').out().cap('x')`,
	`g.V().union(out(), in()).valueMap()`,
	`g.V('p1').repeat(out()).times(2).valueMap()`,
	`g.V().hasLabel('patient').out().groupCount().by('conceptName')`,
	`g.V().out().limit(2)`,
	`g.E().inV().values()`,
	// Id lists across tables, out of table order and with a repeat: V(ids)
	// answers in first-appearance id order, as the fused V(ids).out()
	// walks its seed ids.
	`g.V('d11', 'p1', 'd13')`,
	`g.V('d11', 'p1', 'd13').out()`,
	`g.V('d11', 'p1', 'd13').id()`,
	`g.V('d13', 'p2', 'd13', 'p1').out().id()`,
}

// renderDeep renders traversal results like renderObjs, except that an
// element renders with its properties (renderFull), also inside paths,
// select() maps and cap() lists.
func renderDeep(objs []any) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = renderDeepObj(o)
	}
	return strings.Join(parts, ",")
}

func renderDeepObj(o any) string {
	switch x := o.(type) {
	case *graph.Element:
		return renderFull([]*graph.Element{x})
	case []any:
		return "[" + renderDeep(x) + "]"
	case map[string]any:
		parts := make([]string, 0, len(x))
		for k, v := range x {
			parts = append(parts, k+":"+renderDeepObj(v))
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return gremlin.Display(o)
	}
}

// LivenessAnswers runs the liveness scripts on src and renders each
// answer with properties. With src.WithoutStrategies() they are the
// golden answers of CheckLiveness.
func LivenessAnswers(t *testing.T, src *gremlin.Source) []string {
	t.Helper()
	out := make([]string, len(livenessScripts))
	for i, script := range livenessScripts {
		res, err := gremlin.RunScript(src, script, nil)
		if err != nil {
			t.Fatalf("liveness %q: %v", script, err)
		}
		out[i] = renderDeep(res)
	}
	return out
}

// CheckLiveness runs the liveness scripts on src and fails on any answer
// that differs from want (LivenessAnswers of the unoptimized plan). It
// also checks that a bare values() emits every property of each dataset
// element in key order.
func CheckLiveness(t *testing.T, want []string, src *gremlin.Source) {
	t.Helper()
	for i, got := range LivenessAnswers(t, src) {
		if got != want[i] {
			t.Fatalf("%q diverged from the unoptimized plan\n got: %s\nwant: %s", livenessScripts[i], got, want[i])
		}
	}
	vs, es := Dataset()
	for _, el := range append(vs, es...) {
		step := "V"
		if el.IsEdge {
			step = "E"
		}
		script := "g." + step + "('" + el.ID + "').values()"
		res, err := gremlin.RunScript(src, script, nil)
		if err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		keys := make([]string, 0, len(el.Props))
		for k := range el.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		wantVals := make([]string, len(keys))
		for i, k := range keys {
			wantVals[i] = el.Props[k].Text()
		}
		if got, w := renderObjs(res), strings.Join(wantVals, ","); got != w {
			t.Fatalf("%s = [%s], want [%s]", script, got, w)
		}
	}
}

// RunLivenessDifferential checks the liveness scripts on a backend built by
// build, optimized and served twice through a plan cache, against the
// unoptimized plan on a second, separately built instance. The tested
// instance starts cold, so a backend cache that kept a narrow fetch shows
// up as a later script's missing properties.
func RunLivenessDifferential(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	var backends [2]graph.Backend
	for i := range backends {
		vs, es := Dataset()
		b, err := build(vs, es)
		if err != nil {
			t.Fatalf("build backend: %v", err)
		}
		backends[i] = b
	}
	want := LivenessAnswers(t, gremlin.NewSource(backends[0]).WithoutStrategies())
	src := gremlin.NewSource(backends[1]).WithPlanCache(gremlin.NewPlanCache(0))
	for round := 0; round < 2; round++ { // round 1 runs the cached plans
		CheckLiveness(t, want, src)
	}
}
