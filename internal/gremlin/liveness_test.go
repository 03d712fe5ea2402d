package gremlin

import (
	"strings"
	"testing"

	"db2graph/internal/graph"
)

// renderProjections renders the fetch projections of a plan's GSA steps:
// "*" fetches every property, "-" none, otherwise the keys. out()/in()/
// both() render their edge query, then their vertex query.
func renderProjections(steps []Step) string {
	proj := func(q *graph.Query) string {
		switch {
		case q == nil || q.Projection == nil:
			return "*"
		case len(q.Projection) == 0:
			return "-"
		}
		return strings.Join(q.Projection, "|")
	}
	var parts []string
	for _, s := range steps {
		switch x := s.(type) {
		case *GraphStep:
			parts = append(parts, x.Name()+"["+proj(x.Query)+"]")
		case *VertexStep:
			if x.ReturnEdges {
				parts = append(parts, x.Name()+"["+proj(x.Query)+"]")
			} else {
				parts = append(parts, x.Name()+"["+proj(x.Query)+","+proj(x.VQuery)+"]")
			}
		case *EdgeVertexStep:
			parts = append(parts, x.Name()+"["+proj(x.Query)+"]")
		case *RepeatStep:
			parts = append(parts, "repeat{"+renderProjections(x.Body)+"}")
		case *WhereStep:
			parts = append(parts, "where{"+renderProjections(x.Sub)+"}")
		case *UnionStep:
			for _, b := range x.Branches {
				parts = append(parts, "union{"+renderProjections(b)+"}")
			}
		}
	}
	return strings.Join(parts, " ")
}

// TestPropertyLivenessPlans pins the projection every GSA step of a plan
// fetches: a hop's edges and an unobserved frontier fetch no properties,
// values(k)/valueMap(k) fetch their keys, and as(), path(), select(),
// store(), order(), bare values()/valueMap(), sub-traversals and the
// traversal's result keep every property.
func TestPropertyLivenessPlans(t *testing.T) {
	g := testGraph(t)
	cases := []struct{ script, want string }{
		{`g.V('p1').out().out().count()`, `out[-,-] out[-,-]`},
		{`g.V().out().out().count()`, `V[-] out[-,-] out[-,-]`},
		{`g.V().both().out().count()`, `V[-] both[-,-] out[-,-]`},
		{`g.V().out()`, `V[-] out[-,*]`},
		{`g.V().out().as('a').out().select('a')`, `V[-] out[-,*] out[-,*]`},
		{`g.V().out().out().path()`, `V[*] out[-,*] out[-,*]`},
		{`g.V().out().out().simplePath().count()`, `V[*] out[-,*] out[-,*]`},
		{`g.V().out().out().values('name')`, `V[-] out[-,-] out[-,name]`},
		{`g.V().out().valueMap()`, `V[-] out[-,*]`},
		{`g.V().out().values()`, `V[-] out[-,*]`},
		{`g.V().out().valueMap('a', 'b')`, `V[-] out[-,a|b]`},
		{`g.V().out().dedup().limit(2).id()`, `V[-] out[-,-]`},
		{`g.V().out().label().dedup()`, `V[-] out[-,-]`},
		{`g.V().out().order().by('name').values('x')`, `V[-] out[-,*]`},
		{`g.V().out().has('age', gt(3)).count()`, `V[-] out[-,-]`},
		{`g.V().outE().has('w', 1).inV().id()`, `V[-] outE[-] inV[-]`},
		{`g.V().outE()`, `V[-] outE[*]`},
		{`g.V().store('x').out().count()`, `V[*] out[-,-]`},
		{`g.V().where(out('isa')).out().id()`, `V[*] where{out[-,*]} out[-,-]`},
		{`g.V().union(out(), in()).count()`, `V[*] union{out[-,*]} union{in[-,*]}`},
		{`g.V().repeat(out()).times(2).count()`, `V[*] repeat{out[-,*]}`},
		{`g.V().groupCount()`, `V[*]`},
		{`g.V().hasLabel('patient').values('name')`, `V[name]`},
	}
	for _, c := range cases {
		tr, err := ParseTraversal(g, c.script, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.script, err)
		}
		steps := applyStrategies(cloneSteps(tr.Steps), g.Strategies)
		if got := renderProjections(steps); got != c.want {
			t.Errorf("%s: projections %s, want %s (plan %s)", c.script, got, c.want, PlanString(steps))
		}
	}
}

// TestBareValues: values() with no keys emits every property value, in
// key order, and its fetch keeps every property.
func TestBareValues(t *testing.T) {
	g := testGraph(t)
	for _, src := range []*Source{g, g.WithoutStrategies()} {
		vals, err := src.V("p1").Values().ToValues()
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 3 || vals[0].Text() != "Alice" || vals[1].I != 1 || vals[2].I != 100 {
			t.Fatalf("values() = %v, want [Alice 1 100]", vals)
		}
	}
}
