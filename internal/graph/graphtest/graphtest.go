// Package graphtest provides a conformance suite for graph.Backend
// implementations: the same property graph is loaded into a backend and a
// battery of structure-API and Gremlin-level checks is run. All three
// providers (db2graph via overlay, gdbx, janusgraph) and the reference
// memory backend must pass it identically.
package graphtest

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// Dataset returns the canonical test graph: the paper's Figure 2(b) with a
// deeper ontology.
func Dataset() (vertices, edges []*graph.Element) {
	p := func(kv ...any) map[string]types.Value {
		out := map[string]types.Value{}
		for i := 0; i+1 < len(kv); i += 2 {
			v, _ := types.FromGo(kv[i+1])
			out[kv[i].(string)] = v
		}
		return out
	}
	vertices = []*graph.Element{
		{ID: "p1", Label: "patient", Props: p("patientID", 1, "name", "Alice", "subscriptionID", 100)},
		{ID: "p2", Label: "patient", Props: p("patientID", 2, "name", "Bob", "subscriptionID", 200)},
		{ID: "p3", Label: "patient", Props: p("patientID", 3, "name", "Carol", "subscriptionID", 300)},
		{ID: "d9", Label: "disease", Props: p("conceptName", "metabolic disease")},
		{ID: "d10", Label: "disease", Props: p("conceptName", "diabetes")},
		{ID: "d11", Label: "disease", Props: p("conceptName", "type 2 diabetes")},
		{ID: "d12", Label: "disease", Props: p("conceptName", "hypertension")},
		{ID: "d13", Label: "disease", Props: p("conceptName", "mody diabetes")},
	}
	edges = []*graph.Element{
		{ID: "e1", Label: "hasDisease", OutV: "p1", InV: "d11", Props: p("description", "2018"), IsEdge: true},
		{ID: "e2", Label: "hasDisease", OutV: "p2", InV: "d10", Props: p("description", "2019"), IsEdge: true},
		{ID: "e3", Label: "hasDisease", OutV: "p3", InV: "d12", Props: p("description", "2020"), IsEdge: true},
		{ID: "e4", Label: "isa", OutV: "d11", InV: "d10", IsEdge: true},
		{ID: "e5", Label: "isa", OutV: "d13", InV: "d11", IsEdge: true},
		{ID: "e6", Label: "isa", OutV: "d10", InV: "d9", IsEdge: true},
	}
	return vertices, edges
}

// Run executes the conformance suite against a backend built by build.
func Run(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	ctx := context.Background()
	t.Helper()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	src := gremlin.NewSource(b)

	ids := func(els []*graph.Element) []string {
		var out []string
		for _, e := range els {
			if e != nil {
				out = append(out, e.ID)
			}
		}
		sort.Strings(out)
		return out
	}
	expect := func(name string, got []string, want ...string) {
		t.Helper()
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", name, got, want)
			}
		}
	}

	// --- structure API ---
	els, err := b.V(ctx, &graph.Query{})
	if err != nil {
		t.Fatal(err)
	}
	expect("V()", ids(els), "p1", "p2", "p3", "d9", "d10", "d11", "d12", "d13")

	els, _ = b.V(ctx, &graph.Query{Labels: []string{"patient"}})
	expect("V(label)", ids(els), "p1", "p2", "p3")

	els, _ = b.V(ctx, &graph.Query{IDs: []string{"p2", "d10", "zzz"}})
	expect("V(ids)", ids(els), "p2", "d10")

	els, _ = b.V(ctx, &graph.Query{Preds: []graph.Pred{{Key: "name", Op: graph.OpEq, Value: types.NewString("Bob")}}})
	expect("V(pred)", ids(els), "p2")

	els, _ = b.E(ctx, &graph.Query{Labels: []string{"isa"}})
	expect("E(label)", ids(els), "e4", "e5", "e6")

	els, _ = b.E(ctx, &graph.Query{IDs: []string{"e1", "e6"}})
	expect("E(ids)", ids(els), "e1", "e6")

	// A repeated id yields one element per occurrence, for E as for V.
	els, err = b.E(ctx, &graph.Query{IDs: []string{"e1", "e1"}})
	if err != nil {
		t.Fatal(err)
	}
	expect("E(repeated ids)", ids(els), "e1", "e1")

	els, _ = b.VertexEdges(ctx, []string{"p1"}, graph.DirOut, &graph.Query{})
	expect("outE(p1)", ids(els), "e1")
	if len(els) != 1 || els[0].OutV != "p1" || els[0].InV != "d11" {
		t.Fatalf("edge endpoints wrong: %+v", els)
	}

	els, _ = b.VertexEdges(ctx, []string{"d10"}, graph.DirIn, &graph.Query{})
	expect("inE(d10)", ids(els), "e2", "e4")

	els, _ = b.VertexEdges(ctx, []string{"d11"}, graph.DirBoth, &graph.Query{})
	expect("bothE(d11)", ids(els), "e1", "e4", "e5")

	els, _ = b.VertexEdges(ctx, []string{"p1", "p2"}, graph.DirOut, &graph.Query{Labels: []string{"hasDisease"}})
	expect("outE(p1,p2)", ids(els), "e1", "e2")

	// Aligned EdgeVertices.
	edges2, _ := b.VertexEdges(ctx, []string{"p1", "p2"}, graph.DirOut, &graph.Query{})
	sort.Slice(edges2, func(i, j int) bool { return edges2[i].ID < edges2[j].ID })
	verts, err := b.EdgeVertices(ctx, edges2, graph.DirIn, &graph.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != len(edges2) {
		t.Fatalf("EdgeVertices not aligned: %d vs %d", len(verts), len(edges2))
	}
	if verts[0] == nil || verts[0].ID != "d11" || verts[1] == nil || verts[1].ID != "d10" {
		t.Fatalf("EdgeVertices = %v", ids(verts))
	}
	// Filtered endpoints come back nil in aligned mode.
	verts, _ = b.EdgeVertices(ctx, edges2, graph.DirIn, &graph.Query{Labels: []string{"nope"}})
	for i, v := range verts {
		if v != nil {
			t.Fatalf("filtered endpoint %d not nil: %v", i, v)
		}
	}

	// --- aggregates ---
	v, err := b.AggV(ctx, &graph.Query{Labels: []string{"patient"}}, graph.Agg{Kind: graph.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.Int(); n != 3 {
		t.Fatalf("AggV count = %v", v)
	}
	v, _ = b.AggE(ctx, &graph.Query{}, graph.Agg{Kind: graph.AggCount})
	if n, _ := v.Int(); n != 6 {
		t.Fatalf("AggE count = %v", v)
	}
	v, _ = b.AggVertexEdges(ctx, []string{"p1", "p2"}, graph.DirOut, &graph.Query{}, graph.Agg{Kind: graph.AggCount})
	if n, _ := v.Int(); n != 2 {
		t.Fatalf("AggVertexEdges count = %v", v)
	}
	v, _ = b.AggV(ctx, &graph.Query{Labels: []string{"patient"}}, graph.Agg{Kind: graph.AggSum, Key: "subscriptionID"})
	if f, _ := v.Float(); f != 600 {
		t.Fatalf("AggV sum = %v", v)
	}

	// --- Gremlin level ---
	gids := func(name string, tr *gremlin.Traversal, want ...string) {
		t.Helper()
		objs, err := tr.ToList()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, o := range objs {
			switch x := o.(type) {
			case *graph.Element:
				got = append(got, x.ID)
			case types.Value:
				got = append(got, x.Text())
			}
		}
		sort.Strings(got)
		expect(name, got, want...)
	}
	gids("g.V(p1).out", src.V("p1").Out("hasDisease"), "d11")
	gids("g.V(d10).in", src.V("d10").In(), "d11", "p2")
	gids("2-hop", src.V("p1").Out("hasDisease").Out("isa"), "d10")
	gids("getLink", src.V("p1").OutE("hasDisease").Where(gremlin.Anon().InV().HasID("d11")), "e1")

	n, err := src.E("e1", "e1").Count().Next()
	if err != nil {
		t.Fatal(err)
	}
	if n.(types.Value).I != 2 {
		t.Fatalf("g.E('e1','e1').count() = %v, want 2", n)
	}

	n, err = src.V("p1").OutE("hasDisease").Count().Next()
	if err != nil {
		t.Fatal(err)
	}
	if n.(types.Value).I != 1 {
		t.Fatalf("countLinks = %v", n)
	}

	// Paper's similar-diseases pipeline.
	res, err := gremlin.RunScript(src, `
		sim = g.V('p1').out('hasDisease')
		  .repeat(out('isa').dedup().store('x')).times(2)
		  .repeat(in('isa').dedup().store('x')).times(2).cap('x').next();
		g.V(sim).in('hasDisease').dedup().values('patientID')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int64
	for _, o := range res {
		pids = append(pids, o.(types.Value).I)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	if len(pids) != 2 || pids[0] != 1 || pids[1] != 2 {
		t.Fatalf("similar patients = %v", pids)
	}

	// --- profile() (fluent and script) ---
	obj, err := src.V().HasLabel("patient").Out("hasDisease").Profile().Next()
	if err != nil {
		t.Fatalf("profile(): %v", err)
	}
	prof, ok := obj.(*telemetry.Profile)
	if !ok {
		t.Fatalf("profile() returned %T, want *telemetry.Profile", obj)
	}
	if len(prof.Steps) == 0 {
		t.Fatalf("profile() reported no steps")
	}
	for _, s := range prof.Steps {
		if s.Calls < 1 {
			t.Fatalf("profile() step %s has %d calls", s.Name, s.Calls)
		}
	}
	// Each of the three patients has exactly one disease, whatever shape the
	// strategies rewrote the plan into.
	if out := prof.Steps[len(prof.Steps)-1].Out; out != 3 {
		t.Fatalf("profile() final step emitted %d traversers, want 3\n%s", out, prof)
	}

	res, err = gremlin.RunScript(src, "g.V('p1').out('hasDisease').profile()", nil)
	if err != nil {
		t.Fatalf("script profile(): %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("script profile() returned %d results, want 1", len(res))
	}
	prof, ok = res[0].(*telemetry.Profile)
	if !ok {
		t.Fatalf("script profile() returned %T, want *telemetry.Profile", res[0])
	}
	if len(prof.Steps) == 0 || prof.Steps[len(prof.Steps)-1].Out != 1 {
		t.Fatalf("script profile() report wrong:\n%s", prof)
	}
}

// RenderBits serializes an element list, order included, with every field,
// whether Props is nil, and each property value with its float as raw bits,
// so NaN payloads and signed zeros compare exactly. nil entries render as
// "-".
func RenderBits(els []*graph.Element) string {
	var sb strings.Builder
	for _, el := range els {
		if el == nil {
			sb.WriteString("-;")
			continue
		}
		keys := make([]string, 0, len(el.Props))
		for k := range el.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%s|%s|%s|%v|%s->%s|nilprops=%v", el.ID, el.Label, el.Table, el.IsEdge, el.OutV, el.InV, el.Props == nil)
		for _, k := range keys {
			v := el.Props[k]
			fmt.Fprintf(&sb, "|%s=%d:%d:%x:%q", k, v.Kind, v.I, math.Float64bits(v.F), v.S)
		}
		sb.WriteString(";")
	}
	return sb.String()
}
