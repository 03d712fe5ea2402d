package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/linkbench"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

// fetchTemplateGraphs opens the overlays the template test plans against:
// LinkBench's split layout (fixed labels, BIGINT ids), its single layout
// (label columns), the conformance overlay (VARCHAR ids), and a prefixed
// layout whose ids carry a constant term and whose edges have a composite
// source the templates cannot serve.
func fetchTemplateGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for name, layout := range map[string]linkbench.Layout{"split": linkbench.LayoutSplit, "single": linkbench.LayoutSingle} {
		cfg := linkbench.DefaultConfig(200)
		cfg.Layout = layout
		db := engine.New()
		oc, err := linkbench.Generate(cfg).LoadSQL(db)
		if err != nil {
			t.Fatal(err)
		}
		if out[name], err = Open(db, oc, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	vs, es := graphtest.Dataset()
	b, _, err := buildOverlayWithDB(DefaultOptions(), vs, es)
	if err != nil {
		t.Fatal(err)
	}
	out["conformance"] = b.(*Graph)

	db := engine.New()
	if err := db.ExecScript(`
		CREATE TABLE pv (id BIGINT PRIMARY KEY, kind VARCHAR(10), name VARCHAR(10));
		CREATE TABLE pe (a BIGINT, b BIGINT, dst BIGINT, kind VARCHAR(10), w BIGINT, PRIMARY KEY (a, b, dst));
	`); err != nil {
		t.Fatal(err)
	}
	g, err := Open(db, &overlay.Config{
		VTables: []overlay.VTable{{TableName: "pv", ID: "'pv'::id", Label: "kind", Properties: []string{"name"}}},
		ETables: []overlay.ETable{{TableName: "pe", SrcVTable: "pv", SrcV: "a::b", DstVTable: "pv", DstV: "'pv'::dst",
			ImplicitEdgeID: true, Label: "kind", Properties: []string{"w"}}},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out["prefixed"] = g
	return out
}

// fetchShapes are the query variants a template serves, plus the ones it
// must hand to the planner: labels none, fixed or matching, not matching,
// several; every property or none.
func fetchShapes(labels []string) []*graph.Query {
	var out []*graph.Query
	for _, ls := range [][]string{nil, labels[:1], {"nope"}, labels} {
		for _, proj := range [][]string{nil, {}} {
			out = append(out, &graph.Query{Labels: ls, Projection: proj})
		}
	}
	return out
}

// TestFetchTemplatesMatchPlanner holds the compiled fetch templates to the
// planner they were compiled with: for every mapping of fetchTemplateGraphs
// and every query shape, id list and endpoint list (one id, several, a
// repeat, ids that cannot decode), rows and COUNT(*), vertexFetch and
// edgeFetch must plan exactly what planVertexFetch and planEdgeFetch plan
// from scratch — the same SQL text, parameters, equality columns and
// select-list layout, or the same verdict that no row can match.
func TestFetchTemplatesMatchPlanner(t *testing.T) {
	idLists := [][]string{{"1"}, {"3", "1", "7"}, {"2", "2"}, {"x::y"}, {"pv::4", "pv::5", "9"}, {"1::2", "d10", "p1"}}
	for name, g := range fetchTemplateGraphs(t) {
		templated := 0
		for _, vm := range g.topo.Vertices {
			labels := vertexLabels(g)
			for _, shape := range fetchShapes(labels) {
				for _, ids := range idLists {
					for _, sel := range []string{"", countSelect} {
						q := shape.Clone()
						q.IDs = ids
						if checkVertexFetch(t, name, g, vm, q, sel) {
							templated++
						}
					}
				}
			}
		}
		for _, em := range g.topo.Edges {
			labels := edgeLabels(g)
			for _, shape := range fetchShapes(labels) {
				for _, ends := range idLists {
					for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn, graph.DirBoth} {
						for _, sel := range []string{"", countSelect} {
							if checkEdgeFetch(t, name, g, em, shape, ends, dir, sel) {
								templated++
							}
						}
					}
				}
			}
		}
		if templated == 0 {
			t.Fatalf("%s: no fetch came from a template", name)
		}
	}
}

func vertexLabels(g *Graph) []string {
	var out []string
	for _, vm := range g.topo.Vertices {
		if l, ok := vm.FixedLabel(); ok {
			out = append(out, l)
		}
	}
	return append(out, "nodeT1", "nodeT2", "patient", "a")
}

func edgeLabels(g *Graph) []string {
	var out []string
	for _, em := range g.topo.Edges {
		if l, ok := em.FixedLabel(); ok {
			out = append(out, l)
		}
	}
	return append(out, "linkT1", "linkT2", "isa", "a")
}

// checkVertexFetch compares vertexFetch with the planner on one query and
// reports whether the fetch came from a template.
func checkVertexFetch(t *testing.T, name string, g *Graph, vm *overlay.VertexMapping, q *graph.Query, sel string) bool {
	t.Helper()
	ref := g.planVertexFetch(vm, q, &idMemo{ids: q.IDs})
	p, sql, params := g.vertexFetch(vm, q, &idMemo{ids: q.IDs}, sel)
	where := name + " " + vm.Table + " " + renderQuery(q) + " " + sel
	if (p != nil) != ref.possible {
		t.Fatalf("%s: fetch planned %v, planner possible %v", where, p != nil, ref.possible)
	}
	if p == nil {
		return false
	}
	rows := sel == ""
	if rows {
		sel = selectList(ref.cols)
	}
	if want := ref.b.SQL(sel); sql != want {
		t.Fatalf("%s: SQL %q, planner %q", where, sql, want)
	}
	if !reflect.DeepEqual(params, ref.b.params) {
		t.Fatalf("%s: params %v, planner %v", where, params, ref.b.params)
	}
	// An aggregate reads no select-list layout.
	if !slices.Equal(p.b.eqCols, ref.b.eqCols) || p.b.fullyPushed != ref.b.fullyPushed || rows && (!slices.Equal(p.cols, ref.cols) || !slices.Equal(p.idPos, ref.idPos) || p.labelPos != ref.labelPos ||
		!slices.Equal(p.props, ref.props) || !slices.Equal(p.propPos, ref.propPos)) {
		t.Fatalf("%s: plan %+v, planner %+v", where, *p, *ref)
	}
	return isTemplate(g.vertexTmpl[vm], p)
}

// checkEdgeFetch is checkVertexFetch for edgeFetch.
func checkEdgeFetch(t *testing.T, name string, g *Graph, em *overlay.EdgeMapping, q *graph.Query, ends []string, dir graph.Direction, sel string) bool {
	t.Helper()
	ref := g.planEdgeFetch(em, q)
	if ref.possible {
		g.addEndpointRestriction(ref, &idMemo{ids: ends}, dir)
	}
	if ref.possible {
		g.addEdgeIDRestriction(ref, &idMemo{ids: q.IDs})
	}
	p, sql, params := g.edgeFetch(em, q, &idMemo{ids: ends}, &idMemo{ids: q.IDs}, dir, sel)
	where := name + " " + em.Table + " " + renderQuery(q) + " ends " + strings.Join(ends, ",") + " " + sel
	if (p != nil) != ref.possible {
		t.Fatalf("%s dir %v: fetch planned %v, planner possible %v", where, dir, p != nil, ref.possible)
	}
	if p == nil {
		return false
	}
	rows := sel == ""
	if rows {
		sel = selectList(ref.cols)
	}
	if want := ref.b.SQL(sel); sql != want {
		t.Fatalf("%s dir %v: SQL %q, planner %q", where, dir, sql, want)
	}
	if !reflect.DeepEqual(params, ref.b.params) {
		t.Fatalf("%s dir %v: params %v, planner %v", where, dir, params, ref.b.params)
	}
	if !slices.Equal(p.b.eqCols, ref.b.eqCols) || p.b.fullyPushed != ref.b.fullyPushed || rows && (!slices.Equal(p.cols, ref.cols) || !slices.Equal(p.srcPos, ref.srcPos) || !slices.Equal(p.dstPos, ref.dstPos) ||
		!slices.Equal(p.idPos, ref.idPos) || p.labelPos != ref.labelPos ||
		!slices.Equal(p.props, ref.props) || !slices.Equal(p.propPos, ref.propPos)) {
		t.Fatalf("%s dir %v: plan %+v, planner %+v", where, dir, *p, *ref)
	}
	ts := g.edgeTmpl[em]
	for e := range ts {
		for r := range ts[e] {
			for l := range ts[e][r] {
				if t := ts[e][r][l].t; t != nil && t.p == p {
					return true
				}
			}
		}
	}
	return false
}

func isTemplate(ts *vertexTemplates, p *vertexPlan) bool {
	for r := range ts {
		for l := range ts[r] {
			if t := ts[r][l].t; t != nil && t.p == p {
				return true
			}
		}
	}
	return false
}

func renderQuery(q *graph.Query) string {
	proj := "all"
	if q.Projection != nil {
		proj = "[" + strings.Join(q.Projection, ",") + "]"
	}
	return "ids=" + strings.Join(q.IDs, ",") + " labels=" + strings.Join(q.Labels, ",") + " proj=" + proj
}

// FuzzImplicitEdgeID holds the direct id compositions to the reference
// they replaced. implicitEdgeID must equal overlay.ComposeID over the
// decomposed source id, the label and the decomposed destination id, and
// composeExpr over a mix of constant and column terms must equal
// overlay.ComposeID over the parts. A '|' in the source or destination
// separates the parts of a composite (multi-term) endpoint id.
func FuzzImplicitEdgeID(f *testing.F) {
	for _, seed := range [][3]string{
		{"1", "linkT1", "2"},
		{"a|b", "isa", "c"},
		{"a:b|c", "l:a::b", "%3A|%25"},
		{"%", "%", "%"},
		{"", "", ""},
		{"::", ":", "%3A::|x"},
		{"p%3A1|%253A", "50%", "||"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, src, label, dst string) {
		srcParts, dstParts := strings.Split(src, "|"), strings.Split(dst, "|")
		srcID, dstID := overlay.ComposeID(srcParts), overlay.ComposeID(dstParts)
		parts := append(append(overlay.DecomposeID(srcID), label), overlay.DecomposeID(dstID)...)
		if got, want := implicitEdgeID(srcID, label, dstID), overlay.ComposeID(parts); got != want {
			t.Fatalf("implicitEdgeID(%q, %q, %q) = %q, want %q", srcID, label, dstID, got, want)
		}
		// Odd parts are constants, even parts column values, which the row
		// holds in reverse order.
		var expr overlay.IDExpr
		var cols []string
		for i, part := range srcParts {
			if i%2 == 1 {
				expr.Terms = append(expr.Terms, overlay.IDTerm{Const: part, IsConst: true})
				continue
			}
			expr.Terms = append(expr.Terms, overlay.IDTerm{Column: "c"})
			cols = append(cols, part)
		}
		row := make([]types.Value, len(cols))
		positions := make([]int, len(cols))
		for k, part := range cols {
			positions[k] = len(cols) - 1 - k
			row[positions[k]] = types.NewString(part)
		}
		if got, want := composeExpr(expr, row, positions), overlay.ComposeID(srcParts); got != want {
			t.Fatalf("composeExpr(%v) = %q, want %q", srcParts, got, want)
		}
	})
}
