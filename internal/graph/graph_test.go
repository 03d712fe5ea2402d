package graph

import (
	"context"
	"testing"

	"db2graph/internal/sql/types"
)

func props(kv ...any) map[string]types.Value {
	out := make(map[string]types.Value)
	for i := 0; i+1 < len(kv); i += 2 {
		v, err := types.FromGo(kv[i+1])
		if err != nil {
			panic(err)
		}
		out[kv[i].(string)] = v
	}
	return out
}

func sampleGraph(t *testing.T) *MemBackend {
	t.Helper()
	m := NewMemBackend()
	vs := []*Element{
		{ID: "p1", Label: "patient", Props: props("name", "Alice", "age", 40)},
		{ID: "p2", Label: "patient", Props: props("name", "Bob", "age", 55)},
		{ID: "d1", Label: "disease", Props: props("conceptName", "diabetes")},
		{ID: "d2", Label: "disease", Props: props("conceptName", "type 2 diabetes")},
	}
	for _, v := range vs {
		if err := m.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	es := []*Element{
		{ID: "e1", Label: "hasDisease", OutV: "p1", InV: "d2", Props: props("since", 2018)},
		{ID: "e2", Label: "hasDisease", OutV: "p2", InV: "d1", Props: props("since", 2019)},
		{ID: "e3", Label: "isa", OutV: "d2", InV: "d1"},
	}
	for _, e := range es {
		if err := m.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestPredMatching(t *testing.T) {
	e := &Element{ID: "x", Label: "patient", Props: props("age", 40, "name", "Alice")}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Pred{Key: "age", Op: OpEq, Value: types.NewInt(40)}, true},
		{Pred{Key: "age", Op: OpEq, Value: types.NewInt(41)}, false},
		{Pred{Key: "age", Op: OpNeq, Value: types.NewInt(41)}, true},
		{Pred{Key: "age", Op: OpLt, Value: types.NewInt(50)}, true},
		{Pred{Key: "age", Op: OpLte, Value: types.NewInt(40)}, true},
		{Pred{Key: "age", Op: OpGt, Value: types.NewInt(40)}, false},
		{Pred{Key: "age", Op: OpGte, Value: types.NewInt(40)}, true},
		{Pred{Key: "age", Op: OpWithin, Values: []types.Value{types.NewInt(1), types.NewInt(40)}}, true},
		{Pred{Key: "missing", Op: OpEq, Value: types.NewInt(1)}, false},
		{Pred{Key: KeyID, Op: OpEq, Value: types.NewString("x")}, true},
		{Pred{Key: KeyLabel, Op: OpEq, Value: types.NewString("patient")}, true},
		{Pred{Key: KeyLabel, Op: OpEq, Value: types.NewString("disease")}, false},
	}
	for i, c := range cases {
		if got := c.p.Matches(e); got != c.want {
			t.Errorf("case %d (%s %s): got %v", i, c.p.Key, c.p.Op, got)
		}
	}
}

func TestQueryMatches(t *testing.T) {
	e := &Element{ID: "p1", Label: "patient", Props: props("age", 40)}
	q := &Query{Labels: []string{"patient"}, Preds: []Pred{{Key: "age", Op: OpGte, Value: types.NewInt(30)}}}
	if !q.Matches(e) {
		t.Fatal("should match")
	}
	q.Labels = []string{"disease"}
	if q.Matches(e) {
		t.Fatal("label filter failed")
	}
	q2 := &Query{IDs: []string{"p2"}}
	if q2.Matches(e) {
		t.Fatal("id filter failed")
	}
	var nilQ *Query
	if !nilQ.Matches(e) {
		t.Fatal("nil query must match everything")
	}
}

func TestQueryClone(t *testing.T) {
	q := &Query{IDs: []string{"a"}, Labels: []string{"l"}, Projection: []string{"p"}}
	c := q.Clone()
	c.IDs[0] = "b"
	c.Labels = append(c.Labels, "m")
	if q.IDs[0] != "a" || len(q.Labels) != 1 {
		t.Fatal("Clone aliased memory")
	}
	if (*Query)(nil).Clone() == nil {
		t.Fatal("nil Clone should allocate")
	}
	// Projection: nil means all properties and empty means none, so each
	// form must survive Clone, and a non-empty one must be a copy.
	if c := (&Query{}).Clone(); c.Projection != nil {
		t.Fatalf("nil projection cloned to %#v", c.Projection)
	}
	if c := (&Query{Projection: []string{}}).Clone(); c.Projection == nil || len(c.Projection) != 0 {
		t.Fatalf("empty projection cloned to %#v", c.Projection)
	}
	c.Projection[0] = "q"
	if q.Projection[0] != "p" {
		t.Fatal("Clone aliased the projection")
	}
}

func TestMemVerticesAndEdges(t *testing.T) {
	m := sampleGraph(t)
	vs, err := m.V(context.Background(), &Query{})
	if err != nil || len(vs) != 4 {
		t.Fatalf("V() = %d, %v", len(vs), err)
	}
	vs, _ = m.V(context.Background(), &Query{Labels: []string{"patient"}})
	if len(vs) != 2 {
		t.Fatalf("V(patient) = %d", len(vs))
	}
	vs, _ = m.V(context.Background(), &Query{IDs: []string{"p1", "d1", "zzz"}})
	if len(vs) != 2 {
		t.Fatalf("V(ids) = %d", len(vs))
	}
	es, _ := m.E(context.Background(), &Query{Labels: []string{"isa"}})
	if len(es) != 1 || es[0].ID != "e3" {
		t.Fatalf("E(isa) = %v", es)
	}
}

func TestMemAdjacency(t *testing.T) {
	m := sampleGraph(t)
	es, err := m.VertexEdges(context.Background(), []string{"p1"}, DirOut, &Query{})
	if err != nil || len(es) != 1 || es[0].ID != "e1" {
		t.Fatalf("outE(p1) = %v, %v", es, err)
	}
	es, _ = m.VertexEdges(context.Background(), []string{"d1"}, DirIn, &Query{})
	if len(es) != 2 {
		t.Fatalf("inE(d1) = %v", es)
	}
	es, _ = m.VertexEdges(context.Background(), []string{"d2"}, DirBoth, &Query{})
	if len(es) != 2 {
		t.Fatalf("bothE(d2) = %v", es)
	}
	es, _ = m.VertexEdges(context.Background(), []string{"p1", "p2"}, DirOut, &Query{Labels: []string{"hasDisease"}})
	if len(es) != 2 {
		t.Fatalf("outE(p1,p2,hasDisease) = %v", es)
	}
	// EdgeVertices resolves endpoints.
	vs, _ := m.EdgeVertices(context.Background(), es, DirIn, &Query{})
	if len(vs) != 2 {
		t.Fatalf("inV = %v", vs)
	}
	vs, _ = m.EdgeVertices(context.Background(), es[:1], DirOut, &Query{})
	if len(vs) != 1 || vs[0].ID != "p1" {
		t.Fatalf("outV = %v", vs)
	}
}

func TestMemValidation(t *testing.T) {
	m := NewMemBackend()
	if err := m.AddVertex(&Element{}); err == nil {
		t.Fatal("vertex without id accepted")
	}
	m.AddVertex(&Element{ID: "a"})
	if err := m.AddVertex(&Element{ID: "a"}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := m.AddEdge(&Element{ID: "e", OutV: "a", InV: "missing"}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	m.AddVertex(&Element{ID: "b"})
	if err := m.AddEdge(&Element{ID: "e", OutV: "a", InV: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEdge(&Element{ID: "e", OutV: "a", InV: "b"}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestAggregates(t *testing.T) {
	m := sampleGraph(t)
	v, err := m.AggV(context.Background(), &Query{Labels: []string{"patient"}}, Agg{Kind: AggCount})
	if err != nil || v.I != 2 {
		t.Fatalf("count = %v, %v", v, err)
	}
	v, _ = m.AggV(context.Background(), &Query{Labels: []string{"patient"}}, Agg{Kind: AggSum, Key: "age"})
	if v.F != 95 {
		t.Fatalf("sum = %v", v)
	}
	v, _ = m.AggV(context.Background(), &Query{Labels: []string{"patient"}}, Agg{Kind: AggMean, Key: "age"})
	if v.F != 47.5 {
		t.Fatalf("mean = %v", v)
	}
	v, _ = m.AggV(context.Background(), &Query{Labels: []string{"patient"}}, Agg{Kind: AggMin, Key: "age"})
	if v.I != 40 {
		t.Fatalf("min = %v", v)
	}
	v, _ = m.AggV(context.Background(), &Query{Labels: []string{"patient"}}, Agg{Kind: AggMax, Key: "age"})
	if v.I != 55 {
		t.Fatalf("max = %v", v)
	}
	v, _ = m.AggVertexEdges(context.Background(), []string{"p1"}, DirOut, &Query{}, Agg{Kind: AggCount})
	if v.I != 1 {
		t.Fatalf("edge count = %v", v)
	}
	v, _ = m.AggE(context.Background(), &Query{Labels: []string{"hasDisease"}}, Agg{Kind: AggMax, Key: "since"})
	if v.I != 2019 {
		t.Fatalf("edge max = %v", v)
	}
}

func TestAggregateValuesHelper(t *testing.T) {
	vals := []types.Value{types.NewInt(1), types.NewInt(2), types.Null, types.NewInt(3)}
	v, err := AggregateValues(vals, AggSum)
	if err != nil || v.I != 6 {
		t.Fatalf("sum = %v, %v", v, err)
	}
	v, _ = AggregateValues(vals, AggCount)
	if v.I != 4 {
		t.Fatalf("count = %v", v)
	}
	v, _ = AggregateValues(vals, AggMean)
	if v.F != 2 {
		t.Fatalf("mean = %v", v)
	}
	v, _ = AggregateValues(nil, AggMin)
	if !v.IsNull() {
		t.Fatalf("min of empty = %v", v)
	}
	if _, err := AggregateValues([]types.Value{types.NewString("x")}, AggSum); err == nil {
		t.Fatal("sum of string should fail")
	}
}

func TestElementHelpers(t *testing.T) {
	e := &Element{ID: "e1", Label: "isa", IsEdge: true, OutV: "a", InV: "b", Props: props("z", 1, "a", 2)}
	names := e.PropertyNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Fatalf("names = %v", names)
	}
	if v, ok := e.Property("z"); !ok || v.I != 1 {
		t.Fatalf("Property = %v, %v", v, ok)
	}
	if _, ok := e.Property("nope"); ok {
		t.Fatal("missing property reported present")
	}
	if e.String() != "e[e1][a-isa->b]" {
		t.Fatalf("String = %s", e.String())
	}
	v := &Element{ID: "v1", Label: "x"}
	if v.String() != "v[v1][x]" {
		t.Fatalf("String = %s", v.String())
	}
	if (*Element)(nil).String() != "<nil>" {
		t.Fatal("nil String")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if DirOut.Reverse() != DirIn || DirIn.Reverse() != DirOut || DirBoth.Reverse() != DirBoth {
		t.Fatal("Reverse wrong")
	}
	if DirOut.String() != "out" || DirIn.String() != "in" || DirBoth.String() != "both" {
		t.Fatal("String wrong")
	}
}
