package gremlin

import (
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/telemetry"
)

// callCounts reads the per-method call counters an instrumented backend
// records in reg.
func callCounts(reg *telemetry.Registry, backend string) map[string]int {
	out := map[string]int{}
	for _, op := range []string{"VertexEdges", "EdgeVertices", "VerticesByIDs", "EdgesForVertices", "AggVertexEdges"} {
		c := reg.Counter(fmt.Sprintf(`graph_backend_calls_total{backend=%q,method=%q}`, backend, op))
		out[op] = int(c.Value())
	}
	return out
}

// dupFrontierGraph builds a graph whose first hop from {a, b} reaches c
// three times (a parallel a→c pair plus b→c), d twice and e once, so
// g.V('a','b').out() is a frontier with multiplicities 3, 2 and 1.
func dupFrontierGraph(t *testing.T) *graph.MemBackend {
	t.Helper()
	m := graph.NewMemBackend()
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		if err := m.AddVertex(&graph.Element{ID: id, Label: "node"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][4]string{
		{"ac1", "x", "a", "c"}, {"ac2", "x", "a", "c"}, {"ad", "y", "a", "d"},
		{"bc", "x", "b", "c"}, {"bd", "x", "b", "d"}, {"be", "y", "b", "e"},
		{"cf", "x", "c", "f"}, {"cg", "y", "c", "g"}, {"cc", "x", "c", "c"},
		{"df", "x", "d", "f"}, {"ec", "y", "e", "c"}, {"ge", "x", "g", "e"},
	} {
		if err := m.AddEdge(&graph.Element{ID: e[0], Label: e[1], OutV: e[2], InV: e[3]}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestDuplicatedFrontierCountPushdown checks that a fused count over a
// frontier with repeated vertices, whatever their multiplicities, is
// answered by one AggVertexEdges call over the frontier multiset, with no
// materializing call on the last hop, and that the answer equals the
// unoptimized traversal's.
func TestDuplicatedFrontierCountPushdown(t *testing.T) {
	m := dupFrontierGraph(t)
	reg := telemetry.NewRegistry()
	g := NewSource(graph.Instrument(m, reg))
	calls := func() map[string]int { return callCounts(reg, m.Name()) }
	naive := g.WithoutStrategies()

	// The distinct multiplicities of g.V('a','b').out(), counted
	// independently of the engine's grouping: one call covers all three.
	frontier, err := g.V("a", "b").Out().ToList()
	if err != nil {
		t.Fatal(err)
	}
	mult := map[string]int{}
	for _, o := range frontier {
		mult[o.(*graph.Element).ID]++
	}
	distinct := map[int]bool{}
	for _, k := range mult {
		distinct[k] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("fixture: multiplicities %v, want three classes", mult)
	}

	materializing := []string{"VertexEdges", "EdgeVertices", "VerticesByIDs", "EdgesForVertices"}
	first := func(s *Source) *Traversal { return s.V("a", "b").Out() }
	cases := []struct {
		name   string
		prefix func(*Source) *Traversal // the steps before the counted hop, or nil
		query  func(*Source) *Traversal
	}{
		{"out().out()", first, func(s *Source) *Traversal { return first(s).Out().Count() }},
		{"out().in()", first, func(s *Source) *Traversal { return first(s).In().Count() }},
		{"out().outE()", first, func(s *Source) *Traversal { return first(s).OutE().Count() }},
		{"out().inE('x')", first, func(s *Source) *Traversal { return first(s).InE("x").Count() }},
		// Fused seed ids with a repeat: the only hop is the counted one.
		{"V('a','a').out()", nil, func(s *Source) *Traversal { return s.V("a", "a").Out().Count() }},
		// both() pushes down over a single source vertex, repeats and a
		// self-loop included.
		{"V('c','c').bothE()", nil, func(s *Source) *Traversal { return s.V("c", "c").BothE().Count() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The prefix's own calls, which the full query repeats.
			prefix := map[string]int{}
			if tc.prefix != nil {
				c0 := calls()
				if _, err := tc.prefix(g).ToList(); err != nil {
					t.Fatal(err)
				}
				for op, n := range calls() {
					prefix[op] = n - c0[op]
				}
			}
			c0 := calls()
			got, err := tc.query(g).ToList()
			if err != nil {
				t.Fatal(err)
			}
			c1 := calls()
			want, err := tc.query(naive).ToList()
			if err != nil {
				t.Fatal(err)
			}
			if Display(got) != Display(want) {
				t.Fatalf("pushed %v != naive %v", Display(got), Display(want))
			}
			for _, op := range materializing {
				if n := c1[op] - c0[op] - prefix[op]; n != 0 {
					t.Errorf("last hop made %d %s calls, want 0", n, op)
				}
			}
			if n := c1["AggVertexEdges"] - c0["AggVertexEdges"]; n != 1 {
				t.Errorf("AggVertexEdges calls = %d, want 1", n)
			}
		})
	}

	// both()/bothE() over a duplicated frontier of several vertices
	// materialize and still match.
	for name, hop := range map[string]func(*Traversal) *Traversal{
		"both":  func(t *Traversal) *Traversal { return t.Both() },
		"bothE": func(t *Traversal) *Traversal { return t.BothE() },
	} {
		c0 := calls()
		got, err := hop(g.V("a", "b").Out()).Count().ToList()
		if err != nil {
			t.Fatal(err)
		}
		if n := calls()["AggVertexEdges"] - c0["AggVertexEdges"]; n != 0 {
			t.Errorf("%s: AggVertexEdges calls = %d, want the materializing fallback", name, n)
		}
		want, err := hop(naive.V("a", "b").Out()).Count().ToList()
		if err != nil {
			t.Fatal(err)
		}
		if Display(got) != Display(want) {
			t.Fatalf("%s: pushed %v != naive %v", name, Display(got), Display(want))
		}
	}

	// An empty frontier still counts 0.
	got, err := g.V("a", "b").Out().HasLabel("none").Out().Count().ToList()
	if err != nil {
		t.Fatal(err)
	}
	if Display(got) != "[0]" {
		t.Fatalf("empty frontier count = %v, want [0]", Display(got))
	}
}
