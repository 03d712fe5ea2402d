package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// renderFloatBits renders traversal results with every float as its raw
// bits, so a NaN payload or a negative zero that changed on the wire shows.
func renderFloatBits(objs []any) string {
	val := func(v types.Value) string {
		if v.Kind == types.KindFloat {
			return fmt.Sprintf("f%x", math.Float64bits(v.F))
		}
		return fmt.Sprintf("%d:%d:%q", v.Kind, v.I, v.S)
	}
	parts := make([]string, len(objs))
	for i, o := range objs {
		switch x := o.(type) {
		case types.Value:
			parts[i] = val(x)
		case float64:
			parts[i] = fmt.Sprintf("f%x", math.Float64bits(x))
		case *graph.Element:
			parts[i] = graphtest.RenderBits([]*graph.Element{x})
		default:
			parts[i] = gremlin.Display(o)
		}
	}
	return strings.Join(parts, ",")
}

// TestShardedSpecialFloats: float properties JSON cannot carry (NaN with a
// payload, ±Inf, -0.0) on vertices and edges come back bit-exact through a
// 2-shard coordinator, exactly as a single-node traversal returns them. The
// shard replies used to be JSON, so these traversals failed with
// "json: unsupported value: NaN" where single-node succeeded.
func TestShardedSpecialFloats(t *testing.T) {
	floats := []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	}
	var vs, es []*graph.Element
	for i := 0; i < 8; i++ {
		vs = append(vs, &graph.Element{ID: fmt.Sprintf("v%d", i), Label: "node",
			Props: map[string]types.Value{"w": types.NewFloat(floats[i%len(floats)])}})
	}
	for i := 0; i < 8; i++ {
		es = append(es, &graph.Element{ID: fmt.Sprintf("e%d", i), Label: "link", IsEdge: true,
			OutV: fmt.Sprintf("v%d", i), InV: fmt.Sprintf("v%d", (i*3+1)%8),
			Props: map[string]types.Value{"w": types.NewFloat(floats[(i+1)%len(floats)])}})
	}
	load := func(vs, es []*graph.Element) *graph.MemBackend {
		m := graph.NewMemBackend()
		for _, v := range vs {
			if err := m.AddVertex(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range es {
			if err := m.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	single := gremlin.NewSource(load(vs, es))

	parts := Partition(vs, es, 2)
	addrs := make([]string, len(parts))
	dual := 0
	for i, p := range parts {
		srv := gserver.NewWithConfig(gremlin.NewSource(load(p.Vertices, p.Edges)), gserver.Config{Registry: telemetry.NewRegistry()})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
		dual += len(p.Edges)
	}
	if dual <= len(es) {
		t.Fatal("dataset has no dual-homed edge; pick other ids")
	}
	coord, err := Dial(Config{Addrs: addrs, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	sharded := gremlin.NewSource(coord)

	for _, script := range []string{
		"g.V()",
		"g.E()",
		"g.V().values('w')",
		"g.E().values('w')",
		"g.V('v0','v1','v2','v3').out()",
		"g.V('v0','v1','v2','v3').bothE().values('w')",
		"g.V('v4').out().out().values('w')",
		"g.V().hasLabel('node').inE('link')",
	} {
		want, err := gremlin.RunScript(single, script, nil)
		if err != nil {
			t.Fatalf("single-node %s: %v", script, err)
		}
		got, err := gremlin.RunScript(sharded, script, nil)
		if err != nil {
			t.Fatalf("sharded %s: %v", script, err)
		}
		if g, w := renderFloatBits(got), renderFloatBits(want); g != w {
			t.Fatalf("%s diverged\n got: %s\nwant: %s", script, g, w)
		}
	}
}
