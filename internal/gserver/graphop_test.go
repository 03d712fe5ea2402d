package gserver

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
)

// TestGraphOpCountMalformed: a count op with a direction outside
// out/in/both is a BAD_REQUEST, never a panic, and the server keeps
// answering; a count reply without exactly one well-formed count is a
// decode error on the client side, never a silent 0.
func TestGraphOpCountMalformed(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, dir := range []graph.Direction{-1, 3, 1 << 20} {
		_, err := c.GraphOp(GraphOp{Method: OpCountVertexEdges, IDs: []string{"p1"}, Dir: dir})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("count with direction %d: error = %v, want ErrBadRequest", dir, err)
		}
	}
	resp, err := c.GraphOp(GraphOp{Method: OpCountVertexEdges, IDs: []string{"p1"}, Dir: graph.DirOut})
	if err != nil {
		t.Fatalf("valid count after bad ones: %v", err)
	}
	if n, err := resp.EdgeCount(); err != nil || n != 1 {
		t.Fatalf("p1 out count = %d, %v; want 1", n, err)
	}

	// An element reply, as a server answers EdgesForVertices: it carries
	// Columns only, so reading it as a count fails.
	elems, err := c.GraphOp(GraphOp{Method: OpEdgesForVertices, IDs: []string{"p1"}, Dir: graph.DirOut})
	if err != nil {
		t.Fatal(err)
	}
	two := int64(2)
	neg := int64(-1)
	for name, r := range map[string]Response{
		"no count":       {},
		"columns only":   elems,
		"columns+count":  {Columns: elems.Columns, Count: &two},
		"negative count": {Count: &neg},
	} {
		if n, err := r.EdgeCount(); err == nil {
			t.Fatalf("%s: EdgeCount = %d, want a decode error", name, n)
		}
	}
	if _, _, err := (&Response{Columns: elems.Columns, Count: &two}).ElementBatch(); err == nil {
		t.Fatal("element reply carrying a count decoded")
	}
}

// TestGraphOpProjectedReply: an element reply carries exactly the
// properties its request's projection names, whatever the backend returns
// (the memory backend ignores projections): every property under a nil
// projection, none under an empty one, and the named subset otherwise,
// also for keys no element has. Ids, labels and endpoints always travel,
// and grouped replies keep their groups.
func TestGraphOpProjectedReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vs, es := graphtest.Dataset()
	full := map[string]*graph.Element{}
	for _, el := range append(vs, es...) {
		full[el.ID] = el
	}
	ops := []GraphOp{
		{Method: OpV},
		{Method: OpE},
		{Method: OpVerticesByIDs, IDs: []string{"p1", "nope", "d11", "p1"}},
		{Method: OpEdgesForVertices, IDs: []string{"p1", "d11", "nope"}, Dir: graph.DirBoth},
	}
	projections := [][]string{nil, {}, {"name"}, {"description", "name", "conceptName", "nope"}, {"nope"}}
	for _, op := range ops {
		for _, proj := range projections {
			op.Query = &graph.Query{Projection: proj}
			resp, err := c.GraphOp(op)
			if err != nil {
				t.Fatalf("%s %v: %v", op.Method, proj, err)
			}
			els, groups, err := resp.ElementBatch()
			if err != nil {
				t.Fatalf("%s %v: %v", op.Method, proj, err)
			}
			if op.Method == OpEdgesForVertices && len(groups) != len(op.IDs) {
				t.Fatalf("%s %v: %d groups for %d ids", op.Method, proj, len(groups), len(op.IDs))
			}
			present := 0
			for _, el := range els {
				if el == nil {
					continue
				}
				present++
				src := full[el.ID]
				if src == nil || el.Label != src.Label || el.OutV != src.OutV || el.InV != src.InV {
					t.Fatalf("%s %v: element %v does not match the dataset", op.Method, proj, el)
				}
				want := map[string]string{}
				for k, v := range src.Props {
					if proj == nil || slices.Contains(proj, k) {
						want[k] = v.Text()
					}
				}
				got := map[string]string{}
				for k, v := range el.Props {
					got[k] = v.Text()
				}
				if !maps.Equal(got, want) {
					t.Fatalf("%s projection %#v: %s carries %v, want %v", op.Method, proj, el.ID, got, want)
				}
			}
			if present == 0 {
				t.Fatalf("%s %v: no elements, the check is vacuous", op.Method, proj)
			}
		}
	}
}
