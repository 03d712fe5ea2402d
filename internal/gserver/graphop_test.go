package gserver

import (
	"errors"
	"testing"

	"db2graph/internal/graph"
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
