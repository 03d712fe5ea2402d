package gserver

import (
	"encoding/json"
	"errors"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
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

// FuzzGraphOpReply: an arbitrary response line, read as the client reads
// it, goes through both read-reply decoders. Each either errors or yields
// a well-formed reply, and never both: one count with no element batch, or
// an element batch (with aligned groups) with no count.
func FuzzGraphOpReply(f *testing.F) {
	e := &graph.Element{ID: "e1", Label: "knows", IsEdge: true, OutV: "a", InV: "b",
		Props: map[string]types.Value{"w": types.NewFloat(1.5)}}
	v := &graph.Element{ID: "a", Label: "user"}
	line := func(r Response) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	zero, three, neg := int64(0), int64(3), int64(-4)
	flat := graphenc.AppendColumns(nil, graph.ColumnizeElements([]*graph.Element{v, nil, e}))
	grouped := graphenc.AppendColumns(nil, graph.ColumnizeGroups([][]*graph.Element{{e}, nil, {}}))
	f.Add(line(Response{Count: &zero}))
	f.Add(line(Response{Count: &three}))
	f.Add(line(Response{Count: &neg}))
	f.Add(line(Response{Columns: flat}))
	f.Add(line(Response{Columns: grouped}))
	f.Add(line(Response{Columns: flat, Count: &three}))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"count":null}`))
	f.Add([]byte(`{"count":1.5}`))
	f.Add([]byte(`{"count":9223372036854775808}`))
	f.Add([]byte(`{"columns":"!!"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Response
		if err := json.Unmarshal(data, &r); err != nil {
			return
		}
		n, cerr := r.EdgeCount()
		els, groups, eerr := r.ElementBatch()
		if cerr == nil && eerr == nil {
			t.Fatalf("reply decoded both as count %d and as %d elements", n, len(els))
		}
		if cerr == nil && (r.Count == nil || n != *r.Count || n < 0 || len(r.Columns) != 0) {
			t.Fatalf("count %d decoded from a malformed count reply", n)
		}
		if eerr == nil {
			if r.Count != nil {
				t.Fatal("element reply carrying a count decoded")
			}
			if groups != nil {
				total := 0
				for _, g := range groups {
					total += len(g)
				}
				if total != len(els) {
					t.Fatalf("groups hold %d edges, batch %d", total, len(els))
				}
			}
		}
	})
}
