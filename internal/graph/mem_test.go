package graph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"db2graph/internal/sql/types"
)

// TestMemVertexEdgesDifferential checks MemBackend's VertexEdges, its
// per-vertex EdgesForVertices groups, and its count and sum against a
// reference that scans every edge in insertion order: the edges whose
// counted endpoint is among the distinct vids, each once, in
// first-vid-occurrence order (a group: the reference for its vid alone);
// and their count and sum of w over
// the vid multiset, an edge once per occurrence of its counted endpoint
// (both(): of its more frequent end). Vid lists repeat ids and name
// unknown ones; the graph has self-loops; q ranges over unfiltered and
// filtered queries.
func TestMemVertexEdgesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMemBackend()
	const nv = 40
	var eorder []*Element
	for i := 0; i < nv; i++ {
		if err := m.AddVertex(&Element{ID: fmt.Sprintf("v%d", i), Label: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	labels := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		out := rng.Intn(nv)
		in := rng.Intn(nv)
		if i%25 == 0 {
			in = out // self-loop
		}
		e := &Element{ID: fmt.Sprintf("e%d", i), Label: labels[rng.Intn(len(labels))], IsEdge: true,
			OutV: fmt.Sprintf("v%d", out), InV: fmt.Sprintf("v%d", in),
			Props: map[string]types.Value{"w": types.NewInt(int64(rng.Intn(10)))}}
		if err := m.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		eorder = append(eorder, e)
	}
	queries := []*Query{
		nil,
		{},
		{Projection: []string{}},
		{Labels: []string{"a", "c"}},
		{Preds: []Pred{{Key: "w", Op: OpGte, Value: types.NewInt(5)}}},
		{IDs: []string{"e1", "e3", "e25", "e50", "e99", "nope"}},
		{Labels: []string{"b"}, Preds: []Pred{{Key: "w", Op: OpLt, Value: types.NewInt(3)}}},
	}
	reference := func(vids []string, dir Direction, q *Query) []*Element {
		var out []*Element
		taken := map[string]bool{}
		done := map[string]bool{}
		for _, vid := range vids {
			if done[vid] {
				continue
			}
			done[vid] = true
			// DirBoth lists a vertex's out edges before its in edges.
			for _, side := range []Direction{DirOut, DirIn} {
				if dir != DirBoth && dir != side {
					continue
				}
				for _, e := range eorder {
					end := e.OutV
					if side == DirIn {
						end = e.InV
					}
					if end == vid && !taken[e.ID] && q.Matches(e) {
						taken[e.ID] = true
						out = append(out, e)
					}
				}
			}
		}
		return out
	}
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		vids := make([]string, rng.Intn(12))
		for i := range vids {
			switch r := rng.Intn(10); {
			case r == 0:
				vids[i] = "unknown"
			case r < 3 && i > 0:
				vids[i] = vids[rng.Intn(i)] // a repeat
			default:
				vids[i] = fmt.Sprintf("v%d", rng.Intn(nv))
			}
		}
		for _, dir := range []Direction{DirOut, DirIn, DirBoth} {
			for qi, q := range queries {
				want := reference(vids, dir, q)
				got, err := m.VertexEdges(ctx, vids, dir, q)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("VertexEdges(%v, %v, q%d)\n got %v\nwant %v", vids, dir, qi, got, want)
				}
				groups, err := m.EdgesForVertices(ctx, vids, dir, q)
				if err != nil {
					t.Fatal(err)
				}
				for i, vid := range vids {
					if w := reference([]string{vid}, dir, q); fmt.Sprint(groups[i]) != fmt.Sprint(w) {
						t.Fatalf("EdgesForVertices(%v, %v, q%d)[%d]\n got %v\nwant %v", vids, dir, qi, i, groups[i], w)
					}
				}
				var wantN, wantSum int64
				for _, e := range want {
					var out, in int64
					for _, vid := range vids {
						if vid == e.OutV {
							out++
						}
						if vid == e.InV {
							in++
						}
					}
					w := map[Direction]int64{DirOut: out, DirIn: in, DirBoth: max(out, in)}[dir]
					wantN += w
					wantSum += w * e.Props["w"].I
				}
				n, err := m.AggVertexEdges(ctx, vids, dir, q, Agg{Kind: AggCount})
				if err != nil {
					t.Fatal(err)
				}
				if n.Kind != types.KindInt || n.I != wantN {
					t.Fatalf("count(%v, %v, q%d) = %v, want %d", vids, dir, qi, n, wantN)
				}
				sum, err := m.AggVertexEdges(ctx, vids, dir, q, Agg{Kind: AggSum, Key: "w"})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) > 0 && sum != types.NewFloat(float64(wantSum)) || len(want) == 0 && !sum.IsNull() {
					t.Fatalf("sum(%v, %v, q%d) = %v, want %d", vids, dir, qi, sum, wantSum)
				}
			}
		}
	}
}

// cancelAfter is a context whose Done channel reads open for the first
// after checks and closed from then on, so a cancellation lands mid-scan.
type cancelAfter struct {
	context.Context
	checks, after int
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *cancelAfter) Done() <-chan struct{} {
	c.checks++
	if c.checks > c.after {
		return closedDone
	}
	return nil
}

func (c *cancelAfter) Err() error {
	if c.checks > c.after {
		return context.Canceled
	}
	return nil
}

// TestMemCountCancellation: the adjacency-length count checks ctx inside
// its vid loop. The context is live for the up-front check and the first
// scan tick and canceled by the tick at scanCheckStride, so only the
// in-loop check can fail the call.
func TestMemCountCancellation(t *testing.T) {
	m := NewMemBackend()
	if err := m.AddVertex(&Element{ID: "v"}); err != nil {
		t.Fatal(err)
	}
	vids := make([]string, 2*scanCheckStride)
	for i := range vids {
		vids[i] = "v"
	}
	for _, dir := range []Direction{DirOut, DirIn, DirBoth} {
		ctx := &cancelAfter{Context: context.Background(), after: 2}
		_, err := m.AggVertexEdges(ctx, vids, dir, nil, Agg{Kind: AggCount})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("count %v canceled mid-scan: err = %v, want context.Canceled", dir, err)
		}
		if ctx.checks != 3 {
			t.Fatalf("count %v: %d context checks, want 3", dir, ctx.checks)
		}
	}
}
