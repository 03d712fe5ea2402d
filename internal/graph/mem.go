package graph

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"db2graph/internal/sql/types"
)

// MemBackend is a minimal in-memory reference implementation of Backend and
// Mutable. It exists for unit-testing the traversal engine independent of
// the real providers and as executable documentation of the provider
// contract. It applies Query filters but performs no storage-level
// optimization.
//
// Safe for concurrent use: an RWMutex lets readers overlap while AddVertex/
// AddEdge writers are exclusive. Insertion-order slices (vorder, eorder,
// per-vertex adjacency) make every read deterministic, and each vertex's
// adjacency sub-order is independent of the other vids in a VertexEdges
// call, as the Backend ordering contract requires.
type MemBackend struct {
	mu       sync.RWMutex
	vertices map[string]*memVertex
	vorder   []*Element
	edges    map[string]*Element
	eorder   []*Element
	version  atomic.Uint64 // bumped after every committed mutation
}

// memVertex is a stored vertex with its incident edges in insertion order,
// so an adjacency read costs one map lookup per vertex, not one per edge.
// mem never deletes, so the edge pointers stay valid.
type memVertex struct {
	el      *Element
	out, in []*Element
}

// adj returns v's edges in direction dir (DirOut or DirIn); nil for an
// unknown vertex.
func (v *memVertex) adj(dir Direction) []*Element {
	if v == nil {
		return nil
	}
	if dir == DirIn {
		return v.in
	}
	return v.out
}

// NewMemBackend returns an empty in-memory graph.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		vertices: make(map[string]*memVertex),
		edges:    make(map[string]*Element),
	}
}

// Name implements Backend.
func (m *MemBackend) Name() string { return "mem" }

// AddVertex implements Mutable.
func (m *MemBackend) AddVertex(el *Element) error {
	if el.ID == "" {
		return fmt.Errorf("mem: vertex requires an id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.vertices[el.ID]; dup {
		return fmt.Errorf("mem: duplicate vertex id %q", el.ID)
	}
	cp := *el
	cp.IsEdge = false
	m.vertices[el.ID] = &memVertex{el: &cp}
	m.vorder = append(m.vorder, &cp)
	m.version.Add(1)
	return nil
}

// AddEdge implements Mutable.
func (m *MemBackend) AddEdge(el *Element) error {
	if el.ID == "" || el.OutV == "" || el.InV == "" {
		return fmt.Errorf("mem: edge requires id, OutV, and InV")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.edges[el.ID]; dup {
		return fmt.Errorf("mem: duplicate edge id %q", el.ID)
	}
	src, ok := m.vertices[el.OutV]
	if !ok {
		return fmt.Errorf("mem: edge %q references missing vertex %q", el.ID, el.OutV)
	}
	dst, ok := m.vertices[el.InV]
	if !ok {
		return fmt.Errorf("mem: edge %q references missing vertex %q", el.ID, el.InV)
	}
	cp := *el
	cp.IsEdge = true
	m.edges[el.ID] = &cp
	m.eorder = append(m.eorder, &cp)
	src.out = append(src.out, &cp)
	dst.in = append(dst.in, &cp)
	m.version.Add(1)
	return nil
}

// DataVersion implements DataVersioned: it increments after every
// AddVertex/AddEdge, so version-tagged caches above the backend invalidate
// on mutation.
func (m *MemBackend) DataVersion() uint64 { return m.version.Load() }

// vertex returns the stored vertex with the given id, or nil.
func (m *MemBackend) vertex(id string) *Element {
	if v := m.vertices[id]; v != nil {
		return v.el
	}
	return nil
}

// V implements Backend.
func (m *MemBackend) V(ctx context.Context, q *Query) ([]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Element
	appendIf := func(el *Element) {
		if el != nil && q.Matches(el) {
			out = append(out, el)
		}
	}
	if q != nil && len(q.IDs) > 0 {
		for _, id := range q.IDs {
			appendIf(m.vertex(id))
		}
		return out, nil
	}
	for i, el := range m.vorder {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		appendIf(el)
	}
	return out, nil
}

// E implements Backend.
func (m *MemBackend) E(ctx context.Context, q *Query) ([]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Element
	appendIf := func(el *Element) {
		if el != nil && q.Matches(el) {
			out = append(out, el)
		}
	}
	if q != nil && len(q.IDs) > 0 {
		for _, id := range q.IDs {
			appendIf(m.edges[id])
		}
		return out, nil
	}
	for i, el := range m.eorder {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		appendIf(el)
	}
	return out, nil
}

// VertexEdges implements Backend. Each matching edge is returned once even
// if several of the given vertices touch it.
func (m *MemBackend) VertexEdges(ctx context.Context, vids []string, dir Direction, q *Query) ([]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Element
	seen := map[*Element]bool{}
	add := func(es []*Element) {
		for _, el := range es {
			if !seen[el] && q.Matches(el) {
				seen[el] = true
				out = append(out, el)
			}
		}
	}
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		v := m.vertices[vid]
		if dir == DirOut || dir == DirBoth {
			add(v.adj(DirOut))
		}
		if dir == DirIn || dir == DirBoth {
			add(v.adj(DirIn))
		}
	}
	return out, nil
}

// EdgeVertices implements Backend. The result is aligned with edges (nil
// where the vertex is filtered out).
func (m *MemBackend) EdgeVertices(ctx context.Context, edges []*Element, dir Direction, q *Query) ([]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Element, len(edges))
	for i, e := range edges {
		id := e.OutV
		if dir == DirIn {
			id = e.InV
		}
		if v := m.vertex(id); v != nil && q.Matches(v) {
			out[i] = v
		}
	}
	return out, nil
}

// VerticesByIDs implements BatchBackend natively: the whole batch resolves
// under one read lock with direct map lookups.
func (m *MemBackend) VerticesByIDs(ctx context.Context, ids []string, q *Query) ([]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Element, len(ids))
	for i, id := range ids {
		if el := m.vertex(id); el != nil && q.MatchesFilter(el) {
			out[i] = el
		}
	}
	return out, nil
}

// EdgesForVertices implements BatchBackend natively: one read lock for the
// whole batch, per-vertex groups straight off the adjacency slices.
func (m *MemBackend) EdgesForVertices(ctx context.Context, vids []string, dir Direction, q *Query) ([][]*Element, error) {
	if err := Interrupted(ctx); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([][]*Element, len(vids))
	// One backing array serves every group: the per-vertex group is a capped
	// sub-slice, so a batch of n vertices costs two allocations instead of
	// one per vertex. An edge can repeat within one vertex only across
	// directions (a self-loop sits in both the out and in lists), so the
	// in-list skips a self-loop the out-list already offered.
	total := 0
	for _, vid := range vids {
		v := m.vertices[vid]
		if dir == DirOut || dir == DirBoth {
			total += len(v.adj(DirOut))
		}
		if dir == DirIn || dir == DirBoth {
			total += len(v.adj(DirIn))
		}
	}
	backing := make([]*Element, 0, total)
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		v := m.vertices[vid]
		start := len(backing)
		if dir == DirOut || dir == DirBoth {
			for _, el := range v.adj(DirOut) {
				if q.Matches(el) {
					backing = append(backing, el)
				}
			}
		}
		if dir == DirIn || dir == DirBoth {
			for _, el := range v.adj(DirIn) {
				if (dir != DirBoth || el.OutV != el.InV) && q.Matches(el) {
					backing = append(backing, el)
				}
			}
		}
		if len(backing) > start {
			out[i] = backing[start:len(backing):len(backing)]
		}
	}
	return out, nil
}

// AggV implements Backend via the generic fallback.
func (m *MemBackend) AggV(ctx context.Context, q *Query, agg Agg) (types.Value, error) {
	els, err := m.V(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return AggregateElements(els, agg)
}

// AggE implements Backend via the generic fallback.
func (m *MemBackend) AggE(ctx context.Context, q *Query, agg Agg) (types.Value, error) {
	els, err := m.E(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return AggregateElements(els, agg)
}

// AggVertexEdges implements Backend. A one-direction count sums adjacency
// lengths over the vids, once per occurrence, and reads an edge only when
// q filters: an out (in) edge sits in exactly one vertex's out (in) list.
// DirBoth (a self-loop sits in both lists) and the other aggregates
// materialize the edges through VertexEdges.
func (m *MemBackend) AggVertexEdges(ctx context.Context, vids []string, dir Direction, q *Query, agg Agg) (types.Value, error) {
	if agg.Kind != AggCount || (dir != DirOut && dir != DirIn) {
		els, err := m.VertexEdges(ctx, vids, dir, q)
		if err != nil {
			return types.Null, err
		}
		return AggregateVertexEdges(els, vids, dir, agg)
	}
	if err := Interrupted(ctx); err != nil {
		return types.Null, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	filter := q != nil && (len(q.IDs) > 0 || len(q.Labels) > 0 || len(q.Preds) > 0)
	var n int64
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return types.Null, err
		}
		es := m.vertices[vid].adj(dir)
		if !filter {
			n += int64(len(es))
			continue
		}
		for _, el := range es {
			if q.Matches(el) {
				n++
			}
		}
	}
	return types.NewInt(n), nil
}

var (
	_ Backend       = (*MemBackend)(nil)
	_ Mutable       = (*MemBackend)(nil)
	_ BatchBackend  = (*MemBackend)(nil)
	_ DataVersioned = (*MemBackend)(nil)
)
