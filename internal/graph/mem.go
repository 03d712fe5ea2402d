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
	vertices map[string]*Element
	vorder   []string
	edges    map[string]*Element
	eorder   []string
	out      map[string][]string // vertex id -> edge ids
	in       map[string][]string
	version  atomic.Uint64 // bumped after every committed mutation
}

// NewMemBackend returns an empty in-memory graph.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		vertices: make(map[string]*Element),
		edges:    make(map[string]*Element),
		out:      make(map[string][]string),
		in:       make(map[string][]string),
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
	m.vertices[el.ID] = &cp
	m.vorder = append(m.vorder, el.ID)
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
	if _, ok := m.vertices[el.OutV]; !ok {
		return fmt.Errorf("mem: edge %q references missing vertex %q", el.ID, el.OutV)
	}
	if _, ok := m.vertices[el.InV]; !ok {
		return fmt.Errorf("mem: edge %q references missing vertex %q", el.ID, el.InV)
	}
	cp := *el
	cp.IsEdge = true
	m.edges[el.ID] = &cp
	m.eorder = append(m.eorder, el.ID)
	m.out[el.OutV] = append(m.out[el.OutV], el.ID)
	m.in[el.InV] = append(m.in[el.InV], el.ID)
	m.version.Add(1)
	return nil
}

// DataVersion implements DataVersioned: it increments after every
// AddVertex/AddEdge, so version-tagged caches above the backend invalidate
// on mutation.
func (m *MemBackend) DataVersion() uint64 { return m.version.Load() }

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
			appendIf(m.vertices[id])
		}
		return out, nil
	}
	for i, id := range m.vorder {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		appendIf(m.vertices[id])
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
	for i, id := range m.eorder {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		appendIf(m.edges[id])
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
	seen := map[string]bool{}
	add := func(eids []string) {
		for _, eid := range eids {
			if seen[eid] {
				continue
			}
			el := m.edges[eid]
			if el != nil && q.Matches(el) {
				seen[eid] = true
				out = append(out, el)
			}
		}
	}
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		if dir == DirOut || dir == DirBoth {
			add(m.out[vid])
		}
		if dir == DirIn || dir == DirBoth {
			add(m.in[vid])
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
		v := m.vertices[id]
		if v != nil && q.Matches(v) {
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
		if el := m.vertices[id]; el != nil && q.MatchesFilter(el) {
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
	// one per vertex. An edge id can repeat within one vertex only across
	// directions (a self-loop sits in both the out and in lists), so the
	// dedup map is needed — and allocated — only for DirBoth, cleared and
	// reused per vertex.
	total := 0
	for _, vid := range vids {
		if dir == DirOut || dir == DirBoth {
			total += len(m.out[vid])
		}
		if dir == DirIn || dir == DirBoth {
			total += len(m.in[vid])
		}
	}
	backing := make([]*Element, 0, total)
	var seen map[string]bool
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return nil, err
		}
		start := len(backing)
		add := func(eids []string) {
			for _, eid := range eids {
				if seen != nil && seen[eid] {
					continue
				}
				el := m.edges[eid]
				if el != nil && q.Matches(el) {
					if seen != nil {
						seen[eid] = true
					}
					backing = append(backing, el)
				}
			}
		}
		if dir == DirBoth {
			if seen == nil {
				seen = map[string]bool{}
			} else {
				clear(seen)
			}
		}
		if dir == DirOut || dir == DirBoth {
			add(m.out[vid])
		}
		if dir == DirIn || dir == DirBoth {
			add(m.in[vid])
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
// lengths over the distinct vids and looks an edge up only when q filters:
// an out (in) edge sits in exactly one vertex's out (in) list, and mem never
// deletes. DirBoth (a self-loop sits in both lists) and the other aggregates
// materialize the edges through VertexEdges.
func (m *MemBackend) AggVertexEdges(ctx context.Context, vids []string, dir Direction, q *Query, agg Agg) (types.Value, error) {
	if agg.Kind != AggCount || (dir != DirOut && dir != DirIn) {
		els, err := m.VertexEdges(ctx, vids, dir, q)
		if err != nil {
			return types.Null, err
		}
		return AggregateElements(els, agg)
	}
	if err := Interrupted(ctx); err != nil {
		return types.Null, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	adj := m.out
	if dir == DirIn {
		adj = m.in
	}
	filter := q != nil && (len(q.IDs) > 0 || len(q.Labels) > 0 || len(q.Preds) > 0)
	seen := make(map[string]struct{}, len(vids))
	var n int64
	for i, vid := range vids {
		if err := ScanTick(ctx, i); err != nil {
			return types.Null, err
		}
		if _, dup := seen[vid]; dup {
			continue
		}
		seen[vid] = struct{}{}
		eids := adj[vid]
		if !filter {
			n += int64(len(eids))
			continue
		}
		for _, eid := range eids {
			if q.Matches(m.edges[eid]) {
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
