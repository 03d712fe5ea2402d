package graph

import "context"

// BatchBackend is the vectorized extension of Backend: set-oriented
// multi-get lookups that resolve many vertices or many adjacency lists in
// one call. The gremlin engine collects a hop's whole frontier and issues one
// batched lookup per hop; backends translate it into one native batch
// access (one SQL IN-list on the sql/overlay path, one sorted multi-get on
// the kvstore/janus path) instead of a tuple-at-a-time loop.
//
// Backends that do not implement it natively are adapted with Batched,
// whose fallback is conformance-proven equivalent
// (graphtest.RunBatchConformance).
type BatchBackend interface {
	Backend

	// VerticesByIDs resolves vertices by id, aligned with ids: out[i] is
	// the vertex for ids[i], or nil when it does not exist or fails q's
	// label/predicate filter. ids replaces any q.IDs; q's labels,
	// predicates, and projection apply.
	VerticesByIDs(ctx context.Context, ids []string, q *Query) ([]*Element, error)

	// EdgesForVertices returns per-vertex incident-edge groups aligned
	// with vids: out[i] holds exactly what VertexEdges(ctx, []string{vids[i]},
	// dir, q) would return, in the same order. Unlike one flat VertexEdges
	// call over all vids, for DirBoth an edge touching two of the given
	// vertices appears in both groups.
	EdgesForVertices(ctx context.Context, vids []string, dir Direction, q *Query) ([][]*Element, error)
}

// Batched returns b's native BatchBackend implementation when it has one,
// and otherwise wraps it in the generic fallback adapter.
func Batched(b Backend) BatchBackend {
	if bb, ok := b.(BatchBackend); ok {
		return bb
	}
	return FallbackBatch(b)
}

// FallbackBatch adapts any Backend to BatchBackend using only the base
// contract. It always wraps, even when b implements BatchBackend natively —
// the conformance suite compares a native implementation against exactly
// this adapter.
func FallbackBatch(b Backend) BatchBackend { return &fallbackBatch{b} }

type fallbackBatch struct {
	Backend
}

func (f *fallbackBatch) VerticesByIDs(ctx context.Context, ids []string, q *Query) ([]*Element, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	fq := q.Clone()
	fq.IDs = uniqueStrings(ids)
	els, err := f.Backend.V(ctx, fq)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*Element, len(els))
	for _, e := range els {
		byID[e.ID] = e
	}
	out := make([]*Element, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, nil
}

func (f *fallbackBatch) EdgesForVertices(ctx context.Context, vids []string, dir Direction, q *Query) ([][]*Element, error) {
	if len(vids) == 0 {
		return nil, nil
	}
	// For DirOut/DirIn, one flat VertexEdges call over the whole batch
	// partitions exactly into per-vertex groups (each edge has one source
	// and one destination), so the adapter stays set-oriented. DirBoth
	// (cross-vertex dedup differs) needs the per-vertex definition instead.
	if dir != DirBoth {
		flat, err := f.Backend.VertexEdges(ctx, vids, dir, q)
		if err != nil {
			return nil, err
		}
		return GroupEdgesByVertex(vids, dir, flat), nil
	}
	out := make([][]*Element, len(vids))
	one := make([]string, 1)
	for i, vid := range vids {
		one[0] = vid
		els, err := f.Backend.VertexEdges(ctx, one, dir, q)
		if err != nil {
			return nil, err
		}
		out[i] = els
	}
	return out, nil
}

// GroupEdgesByVertex partitions a flat VertexEdges result into per-vertex
// groups aligned with vids, preserving each vertex's sub-order. It is only
// exact for DirOut/DirIn (an edge belongs to exactly one group through its
// out- or in-vertex); backends use it to derive EdgesForVertices from an
// internally batched flat fetch.
func GroupEdgesByVertex(vids []string, dir Direction, edges []*Element) [][]*Element {
	slot := make(map[string]int, len(vids))
	for i, vid := range vids {
		if _, dup := slot[vid]; !dup {
			slot[vid] = i
		}
	}
	out := make([][]*Element, len(vids))
	for _, e := range edges {
		end := e.OutV
		if dir == DirIn {
			end = e.InV
		}
		if i, ok := slot[end]; ok {
			out[i] = append(out[i], e)
		}
	}
	// A vid listed twice gets its group in the first slot only; copy it to
	// the duplicates so alignment holds for every position.
	for i, vid := range vids {
		if j := slot[vid]; j != i {
			out[i] = out[j]
		}
	}
	return out
}

// MatchesFilter evaluates q's label and predicate filters against e,
// deliberately excluding the ID filter — the evaluation VerticesByIDs
// applies (ids replaces q.IDs). Nil queries match everything.
func (q *Query) MatchesFilter(e *Element) bool {
	if q == nil {
		return true
	}
	if !q.MatchesLabels(e) {
		return false
	}
	for _, p := range q.Preds {
		if !p.Matches(e) {
			return false
		}
	}
	return true
}

func uniqueStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

var _ BatchBackend = (*fallbackBatch)(nil)
