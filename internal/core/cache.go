package core

import (
	"context"
	"strconv"

	"db2graph/internal/graph"
)

// This file adds the vectorized batch contract and the version-tagged read
// caches to the SQL-backed graph. The batch methods stay set-oriented all
// the way down: a miss set resolves with the same IN-list SQL the base
// Backend methods emit, one statement per eligible mapping, never a
// statement per id.

// DataVersion implements graph.DataVersioned by delegating to the engine's
// post-visibility mutation counter.
func (g *Graph) DataVersion() uint64 { return g.db.DataVersion() }

// ConfigVersion implements graph.ConfigVersioned: DDL (which can change
// what an overlay mapping resolves to) bumps the engine generation.
func (g *Graph) ConfigVersion() uint64 { return uint64(g.db.Generation()) }

// FlushCaches implements graph.CacheFlusher.
func (g *Graph) FlushCaches() {
	g.vtxCache.Flush()
	g.adjCache.Flush()
}

// CacheMetrics implements graph.CacheStatsProvider.
func (g *Graph) CacheMetrics() map[string]graph.CacheStats {
	return map[string]graph.CacheStats{
		"vertex":    g.vtxCache.Stats(),
		"adjacency": g.adjCache.Stats(),
	}
}

// cacheableQuery reports whether results for q can be keyed by element id
// alone: the live graph (snapshots read historical states the version tags
// don't describe) and an unrestricted query (filters or a non-empty
// projection would have to join the key). An empty projection qualifies: a
// cached entry is the full element, and a backend may return more
// properties than a projection names. A cacheable miss fetches full rows
// (fullRows), so the caches never hold a projected element.
func (g *Graph) cacheableQuery(q *graph.Query) bool {
	if g.opts.SnapshotTime != 0 {
		return false
	}
	return q == nil || (len(q.Labels) == 0 && len(q.Preds) == 0 && len(q.Projection) == 0)
}

// fullRows returns q without its projection, for a cacheable miss.
func fullRows(q *graph.Query) *graph.Query {
	if q == nil || q.Projection == nil {
		return q
	}
	full := *q
	full.Projection = nil
	return &full
}

// VerticesByIDs implements graph.BatchBackend. The miss set resolves with
// one V call, which the SQL layer turns into one IN-list statement per
// eligible vertex table.
func (g *Graph) VerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(ids))
	cacheable := g.cacheableQuery(q)
	version := uint64(0)
	var missing []string
	if cacheable {
		version = g.DataVersion()
		pending := make([]bool, len(ids))
		missSet := make(map[string]bool)
		for i, id := range ids {
			if el, ok := g.vtxCache.Get(id, version); ok {
				out[i] = el
				continue
			}
			pending[i] = true
			if !missSet[id] {
				missSet[id] = true
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			return out, nil
		}
		els, err := g.fetchVerticesByIDs(ctx, missing, fullRows(q))
		if err != nil {
			return nil, err
		}
		byID := make(map[string]*graph.Element, len(els))
		for _, el := range els {
			byID[el.ID] = el
		}
		for _, id := range missing {
			g.vtxCache.Put(id, version, byID[id]) // nil caches the absence
		}
		for i, id := range ids {
			if pending[i] {
				out[i] = byID[id]
			}
		}
		return out, nil
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			missing = append(missing, id)
		}
	}
	els, err := g.fetchVerticesByIDs(ctx, missing, q)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*graph.Element, len(els))
	for _, el := range els {
		byID[el.ID] = el
	}
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, nil
}

// fetchVerticesByIDs runs the uncached id fetch (one IN-list per table).
func (g *Graph) fetchVerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	fq := q.Clone()
	fq.IDs = ids
	return g.V(ctx, fq)
}

// adjKey keys one vertex's cached adjacency group by direction.
func adjKey(vid string, dir graph.Direction) string {
	return strconv.Itoa(int(dir)) + "|" + vid
}

// EdgesForVertices implements graph.BatchBackend. For DirOut/DirIn the miss
// set resolves with one flat VertexEdges call (one IN-list statement per
// eligible edge table) partitioned by endpoint; DirBoth falls back to
// per-vertex fetches, since its group semantics cannot be recovered from a
// flat result.
func (g *Graph) EdgesForVertices(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([][]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if len(vids) == 0 {
		return nil, nil
	}
	cacheable := g.cacheableQuery(q) && (q == nil || len(q.IDs) == 0)
	out := make([][]*graph.Element, len(vids))

	version := uint64(0)
	missSlots := make(map[string][]int, len(vids)) // vid -> result slots
	var missing []string
	if cacheable {
		q = fullRows(q)
		version = g.DataVersion()
		for i, vid := range vids {
			if group, ok := g.adjCache.Get(adjKey(vid, dir), version); ok {
				out[i] = group
				continue
			}
			if missSlots[vid] == nil {
				missing = append(missing, vid)
			}
			missSlots[vid] = append(missSlots[vid], i)
		}
		if len(missing) == 0 {
			return out, nil
		}
	} else {
		seen := make(map[string]bool, len(vids))
		for i, vid := range vids {
			if !seen[vid] {
				seen[vid] = true
				missing = append(missing, vid)
			}
			missSlots[vid] = append(missSlots[vid], i)
		}
	}

	groups := make(map[string][]*graph.Element, len(missing))
	if dir != graph.DirBoth {
		flat, err := g.VertexEdges(ctx, missing, dir, q)
		if err != nil {
			return nil, err
		}
		grouped := graph.GroupEdgesByVertex(missing, dir, flat)
		for i, vid := range missing {
			groups[vid] = grouped[i]
		}
	} else {
		one := make([]string, 1)
		for _, vid := range missing {
			one[0] = vid
			els, err := g.VertexEdges(ctx, one, dir, q)
			if err != nil {
				return nil, err
			}
			groups[vid] = els
		}
	}
	for _, vid := range missing {
		if cacheable {
			g.adjCache.Put(adjKey(vid, dir), version, groups[vid])
		}
		for _, slot := range missSlots[vid] {
			out[slot] = groups[vid]
		}
	}
	return out, nil
}

// countFromCache serves a count from the adjacency cache: it returns
// the total size of the groups cached for vids at the current data
// version, and the vertices whose groups are not cached, which the caller
// counts in SQL. A group equals the vertex's VertexEdges result, so its
// length is the vertex's share of the count. Each distinct vertex counts
// once, as the SQL IN list does. Only a count the cached groups answer
// qualifies — unrestricted (cacheableQuery), without ids, on one direction
// (both() can meet a self-loop twice); any other query gets all of vids
// back.
func (g *Graph) countFromCache(vids []string, dir graph.Direction, q *graph.Query) ([]string, int64) {
	if dir == graph.DirBoth || !g.cacheableQuery(q) || (q != nil && len(q.IDs) > 0) {
		return vids, 0
	}
	version := g.DataVersion()
	var seen map[string]bool
	if len(vids) > 1 {
		seen = make(map[string]bool, len(vids))
	}
	var n int64
	misses := vids[:0:0]
	for _, vid := range vids {
		if seen != nil {
			if seen[vid] {
				continue
			}
			seen[vid] = true
		}
		if group, ok := g.adjCache.Get(adjKey(vid, dir), version); ok {
			n += int64(len(group))
			continue
		}
		misses = append(misses, vid)
	}
	return misses, n
}

var (
	_ graph.BatchBackend       = (*Graph)(nil)
	_ graph.DataVersioned      = (*Graph)(nil)
	_ graph.ConfigVersioned    = (*Graph)(nil)
	_ graph.CacheStatsProvider = (*Graph)(nil)
	_ graph.CacheFlusher       = (*Graph)(nil)
)
