// Package gdbx simulates GDB-X, the anonymized commercial native graph
// database the paper benchmarks against. It reproduces the architectural
// traits the paper attributes to it:
//
//   - index-free adjacency: each vertex object embeds its incident edges;
//   - a specialized on-disk format: loading serializes every vertex with
//     its full adjacency (duplicated on both endpoints), inflating storage
//     ~6x over the relational tables;
//   - aggressive caching with prefetch: opening the graph warms the cache,
//     and queries are extremely fast while the working set stays resident;
//   - cache-capacity cliff: when the graph outgrows the cache, accesses
//     decode serialized pages and evict, eroding the latency advantage
//     (Figure 5's 100M dataset behavior);
//   - a global lock protecting the cache's LRU bookkeeping, capping
//     concurrent-query throughput (Figure 6).
package gdbx

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
)

// Config tunes the simulator.
type Config struct {
	// CacheCapacity is the maximum number of decoded vertices kept
	// resident; 0 means unlimited (everything stays cached).
	CacheCapacity int
	// PrefetchOnOpen warms the cache when the graph is opened.
	PrefetchOnOpen bool
	// AllowOnlineUpdates permits AddVertex/AddEdge after Seal, applied as
	// page rewrites with in-place cache maintenance. Off by default: the
	// paper's GDB-X treats loading as a preprocessing step, and the sealed
	// error is part of that contract.
	AllowOnlineUpdates bool
}

// edgeRec is one adjacency entry of a native vertex.
type edgeRec struct {
	edgeID string
	label  string
	otherV string
	props  map[string]types.Value
}

// nativeVertex is the decoded in-memory vertex object.
type nativeVertex struct {
	id    string
	label string
	props map[string]types.Value
	out   []edgeRec
	in    []edgeRec
}

// cacheNode is an LRU list node.
type cacheNode struct {
	v          *nativeVertex
	prev, next *cacheNode
}

// Graph is the native graph database instance.
//
// Safe for concurrent use: one mutex guards every operation, including the
// LRU page cache that reads mutate, so overlapping queries serialize but
// never race. Page layout and per-vertex adjacency order are fixed at Seal
// time, keeping reads deterministic regardless of batch composition.
type Graph struct {
	cfg Config

	mu     sync.Mutex
	sealed bool

	// building holds vertices during load (before Seal).
	building map[string]*nativeVertex
	order    []string

	// pages is the serialized "disk" image after Seal.
	pages map[string][]byte
	bytes int64

	// cache is the resident decoded set with LRU eviction.
	cache    map[string]*cacheNode
	lruHead  *cacheNode
	lruTail  *cacheNode
	resident int

	// indexes
	labelIdx     map[string][]string
	edgeIdx      map[string]string // edge id -> out vertex id
	edgeLabelIdx map[string][]string
	edgeCount    int64

	hits, misses, evictions int64

	// version bumps after each committed mutation (graph.DataVersioned);
	// the internal page cache stays coherent by in-place maintenance, but
	// caches layered above the backend key their entries to this.
	version atomic.Uint64
}

// New creates an empty graph.
func New(cfg Config) *Graph {
	return &Graph{
		cfg:          cfg,
		building:     make(map[string]*nativeVertex),
		pages:        make(map[string][]byte),
		cache:        make(map[string]*cacheNode),
		labelIdx:     make(map[string][]string),
		edgeIdx:      make(map[string]string),
		edgeLabelIdx: make(map[string][]string),
	}
}

// Name implements graph.Backend.
func (g *Graph) Name() string { return "gdbx" }

// --- Loading ---

// AddVertex implements graph.Mutable. During load it buffers into the
// building set; after Seal it is a page insert, permitted only with
// Config.AllowOnlineUpdates.
func (g *Graph) AddVertex(el *graph.Element) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if el.ID == "" {
		return fmt.Errorf("gdbx: vertex requires an id")
	}
	if g.sealed {
		if !g.cfg.AllowOnlineUpdates {
			return fmt.Errorf("gdbx: graph is sealed; loading is a preprocessing step")
		}
		if _, dup := g.pages[el.ID]; dup {
			return fmt.Errorf("gdbx: duplicate vertex %q", el.ID)
		}
		page := encodeNative(&nativeVertex{id: el.ID, label: el.Label, props: el.Props})
		g.pages[el.ID] = page
		g.bytes += int64(len(page)) + int64(len(el.ID))
		g.order = append(g.order, el.ID)
		g.labelIdx[el.Label] = append(g.labelIdx[el.Label], el.ID)
		g.version.Add(1)
		return nil
	}
	if _, dup := g.building[el.ID]; dup {
		return fmt.Errorf("gdbx: duplicate vertex %q", el.ID)
	}
	g.building[el.ID] = &nativeVertex{id: el.ID, label: el.Label, props: el.Props}
	g.order = append(g.order, el.ID)
	g.labelIdx[el.Label] = append(g.labelIdx[el.Label], el.ID)
	return nil
}

// AddEdge implements graph.Mutable. During load it buffers into the
// building set; after Seal (with Config.AllowOnlineUpdates) it rewrites
// both endpoints' pages — index-free adjacency makes every edge insert a
// two-page update.
func (g *Graph) AddEdge(el *graph.Element) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sealed {
		if !g.cfg.AllowOnlineUpdates {
			return fmt.Errorf("gdbx: graph is sealed; loading is a preprocessing step")
		}
		return g.addEdgeSealedLocked(el)
	}
	src := g.building[el.OutV]
	dst := g.building[el.InV]
	if src == nil || dst == nil {
		return fmt.Errorf("gdbx: edge %q references missing vertex", el.ID)
	}
	if _, dup := g.edgeIdx[el.ID]; dup {
		return fmt.Errorf("gdbx: duplicate edge %q", el.ID)
	}
	src.out = append(src.out, edgeRec{edgeID: el.ID, label: el.Label, otherV: el.InV, props: el.Props})
	dst.in = append(dst.in, edgeRec{edgeID: el.ID, label: el.Label, otherV: el.OutV, props: el.Props})
	g.edgeIdx[el.ID] = el.OutV
	g.edgeLabelIdx[el.Label] = append(g.edgeLabelIdx[el.Label], el.ID)
	g.edgeCount++
	return nil
}

// addEdgeSealedLocked applies an online edge insert: the decoded vertex
// objects (cached or freshly decoded) gain the adjacency records, and both
// pages are re-serialized so evict-and-decode later still sees the edge.
func (g *Graph) addEdgeSealedLocked(el *graph.Element) error {
	if _, dup := g.edgeIdx[el.ID]; dup {
		return fmt.Errorf("gdbx: duplicate edge %q", el.ID)
	}
	src, err := g.getVertexLocked(el.OutV)
	if err != nil {
		return err
	}
	dst, err := g.getVertexLocked(el.InV)
	if err != nil {
		return err
	}
	if src == nil || dst == nil {
		return fmt.Errorf("gdbx: edge %q references missing vertex", el.ID)
	}
	src.out = append(src.out, edgeRec{edgeID: el.ID, label: el.Label, otherV: el.InV, props: el.Props})
	dst.in = append(dst.in, edgeRec{edgeID: el.ID, label: el.Label, otherV: el.OutV, props: el.Props})
	for _, v := range []*nativeVertex{src, dst} {
		page := encodeNative(v)
		g.bytes += int64(len(page)) - int64(len(g.pages[v.id]))
		g.pages[v.id] = page
		if v == src && src == dst {
			break // self-loop: one object, one page
		}
	}
	g.edgeIdx[el.ID] = el.OutV
	g.edgeLabelIdx[el.Label] = append(g.edgeLabelIdx[el.Label], el.ID)
	g.edgeCount++
	g.version.Add(1)
	return nil
}

// Seal finishes loading: every vertex is serialized with its full
// adjacency into the store's native format. This is the dominant cost of
// "Load Data" in Table 3 and the source of the storage blow-up.
func (g *Graph) Seal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sealed {
		return fmt.Errorf("gdbx: already sealed")
	}
	for id, v := range g.building {
		page := encodeNative(v)
		g.pages[id] = page
		g.bytes += int64(len(page)) + int64(len(id))
	}
	g.sealed = true
	g.building = nil
	if g.cfg.PrefetchOnOpen {
		g.prefetchLocked()
	}
	return nil
}

// Open simulates opening a sealed graph for querying: with prefetch
// enabled, the cache is warmed by decoding pages until full (the paper's
// 14-15 second open time).
func (g *Graph) Open() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.sealed {
		return fmt.Errorf("gdbx: graph must be sealed before opening")
	}
	g.prefetchLocked()
	return nil
}

func (g *Graph) prefetchLocked() {
	limit := g.cfg.CacheCapacity
	if limit <= 0 || limit > len(g.order) {
		limit = len(g.order)
	}
	for _, id := range g.order[:limit] {
		if _, ok := g.cache[id]; !ok {
			v, err := decodeNative(id, g.pages[id])
			if err == nil {
				g.insertCacheLocked(v)
			}
		}
	}
}

// ByteSize reports the serialized storage size.
func (g *Graph) ByteSize() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bytes
}

// CacheStats returns hit/miss counters.
func (g *Graph) CacheStats() (hits, misses int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hits, g.misses
}

// DataVersion implements graph.DataVersioned.
func (g *Graph) DataVersion() uint64 { return g.version.Load() }

// CacheMetrics implements graph.CacheStatsProvider, exposing the page
// cache's counters in the shared shape.
func (g *Graph) CacheMetrics() map[string]graph.CacheStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return map[string]graph.CacheStats{
		"page": {
			Hits:      g.hits,
			Misses:    g.misses,
			Evictions: g.evictions,
			Entries:   int64(g.resident),
		},
	}
}

// FlushCaches implements graph.CacheFlusher: drops the resident decoded
// set; later reads re-decode pages.
func (g *Graph) FlushCaches() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cache = make(map[string]*cacheNode)
	g.lruHead, g.lruTail = nil, nil
	g.resident = 0
}

// VertexCount returns the number of vertices.
func (g *Graph) VertexCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pages)
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.edgeCount
}

// --- Serialization ---

func encodeProps(dst []byte, props map[string]types.Value) []byte {
	return graphenc.AppendProps(dst, props)
}

func encodeNative(v *nativeVertex) []byte {
	buf := graphenc.AppendString(nil, v.label)
	buf = encodeProps(buf, v.props)
	encodeRecs := func(recs []edgeRec) {
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
		for _, r := range recs {
			buf = graphenc.AppendString(buf, r.edgeID)
			buf = graphenc.AppendString(buf, r.label)
			buf = graphenc.AppendString(buf, r.otherV)
			buf = encodeProps(buf, r.props)
		}
	}
	encodeRecs(v.out)
	encodeRecs(v.in)
	return buf
}

func decodeNative(id string, buf []byte) (*nativeVertex, error) {
	label, rest, err := graphenc.ReadString(buf)
	if err != nil {
		return nil, err
	}
	props, rest, err := graphenc.ReadProps(rest)
	if err != nil {
		return nil, err
	}
	decodeRecs := func(buf []byte) ([]edgeRec, []byte, error) {
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("gdbx: truncated adjacency")
		}
		buf = buf[sz:]
		recs := make([]edgeRec, 0, n)
		for i := uint64(0); i < n; i++ {
			var r edgeRec
			var err error
			if r.edgeID, buf, err = graphenc.ReadString(buf); err != nil {
				return nil, nil, err
			}
			if r.label, buf, err = graphenc.ReadString(buf); err != nil {
				return nil, nil, err
			}
			if r.otherV, buf, err = graphenc.ReadString(buf); err != nil {
				return nil, nil, err
			}
			if r.props, buf, err = graphenc.ReadProps(buf); err != nil {
				return nil, nil, err
			}
			recs = append(recs, r)
		}
		return recs, buf, nil
	}
	out, rest, err := decodeRecs(rest)
	if err != nil {
		return nil, err
	}
	in, _, err := decodeRecs(rest)
	if err != nil {
		return nil, err
	}
	return &nativeVertex{id: id, label: label, props: props, out: out, in: in}, nil
}

// --- Cache ---

func (g *Graph) insertCacheLocked(v *nativeVertex) {
	node := &cacheNode{v: v}
	g.cache[v.id] = node
	node.next = g.lruHead
	if g.lruHead != nil {
		g.lruHead.prev = node
	}
	g.lruHead = node
	if g.lruTail == nil {
		g.lruTail = node
	}
	g.resident++
	if g.cfg.CacheCapacity > 0 {
		for g.resident > g.cfg.CacheCapacity && g.lruTail != nil {
			evict := g.lruTail
			g.lruTail = evict.prev
			if g.lruTail != nil {
				g.lruTail.next = nil
			} else {
				g.lruHead = nil
			}
			delete(g.cache, evict.v.id)
			g.resident--
			g.evictions++
		}
	}
}

func (g *Graph) touchLocked(node *cacheNode) {
	if node == g.lruHead {
		return
	}
	// Unlink.
	if node.prev != nil {
		node.prev.next = node.next
	}
	if node.next != nil {
		node.next.prev = node.prev
	}
	if node == g.lruTail {
		g.lruTail = node.prev
	}
	// Push front.
	node.prev = nil
	node.next = g.lruHead
	if g.lruHead != nil {
		g.lruHead.prev = node
	}
	g.lruHead = node
	if g.lruTail == nil {
		g.lruTail = node
	}
}

// getVertexLocked fetches a vertex through the cache.
func (g *Graph) getVertexLocked(id string) (*nativeVertex, error) {
	if node, ok := g.cache[id]; ok {
		g.hits++
		g.touchLocked(node)
		return node.v, nil
	}
	page, ok := g.pages[id]
	if !ok {
		return nil, nil
	}
	g.misses++
	v, err := decodeNative(id, page)
	if err != nil {
		return nil, err
	}
	g.insertCacheLocked(v)
	return v, nil
}

// --- Backend ---

func vertexElement(v *nativeVertex) *graph.Element {
	return &graph.Element{ID: v.id, Label: v.label, Props: v.props}
}

func recToEdge(vid string, r edgeRec, out bool) *graph.Element {
	outV, inV := vid, r.otherV
	if !out {
		outV, inV = r.otherV, vid
	}
	return &graph.Element{ID: r.edgeID, Label: r.label, Props: r.props, IsEdge: true, OutV: outV, InV: inV}
}

func (g *Graph) requireSealed() error {
	if !g.sealed {
		return fmt.Errorf("gdbx: graph must be sealed (loaded) before querying")
	}
	return nil
}

// V implements graph.Backend.
func (g *Graph) V(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	var out []*graph.Element
	emit := func(v *nativeVertex) {
		if v == nil {
			return
		}
		if el := vertexElement(v); q.Matches(el) {
			out = append(out, el)
		}
	}
	switch {
	case q != nil && len(q.IDs) > 0:
		for _, id := range q.IDs {
			v, err := g.getVertexLocked(id)
			if err != nil {
				return nil, err
			}
			emit(v)
		}
	case q != nil && len(q.Labels) > 0:
		for _, label := range q.Labels {
			for _, id := range g.labelIdx[label] {
				v, err := g.getVertexLocked(id)
				if err != nil {
					return nil, err
				}
				emit(v)
			}
		}
	default:
		for i, id := range g.order {
			if err := graph.ScanTick(ctx, i); err != nil {
				return nil, err
			}
			v, err := g.getVertexLocked(id)
			if err != nil {
				return nil, err
			}
			emit(v)
		}
	}
	return out, nil
}

// findEdgeLocked resolves an edge by id via the edge index.
func (g *Graph) findEdgeLocked(eid string) (*graph.Element, error) {
	outV, ok := g.edgeIdx[eid]
	if !ok {
		return nil, nil
	}
	v, err := g.getVertexLocked(outV)
	if err != nil || v == nil {
		return nil, err
	}
	for _, r := range v.out {
		if r.edgeID == eid {
			return recToEdge(v.id, r, true), nil
		}
	}
	return nil, nil
}

// E implements graph.Backend.
func (g *Graph) E(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	var out []*graph.Element
	emit := func(el *graph.Element) {
		if el != nil && q.Matches(el) {
			out = append(out, el)
		}
	}
	switch {
	case q != nil && len(q.IDs) > 0:
		for _, id := range q.IDs {
			el, err := g.findEdgeLocked(id)
			if err != nil {
				return nil, err
			}
			emit(el)
		}
	case q != nil && len(q.Labels) > 0:
		for _, label := range q.Labels {
			for _, eid := range g.edgeLabelIdx[label] {
				el, err := g.findEdgeLocked(eid)
				if err != nil {
					return nil, err
				}
				emit(el)
			}
		}
	default:
		for i, id := range g.order {
			if err := graph.ScanTick(ctx, i); err != nil {
				return nil, err
			}
			v, err := g.getVertexLocked(id)
			if err != nil {
				return nil, err
			}
			if v == nil {
				continue
			}
			for _, r := range v.out {
				emit(recToEdge(v.id, r, true))
			}
		}
	}
	return out, nil
}

// VertexEdges implements graph.Backend: index-free adjacency makes this a
// direct list walk on the cached vertex object.
func (g *Graph) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	var out []*graph.Element
	seen := map[string]bool{}
	for _, vid := range vids {
		v, err := g.getVertexLocked(vid)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		scan := func(recs []edgeRec, isOut bool) {
			for _, r := range recs {
				if seen[r.edgeID] {
					continue
				}
				el := recToEdge(vid, r, isOut)
				if q.Matches(el) {
					seen[r.edgeID] = true
					out = append(out, el)
				}
			}
		}
		if dir == graph.DirOut || dir == graph.DirBoth {
			scan(v.out, true)
		}
		if dir == graph.DirIn || dir == graph.DirBoth {
			scan(v.in, false)
		}
	}
	return out, nil
}

// EdgeVertices implements graph.Backend (aligned with edges).
func (g *Graph) EdgeVertices(ctx context.Context, edges []*graph.Element, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(edges))
	for i, e := range edges {
		id := e.OutV
		if dir == graph.DirIn {
			id = e.InV
		}
		v, err := g.getVertexLocked(id)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		el := vertexElement(v)
		if q.Matches(el) {
			out[i] = el
		}
	}
	return out, nil
}

// VerticesByIDs implements graph.BatchBackend natively: the whole batch
// resolves under one acquisition of the global lock — the per-call lock
// round-trip is what the batch contract amortizes here.
func (g *Graph) VerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(ids))
	for i, id := range ids {
		v, err := g.getVertexLocked(id)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		el := vertexElement(v)
		if q.MatchesFilter(el) {
			out[i] = el
		}
	}
	return out, nil
}

// EdgesForVertices implements graph.BatchBackend natively: one lock
// acquisition for the batch, per-vertex groups off the embedded adjacency
// with exactly VertexEdges' single-vertex semantics.
func (g *Graph) EdgesForVertices(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([][]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.requireSealed(); err != nil {
		return nil, err
	}
	out := make([][]*graph.Element, len(vids))
	for i, vid := range vids {
		v, err := g.getVertexLocked(vid)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		var group []*graph.Element
		seen := map[string]bool{} // dedup within one vertex (self-loops)
		scan := func(recs []edgeRec, isOut bool) {
			for _, r := range recs {
				if seen[r.edgeID] {
					continue
				}
				el := recToEdge(vid, r, isOut)
				if q.Matches(el) {
					seen[r.edgeID] = true
					group = append(group, el)
				}
			}
		}
		if dir == graph.DirOut || dir == graph.DirBoth {
			scan(v.out, true)
		}
		if dir == graph.DirIn || dir == graph.DirBoth {
			scan(v.in, false)
		}
		out[i] = group
	}
	return out, nil
}

// AggV implements graph.Backend. Counting by label uses the label index.
func (g *Graph) AggV(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if agg.Kind == graph.AggCount && q != nil && len(q.Preds) == 0 && len(q.IDs) == 0 {
		g.mu.Lock()
		defer g.mu.Unlock()
		if err := g.requireSealed(); err != nil {
			return types.Null, err
		}
		if len(q.Labels) == 0 {
			return types.NewInt(int64(len(g.pages))), nil
		}
		n := 0
		for _, label := range q.Labels {
			n += len(g.labelIdx[label])
		}
		return types.NewInt(int64(n)), nil
	}
	els, err := g.V(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggE implements graph.Backend.
func (g *Graph) AggE(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if agg.Kind == graph.AggCount && q != nil && len(q.Preds) == 0 && len(q.IDs) == 0 {
		g.mu.Lock()
		defer g.mu.Unlock()
		if err := g.requireSealed(); err != nil {
			return types.Null, err
		}
		if len(q.Labels) == 0 {
			return types.NewInt(g.edgeCount), nil
		}
		n := 0
		for _, label := range q.Labels {
			n += len(g.edgeLabelIdx[label])
		}
		return types.NewInt(int64(n)), nil
	}
	els, err := g.E(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggVertexEdges implements graph.Backend by materialization: it fetches
// the incident edges with VertexEdges and aggregates them with
// graph.AggregateVertexEdges.
func (g *Graph) AggVertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := g.VertexEdges(ctx, vids, dir, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateVertexEdges(els, vids, dir, agg)
}

var (
	_ graph.Backend            = (*Graph)(nil)
	_ graph.Mutable            = (*Graph)(nil)
	_ graph.BatchBackend       = (*Graph)(nil)
	_ graph.DataVersioned      = (*Graph)(nil)
	_ graph.CacheStatsProvider = (*Graph)(nil)
	_ graph.CacheFlusher       = (*Graph)(nil)
)
