// Package janus implements the JanusGraph-style hybrid graph database
// baseline of the paper's evaluation: a specialized graph engine that
// delegates persistence to a key-value store (internal/kvstore standing in
// for Berkeley DB). Faithful to the design the paper critiques, the entire
// adjacency list of a vertex is serialized into a single value, so every
// adjacency access decodes the whole list, and graph loading rewrites the
// blobs of both endpoints.
package janus

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/kvstore"
	"db2graph/internal/sql/types"
)

// Key layout:
//
//	v/<vid>          -> label + props
//	adj/<vid>        -> serialized adjacency list (both directions)
//	ei/<eid>         -> out-vertex id (edge locator)
//	lv/<label>/<vid> -> "" (vertex label index)
//	le/<label>/<eid> -> "" (edge label index)
const (
	vPrefix  = "v/"
	aPrefix  = "adj/"
	ePrefix  = "ei/"
	lvPrefix = "lv/"
	lePrefix = "le/"
)

// adjEntry is one record inside a vertex's adjacency blob.
type adjEntry struct {
	dir    byte // 0 = out (edge leaves this vertex), 1 = in
	edgeID string
	label  string
	otherV string
	props  map[string]types.Value
}

// Graph is the JanusGraph-style backend.
//
// Safe for concurrent use: reads go straight to the RWMutex-guarded
// kvstore; loadMu serializes only writers (adjacency read-modify-write).
// Adjacency lists are stored per vertex in insertion order, so reads are
// deterministic and a vertex's sub-order is independent of the rest of a
// VertexEdges batch.
//
// Two version-tagged decode caches sit on the read path (decoded adjacency
// lists and decoded vertices). version increments after every committed
// mutation, so cached entries filled before a write can never be served
// after it — read-your-writes freshness with a coarse, always-correct
// invalidation rule.
type Graph struct {
	store *kvstore.Store
	// loadMu serializes writers (adjacency read-modify-write).
	loadMu sync.Mutex

	// version bumps after each committed mutation (see graph.DataVersioned).
	version  atomic.Uint64
	adjCache *graph.VersionedCache[*adjSnapshot]
	vtxCache *graph.VersionedCache[*graph.Element]
	// arenaBytes counts blob bytes decoded through the arena path (one
	// string copy backing a whole record's substrings) into cached
	// snapshots — the janus_arena_bytes gauge in !metrics.
	arenaBytes atomic.Int64
}

// New creates an empty graph over a fresh in-memory store.
func New() *Graph {
	return NewWithStore(kvstore.New())
}

// NewWithStore wraps an existing store — typically one opened with
// kvstore.OpenDurable, whose recovered contents then serve immediately.
func NewWithStore(s *kvstore.Store) *Graph {
	return &Graph{
		store:    s,
		adjCache: graph.NewVersionedCache[*adjSnapshot](0),
		vtxCache: graph.NewVersionedCache[*graph.Element](0),
	}
}

// ArenaBytes implements graph.ArenaBytesProvider: cumulative blob bytes
// decoded into arena-backed snapshots.
func (g *Graph) ArenaBytes() int64 { return g.arenaBytes.Load() }

// DataVersion implements graph.DataVersioned.
func (g *Graph) DataVersion() uint64 { return g.version.Load() }

// FlushCaches implements graph.CacheFlusher: drops the decode caches
// (correctness never depends on them).
func (g *Graph) FlushCaches() {
	g.adjCache.Flush()
	g.vtxCache.Flush()
}

// CacheMetrics implements graph.CacheStatsProvider.
func (g *Graph) CacheMetrics() map[string]graph.CacheStats {
	return map[string]graph.CacheStats{
		"adjacency": g.adjCache.Stats(),
		"vertex":    g.vtxCache.Stats(),
	}
}

// Store exposes the underlying key-value store (size accounting etc.).
func (g *Graph) Store() *kvstore.Store { return g.store }

// Name implements graph.Backend.
func (g *Graph) Name() string { return "janusgraph" }

// ByteSize reports the resident storage size.
func (g *Graph) ByteSize() int64 { return g.store.ApproxBytes() }

// --- Encoding ---

func encodeVertex(label string, props map[string]types.Value) []byte {
	buf := graphenc.AppendString(nil, label)
	return graphenc.AppendProps(buf, props)
}

// emptyProps is the shared map for records without properties, preserving
// the non-nil Props the eager decoders produced. Cached elements already
// share their props maps across readers; treat as immutable.
var emptyProps = map[string]types.Value{}

// decodeVertex decodes a vertex record arena-style: one string conversion
// backs the label and every property key/value substring, replacing the
// per-field allocations of the generic byte readers.
func decodeVertex(id string, buf []byte) (*graph.Element, error) {
	s := string(buf)
	label, rest, err := graphenc.CutString(s)
	if err != nil {
		return nil, err
	}
	props, _, err := graphenc.CutProps(rest)
	if err != nil {
		return nil, err
	}
	if props == nil {
		props = emptyProps
	}
	return &graph.Element{ID: id, Label: label, Props: props}, nil
}

func encodeAdj(entries []adjEntry) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.dir)
		buf = graphenc.AppendString(buf, e.edgeID)
		buf = graphenc.AppendString(buf, e.label)
		buf = graphenc.AppendString(buf, e.otherV)
		buf = graphenc.AppendProps(buf, e.props)
	}
	return buf
}

// decodeAdj decodes an adjacency blob arena-style: one string conversion of
// the whole blob backs every entry's edgeID/label/otherV and property
// strings as substrings, so a k-entry blob costs one string copy, one entry
// slice, and a props map only for entries that have properties — instead of
// 3k+ string allocations.
func decodeAdj(buf []byte) ([]adjEntry, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	s := string(buf)
	n, rest, err := graphenc.CutUvarint(s)
	if err != nil {
		return nil, fmt.Errorf("janus: truncated adjacency")
	}
	if n > uint64(len(s)) { // each entry takes >= 1 byte; reject corrupt counts
		return nil, fmt.Errorf("janus: corrupt adjacency count")
	}
	out := make([]adjEntry, n)
	for i := range out {
		if len(rest) == 0 {
			return nil, fmt.Errorf("janus: truncated adjacency entry")
		}
		e := &out[i]
		e.dir = rest[0]
		rest = rest[1:]
		if e.edgeID, rest, err = graphenc.CutString(rest); err != nil {
			return nil, err
		}
		if e.label, rest, err = graphenc.CutString(rest); err != nil {
			return nil, err
		}
		if e.otherV, rest, err = graphenc.CutString(rest); err != nil {
			return nil, err
		}
		if e.props, rest, err = graphenc.CutProps(rest); err != nil {
			return nil, err
		}
		if e.props == nil {
			e.props = emptyProps
		}
	}
	return out, nil
}

// adjSnapshot is the compact immutable unit the adjacency cache holds: the
// decoded entries of one vertex plus their edge elements materialized once
// (in one backing array) at decode time, so every subsequent access filters
// shared elements instead of re-materializing per call. selfLoop records
// whether any entry loops back to the owning vertex — the only case where a
// DirBoth scan can see the same edge id twice within one vertex.
type adjSnapshot struct {
	entries  []adjEntry
	els      []*graph.Element // aligned with entries, oriented from the owner
	selfLoop bool
}

// snapshotAdj builds the immutable snapshot for vid's decoded entries.
func snapshotAdj(vid string, entries []adjEntry) *adjSnapshot {
	snap := &adjSnapshot{entries: entries}
	if len(entries) == 0 {
		return snap
	}
	backing := make([]graph.Element, len(entries))
	snap.els = make([]*graph.Element, len(entries))
	for i, e := range entries {
		outV, inV := vid, e.otherV
		if e.dir == 1 {
			outV, inV = e.otherV, vid
		}
		backing[i] = graph.Element{
			ID:     e.edgeID,
			Label:  e.label,
			Props:  e.props,
			IsEdge: true,
			OutV:   outV,
			InV:    inV,
		}
		snap.els[i] = &backing[i]
		if e.otherV == vid {
			snap.selfLoop = true
		}
	}
	return snap
}

// --- Mutation (graph.Mutable) ---

// AddVertex implements graph.Mutable.
func (g *Graph) AddVertex(el *graph.Element) error {
	if el.ID == "" {
		return fmt.Errorf("janus: vertex requires an id")
	}
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	key := vPrefix + el.ID
	if _, dup := g.store.Get(key); dup {
		return fmt.Errorf("janus: duplicate vertex %q", el.ID)
	}
	// One batch per vertex: on a durable store the record and its label
	// index entry commit atomically, so a crash never recovers half a
	// vertex.
	b := kvstore.NewBatch()
	b.Put(key, encodeVertex(el.Label, el.Props))
	b.Put(lvPrefix+el.Label+"/"+el.ID, nil)
	if err := g.store.Apply(b); err != nil {
		return err
	}
	// Bump only after the batch is visible: cache entries filled from the
	// pre-mutation state carry the old version and can no longer be served.
	g.version.Add(1)
	return nil
}

// AddEdge implements graph.Mutable. Each insertion reads, extends, and
// rewrites the adjacency blob of both endpoints — the cost profile that
// makes bulk loading into this architecture so slow in Table 3.
func (g *Graph) AddEdge(el *graph.Element) error {
	if el.ID == "" || el.OutV == "" || el.InV == "" {
		return fmt.Errorf("janus: edge requires id, OutV, InV")
	}
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	if _, ok := g.store.Get(vPrefix + el.OutV); !ok {
		return fmt.Errorf("janus: missing vertex %q", el.OutV)
	}
	if _, ok := g.store.Get(vPrefix + el.InV); !ok {
		return fmt.Errorf("janus: missing vertex %q", el.InV)
	}
	if _, dup := g.store.Get(ePrefix + el.ID); dup {
		return fmt.Errorf("janus: duplicate edge %q", el.ID)
	}
	// The edge touches both endpoints' adjacency blobs, the locator, and the
	// label index. Batching them makes the insertion atomic on a durable
	// store: recovery sees the whole edge or none of it, never a dangling
	// locator or one-sided adjacency.
	// The scratch map folds self-loops into one blob; it is pooled (cleared
	// on release) because the per-insert read-modify-write path is exactly
	// the hot loop of a non-bulk load.
	decoded := adjScratchPool.Get().(map[string][]adjEntry)
	defer func() {
		clear(decoded)
		adjScratchPool.Put(decoded)
	}()
	appendEntry := func(vid string, e adjEntry) error {
		entries, ok := decoded[vid]
		if !ok {
			blob, _ := g.store.Get(aPrefix + vid)
			var err error
			if entries, err = decodeAdj(blob); err != nil {
				return err
			}
		}
		decoded[vid] = append(entries, e)
		return nil
	}
	if err := appendEntry(el.OutV, adjEntry{dir: 0, edgeID: el.ID, label: el.Label, otherV: el.InV, props: el.Props}); err != nil {
		return err
	}
	if err := appendEntry(el.InV, adjEntry{dir: 1, edgeID: el.ID, label: el.Label, otherV: el.OutV, props: el.Props}); err != nil {
		return err
	}
	b := kvstore.NewBatch()
	b.Put(aPrefix+el.OutV, encodeAdj(decoded[el.OutV]))
	if el.InV != el.OutV {
		b.Put(aPrefix+el.InV, encodeAdj(decoded[el.InV]))
	}
	b.Put(ePrefix+el.ID, []byte(el.OutV))
	b.Put(lePrefix+el.Label+"/"+el.ID, []byte(el.OutV))
	if err := g.store.Apply(b); err != nil {
		return err
	}
	g.version.Add(1)
	return nil
}

// adjScratchPool recycles the per-AddEdge decoded-adjacency scratch map.
var adjScratchPool = sync.Pool{New: func() any { return map[string][]adjEntry{} }}

// BulkLoader accumulates adjacency and commits in batches, the strategy
// real deployments need to make loading tractable at all. Each batch
// commit merges buffered entries into the stored blobs (read, decode,
// append, re-encode) — so high-degree vertices get rewritten once per
// batch, the cost profile behind the paper's 13.5-hour JanusGraph load.
type BulkLoader struct {
	g        *Graph
	vertices map[string][]byte
	labels   map[string]string
	adj      map[string][]adjEntry
	edges    map[string]string // eid -> outV (current batch)
	seen     map[string]bool   // all edge ids across batches
	pending  int
	// BatchSize is the number of buffered edges per commit.
	BatchSize int
}

// NewBulkLoader starts a bulk load.
func (g *Graph) NewBulkLoader() *BulkLoader {
	return &BulkLoader{
		g:         g,
		vertices:  make(map[string][]byte),
		labels:    make(map[string]string),
		adj:       make(map[string][]adjEntry),
		edges:     make(map[string]string),
		seen:      make(map[string]bool),
		BatchSize: 10000,
	}
}

// AddVertex buffers a vertex.
func (l *BulkLoader) AddVertex(el *graph.Element) error {
	if _, dup := l.vertices[el.ID]; dup {
		return fmt.Errorf("janus: duplicate vertex %q", el.ID)
	}
	l.vertices[el.ID] = encodeVertex(el.Label, el.Props)
	l.labels[el.ID] = el.Label
	return nil
}

// AddEdge buffers an edge, committing the batch when full.
func (l *BulkLoader) AddEdge(el *graph.Element) error {
	if l.seen[el.ID] {
		return fmt.Errorf("janus: duplicate edge %q", el.ID)
	}
	if _, ok := l.vertices[el.OutV]; !ok {
		if _, stored := l.g.store.Get(vPrefix + el.OutV); !stored {
			return fmt.Errorf("janus: missing vertex %q", el.OutV)
		}
	}
	if _, ok := l.vertices[el.InV]; !ok {
		if _, stored := l.g.store.Get(vPrefix + el.InV); !stored {
			return fmt.Errorf("janus: missing vertex %q", el.InV)
		}
	}
	l.adj[el.OutV] = append(l.adj[el.OutV], adjEntry{dir: 0, edgeID: el.ID, label: el.Label, otherV: el.InV, props: el.Props})
	l.adj[el.InV] = append(l.adj[el.InV], adjEntry{dir: 1, edgeID: el.ID, label: el.Label, otherV: el.OutV, props: el.Props})
	l.edges[el.ID] = el.OutV
	l.seen[el.ID] = true
	l.pending++
	if l.BatchSize > 0 && l.pending >= l.BatchSize {
		return l.commitBatch()
	}
	return nil
}

// commitBatch merges the buffered entries into the store as one kvstore
// batch — on a durable store that is one WAL record, so a crash recovers
// whole load batches, never a half-merged adjacency blob. Buffers are only
// cleared once the commit is acknowledged, so a failed commit can be
// retried.
func (l *BulkLoader) commitBatch() error {
	l.g.loadMu.Lock()
	defer l.g.loadMu.Unlock()
	b := kvstore.NewBatch()
	for id, blob := range l.vertices {
		b.Put(vPrefix+id, blob)
		b.Put(lvPrefix+l.labels[id]+"/"+id, nil)
	}
	for id, entries := range l.adj {
		existingBlob, _ := l.g.store.Get(aPrefix + id)
		existing, err := decodeAdj(existingBlob)
		if err != nil {
			return err
		}
		merged := append(existing, entries...)
		b.Put(aPrefix+id, encodeAdj(merged))
		for _, e := range entries {
			if e.dir == 0 {
				b.Put(lePrefix+e.label+"/"+e.edgeID, []byte(id))
			}
		}
	}
	for eid, outV := range l.edges {
		b.Put(ePrefix+eid, []byte(outV))
	}
	if err := l.g.store.Apply(b); err != nil {
		return err
	}
	l.g.version.Add(1)
	// Reuse the cleared buffers for the next batch instead of reallocating
	// four maps (and their grown bucket arrays) per commit.
	clear(l.vertices)
	clear(l.labels)
	clear(l.adj)
	clear(l.edges)
	l.pending = 0
	return nil
}

// Flush commits any remaining buffered data.
func (l *BulkLoader) Flush() error {
	return l.commitBatch()
}

// --- graph.Backend ---

// getVertex resolves one vertex through the decode cache. Missing vertices
// are cached as nil (negative entries invalidate like any other).
func (g *Graph) getVertex(id string) (*graph.Element, error) {
	version := g.version.Load()
	if el, ok := g.vtxCache.Get(id, version); ok {
		return el, nil
	}
	blob, ok := g.store.Get(vPrefix + id)
	if !ok {
		g.vtxCache.Put(id, version, nil)
		return nil, nil
	}
	el, err := decodeVertex(id, blob)
	if err != nil {
		return nil, err
	}
	g.vtxCache.Put(id, version, el)
	return el, nil
}

// getVertices resolves many vertices at once: cache hits are taken
// directly, and the misses become one sorted multi-get against the store
// (a single read lock) instead of a point read per id. The result is
// aligned with ids (nil for absent vertices).
func (g *Graph) getVertices(ids []string) ([]*graph.Element, error) {
	version := g.version.Load()
	out := make([]*graph.Element, len(ids))
	pending := make([]bool, len(ids))
	miss := make(map[string]*graph.Element) // unique missing ids -> decoded
	for i, id := range ids {
		if el, ok := g.vtxCache.Get(id, version); ok {
			out[i] = el
			continue
		}
		pending[i] = true
		miss[id] = nil
	}
	if len(miss) == 0 {
		return out, nil
	}
	// Sorted unique keys: one read lock, btree-friendly access order.
	keys := make([]string, 0, len(miss))
	for id := range miss {
		keys = append(keys, vPrefix+id)
	}
	sort.Strings(keys)
	blobs := g.store.MultiGet(keys)
	for i, key := range keys {
		id := key[len(vPrefix):]
		if blobs[i] == nil {
			g.vtxCache.Put(id, version, nil)
			continue
		}
		el, err := decodeVertex(id, blobs[i])
		if err != nil {
			return nil, err
		}
		miss[id] = el
		g.vtxCache.Put(id, version, el)
	}
	for i, id := range ids {
		if pending[i] {
			out[i] = miss[id]
		}
	}
	return out, nil
}

// getAdj resolves one vertex's adjacency snapshot through the cache.
func (g *Graph) getAdj(vid string) (*adjSnapshot, error) {
	version := g.version.Load()
	if snap, ok := g.adjCache.Get(vid, version); ok {
		return snap, nil
	}
	blob, _ := g.store.Get(aPrefix + vid)
	entries, err := decodeAdj(blob)
	if err != nil {
		return nil, err
	}
	g.arenaBytes.Add(int64(len(blob)))
	snap := snapshotAdj(vid, entries)
	g.adjCache.Put(vid, version, snap)
	return snap, nil
}

// getAdjMany resolves many adjacency snapshots, aligned with vids: cache
// hits first, then one sorted multi-get for the misses — the batched
// expansion path the gremlin engine drives with one call per hop.
func (g *Graph) getAdjMany(vids []string) ([]*adjSnapshot, error) {
	version := g.version.Load()
	out := make([]*adjSnapshot, len(vids))
	miss := make(map[string][]int, len(vids)) // vid -> result slots
	for i, vid := range vids {
		if snap, ok := g.adjCache.Get(vid, version); ok {
			out[i] = snap
			continue
		}
		miss[vid] = append(miss[vid], i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	keys := make([]string, 0, len(miss))
	for vid := range miss {
		keys = append(keys, aPrefix+vid)
	}
	sort.Strings(keys)
	blobs := g.store.MultiGet(keys)
	for i, key := range keys {
		vid := key[len(aPrefix):]
		entries, err := decodeAdj(blobs[i])
		if err != nil {
			return nil, err
		}
		g.arenaBytes.Add(int64(len(blobs[i])))
		snap := snapshotAdj(vid, entries)
		g.adjCache.Put(vid, version, snap)
		for _, slot := range miss[vid] {
			out[slot] = snap
		}
	}
	return out, nil
}

// V implements graph.Backend.
func (g *Graph) V(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	var out []*graph.Element
	emit := func(el *graph.Element) {
		if el != nil && q.Matches(el) {
			out = append(out, el)
		}
	}
	if q != nil && len(q.IDs) > 0 {
		for _, id := range q.IDs {
			el, err := g.getVertex(id)
			if err != nil {
				return nil, err
			}
			emit(el)
		}
		return out, nil
	}
	if q != nil && len(q.Labels) > 0 {
		for _, label := range q.Labels {
			prefix := lvPrefix + label + "/"
			g.scanUnlocked(prefix, func(key, _ string) bool {
				el, err := g.getVertex(key[len(prefix):])
				if err != nil {
					el = nil
				}
				emit(el)
				return true
			})
		}
		return out, nil
	}
	var decodeErr error
	scanned := 0
	g.store.ScanPrefix(vPrefix, func(key string, blob []byte) bool {
		if err := graph.ScanTick(ctx, scanned); err != nil {
			decodeErr = err
			return false
		}
		scanned++
		el, err := decodeVertex(key[len(vPrefix):], blob)
		if err != nil {
			decodeErr = err
			return false
		}
		emit(el)
		return true
	})
	return out, decodeErr
}

// findEdge locates an edge by id via its locator and the owner's adjacency.
func (g *Graph) findEdge(eid string) (*graph.Element, error) {
	outV, ok := g.store.Get(ePrefix + eid)
	if !ok {
		return nil, nil
	}
	snap, err := g.getAdj(string(outV))
	if err != nil {
		return nil, err
	}
	for i, e := range snap.entries {
		if e.dir == 0 && e.edgeID == eid {
			return snap.els[i], nil
		}
	}
	return nil, nil
}

// E implements graph.Backend.
func (g *Graph) E(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	var out []*graph.Element
	emit := func(el *graph.Element) {
		if el != nil && q.Matches(el) {
			out = append(out, el)
		}
	}
	if q != nil && len(q.IDs) > 0 {
		for _, id := range q.IDs {
			el, err := g.findEdge(id)
			if err != nil {
				return nil, err
			}
			emit(el)
		}
		return out, nil
	}
	scanOwner := func(key, owner string) bool {
		// owner is the edge's out-vertex; decode its adjacency to find the
		// edge (the whole-blob decode is intrinsic to the layout).
		eid := key[strings.LastIndexByte(key, '/')+1:]
		snap, err := g.getAdj(owner)
		if err != nil {
			return true
		}
		for i, e := range snap.entries {
			if e.dir == 0 && e.edgeID == eid {
				emit(snap.els[i])
				break
			}
		}
		return true
	}
	if q != nil && len(q.Labels) > 0 {
		for _, label := range q.Labels {
			g.scanUnlocked(lePrefix+label+"/", scanOwner)
		}
		return out, nil
	}
	var tickErr error
	scanned := 0
	g.scanUnlocked(ePrefix, func(key, owner string) bool {
		if tickErr = graph.ScanTick(ctx, scanned); tickErr != nil {
			return false
		}
		scanned++
		return scanOwner(key, owner)
	})
	return out, tickErr
}

// scanChunk is how many keys one store scan of scanUnlocked collects before
// the callback runs on them.
const scanChunk = 256

// testHookScanned, when a test sets it, runs under the store scan of
// scanUnlocked after each collected key.
var testHookScanned func()

// scanUnlocked visits the keys under prefix in order, with their values,
// like Store.ScanPrefix, but calls fn with no store lock held: each chunk
// of scanChunk keys is collected under one store scan and handed to fn
// after that scan has returned, so fn may read the store (getVertex,
// getAdj): a store read inside a scan callback takes a second read lock,
// which deadlocks as soon as a writer queues between the two. fn returns
// false to stop; a stop, like a limit, ends the scan early, and at most one
// chunk past the stopping key has been collected.
func (g *Graph) scanUnlocked(prefix string, fn func(key, value string) bool) {
	keys := make([]string, 0, scanChunk)
	vals := make([]string, 0, scanChunk)
	for start := prefix; ; {
		keys, vals = keys[:0], vals[:0]
		g.store.Scan(start, func(key string, value []byte) bool {
			if !strings.HasPrefix(key, prefix) {
				return false
			}
			keys = append(keys, key)
			vals = append(vals, string(value))
			if testHookScanned != nil {
				testHookScanned()
			}
			return len(keys) < scanChunk
		})
		for i, key := range keys {
			if !fn(key, vals[i]) {
				return
			}
		}
		if len(keys) < scanChunk {
			return
		}
		start = keys[len(keys)-1] + "\x00"
	}
}

// VertexEdges implements graph.Backend: resolves the adjacency lists of the
// whole batch with one sorted multi-get (through the decode cache) and
// filters.
func (g *Graph) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	lists, err := g.getAdjMany(vids)
	if err != nil {
		return nil, err
	}
	var out []*graph.Element
	seen := map[string]bool{}
	for i := range vids {
		snap := lists[i]
		for j, e := range snap.entries {
			if dir == graph.DirOut && e.dir != 0 {
				continue
			}
			if dir == graph.DirIn && e.dir != 1 {
				continue
			}
			if seen[e.edgeID] {
				continue
			}
			el := snap.els[j]
			if q.Matches(el) {
				seen[e.edgeID] = true
				out = append(out, el)
			}
		}
	}
	return out, nil
}

// EdgeVertices implements graph.Backend (aligned with edges).
func (g *Graph) EdgeVertices(ctx context.Context, edges []*graph.Element, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	ids := make([]string, len(edges))
	for i, e := range edges {
		if dir == graph.DirIn {
			ids[i] = e.InV
		} else {
			ids[i] = e.OutV
		}
	}
	vs, err := g.getVertices(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(edges))
	for i, v := range vs {
		if v != nil && q.Matches(v) {
			out[i] = v
		}
	}
	return out, nil
}

// VerticesByIDs implements graph.BatchBackend natively: one sorted
// multi-get against the store for the cache misses of the whole batch.
func (g *Graph) VerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	vs, err := g.getVertices(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(ids))
	for i, v := range vs {
		if v != nil && q.MatchesFilter(v) {
			out[i] = v
		}
	}
	return out, nil
}

// EdgesForVertices implements graph.BatchBackend natively: the batch's
// adjacency blobs resolve with one sorted multi-get, then each group is
// built with exactly VertexEdges' per-vertex semantics (per-vid dedup).
func (g *Graph) EdgesForVertices(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([][]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	lists, err := g.getAdjMany(vids)
	if err != nil {
		return nil, err
	}
	out := make([][]*graph.Element, len(vids))
	// One backing array serves every group (two allocations per batch), and
	// the per-vertex dedup map is only needed when a DirBoth scan can see a
	// self-loop's two entries — single-direction scans match an edge id at
	// most once per vertex by construction.
	total := 0
	for _, snap := range lists {
		total += len(snap.entries)
	}
	backing := make([]*graph.Element, 0, total)
	var seen map[string]bool
	for i := range vids {
		snap := lists[i]
		start := len(backing)
		useSeen := dir == graph.DirBoth && snap.selfLoop
		if useSeen {
			if seen == nil {
				seen = map[string]bool{}
			} else {
				clear(seen)
			}
		}
		for j, e := range snap.entries {
			if dir == graph.DirOut && e.dir != 0 {
				continue
			}
			if dir == graph.DirIn && e.dir != 1 {
				continue
			}
			if useSeen && seen[e.edgeID] {
				continue
			}
			el := snap.els[j]
			if q.Matches(el) {
				if useSeen {
					seen[e.edgeID] = true
				}
				backing = append(backing, el)
			}
		}
		if len(backing) > start {
			out[i] = backing[start:len(backing):len(backing)]
		}
	}
	return out, nil
}

// AggV implements graph.Backend by materialization (no pushdown machinery
// exists in this architecture).
func (g *Graph) AggV(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := g.V(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggE implements graph.Backend by materialization.
func (g *Graph) AggE(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := g.E(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggVertexEdges implements graph.Backend by materialization.
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

// Open warms the store by scanning and decoding every vertex record — the
// cache-population work behind the paper's measured JanusGraph graph-open
// time. It returns the number of vertices touched.
func (g *Graph) Open() int {
	n := 0
	g.store.ScanPrefix(vPrefix, func(key string, blob []byte) bool {
		if _, err := decodeVertex(key[len(vPrefix):], blob); err == nil {
			n++
		}
		return true
	})
	return n
}
