package core

import (
	"context"
	"fmt"
	"strings"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/exec"
	"db2graph/internal/sql/types"
)

// Options toggle the data-dependent runtime optimizations of Section 6.3
// plus the statement template cache of the SQL Dialect module. All default
// to on; experiments flip individual flags.
type Options struct {
	// LabelPruning eliminates fixed-label tables whose label cannot match
	// (Section 6.3, "Using Label Values").
	LabelPruning bool
	// PropertyPruning eliminates tables lacking a predicated property
	// ("Using Property Names in Pushdown Information"). Projections never
	// prune: they narrow the fetched columns, not the matching rows.
	PropertyPruning bool
	// PrefixedIDPinning pins lookups by prefixed id to the owning table
	// ("Using Prefixed Id Values").
	PrefixedIDPinning bool
	// SrcDstVertexTables uses src_v_table/dst_v_table declarations to
	// resolve edge endpoints against exactly one table ("Using
	// Source/Destination Vertex Tables").
	SrcDstVertexTables bool
	// VertexFromEdge constructs an endpoint vertex from the edge row itself
	// when both map to the same row ("When A Vertex Table Is Also An Edge
	// Table").
	VertexFromEdge bool
	// ImplicitEdgeIDs decomposes implicit src::label::dst edge ids into
	// conjunctive SQL predicates ("Using Implicit Edge Id Values").
	ImplicitEdgeIDs bool
	// StatementCache enables pre-compiled SQL templates for frequent query
	// patterns (SQL Dialect module).
	StatementCache bool
	// SnapshotTime, when non-zero, reads every table FOR SYSTEM_TIME AS OF
	// this logical timestamp — the paper's "view a graph as of different
	// time snapshots" capability. Temporal tables return their historical
	// state; non-temporal tables return current data.
	SnapshotTime int64
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{
		LabelPruning:       true,
		PropertyPruning:    true,
		PrefixedIDPinning:  true,
		SrcDstVertexTables: true,
		VertexFromEdge:     true,
		ImplicitEdgeIDs:    true,
		StatementCache:     true,
	}
}

// Graph is an opened Db2 Graph instance: a property-graph view over
// relational tables, queryable with Gremlin, fully backed by live data.
//
// Safe for concurrent use: the overlay topology, column-type, compiled-id
// and edge-meta caches are built in Open and read-only afterwards (the
// compiled ids' fragments are rendered there too); each fetch template
// compiles once, under its sync.Once; the SQL engine admits concurrent
// readers (engine.Database takes no lock on reads), and the statement cache
// behind Dialect is RWMutex-guarded. Scan order follows the backing tables,
// so results are deterministic and per-vertex adjacency order does not
// depend on the rest of the batch.
type Graph struct {
	db      *engine.Database
	topo    *overlay.Topology
	dialect *Dialect
	opts    Options

	// colTypes caches column types per relation for predicate coercion.
	colTypes map[string]map[string]types.Kind
	// vertexIDs and edgeMeta hold each mapping's compiled id expressions
	// (idcodec.go) and, for edges, the precomputed optimization facts.
	vertexIDs map[*overlay.VertexMapping]*idAccess
	edgeMeta  map[*overlay.EdgeMapping]*edgeMeta
	// vertexTmpl and edgeTmpl hold each mapping's fetch templates
	// (fetchplan.go), compiled on first use.
	vertexTmpl map[*overlay.VertexMapping]*vertexTemplates
	edgeTmpl   map[*overlay.EdgeMapping]*edgeTemplates

	// vtxCache and adjCache are version-tagged hot-path caches (resolved
	// vertices by id; per-(vertex,direction) adjacency groups), keyed to the
	// engine's DataVersion so any committed DML invalidates them. Snapshot
	// views share these pointers but bypass them (SnapshotTime != 0), since
	// their reads see historical states the tags don't describe.
	vtxCache *graph.VersionedCache[*graph.Element]
	adjCache *graph.VersionedCache[[]*graph.Element]
}

// edgeMeta holds precomputed per-edge-mapping facts.
type edgeMeta struct {
	// src, dst and id are the compiled src_v, dst_v and explicit id
	// expressions (id is nil for implicit edge ids).
	src, dst, id *idAccess
	// vertexFromEdgeSrc/Dst report that the src/dst vertex maps to the very
	// same row as the edge (fact-table case).
	vertexFromEdgeSrc bool
	vertexFromEdgeDst bool
}

// Open binds an overlay configuration to a database and returns a queryable
// graph. Opening reads only metadata (the paper's sub-second "open graph"
// cost in Table 3); no data is copied.
func Open(db *engine.Database, cfg *overlay.Config, opts Options) (*Graph, error) {
	topo, err := overlay.Resolve(cfg, db)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		db:         db,
		topo:       topo,
		dialect:    NewDialect(db, opts.StatementCache),
		opts:       opts,
		colTypes:   make(map[string]map[string]types.Kind),
		vertexIDs:  make(map[*overlay.VertexMapping]*idAccess),
		edgeMeta:   make(map[*overlay.EdgeMapping]*edgeMeta),
		vertexTmpl: make(map[*overlay.VertexMapping]*vertexTemplates),
		edgeTmpl:   make(map[*overlay.EdgeMapping]*edgeTemplates),
		vtxCache:   graph.NewVersionedCache[*graph.Element](0),
		adjCache:   graph.NewVersionedCache[[]*graph.Element](0),
	}
	cacheTypes := func(rel string) error {
		key := strings.ToLower(rel)
		if _, done := g.colTypes[key]; done {
			return nil
		}
		cols, err := db.RelationColumnInfo(rel)
		if err != nil {
			return err
		}
		m := make(map[string]types.Kind, len(cols))
		for _, c := range cols {
			m[strings.ToLower(c.Name)] = c.Type
		}
		g.colTypes[key] = m
		return nil
	}
	for _, vm := range topo.Vertices {
		if err := cacheTypes(vm.Table); err != nil {
			return nil, err
		}
	}
	for _, em := range topo.Edges {
		if err := cacheTypes(em.Table); err != nil {
			return nil, err
		}
	}
	ids := newIDCompiler(g)
	for _, vm := range topo.Vertices {
		g.vertexIDs[vm] = ids.compile(vm.Table, vm.ID)
	}
	for _, em := range topo.Edges {
		g.edgeMeta[em] = g.buildEdgeMeta(em, ids)
	}
	for _, vm := range topo.Vertices {
		g.vertexTmpl[vm] = new(vertexTemplates)
	}
	for _, em := range topo.Edges {
		g.edgeTmpl[em] = new(edgeTemplates)
	}
	return g, nil
}

// OpenFile is a convenience that loads the overlay configuration from a
// JSON file (the paper's config.properties flow).
func OpenFile(db *engine.Database, path string, opts Options) (*Graph, error) {
	cfg, err := overlay.Load(path)
	if err != nil {
		return nil, err
	}
	return Open(db, cfg, opts)
}

func (g *Graph) buildEdgeMeta(em *overlay.EdgeMapping, ids *idCompiler) *edgeMeta {
	meta := &edgeMeta{
		src: ids.compile(em.Table, em.SrcV),
		dst: ids.compile(em.Table, em.DstV),
	}
	if !em.ImplicitID {
		meta.id = ids.compile(em.Table, em.ID)
	}
	// Vertex-from-edge: endpoint vertex rows coincide with edge rows.
	if em.SrcVTable != "" && strings.EqualFold(em.SrcVTable, em.Table) {
		if vm := g.topo.VertexByTable(em.SrcVTable); vm != nil {
			if vm.ID.String() == em.SrcV.String() {
				if _, fixed := vm.FixedLabel(); fixed {
					meta.vertexFromEdgeSrc = true
				}
			}
		}
	}
	if em.DstVTable != "" && strings.EqualFold(em.DstVTable, em.Table) {
		if vm := g.topo.VertexByTable(em.DstVTable); vm != nil {
			if vm.ID.String() == em.DstV.String() {
				if _, fixed := vm.FixedLabel(); fixed {
					meta.vertexFromEdgeDst = true
				}
			}
		}
	}
	return meta
}

// Topology returns the resolved overlay topology.
func (g *Graph) Topology() *overlay.Topology { return g.topo }

// Dialect returns the SQL dialect module (statement cache, index advisor).
func (g *Graph) Dialect() *Dialect { return g.dialect }

// Traversal returns a Gremlin traversal source over this graph, equipped
// with the optimized traversal strategies of Section 6.2.
func (g *Graph) Traversal() *gremlin.Source {
	return gremlin.NewSource(g)
}

// Snapshot returns a read-only view of the graph as of the given logical
// timestamp (see Database.Now). It shares the topology and statement cache
// with the live graph.
func (g *Graph) Snapshot(ts int64) *Graph {
	cp := *g
	cp.opts.SnapshotTime = ts
	return &cp
}

// NaiveTraversal returns a traversal source with the optimized traversal
// strategies disabled (the "without" configuration of Figure 4). The
// data-dependent runtime optimizations stay governed by Options.
func (g *Graph) NaiveTraversal() *gremlin.Source {
	return gremlin.NewSource(g).WithoutStrategies()
}

// Run executes a Gremlin script (possibly multi-statement) against the
// graph and returns the final statement's results.
func (g *Graph) Run(script string) ([]any, error) {
	return g.RunCtx(context.Background(), script)
}

// RunCtx executes a Gremlin script under ctx; cancellation and deadline
// expiry abort the traversal mid-flight.
func (g *Graph) RunCtx(ctx context.Context, script string) ([]any, error) {
	return gremlin.RunScriptCtx(ctx, g.Traversal(), script, nil)
}

// RegisterGraphQuery installs this graph as a polymorphic table function
// (the paper's graphQuery) so SQL statements can embed Gremlin:
//
//	SELECT ... FROM TABLE(graphQuery('gremlin', '<script>')) AS P (col type, ...)
func (g *Graph) RegisterGraphQuery(name string) {
	g.db.RegisterTableFunc(name, func(ctx context.Context, args []types.Value, out []exec.Column) ([][]types.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("%s: expected (language, script) arguments", name)
		}
		lang := strings.ToLower(args[0].Text())
		if lang != "gremlin" {
			return nil, fmt.Errorf("%s: unsupported language %q", name, args[0].Text())
		}
		results, err := g.RunCtx(ctx, args[1].Text())
		if err != nil {
			return nil, err
		}
		cols := make([]string, len(out))
		for i, c := range out {
			cols[i] = c.Name
		}
		rows, err := gremlin.ResultsToRows(results, cols)
		if err != nil {
			return nil, err
		}
		// Coerce to the declared column types.
		for _, row := range rows {
			for i := range row {
				if cv, err := types.CoerceTo(row[i], out[i].Type); err == nil {
					row[i] = cv
				}
			}
		}
		return rows, nil
	})
}

// columnType returns the declared type of a relation column (KindNull when
// unknown).
func (g *Graph) columnType(table, col string) types.Kind {
	if m := g.colTypes[strings.ToLower(table)]; m != nil {
		return m[strings.ToLower(col)]
	}
	return types.KindNull
}

// coercePredValue converts a pushdown predicate value to the column type.
func (g *Graph) coercePredValue(table, col string, v types.Value) types.Value {
	kind := g.columnType(table, col)
	if kind != types.KindNull && v.Kind != kind {
		if cv, err := types.CoerceTo(v, kind); err == nil {
			return cv
		}
	}
	return v
}
