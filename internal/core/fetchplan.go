package core

import (
	"slices"
	"sync"

	"db2graph/internal/graph"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/types"
)

// Fetch templates. The point reads and adjacency fetches that dominate a
// LinkBench-style workload have one of a few shapes per mapping: ids (or
// one endpoint) bound as one list, maybe a label list, no predicate, every
// property or none, rows or COUNT(*). The first fetch of a shape compiles
// it, with the same planVertexFetch/planEdgeFetch code every other query
// runs, into the select-list layout and the SQL text; every later fetch of
// that shape only binds its parameters. Any other query plans from scratch.

// Result kinds a template renders.
const (
	fetchRows  = iota // every property column
	fetchBare         // no property column (an empty projection)
	fetchCount        // COUNT(*)
	nFetchResults
)

// countSelect is the aggregate select list fetchCount renders.
const countSelect = "COUNT(*)"

// template is one compiled fetch: the plan (layout and equality columns;
// read-only once compiled) and its SQL text.
type template[P any] struct {
	p   P
	sql string
}

// lazyTemplate is one mapping's template of one shape, compiled on first
// use, so a mapping holds only the shapes its workload issues. A nil
// template marks a shape the mapping cannot template (a multi-column id).
type lazyTemplate[P any] struct {
	once sync.Once
	t    *template[P]
}

func (l *lazyTemplate[P]) get(compile func() *template[P]) *template[P] {
	l.once.Do(func() { l.t = compile() })
	return l.t
}

// vertexTemplates and edgeTemplates index a mapping's templates by result
// kind and by whether a label list binds to a label column; edges also by
// the restricted endpoint (0: out, src_v; 1: in, dst_v).
type (
	vertexTemplates [nFetchResults][2]lazyTemplate[*vertexPlan]
	edgeTemplates   [2][nFetchResults][2]lazyTemplate[*edgePlan]
)

// fetchShape reports the result kind of q's templated shape: no predicate
// and a nil (every property) or empty projection. sel is the aggregate
// select list, "" for rows; ok is false for any other query.
func (g *Graph) fetchShape(q *graph.Query, sel string) (res int, ok bool) {
	if g.opts.SnapshotTime != 0 || len(q.Preds) > 0 || len(q.Projection) > 0 {
		return 0, false
	}
	switch {
	case sel == countSelect:
		return fetchCount, true
	case sel != "":
		return 0, false
	case q.Projection != nil:
		return fetchBare, true
	}
	return fetchRows, true
}

// labelSlot reports how a query's labels meet a mapping's label (fixed
// when isFixed): slot 1 when a list binds to the label column, 0 when
// nothing binds (no labels, or a fixed label among them). ok is false when
// a fixed label is not among them, which the generic planner prunes or
// post-filters.
func labelSlot(labels []string, fixed string, isFixed bool) (slot int, ok bool) {
	switch {
	case len(labels) == 0:
		return 0, true
	case !isFixed:
		return 1, true
	}
	return 0, slices.Contains(labels, fixed)
}

// templateQuery is the query a template compiles from: a label when a list
// binds, an empty projection for fetchBare.
func templateQuery(res, slot int) *graph.Query {
	q := &graph.Query{}
	if res == fetchBare {
		q.Projection = []string{}
	}
	if slot == 1 {
		q.Labels = []string{""}
	}
	return q
}

// templateSQL renders a compiled plan's statement for result kind res.
func templateSQL(b *sqlBuilder, cols []string, res int) string {
	if res == fetchCount {
		return b.SQL(countSelect)
	}
	return b.SQL(selectList(cols))
}

// sampleID composes an id the access's codec decodes: its constants, and
// "0" for every column term.
func (x *idAccess) sampleID() string {
	parts := make([]string, len(x.codec.terms))
	for i, t := range x.codec.terms {
		parts[i] = "0"
		if t.isConst {
			parts[i] = t.konst
		}
	}
	return overlay.ComposeID(parts)
}

func (g *Graph) compileVertexTemplate(vm *overlay.VertexMapping, res, slot int) *template[*vertexPlan] {
	// A single column binds every id list to one "col IN (?)".
	x := g.vertexIDs[vm]
	if len(x.cols) != 1 {
		return nil
	}
	q := templateQuery(res, slot)
	q.IDs = []string{x.sampleID()}
	p := g.planVertexFetch(vm, q, &idMemo{ids: q.IDs})
	if !p.possible || !p.b.fullyPushed {
		return nil
	}
	return &template[*vertexPlan]{p: p, sql: templateSQL(p.b, p.cols, res)}
}

func (g *Graph) compileEdgeTemplate(em *overlay.EdgeMapping, x *idAccess, dir graph.Direction, res, slot int) *template[*edgePlan] {
	if len(x.cols) != 1 {
		return nil
	}
	p := g.planEdgeFetch(em, templateQuery(res, slot))
	if p.possible {
		g.addEndpointRestriction(p, &idMemo{ids: []string{x.sampleID()}}, dir)
	}
	if !p.possible || !p.b.fullyPushed {
		return nil
	}
	return &template[*edgePlan]{p: p, sql: templateSQL(p.b, p.cols, res)}
}

// labelList renders labels as the list bound to a label column.
func labelList(labels []string) []types.Value {
	vals := make([]types.Value, len(labels))
	for i, l := range labels {
		vals[i] = types.NewString(l)
	}
	return vals
}

// vertexFetch plans vm's part of q: from the mapping's template when q has
// a templated shape, otherwise through planVertexFetch. sel is the
// aggregate select list, "" for rows. p is nil when no row of vm can match;
// otherwise sql and params are the statement to run. ids holds q.IDs.
func (g *Graph) vertexFetch(vm *overlay.VertexMapping, q *graph.Query, ids *idMemo, sel string) (p *vertexPlan, sql string, params []any) {
	if res, ok := g.fetchShape(q, sel); ok && len(q.IDs) > 0 {
		fixed, isFixed := vm.FixedLabel()
		if slot, ok := labelSlot(q.Labels, fixed, isFixed); ok {
			t := g.vertexTmpl[vm][res][slot].get(func() *template[*vertexPlan] {
				return g.compileVertexTemplate(vm, res, slot)
			})
			if t != nil {
				d := ids.decode(g.vertexIDs[vm].codec)
				if d.n == 0 {
					return nil, "", nil
				}
				if slot == 1 {
					return t.p, t.sql, []any{d.vals, labelList(q.Labels)}
				}
				return t.p, t.sql, []any{d.vals}
			}
		}
	}
	p = g.planVertexFetch(vm, q, ids)
	if !p.possible {
		return nil, "", nil
	}
	if sel == "" {
		sel = selectList(p.cols)
	}
	return p, p.b.SQL(sel), p.b.params
}

// edgeFetch plans em's part of the edges of q incident to ends on dir (as
// VertexEdges defines them), like vertexFetch. ids holds q.IDs.
func (g *Graph) edgeFetch(em *overlay.EdgeMapping, q *graph.Query, ends, ids *idMemo, dir graph.Direction, sel string) (p *edgePlan, sql string, params []any) {
	if res, ok := g.fetchShape(q, sel); ok && len(q.IDs) == 0 && dir != graph.DirBoth {
		fixed, isFixed := em.FixedLabel()
		if slot, ok := labelSlot(q.Labels, fixed, isFixed); ok {
			end, x := 0, g.edgeMeta[em].src
			if dir == graph.DirIn {
				end, x = 1, g.edgeMeta[em].dst
			}
			t := g.edgeTmpl[em][end][res][slot].get(func() *template[*edgePlan] {
				return g.compileEdgeTemplate(em, x, dir, res, slot)
			})
			if t != nil {
				d := ends.decode(x.codec)
				if d.n == 0 {
					return nil, "", nil
				}
				if slot == 1 {
					return t.p, t.sql, []any{labelList(q.Labels), d.vals}
				}
				return t.p, t.sql, []any{d.vals}
			}
		}
	}
	p = g.planEdgeFetch(em, q)
	if !p.possible {
		return nil, "", nil
	}
	g.addEndpointRestriction(p, ends, dir)
	if !p.possible {
		return nil, "", nil
	}
	g.addEdgeIDRestriction(p, ids)
	if !p.possible {
		return nil, "", nil
	}
	if sel == "" {
		sel = selectList(p.cols)
	}
	return p, p.b.SQL(sel), p.b.params
}
