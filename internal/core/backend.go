package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"db2graph/internal/graph"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/types"
)

// Graph implements graph.Backend by translating graph-structure accesses
// into SQL over the overlay's tables, applying the runtime optimizations
// enabled in Options. Correctness never depends on an optimization: every
// fetched element passes a final Query.Matches check, so disabling an
// optimization only widens the set of tables queried or rows fetched.

// Name implements graph.Backend.
func (g *Graph) Name() string { return "db2graph" }

// predSQL translates one pushdown predicate over a property column.
func predSQL(b *sqlBuilder, g *Graph, table, col string, p graph.Pred) {
	switch p.Op {
	case graph.OpEq:
		b.addWhere(col+" = ?", g.coercePredValue(table, col, p.Value))
		b.eqCols = append(b.eqCols, col)
	case graph.OpNeq:
		b.addWhere(col+" <> ?", g.coercePredValue(table, col, p.Value))
	case graph.OpLt:
		b.addWhere(col+" < ?", g.coercePredValue(table, col, p.Value))
	case graph.OpLte:
		b.addWhere(col+" <= ?", g.coercePredValue(table, col, p.Value))
	case graph.OpGt:
		b.addWhere(col+" > ?", g.coercePredValue(table, col, p.Value))
	case graph.OpGte:
		b.addWhere(col+" >= ?", g.coercePredValue(table, col, p.Value))
	case graph.OpWithin:
		vals := make([]types.Value, len(p.Values))
		for i, v := range p.Values {
			vals[i] = g.coercePredValue(table, col, v)
		}
		b.inList(col, vals)
	}
}

// --- Vertex access ---

// vertexPlan is a prepared single-table vertex fetch.
type vertexPlan struct {
	vm       *overlay.VertexMapping
	b        *sqlBuilder
	cols     []string // SELECT list
	idPos    []int    // positions of the id expression's column terms
	labelPos int      // position of the label column; -1 when fixed
	props    []string // property names fetched
	propPos  []int
	possible bool
}

// eligibleVertexMappings applies the table-elimination optimizations.
func (g *Graph) eligibleVertexMappings(q *graph.Query) []*overlay.VertexMapping {
	var vms []*overlay.VertexMapping
	if g.opts.LabelPruning {
		vms = g.topo.VerticesForLabels(q.Labels)
	} else {
		vms = g.topo.Vertices
	}
	if g.opts.PropertyPruning {
		props := pushedPropertyNames(q)
		vms = overlay.VerticesForProperties(vms, props)
	}
	if g.opts.PrefixedIDPinning && len(q.IDs) > 0 {
		var pinned []*overlay.VertexMapping
		seen := map[*overlay.VertexMapping]bool{}
		allPinned := true
		for _, id := range q.IDs {
			vm, _, ok := g.topo.VertexForIDPrefix(id)
			if !ok {
				allPinned = false
				break
			}
			if !seen[vm] {
				seen[vm] = true
				pinned = append(pinned, vm)
			}
		}
		if allPinned {
			// Intersect with the label/property-eligible set.
			var out []*overlay.VertexMapping
			for _, vm := range vms {
				if seen[vm] {
					out = append(out, vm)
				}
			}
			return out
		}
	}
	return vms
}

// pushedPropertyNames lists the property names a query requires to exist:
// predicates on concrete properties. Projections deliberately do NOT count —
// a projection narrows which properties are fetched but never which elements
// match (Query.Projection contract), so a table lacking a projected column
// still contributes its rows, just without that property. (Pruning on
// projections would make VerticesByIDs drop such vertices while the
// table-pinned EdgeVertices path keeps them.)
func pushedPropertyNames(q *graph.Query) []string {
	var out []string
	for _, p := range q.Preds {
		if p.Key != graph.KeyID && p.Key != graph.KeyLabel {
			out = append(out, p.Key)
		}
	}
	return out
}

// planVertexFetch prepares one table's fetch; ids holds q.IDs, decoded
// once for every table the caller plans.
func (g *Graph) planVertexFetch(vm *overlay.VertexMapping, q *graph.Query, ids *idMemo) *vertexPlan {
	p := &vertexPlan{vm: vm, b: newSQLBuilder(vm.Table), labelPos: -1, possible: true}
	b := p.b
	b.asOf = g.opts.SnapshotTime

	// Ids.
	if len(q.IDs) > 0 && !g.vertexIDs[vm].restrict(b, ids) {
		p.possible = false
		return p
	}
	// Labels.
	if len(q.Labels) > 0 {
		if fixed, ok := vm.FixedLabel(); ok {
			if !slices.Contains(q.Labels, fixed) {
				if g.opts.LabelPruning {
					p.possible = false
					return p
				}
				b.fullyPushed = false // rows fetched then dropped by Matches
			}
		} else {
			b.inList(vm.Label.Column, labelList(q.Labels))
		}
	}
	// Predicates.
	for _, pred := range q.Preds {
		switch pred.Key {
		case graph.KeyLabel:
			if fixed, ok := vm.FixedLabel(); ok {
				if !pred.Matches(&graph.Element{Label: fixed}) {
					if g.opts.LabelPruning {
						p.possible = false
						return p
					}
					b.fullyPushed = false
				}
			} else {
				predSQL(b, g, vm.Table, vm.Label.Column, pred)
			}
		case graph.KeyID:
			b.fullyPushed = false // evaluated by the post-filter
		default:
			if vm.HasProperty(pred.Key) {
				predSQL(b, g, vm.Table, pred.Key, pred)
			} else {
				if g.opts.PropertyPruning {
					p.possible = false
					return p
				}
				b.fullyPushed = false
			}
		}
	}

	// SELECT list: id columns, label column (if any), then properties.
	for _, t := range vm.ID.Terms {
		if !t.IsConst {
			p.idPos = append(p.idPos, len(p.cols))
			p.cols = append(p.cols, t.Column)
		}
	}
	if !vm.Label.IsConst {
		p.labelPos = len(p.cols)
		p.cols = append(p.cols, vm.Label.Column)
	}
	props := neededProps(vm.Properties, q)
	for _, prop := range props {
		// Reuse a column already in the SELECT list when possible.
		pos := -1
		for i, c := range p.cols {
			if strings.EqualFold(c, prop) {
				pos = i
				break
			}
		}
		if pos < 0 {
			pos = len(p.cols)
			p.cols = append(p.cols, prop)
		}
		p.props = append(p.props, prop)
		p.propPos = append(p.propPos, pos)
	}
	return p
}

// neededProps computes the properties to fetch: the projection (or all)
// plus any property referenced by a predicate (the post-filter needs it).
func neededProps(all []string, q *graph.Query) []string {
	if q.Projection == nil {
		return all
	}
	want := map[string]bool{}
	var out []string
	add := func(name string) {
		key := strings.ToLower(name)
		if want[key] {
			return
		}
		for _, p := range all {
			if strings.EqualFold(p, name) {
				want[key] = true
				out = append(out, p)
				return
			}
		}
	}
	for _, p := range q.Projection {
		add(p)
	}
	for _, pred := range q.Preds {
		if pred.Key != graph.KeyID && pred.Key != graph.KeyLabel {
			add(pred.Key)
		}
	}
	return out
}

// runVertexPlan executes a planned fetch (vertexFetch) and builds elements.
func (g *Graph) runVertexPlan(ctx context.Context, p *vertexPlan, sql string, params []any, q *graph.Query) ([]*graph.Element, error) {
	rows, err := g.dialect.Query(ctx, sql, p.vm.Table, p.b.eqCols, params...)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Element, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		el := g.vertexFromRow(p, row)
		if q.Matches(el) {
			out = append(out, el)
		}
	}
	return out, nil
}

func selectList(cols []string) string {
	if len(cols) == 0 {
		return "1"
	}
	return strings.Join(cols, ", ")
}

func (g *Graph) vertexFromRow(p *vertexPlan, row []types.Value) *graph.Element {
	vm := p.vm
	label := vm.Label.Const
	if p.labelPos >= 0 {
		label = row[p.labelPos].Text()
	}
	props := make(map[string]types.Value, len(p.props))
	for i, name := range p.props {
		v := row[p.propPos[i]]
		if !v.IsNull() {
			props[name] = v
		}
	}
	return &graph.Element{
		ID:    composeExpr(vm.ID, row, p.idPos),
		Label: label,
		Props: props,
		Table: vm.Table,
		Ref:   vm,
	}
}

// V implements graph.Backend. Vertices of an id list come in the order of
// their ids' first appearance in q.IDs, as every other backend and the
// fused V(ids).out() walk them, not in table order. SQL returns a row once
// however often q.IDs repeats its id, so V copies such a vertex once per
// occurrence, next to the first copy.
func (g *Graph) V(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	mult := repeatedIDs(q.IDs)
	ids := &idMemo{ids: q.IDs}
	var out []*graph.Element
	for _, vm := range g.eligibleVertexMappings(q) {
		p, sql, params := g.vertexFetch(vm, q, ids, "")
		if p == nil {
			continue
		}
		els, err := g.runVertexPlan(ctx, p, sql, params, q)
		if err != nil {
			return nil, err
		}
		out = appendRepeated(out, els, mult)
	}
	return inIDOrder(out, q.IDs), nil
}

// inIDOrder stably sorts els, elements of the ids in ids, into the order of
// their ids' first appearance there.
func inIDOrder(els []*graph.Element, ids []string) []*graph.Element {
	if len(ids) < 2 || len(els) < 2 {
		return els
	}
	rank := make(map[string]int, len(ids))
	for i, id := range ids {
		if _, ok := rank[id]; !ok {
			rank[id] = i
		}
	}
	slices.SortStableFunc(els, func(a, b *graph.Element) int { return rank[a.ID] - rank[b.ID] })
	return els
}

// appendRepeated appends els to out, each element once per occurrence of
// its id in mult (repeatedIDs); a nil mult appends every element once.
func appendRepeated(out, els []*graph.Element, mult map[string]int) []*graph.Element {
	if mult == nil {
		return append(out, els...)
	}
	for _, el := range els {
		for n := max(mult[el.ID], 1); n > 0; n-- {
			out = append(out, el)
		}
	}
	return out
}

// repeatedIDs counts the occurrences of each id, or returns nil when no id
// repeats.
func repeatedIDs(ids []string) map[string]int {
	if len(ids) < 2 {
		return nil
	}
	n := make(map[string]int, len(ids))
	for _, id := range ids {
		n[id]++
	}
	if len(n) == len(ids) {
		return nil
	}
	return n
}

// fetchVerticesFromTable fetches vertices by id from one pinned table.
func (g *Graph) fetchVerticesFromTable(ctx context.Context, vm *overlay.VertexMapping, q *graph.Query) ([]*graph.Element, error) {
	p, sql, params := g.vertexFetch(vm, q, &idMemo{ids: q.IDs}, "")
	if p == nil {
		return nil, nil
	}
	return g.runVertexPlan(ctx, p, sql, params, q)
}

// --- Edge access ---

// edgePlan is a prepared single-mapping edge fetch.
type edgePlan struct {
	em       *overlay.EdgeMapping
	b        *sqlBuilder
	cols     []string
	srcPos   []int
	dstPos   []int
	idPos    []int // explicit id column positions
	labelPos int
	props    []string
	propPos  []int
	possible bool
}

func (g *Graph) eligibleEdgeMappings(q *graph.Query) []*overlay.EdgeMapping {
	var ems []*overlay.EdgeMapping
	if g.opts.LabelPruning {
		ems = g.topo.EdgesForLabels(q.Labels)
	} else {
		ems = g.topo.Edges
	}
	if g.opts.PropertyPruning {
		ems = overlay.EdgesForProperties(ems, pushedPropertyNames(q))
	}
	return ems
}

// planEdgeFetch prepares the common parts of an edge fetch (labels,
// predicates, select list); id and endpoint restrictions are added by the
// callers.
func (g *Graph) planEdgeFetch(em *overlay.EdgeMapping, q *graph.Query) *edgePlan {
	p := &edgePlan{em: em, b: newSQLBuilder(em.Table), labelPos: -1, possible: true}
	b := p.b
	b.asOf = g.opts.SnapshotTime

	if len(q.Labels) > 0 {
		if fixed, ok := em.FixedLabel(); ok {
			if !slices.Contains(q.Labels, fixed) {
				if g.opts.LabelPruning {
					p.possible = false
					return p
				}
				b.fullyPushed = false
			}
		} else {
			b.inList(em.Label.Column, labelList(q.Labels))
		}
	}
	for _, pred := range q.Preds {
		switch pred.Key {
		case graph.KeyLabel:
			if fixed, ok := em.FixedLabel(); ok {
				if !pred.Matches(&graph.Element{Label: fixed}) {
					if g.opts.LabelPruning {
						p.possible = false
						return p
					}
					b.fullyPushed = false
				}
			} else {
				predSQL(b, g, em.Table, em.Label.Column, pred)
			}
		case graph.KeyID:
			b.fullyPushed = false
		default:
			if em.HasProperty(pred.Key) {
				predSQL(b, g, em.Table, pred.Key, pred)
			} else {
				if g.opts.PropertyPruning {
					p.possible = false
					return p
				}
				b.fullyPushed = false
			}
		}
	}

	addExprCols := func(expr overlay.IDExpr) []int {
		var positions []int
		for _, t := range expr.Terms {
			if t.IsConst {
				continue
			}
			pos := -1
			for i, c := range p.cols {
				if strings.EqualFold(c, t.Column) {
					pos = i
					break
				}
			}
			if pos < 0 {
				pos = len(p.cols)
				p.cols = append(p.cols, t.Column)
			}
			positions = append(positions, pos)
		}
		return positions
	}
	p.srcPos = addExprCols(em.SrcV)
	p.dstPos = addExprCols(em.DstV)
	if !em.ImplicitID {
		p.idPos = addExprCols(em.ID)
	}
	if !em.Label.IsConst {
		pos := -1
		for i, c := range p.cols {
			if strings.EqualFold(c, em.Label.Column) {
				pos = i
				break
			}
		}
		if pos < 0 {
			pos = len(p.cols)
			p.cols = append(p.cols, em.Label.Column)
		}
		p.labelPos = pos
	}
	for _, prop := range neededProps(em.Properties, q) {
		pos := -1
		for i, c := range p.cols {
			if strings.EqualFold(c, prop) {
				pos = i
				break
			}
		}
		if pos < 0 {
			pos = len(p.cols)
			p.cols = append(p.cols, prop)
		}
		p.props = append(p.props, prop)
		p.propPos = append(p.propPos, pos)
	}
	return p
}

// composeExpr rebuilds an id string from a row given the expression: the
// escaped parts joined by "::", as overlay.ComposeID would.
func composeExpr(expr overlay.IDExpr, row []types.Value, positions []int) string {
	if len(expr.Terms) == 1 && !expr.Terms[0].IsConst {
		return overlay.EscapePart(row[positions[0]].Text())
	}
	var b strings.Builder
	pos := 0
	for i, t := range expr.Terms {
		if i > 0 {
			b.WriteString("::")
		}
		part := t.Const
		if !t.IsConst {
			part = row[positions[pos]].Text()
			pos++
		}
		b.WriteString(overlay.EscapePart(part))
	}
	return b.String()
}

// implicitEdgeID composes an implicit edge id (Section 6.3) from its
// endpoint ids, which are already composed and so escaped, and its label.
func implicitEdgeID(srcID, label, dstID string) string {
	return srcID + "::" + overlay.EscapePart(label) + "::" + dstID
}

func (g *Graph) edgeFromRow(p *edgePlan, row []types.Value) *graph.Element {
	em := p.em
	label := em.Label.Const
	if p.labelPos >= 0 {
		label = row[p.labelPos].Text()
	}
	srcID := composeExpr(em.SrcV, row, p.srcPos)
	dstID := composeExpr(em.DstV, row, p.dstPos)
	var id string
	if em.ImplicitID {
		id = implicitEdgeID(srcID, label, dstID)
	} else {
		id = composeExpr(em.ID, row, p.idPos)
	}
	props := make(map[string]types.Value, len(p.props))
	for i, name := range p.props {
		v := row[p.propPos[i]]
		if !v.IsNull() {
			props[name] = v
		}
	}
	return &graph.Element{
		ID:     id,
		Label:  label,
		Props:  props,
		IsEdge: true,
		OutV:   srcID,
		InV:    dstID,
		Table:  em.Table,
		Ref:    em,
	}
}

// runEdgePlan executes a planned fetch (edgeFetch, or E's plan) and builds
// elements.
func (g *Graph) runEdgePlan(ctx context.Context, p *edgePlan, sql string, params []any, q *graph.Query) ([]*graph.Element, error) {
	rows, err := g.dialect.Query(ctx, sql, p.em.Table, p.b.eqCols, params...)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Element, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		el := g.edgeFromRow(p, rows.Row(i))
		if q.Matches(el) {
			out = append(out, el)
		}
	}
	return out, nil
}

// addEdgeIDRestriction translates edge id lookups: explicit ids decompose
// against the id expression; implicit ids decompose into conjunctive
// predicates over the src, label, and dst columns (Section 6.3, "Using
// Implicit Edge Id Values"). ids holds q.IDs.
func (g *Graph) addEdgeIDRestriction(p *edgePlan, ids *idMemo) {
	em := p.em
	b := p.b
	if len(ids.ids) == 0 {
		return
	}
	meta := g.edgeMeta[em]
	if !em.ImplicitID {
		if !meta.id.restrict(b, ids) {
			p.possible = false
		}
		return
	}
	if !g.opts.ImplicitEdgeIDs {
		// Unoptimized path: scan and post-filter on the composed id.
		b.fullyPushed = false
		return
	}
	var groups []string
	var params []types.Value
	for _, id := range ids.ids {
		src, label, dst, ok := em.MatchImplicitEdgeID(id)
		if !ok {
			continue
		}
		n := len(params)
		if params, ok = meta.src.codec.decode(params, src); !ok {
			continue
		}
		if params, ok = meta.dst.codec.decode(params, dst); !ok {
			params = params[:n]
			continue
		}
		var conj []string
		for _, col := range meta.src.cols {
			conj = append(conj, col+" = ?")
		}
		for _, col := range meta.dst.cols {
			conj = append(conj, col+" = ?")
		}
		if !em.Label.IsConst {
			conj = append(conj, em.Label.Column+" = ?")
			params = append(params, types.NewString(label))
		}
		groups = append(groups, "("+strings.Join(conj, " AND ")+")")
	}
	if len(groups) == 0 {
		p.possible = false
		return
	}
	b.addWhere("(" + strings.Join(groups, " OR ") + ")")
	for _, v := range params {
		b.params = append(b.params, v)
	}
}

// E implements graph.Backend. Like V, it copies an edge once per occurrence
// of its id in q.IDs.
func (g *Graph) E(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	mult := repeatedIDs(q.IDs)
	ids := &idMemo{ids: q.IDs}
	var out []*graph.Element
	for _, em := range g.eligibleEdgeMappings(q) {
		p := g.planEdgeFetch(em, q)
		if !p.possible {
			continue
		}
		g.addEdgeIDRestriction(p, ids)
		if !p.possible {
			continue
		}
		els, err := g.runEdgePlan(ctx, p, p.b.SQL(selectList(p.cols)), p.b.params, q)
		if err != nil {
			return nil, err
		}
		out = appendRepeated(out, els, mult)
	}
	return out, nil
}

// addEndpointRestriction adds the src/dst vertex-id restriction for
// VertexEdges; vids holds the vertex ids.
func (g *Graph) addEndpointRestriction(p *edgePlan, vids *idMemo, dir graph.Direction) {
	meta := g.edgeMeta[p.em]
	switch dir {
	case graph.DirOut:
		p.possible = meta.src.restrict(p.b, vids)
	case graph.DirIn:
		p.possible = meta.dst.restrict(p.b, vids)
	default: // both
		src, dst := newSQLBuilder(""), newSQLBuilder("")
		srcAny := meta.src.where(src, vids.decode(meta.src.codec))
		dstAny := meta.dst.where(dst, vids.decode(meta.dst.codec))
		switch {
		case srcAny && dstAny:
			if len(src.where) == 0 || len(dst.where) == 0 {
				return // one side matches everything
			}
			p.b.addWhere("("+src.where[0]+" OR "+dst.where[0]+")", append(src.params, dst.params...)...)
		case srcAny:
			p.b.where = append(p.b.where, src.where...)
			p.b.params = append(p.b.params, src.params...)
		case dstAny:
			p.b.where = append(p.b.where, dst.where...)
			p.b.params = append(p.b.params, dst.params...)
		default:
			p.possible = false
		}
	}
}

// VertexEdges implements graph.Backend.
func (g *Graph) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	if len(vids) == 0 {
		return nil, nil
	}
	ends, ids := &idMemo{ids: vids}, &idMemo{ids: q.IDs}
	var out []*graph.Element
	for _, em := range g.eligibleEdgeMappings(q) {
		p, sql, params := g.edgeFetch(em, q, ends, ids, dir, "")
		if p == nil {
			continue
		}
		els, err := g.runEdgePlan(ctx, p, sql, params, q)
		if err != nil {
			return nil, err
		}
		// Post-check endpoint membership (the SQL fragment is authoritative,
		// but "matches everything" cases need it).
		for _, el := range els {
			if edgeTouches(el, vids, dir) {
				out = append(out, el)
			}
		}
	}
	return out, nil
}

func edgeTouches(el *graph.Element, vids []string, dir graph.Direction) bool {
	for _, vid := range vids {
		if (dir == graph.DirOut || dir == graph.DirBoth) && el.OutV == vid {
			return true
		}
		if (dir == graph.DirIn || dir == graph.DirBoth) && el.InV == vid {
			return true
		}
	}
	return false
}

// EdgeVertices implements graph.Backend. The result aligns with edges (nil
// when filtered).
func (g *Graph) EdgeVertices(ctx context.Context, edges []*graph.Element, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	result := make([]*graph.Element, len(edges))

	// Group target vertex ids by resolution strategy. The grouping maps are
	// pooled scratch (see evScratch): endpoint resolution runs once per hop
	// on the traversal hot path, and rebuilding three maps per call shows up
	// directly in allocs/op.
	sc := evScratchPool.Get().(*evScratch)
	defer sc.release()
	addTo := func(key string, vm *overlay.VertexMapping, vid string) {
		gr := sc.group(key, vm)
		if !gr.seen[vid] {
			gr.seen[vid] = true
			gr.vids = append(gr.vids, vid)
		}
	}

	for i, e := range edges {
		vid := e.OutV
		if dir == graph.DirIn {
			vid = e.InV
		}
		// A pushed-down id restriction filters the target vertices; the
		// group fetch below rewrites q.IDs to the endpoint ids, so apply
		// the original restriction here.
		if len(q.IDs) > 0 && !slices.Contains(q.IDs, vid) {
			continue
		}
		em, _ := e.Ref.(*overlay.EdgeMapping)

		// Optimization: construct the vertex from the edge itself.
		if em != nil && g.opts.VertexFromEdge {
			meta := g.edgeMeta[em]
			if meta != nil {
				fromEdge := (dir == graph.DirOut && meta.vertexFromEdgeSrc) ||
					(dir == graph.DirIn && meta.vertexFromEdgeDst)
				if fromEdge {
					vtName := em.SrcVTable
					if dir == graph.DirIn {
						vtName = em.DstVTable
					}
					vm := g.topo.VertexByTable(vtName)
					if v, ok := g.vertexFromEdgeElement(vm, e, vid, q); ok {
						if q.Matches(v) {
							result[i] = v
						}
						continue
					}
				}
			}
		}

		// Optimization: pin the vertex table from the overlay declaration.
		var vm *overlay.VertexMapping
		if em != nil && g.opts.SrcDstVertexTables {
			vtName := em.SrcVTable
			if dir == graph.DirIn {
				vtName = em.DstVTable
			}
			if vtName != "" {
				vm = g.topo.VertexByTable(vtName)
			}
		}
		// Optimization: pin by id prefix.
		if vm == nil && g.opts.PrefixedIDPinning {
			if pinned, _, ok := g.topo.VertexForIDPrefix(vid); ok {
				vm = pinned
			}
		}
		if vm != nil {
			addTo("t:"+strings.ToLower(vm.Table), vm, vid)
		} else {
			addTo("*", nil, vid)
		}
	}

	// Resolve each group and index by vertex id. Unrestricted queries go
	// through the version-tagged vertex cache: endpoint resolution is the
	// hottest vertex lookup in multi-hop expansion, and a cached entry is
	// the full vertex, so it answers any cacheable query.
	cacheable := g.cacheableQuery(q) && len(q.IDs) == 0
	version := uint64(0)
	if cacheable {
		version = g.DataVersion()
	}
	byID := sc.byID
	for _, gr := range sc.groups {
		fetch := gr.vids
		if cacheable {
			fetch = fetch[:0:0]
			for _, vid := range gr.vids {
				if el, ok := g.vtxCache.Get(vid, version); ok {
					if el != nil {
						byID[vid] = el
					}
					continue
				}
				fetch = append(fetch, vid)
			}
			if len(fetch) == 0 {
				continue
			}
		}
		q2 := q.Clone()
		q2.IDs = fetch
		if cacheable {
			q2.Projection = nil // fill the cache with full rows
		}
		var els []*graph.Element
		var err error
		if gr.vm != nil {
			els, err = g.fetchVerticesFromTable(ctx, gr.vm, q2)
		} else {
			els, err = g.V(ctx, q2)
		}
		if err != nil {
			return nil, err
		}
		for _, el := range els {
			byID[el.ID] = el
		}
		if cacheable {
			for _, vid := range fetch {
				// A table-pinned fetch only proves absence from that table,
				// so it must not cache nil; the all-tables path may.
				if el := byID[vid]; el != nil || gr.vm == nil {
					g.vtxCache.Put(vid, version, el)
				}
			}
		}
	}

	for i, e := range edges {
		if result[i] != nil {
			continue
		}
		vid := e.OutV
		if dir == graph.DirIn {
			vid = e.InV
		}
		result[i] = byID[vid]
	}
	return result, nil
}

// evGroup collects the endpoint ids that resolve through one strategy
// (table-pinned via vm, or all-tables when vm is nil).
type evGroup struct {
	vm   *overlay.VertexMapping
	vids []string
	seen map[string]bool
}

// evScratch is the pooled per-call grouping state of EdgeVertices. Groups,
// their dedup sets, and the id index are cleared and reused instead of
// reallocated each call; released group structs park on spare with their
// map/slice capacity intact. The element pointers stored in byID escape into
// the result slice before release, so clearing the map never invalidates
// returned data. gr.vids is lent to q.IDs only for the duration of the
// synchronous fetch, which matches the Backend contract (queries are owned
// by the caller for the call).
type evScratch struct {
	groups map[string]*evGroup
	byID   map[string]*graph.Element
	spare  []*evGroup
}

var evScratchPool = sync.Pool{New: func() any {
	return &evScratch{groups: map[string]*evGroup{}, byID: map[string]*graph.Element{}}
}}

func (s *evScratch) group(key string, vm *overlay.VertexMapping) *evGroup {
	gr := s.groups[key]
	if gr == nil {
		if n := len(s.spare); n > 0 {
			gr, s.spare[n-1] = s.spare[n-1], nil
			s.spare = s.spare[:n-1]
		} else {
			gr = &evGroup{seen: map[string]bool{}}
		}
		gr.vm = vm
		s.groups[key] = gr
	}
	return gr
}

func (s *evScratch) release() {
	for k, gr := range s.groups {
		gr.vm = nil
		gr.vids = gr.vids[:0]
		clear(gr.seen)
		s.spare = append(s.spare, gr)
		delete(s.groups, k)
	}
	clear(s.byID)
	evScratchPool.Put(s)
}

// vertexFromEdgeElement constructs the endpoint vertex directly from the
// edge element when all needed vertex properties are present on the edge.
func (g *Graph) vertexFromEdgeElement(vm *overlay.VertexMapping, e *graph.Element, vid string, q *graph.Query) (*graph.Element, bool) {
	if vm == nil {
		return nil, false
	}
	label, ok := vm.FixedLabel()
	if !ok {
		return nil, false
	}
	needed := neededProps(vm.Properties, q)
	props := make(map[string]types.Value, len(needed))
	for _, name := range needed {
		v, ok := e.Props[name]
		if !ok {
			return nil, false // not fetched on the edge; fall back to SQL
		}
		props[name] = v
	}
	return &graph.Element{
		ID:    vid,
		Label: label,
		Props: props,
		Table: vm.Table,
		Ref:   vm,
	}, true
}

// --- Aggregates ---

// aggSelect renders the SQL aggregate expression(s) for one table. mean
// needs both COUNT and SUM to combine across tables.
func aggSelect(agg graph.Agg) (string, bool) {
	switch agg.Kind {
	case graph.AggCount:
		return "COUNT(*)", true
	case graph.AggSum:
		return "COUNT(" + agg.Key + "), SUM(" + agg.Key + ")", true
	case graph.AggMean:
		return "COUNT(" + agg.Key + "), SUM(" + agg.Key + ")", true
	case graph.AggMin:
		return "MIN(" + agg.Key + ")", true
	case graph.AggMax:
		return "MAX(" + agg.Key + ")", true
	default:
		return "", false
	}
}

// aggCombiner accumulates per-table aggregate results.
type aggCombiner struct {
	agg   graph.Agg
	count int64
	sum   float64
	min   types.Value
	max   types.Value
	first bool
}

func newAggCombiner(agg graph.Agg) *aggCombiner { return &aggCombiner{agg: agg, first: true} }

func (c *aggCombiner) add(row []types.Value) error {
	switch c.agg.Kind {
	case graph.AggCount:
		n, _ := row[0].Int()
		c.count += n
	case graph.AggSum, graph.AggMean:
		n, _ := row[0].Int()
		c.count += n
		if !row[1].IsNull() {
			f, ok := row[1].Float()
			if !ok {
				return fmt.Errorf("db2graph: non-numeric SUM result")
			}
			c.sum += f
		}
	case graph.AggMin:
		if !row[0].IsNull() && (c.first || types.Compare(row[0], c.min) < 0) {
			c.min = row[0]
			c.first = false
		}
	case graph.AggMax:
		if !row[0].IsNull() && (c.first || types.Compare(row[0], c.max) > 0) {
			c.max = row[0]
			c.first = false
		}
	}
	return nil
}

func (c *aggCombiner) result() types.Value {
	switch c.agg.Kind {
	case graph.AggCount:
		return types.NewInt(c.count)
	case graph.AggSum:
		if c.count == 0 {
			return types.Null
		}
		return types.NewFloat(c.sum)
	case graph.AggMean:
		if c.count == 0 {
			return types.Null
		}
		return types.NewFloat(c.sum / float64(c.count))
	case graph.AggMin:
		if c.first {
			return types.Null
		}
		return c.min
	case graph.AggMax:
		if c.first {
			return types.Null
		}
		return c.max
	default:
		return types.Null
	}
}

// runAggSQL executes one aggregated statement and feeds the combiner.
func (g *Graph) runAggSQL(ctx context.Context, sql, table string, eqCols []string, params []any, comb *aggCombiner) error {
	rows, err := g.dialect.Query(ctx, sql, table, eqCols, params...)
	if err != nil {
		return err
	}
	if rows.Len() != 1 {
		return fmt.Errorf("db2graph: aggregate query returned %d rows", rows.Len())
	}
	return comb.add(rows.Row(0))
}

// AggV implements graph.Backend: pushes the aggregate into SQL when every
// restriction was translatable, otherwise falls back to materialization.
func (g *Graph) AggV(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return types.Null, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	sel, ok := aggSelect(agg)
	if !ok {
		return types.Null, fmt.Errorf("db2graph: unsupported aggregate %v", agg.Kind)
	}
	if repeatedIDs(q.IDs) != nil {
		// SQL would see each repeated id once; V emits every occurrence.
		return g.aggVFallback(ctx, q, agg)
	}
	comb := newAggCombiner(agg)
	ids := &idMemo{ids: q.IDs}
	for _, vm := range g.eligibleVertexMappings(q) {
		if agg.Key != "" && !vm.HasProperty(agg.Key) {
			continue // no contribution from a table lacking the property
		}
		p, sql, params := g.vertexFetch(vm, q, ids, sel)
		if p == nil {
			continue
		}
		if !p.b.fullyPushed {
			return g.aggVFallback(ctx, q, agg)
		}
		if err := g.runAggSQL(ctx, sql, vm.Table, p.b.eqCols, params, comb); err != nil {
			return types.Null, err
		}
	}
	return comb.result(), nil
}

func (g *Graph) aggVFallback(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := g.V(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

func (g *Graph) aggEFallback(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := g.E(ctx, q)
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggE implements graph.Backend.
func (g *Graph) AggE(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return types.Null, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	sel, ok := aggSelect(agg)
	if !ok {
		return types.Null, fmt.Errorf("db2graph: unsupported aggregate %v", agg.Kind)
	}
	if repeatedIDs(q.IDs) != nil {
		// SQL would see each repeated id once; E emits every occurrence.
		return g.aggEFallback(ctx, q, agg)
	}
	comb := newAggCombiner(agg)
	ids := &idMemo{ids: q.IDs}
	for _, em := range g.eligibleEdgeMappings(q) {
		if agg.Key != "" && !em.HasProperty(agg.Key) {
			continue
		}
		p := g.planEdgeFetch(em, q)
		if !p.possible {
			continue
		}
		g.addEdgeIDRestriction(p, ids)
		if !p.possible {
			continue
		}
		if !p.b.fullyPushed {
			return g.aggEFallback(ctx, q, agg)
		}
		if err := g.runAggSQL(ctx, p.b.SQL(sel), em.Table, p.b.eqCols, p.b.params, comb); err != nil {
			return types.Null, err
		}
	}
	return comb.result(), nil
}

// AggVertexEdges implements graph.Backend: the countLinks fast path —
// SELECT COUNT(*) FROM EdgeTable WHERE src_v IN (...) AND ... in one round
// trip per eligible table. An unrestricted count first takes every vertex
// whose adjacency group is cached (countFromCache) and sends only the
// rest to SQL. SQL IN sees a repeated id once, so the ids go in layers:
// every distinct id, then those occurring at least twice, and so on; the
// layers' counts and sums add up, and min and max need only the first.
func (g *Graph) AggVertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return types.Null, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	sel, ok := aggSelect(agg)
	if !ok {
		return types.Null, fmt.Errorf("db2graph: unsupported aggregate %v", agg.Kind)
	}
	comb := newAggCombiner(agg)
	ids, occ := distinctIDs(vids)
	if agg.Kind == graph.AggCount && agg.Key == "" {
		ids, occ, comb.count = g.countFromCache(ids, occ, dir, q)
	}
	if agg.Kind == graph.AggMin || agg.Kind == graph.AggMax {
		occ = nil
	}
	edgeIDs := &idMemo{ids: q.IDs}
	for len(ids) > 0 {
		ends := &idMemo{ids: ids}
		for _, em := range g.eligibleEdgeMappings(q) {
			if agg.Key != "" && !em.HasProperty(agg.Key) {
				continue
			}
			p, sql, params := g.edgeFetch(em, q, ends, edgeIDs, dir, sel)
			if p == nil {
				continue
			}
			if !p.b.fullyPushed || dir == graph.DirBoth {
				// DirBoth can double-count self-referencing rows in SQL; use the
				// materialized path for full fidelity.
				els, err := g.VertexEdges(ctx, vids, dir, q)
				if err != nil {
					return types.Null, err
				}
				return graph.AggregateVertexEdges(els, vids, dir, agg)
			}
			if err := g.runAggSQL(ctx, sql, em.Table, p.b.eqCols, params, comb); err != nil {
				return types.Null, err
			}
		}
		ids, occ = nextLayer(ids, occ)
	}
	return comb.result(), nil
}

// distinctIDs returns the distinct ids of vids in first-appearance order
// and, when some repeat, how often each occurs (occ is nil otherwise, and
// ids is vids).
func distinctIDs(vids []string) (ids []string, occ []int) {
	rep := repeatedIDs(vids)
	if rep == nil {
		return vids, nil
	}
	ids = make([]string, 0, len(rep))
	occ = make([]int, 0, len(rep))
	for _, id := range vids {
		if n := rep[id]; n > 0 {
			ids = append(ids, id)
			occ = append(occ, n)
			rep[id] = 0
		}
	}
	return ids, occ
}

// nextLayer keeps, in place, the ids that occur once more than the layer
// just counted, each with one occurrence fewer; nil occ has one layer.
func nextLayer(ids []string, occ []int) ([]string, []int) {
	k := 0
	for i := range occ {
		if occ[i] > 1 {
			ids[k], occ[k] = ids[i], occ[i]-1
			k++
		}
	}
	return ids[:k], occ[:k]
}

var _ graph.Backend = (*Graph)(nil)

// Stats returns the dialect's tracked SQL patterns — useful to observe the
// statement cache and feed the index advisor.
func (g *Graph) Stats() []PatternStat { return g.dialect.Patterns() }
