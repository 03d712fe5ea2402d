package plan

import (
	"fmt"
	"strings"

	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/exec"
	"db2graph/internal/sql/parser"
	"db2graph/internal/sql/storage"
	"db2graph/internal/sql/types"
)

// Resolver supplies catalog and storage lookups to the planner. The engine
// package implements it.
type Resolver interface {
	// LookupTable returns the storage and schema for a base table.
	LookupTable(name string) (*storage.Table, *catalog.TableSchema, bool)
	// LookupView returns a view definition.
	LookupView(name string) (*catalog.View, bool)
	// TableIndexes lists the secondary indexes on a table.
	TableIndexes(name string) []*catalog.Index
	// HasTableFunc reports whether a table function is registered.
	HasTableFunc(name string) bool
}

const maxViewDepth = 16

// Select plans a SELECT statement into an executable operator tree.
func Select(r Resolver, sel *parser.SelectStmt) (exec.Node, error) {
	p := &planner{res: r}
	return p.planSelect(sel, 0)
}

// CompileRowExpr compiles an expression against a single table's schema,
// for use by the engine's UPDATE/DELETE paths. The returned closure
// evaluates over a storage row of that table.
func CompileRowExpr(schema *catalog.TableSchema, e parser.Expr) (exec.ExprFn, error) {
	b := &binder{env: tableColumns(schema, schema.Name)}
	fn, _, err := b.compile(e)
	return fn, err
}

// CompileConstExpr compiles an expression that may not reference any
// columns (literals, parameters, arithmetic over them).
func CompileConstExpr(e parser.Expr) (exec.ExprFn, error) {
	b := &binder{}
	fn, _, err := b.compile(e)
	return fn, err
}

type planner struct {
	res Resolver
}

// rel is a node in the FROM-tree skeleton carrying enough information to
// push conjuncts down before physical assembly.
type rel struct {
	cols []exec.Column // output schema of this subtree
	lo   int           // global column offset of the first column

	// Exactly one of leaf/opaque/join is set.
	leaf   *leafRel
	opaque exec.Node
	join   *joinRel

	conjuncts []parser.Expr // predicates assigned to this subtree
}

type leafRel struct {
	table  *storage.Table
	schema *catalog.TableSchema
	alias  string
	asOf   parser.Expr
}

type joinRel struct {
	kind        parser.JoinKind
	left, right *rel
	on          parser.Expr
}

func (p *planner) planSelect(sel *parser.SelectStmt, depth int) (exec.Node, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("sql: view nesting too deep (cycle?)")
	}

	// 1. FROM skeleton.
	var root *rel
	if sel.From != nil {
		var err error
		root, err = p.buildRel(sel.From, 0, depth)
		if err != nil {
			return nil, err
		}
	} else {
		// FROM-less SELECT: one empty row.
		root = &rel{opaque: &exec.ValuesNode{Rows: [][]exec.ExprFn{{}}}}
	}

	// 2. Distribute WHERE conjuncts.
	globalBinder := &binder{env: root.cols}
	if sel.Where != nil {
		if containsAggregate(sel.Where) {
			return nil, fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		for _, c := range splitConjuncts(sel.Where) {
			cols, err := globalBinder.exprColumns(c)
			if err != nil {
				return nil, err
			}
			assignConjunct(root, c, cols)
		}
	}

	// 3. Assemble the physical FROM plan.
	input, err := p.assemble(root)
	if err != nil {
		return nil, err
	}
	inBinder := &binder{env: input.Columns()}

	// 4. Aggregation analysis.
	hasAgg := len(sel.GroupBy) > 0 || containsAggregate(sel.Having)
	for _, it := range sel.Items {
		if it.Expr != nil && containsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, ob := range sel.OrderBy {
		if containsAggregate(ob.Expr) {
			hasAgg = true
		}
	}

	// Expand stars into explicit items.
	items, err := expandStars(sel.Items, input.Columns(), hasAgg)
	if err != nil {
		return nil, err
	}

	var projInput exec.Node
	var projBinder *binder
	var rewrite func(parser.Expr) (parser.Expr, error)

	if hasAgg {
		agg, postEnv, rw, err := p.buildAggregate(sel, items, input, inBinder)
		if err != nil {
			return nil, err
		}
		projInput = agg
		projBinder = &binder{env: postEnv}
		rewrite = rw

		if sel.Having != nil {
			he, err := rw(sel.Having)
			if err != nil {
				return nil, err
			}
			fn, _, err := projBinder.compile(he)
			if err != nil {
				return nil, err
			}
			projInput = &exec.FilterNode{Child: projInput, Pred: fn}
		}
	} else {
		if sel.Having != nil {
			return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
		}
		projInput = input
		projBinder = inBinder
		rewrite = func(e parser.Expr) (parser.Expr, error) { return e, nil }
	}

	// 5. Projection (+ hidden ORDER BY columns).
	projExprs := make([]exec.ExprFn, 0, len(items)+len(sel.OrderBy))
	projCols := make([]exec.Column, 0, len(items)+len(sel.OrderBy))
	for _, it := range items {
		re, err := rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		fn, kind, err := projBinder.compile(re)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, fn)
		projCols = append(projCols, exec.Column{Name: itemName(it), Type: kind})
	}
	visible := len(projCols)

	// ORDER BY keys: prefer matching an output column by name; otherwise
	// compute a hidden column.
	var sortKeys []exec.SortKey
	for _, ob := range sel.OrderBy {
		if col, ok := matchOutputColumn(ob.Expr, projCols[:visible]); ok {
			sortKeys = append(sortKeys, exec.SortKey{Col: col, Desc: ob.Desc})
			continue
		}
		if sel.Distinct {
			return nil, fmt.Errorf("sql: ORDER BY expressions must appear in the select list when DISTINCT is used")
		}
		re, err := rewrite(ob.Expr)
		if err != nil {
			return nil, err
		}
		fn, kind, err := projBinder.compile(re)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, fn)
		projCols = append(projCols, exec.Column{Name: fmt.Sprintf("$order%d", len(sortKeys)), Type: kind})
		sortKeys = append(sortKeys, exec.SortKey{Col: len(projCols) - 1, Desc: ob.Desc})
	}

	var node exec.Node = &exec.ProjectNode{Child: projInput, Exprs: projExprs, Cols: projCols}

	if sel.Distinct {
		node = &exec.DistinctNode{Child: node, Width: visible}
	}
	if len(sortKeys) > 0 {
		node = &exec.SortNode{Child: node, Keys: sortKeys}
	}
	if len(projCols) > visible {
		node = &exec.CutNode{Child: node, Width: visible, Cols: projCols[:visible]}
	}
	if sel.Limit >= 0 {
		node = &exec.LimitNode{Child: node, N: sel.Limit}
	}
	return node, nil
}

// itemName derives the output column name of a select item.
func itemName(it parser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch x := it.Expr.(type) {
	case *parser.ColumnRef:
		return x.Name
	case *parser.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return "expr"
	}
}

// matchOutputColumn resolves a bare column reference against the output
// schema (by alias or column name).
func matchOutputColumn(e parser.Expr, cols []exec.Column) (int, bool) {
	cr, ok := e.(*parser.ColumnRef)
	if !ok || cr.Qualifier != "" {
		return 0, false
	}
	for i, c := range cols {
		if strings.EqualFold(c.Name, cr.Name) {
			return i, true
		}
	}
	return 0, false
}

// expandStars replaces * and qualifier.* items with explicit column refs.
func expandStars(items []parser.SelectItem, env []exec.Column, hasAgg bool) ([]parser.SelectItem, error) {
	var out []parser.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		if hasAgg {
			return nil, fmt.Errorf("sql: * cannot be combined with GROUP BY or aggregates")
		}
		matched := false
		for _, c := range env {
			if it.StarQualifier != "" && !strings.EqualFold(c.Qualifier, it.StarQualifier) {
				continue
			}
			matched = true
			out = append(out, parser.SelectItem{
				Expr:  &parser.ColumnRef{Qualifier: c.Qualifier, Name: c.Name},
				Alias: c.Name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("sql: unknown table %q in %s.*", it.StarQualifier, it.StarQualifier)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	return out, nil
}

// buildAggregate constructs the AggregateNode and returns the post-aggregate
// environment plus an expression rewriter mapping aggregate calls and
// GROUP BY expressions to post-aggregate columns.
func (p *planner) buildAggregate(sel *parser.SelectStmt, items []parser.SelectItem, input exec.Node, inBinder *binder) (exec.Node, []exec.Column, func(parser.Expr) (parser.Expr, error), error) {
	type aggEntry struct {
		key  string
		spec exec.AggSpec
		kind types.Kind
	}
	var (
		groupKeys []string
		groupFns  []exec.ExprFn
		groupCols []exec.Column
		aggs      []aggEntry
	)
	for _, g := range sel.GroupBy {
		fn, kind, err := inBinder.compile(g)
		if err != nil {
			return nil, nil, nil, err
		}
		groupKeys = append(groupKeys, exprKey(g))
		groupFns = append(groupFns, fn)
		name := "group"
		if cr, ok := g.(*parser.ColumnRef); ok {
			name = cr.Name
		}
		groupCols = append(groupCols, exec.Column{Name: name, Type: kind})
	}

	// Collect aggregate calls from items, HAVING, and ORDER BY.
	addAgg := func(fc *parser.FuncCall) error {
		key := exprKey(fc)
		for _, a := range aggs {
			if a.key == key {
				return nil
			}
		}
		spec := exec.AggSpec{Distinct: fc.Distinct}
		kind := types.KindFloat
		switch fc.Name {
		case "COUNT":
			kind = types.KindInt
			if fc.Star {
				spec.Kind = exec.AggCountStar
			} else {
				spec.Kind = exec.AggCount
			}
		case "SUM":
			spec.Kind = exec.AggSum
		case "AVG":
			spec.Kind = exec.AggAvg
		case "MIN":
			spec.Kind = exec.AggMin
		case "MAX":
			spec.Kind = exec.AggMax
		}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return fmt.Errorf("sql: aggregate %s expects one argument", fc.Name)
			}
			fn, argKind, err := inBinder.compile(fc.Args[0])
			if err != nil {
				return err
			}
			spec.Arg = fn
			if spec.Kind == exec.AggMin || spec.Kind == exec.AggMax {
				kind = argKind
			}
		}
		aggs = append(aggs, aggEntry{key: key, spec: spec, kind: kind})
		return nil
	}
	var collect func(e parser.Expr) error
	collect = func(e parser.Expr) error {
		switch x := e.(type) {
		case nil:
			return nil
		case *parser.FuncCall:
			if x.IsAggregate() {
				return addAgg(x)
			}
			for _, a := range x.Args {
				if err := collect(a); err != nil {
					return err
				}
			}
			return nil
		case *parser.UnaryExpr:
			return collect(x.Expr)
		case *parser.BinaryExpr:
			if err := collect(x.Left); err != nil {
				return err
			}
			return collect(x.Right)
		case *parser.InExpr:
			if err := collect(x.Expr); err != nil {
				return err
			}
			for _, le := range x.List {
				if err := collect(le); err != nil {
					return err
				}
			}
			return nil
		case *parser.IsNullExpr:
			return collect(x.Expr)
		case *parser.LikeExpr:
			if err := collect(x.Expr); err != nil {
				return err
			}
			return collect(x.Pattern)
		case *parser.BetweenExpr:
			if err := collect(x.Expr); err != nil {
				return err
			}
			if err := collect(x.Lo); err != nil {
				return err
			}
			return collect(x.Hi)
		default:
			return nil
		}
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := collect(sel.Having); err != nil {
		return nil, nil, nil, err
	}
	for _, ob := range sel.OrderBy {
		if err := collect(ob.Expr); err != nil {
			return nil, nil, nil, err
		}
	}

	// Post-aggregate environment: group keys then aggregates.
	postEnv := make([]exec.Column, 0, len(groupCols)+len(aggs))
	postEnv = append(postEnv, groupCols...)
	specs := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = a.spec
		postEnv = append(postEnv, exec.Column{Name: fmt.Sprintf("$agg%d", i), Type: a.kind})
	}

	var aggNode exec.Node = &exec.AggregateNode{
		Child:   input,
		GroupBy: groupFns,
		Aggs:    specs,
		Cols:    postEnv,
		Global:  len(sel.GroupBy) == 0,
	}
	// A lone COUNT(*) over a bare key probe counts postings, not rows.
	if scan, ok := input.(*exec.ScanNode); ok && len(sel.GroupBy) == 0 && len(specs) == 1 &&
		specs[0].Kind == exec.AggCountStar && scan.Filter == nil &&
		(scan.Access == exec.AccessPK || scan.Access == exec.AccessIndex) {
		scan.CountOnly, scan.Cols = true, postEnv
		aggNode = scan
	}

	// Rewriter: aggregate call -> $aggN column; group-by-equal expr -> key
	// column; anything else must decompose into those.
	var rewrite func(e parser.Expr) (parser.Expr, error)
	rewrite = func(e parser.Expr) (parser.Expr, error) {
		if e == nil {
			return nil, nil
		}
		key := exprKey(e)
		for i, gk := range groupKeys {
			if key == gk {
				return &parser.ColumnRef{Name: groupCols[i].Name}, nil
			}
		}
		if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
			for i, a := range aggs {
				if a.key == key {
					return &parser.ColumnRef{Name: fmt.Sprintf("$agg%d", i)}, nil
				}
			}
			return nil, fmt.Errorf("sql: internal: aggregate %s not collected", fc.Name)
		}
		switch x := e.(type) {
		case *parser.Literal, *parser.Param:
			return e, nil
		case *parser.ColumnRef:
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", refName(x.Qualifier, x.Name))
		case *parser.UnaryExpr:
			in, err := rewrite(x.Expr)
			if err != nil {
				return nil, err
			}
			return &parser.UnaryExpr{Op: x.Op, Expr: in}, nil
		case *parser.BinaryExpr:
			l, err := rewrite(x.Left)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(x.Right)
			if err != nil {
				return nil, err
			}
			return &parser.BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
		case *parser.InExpr:
			in, err := rewrite(x.Expr)
			if err != nil {
				return nil, err
			}
			list := make([]parser.Expr, len(x.List))
			for i, le := range x.List {
				if list[i], err = rewrite(le); err != nil {
					return nil, err
				}
			}
			return &parser.InExpr{Expr: in, List: list, Not: x.Not}, nil
		case *parser.IsNullExpr:
			in, err := rewrite(x.Expr)
			if err != nil {
				return nil, err
			}
			return &parser.IsNullExpr{Expr: in, Not: x.Not}, nil
		case *parser.FuncCall:
			args := make([]parser.Expr, len(x.Args))
			var err error
			for i, a := range x.Args {
				if args[i], err = rewrite(a); err != nil {
					return nil, err
				}
			}
			return &parser.FuncCall{Name: x.Name, Args: args}, nil
		default:
			return nil, fmt.Errorf("sql: unsupported expression with aggregates")
		}
	}
	// Group-key output columns may shadow each other if two GROUP BY columns
	// share a name; disambiguate by index-qualified names when needed.
	seen := map[string]bool{}
	for i := range groupCols {
		n := strings.ToLower(groupCols[i].Name)
		if seen[n] {
			groupCols[i].Name = fmt.Sprintf("%s$%d", groupCols[i].Name, i)
			postEnv[i].Name = groupCols[i].Name
		}
		seen[n] = true
	}
	return aggNode, postEnv, rewrite, nil
}

// --- FROM skeleton construction ---

func tableColumns(schema *catalog.TableSchema, qualifier string) []exec.Column {
	cols := make([]exec.Column, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = exec.Column{Qualifier: qualifier, Name: c.Name, Type: c.Type}
	}
	return cols
}

func (p *planner) buildRel(t parser.TableRef, offset, depth int) (*rel, error) {
	switch x := t.(type) {
	case *parser.BaseTable:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		if tbl, schema, ok := p.res.LookupTable(x.Name); ok {
			return &rel{
				cols: tableColumns(schema, alias),
				lo:   offset,
				leaf: &leafRel{table: tbl, schema: schema, alias: alias, asOf: x.AsOf},
			}, nil
		}
		if view, ok := p.res.LookupView(x.Name); ok {
			if x.AsOf != nil {
				return nil, fmt.Errorf("sql: FOR SYSTEM_TIME AS OF is not supported on views")
			}
			return p.buildViewRel(view, alias, offset, depth)
		}
		return nil, fmt.Errorf("sql: unknown table or view %q", x.Name)

	case *parser.TableFunc:
		if !p.res.HasTableFunc(x.Name) {
			return nil, fmt.Errorf("sql: unknown table function %q", x.Name)
		}
		cols := make([]exec.Column, len(x.Columns))
		for i, c := range x.Columns {
			cols[i] = exec.Column{Qualifier: x.Alias, Name: c.Name, Type: c.Type}
		}
		argB := &binder{}
		args := make([]exec.ExprFn, len(x.Args))
		for i, a := range x.Args {
			fn, _, err := argB.compile(a)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		node := &exec.TableFuncNode{Name: x.Name, Args: args, Cols: cols}
		return &rel{cols: cols, lo: offset, opaque: node}, nil

	case *parser.SubqueryRef:
		inner, err := p.planSelect(x.Select, depth+1)
		if err != nil {
			return nil, err
		}
		renamed := renameColumns(inner, x.Alias, nil)
		return &rel{cols: renamed.Columns(), lo: offset, opaque: renamed}, nil

	case *parser.Join:
		left, err := p.buildRel(x.Left, offset, depth)
		if err != nil {
			return nil, err
		}
		right, err := p.buildRel(x.Right, offset+len(left.cols), depth)
		if err != nil {
			return nil, err
		}
		cols := append(append([]exec.Column{}, left.cols...), right.cols...)
		return &rel{
			cols: cols,
			lo:   offset,
			join: &joinRel{kind: x.Kind, left: left, right: right, on: x.On},
		}, nil

	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", t)
	}
}

func (p *planner) buildViewRel(view *catalog.View, alias string, offset, depth int) (*rel, error) {
	stmt, err := parser.Parse(view.Query)
	if err != nil {
		return nil, fmt.Errorf("sql: view %s: %w", view.Name, err)
	}
	sel, ok := stmt.(*parser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: view %s is not a SELECT", view.Name)
	}
	inner, err := p.planSelect(sel, depth+1)
	if err != nil {
		return nil, fmt.Errorf("sql: view %s: %w", view.Name, err)
	}
	if len(view.Columns) > 0 && len(view.Columns) != len(inner.Columns()) {
		return nil, fmt.Errorf("sql: view %s declares %d columns but its query produces %d",
			view.Name, len(view.Columns), len(inner.Columns()))
	}
	renamed := renameColumns(inner, alias, view.Columns)
	return &rel{cols: renamed.Columns(), lo: offset, opaque: renamed}, nil
}

// renameNode relabels the output schema of a child without copying rows.
type renameNode struct {
	child exec.Node
	cols  []exec.Column
}

func (r *renameNode) Columns() []exec.Column       { return r.cols }
func (r *renameNode) Open(ctx *exec.Context) error { return r.child.Open(ctx) }
func (r *renameNode) Next() (storage.Row, error)   { return r.child.Next() }
func (r *renameNode) Close() error                 { return r.child.Close() }
func renameColumns(n exec.Node, qualifier string, names []string) exec.Node {
	src := n.Columns()
	cols := make([]exec.Column, len(src))
	for i, c := range src {
		name := c.Name
		if len(names) > 0 {
			name = names[i]
		}
		cols[i] = exec.Column{Qualifier: qualifier, Name: name, Type: c.Type}
	}
	return &renameNode{child: n, cols: cols}
}

// assignConjunct pushes a WHERE conjunct to the smallest subtree whose
// column range covers all referenced columns.
func assignConjunct(r *rel, c parser.Expr, cols []int) {
	for {
		if r.join == nil {
			break
		}
		left, right := r.join.left, r.join.right
		// Pushing below the NULL-producing side of a LEFT JOIN would change
		// semantics; only push into the preserved (left) side.
		if within(cols, left.lo, left.lo+len(left.cols)) {
			r = left
			continue
		}
		if r.join.kind != parser.JoinLeft && within(cols, right.lo, right.lo+len(right.cols)) {
			r = right
			continue
		}
		break
	}
	r.conjuncts = append(r.conjuncts, c)
}

func within(cols []int, lo, hi int) bool {
	for _, c := range cols {
		if c < lo || c >= hi {
			return false
		}
	}
	return true
}

// --- Physical assembly ---

func (p *planner) assemble(r *rel) (exec.Node, error) {
	switch {
	case r.leaf != nil:
		return p.assembleLeaf(r)
	case r.opaque != nil:
		return p.applyResidual(r.opaque, r.cols, r.conjuncts)
	case r.join != nil:
		return p.assembleJoin(r)
	default:
		return nil, fmt.Errorf("sql: internal: empty relation")
	}
}

func (p *planner) applyResidual(n exec.Node, env []exec.Column, conjuncts []parser.Expr) (exec.Node, error) {
	if len(conjuncts) == 0 {
		return n, nil
	}
	b := &binder{env: env}
	pred, err := compileConjunction(b, conjuncts)
	if err != nil {
		return nil, err
	}
	return &exec.FilterNode{Child: n, Pred: pred}, nil
}

func compileConjunction(b *binder, conjuncts []parser.Expr) (exec.ExprFn, error) {
	fns := make([]exec.ExprFn, len(conjuncts))
	for i, c := range conjuncts {
		fn, _, err := b.compile(c)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	if len(fns) == 1 {
		return fns[0], nil
	}
	return func(row []types.Value, params *exec.Params) (types.Value, error) {
		for _, fn := range fns {
			v, err := fn(row, params)
			if err != nil {
				return types.Null, err
			}
			if !v.Bool() {
				return types.NewBool(false), nil
			}
		}
		return types.NewBool(true), nil
	}, nil
}

func (p *planner) assembleJoin(r *rel) (exec.Node, error) {
	j := r.join
	left, err := p.assemble(j.left)
	if err != nil {
		return nil, err
	}
	right, err := p.assemble(j.right)
	if err != nil {
		return nil, err
	}
	env := append(append([]exec.Column{}, left.Columns()...), right.Columns()...)
	b := &binder{env: env}
	leftW := len(left.Columns())

	// Candidate predicates: ON conjuncts plus WHERE conjuncts assigned here
	// (the latter only for inner/cross joins; LEFT JOIN filters stay above).
	var candidates []parser.Expr
	if j.on != nil {
		candidates = append(candidates, splitConjuncts(j.on)...)
	}
	var above []parser.Expr
	if j.kind == parser.JoinLeft {
		above = r.conjuncts
	} else {
		candidates = append(candidates, r.conjuncts...)
	}

	var leftKeys, rightKeys []exec.ExprFn
	var residual []parser.Expr
	lb := &binder{env: left.Columns()}
	rb := &binder{env: right.Columns()}
	for _, c := range candidates {
		le, re, ok := equiJoinSides(b, c, leftW)
		if !ok {
			residual = append(residual, c)
			continue
		}
		lfn, _, err := lb.compile(le)
		if err != nil {
			return nil, err
		}
		// Compile the right side against the right env; its column indexes
		// are right-relative because equiJoinSides verified containment.
		rfn, _, err := rb.compile(re)
		if err != nil {
			return nil, err
		}
		leftKeys = append(leftKeys, lfn)
		rightKeys = append(rightKeys, rfn)
	}

	kind := exec.JoinInner
	if j.kind == parser.JoinLeft {
		kind = exec.JoinLeft
	}

	var node exec.Node
	if len(leftKeys) > 0 {
		var resFn exec.ExprFn
		if len(residual) > 0 {
			resFn, err = compileConjunction(b, residual)
			if err != nil {
				return nil, err
			}
		}
		node = &exec.HashJoinNode{
			Left: left, Right: right,
			LeftKeys: leftKeys, RightKeys: rightKeys,
			Kind: kind, Residual: resFn,
		}
	} else {
		var pred exec.ExprFn
		if len(residual) > 0 {
			pred, err = compileConjunction(b, residual)
			if err != nil {
				return nil, err
			}
		}
		node = &exec.NestedLoopJoinNode{Left: left, Right: right, Pred: pred, Kind: kind}
	}
	return p.applyResidual(node, env, above)
}

// equiJoinSides decomposes `e` as an equality whose two operands reference
// columns exclusively from the left and right inputs respectively. The
// returned right expression keeps its column names (they bind against the
// right env).
func equiJoinSides(b *binder, e parser.Expr, leftW int) (parser.Expr, parser.Expr, bool) {
	be, ok := e.(*parser.BinaryExpr)
	if !ok || be.Op != parser.OpEq {
		return nil, nil, false
	}
	lcols, err := b.exprColumns(be.Left)
	if err != nil || len(lcols) == 0 {
		return nil, nil, false
	}
	rcols, err := b.exprColumns(be.Right)
	if err != nil || len(rcols) == 0 {
		return nil, nil, false
	}
	lLeft := within(lcols, 0, leftW)
	rRight := within(rcols, leftW, 1<<30)
	if lLeft && rRight {
		return be.Left, be.Right, true
	}
	lRight := within(lcols, leftW, 1<<30)
	rLeft := within(rcols, 0, leftW)
	if lRight && rLeft {
		return be.Right, be.Left, true
	}
	return nil, nil, false
}

// --- Leaf assembly with index selection ---

// conjunctClass is the planner's classification of one pushed conjunct.
type conjunctClass struct {
	expr parser.Expr
	// eqCol/eqVal set for `col = const-expr`.
	eqCol int
	eqVal parser.Expr
	// inCol/inVals set for `col IN (const exprs)`.
	inCol  int
	inVals []parser.Expr
	// rangeCol/rangeOp/rangeVal set for col </<=/>/>= const-expr.
	rangeCol int
	rangeOp  parser.BinaryOp
	rangeVal parser.Expr
	kind     int // 0 other, 1 eq, 2 in, 3 range
}

func (p *planner) assembleLeaf(r *rel) (exec.Node, error) {
	leaf := r.leaf
	b := &binder{env: r.cols}
	constB := &binder{} // value expressions must be column-free

	scan := &exec.ScanNode{Table: leaf.table, Cols: r.cols, Access: exec.AccessFull, InParam: -1}

	// Temporal scans bypass indexes (indexes describe current data only).
	if leaf.asOf != nil {
		fn, err := CompileConstExpr(leaf.asOf)
		if err != nil {
			return nil, fmt.Errorf("sql: AS OF expression must be constant: %w", err)
		}
		scan.Access = exec.AccessAsOf
		scan.AsOf = fn
		if len(r.conjuncts) > 0 {
			pred, err := compileConjunction(b, r.conjuncts)
			if err != nil {
				return nil, err
			}
			scan.Filter = pred
		}
		return scan, nil
	}

	// Classify conjuncts.
	classes := make([]conjunctClass, 0, len(r.conjuncts))
	for _, c := range r.conjuncts {
		classes = append(classes, classifyConjunct(b, constB, c))
	}

	consumed := p.chooseAccessPath(leaf, r, scan, classes)

	// Residual filter: everything not consumed by the access path.
	var residual []parser.Expr
	for i, cl := range classes {
		if !consumed[i] {
			residual = append(residual, cl.expr)
		}
	}
	if len(residual) > 0 {
		pred, err := compileConjunction(b, residual)
		if err != nil {
			return nil, err
		}
		scan.Filter = pred
	}
	return scan, nil
}

func classifyConjunct(b, constB *binder, c parser.Expr) conjunctClass {
	out := conjunctClass{expr: c, kind: 0}
	isConst := func(e parser.Expr) bool {
		cols, err := b.exprColumns(e)
		return err == nil && len(cols) == 0
	}
	colOf := func(e parser.Expr) (int, bool) {
		cr, ok := e.(*parser.ColumnRef)
		if !ok {
			return 0, false
		}
		i, err := b.lookup(cr.Qualifier, cr.Name)
		if err != nil {
			return 0, false
		}
		return i, true
	}
	switch x := c.(type) {
	case *parser.BinaryExpr:
		switch x.Op {
		case parser.OpEq:
			if col, ok := colOf(x.Left); ok && isConst(x.Right) {
				out.kind, out.eqCol, out.eqVal = 1, col, x.Right
			} else if col, ok := colOf(x.Right); ok && isConst(x.Left) {
				out.kind, out.eqCol, out.eqVal = 1, col, x.Left
			}
		case parser.OpLt, parser.OpLe, parser.OpGt, parser.OpGe:
			if col, ok := colOf(x.Left); ok && isConst(x.Right) {
				out.kind, out.rangeCol, out.rangeOp, out.rangeVal = 3, col, x.Op, x.Right
			} else if col, ok := colOf(x.Right); ok && isConst(x.Left) {
				// Flip: const OP col  ==>  col flipped-OP const.
				flip := map[parser.BinaryOp]parser.BinaryOp{
					parser.OpLt: parser.OpGt, parser.OpLe: parser.OpGe,
					parser.OpGt: parser.OpLt, parser.OpGe: parser.OpLe,
				}
				out.kind, out.rangeCol, out.rangeOp, out.rangeVal = 3, col, flip[x.Op], x.Left
			}
		}
	case *parser.InExpr:
		if x.Not {
			break
		}
		if col, ok := colOf(x.Expr); ok {
			allConst := true
			for _, le := range x.List {
				if !isConst(le) {
					allConst = false
					break
				}
			}
			if allConst {
				out.kind, out.inCol, out.inVals = 2, col, x.List
			}
		}
	case *parser.BetweenExpr:
		// Treated as range by splitting; leave as residual-classified range
		// only when a single ordered index column matches. Keep simple:
		// classify as other (executes as residual filter).
	}
	return out
}

// chooseAccessPath mutates scan with the best available access path and
// returns which conjuncts were fully consumed by it.
func (p *planner) chooseAccessPath(leaf *leafRel, r *rel, scan *exec.ScanNode, classes []conjunctClass) []bool {
	consumed := make([]bool, len(classes))
	// Map: column ordinal -> class index for eq and in.
	eqFor := map[int]int{}
	inFor := map[int]int{}
	for i, cl := range classes {
		switch cl.kind {
		case 1:
			if _, dup := eqFor[cl.eqCol]; !dup {
				eqFor[cl.eqCol] = i
			}
		case 2:
			if _, dup := inFor[cl.inCol]; !dup {
				inFor[cl.inCol] = i
			}
		}
	}

	compileVal := func(e parser.Expr) exec.ExprFn {
		fn, err := CompileConstExpr(e)
		if err != nil {
			return nil
		}
		return fn
	}

	// tryKeyed points scan at ix when equality predicates cover cols, at
	// most one of them an IN list, whose values the probe takes as its key
	// set.
	tryKeyed := func(ix *storage.Index, cols []int) bool {
		if ix == nil {
			return false
		}
		inPos := -1
		for i, c := range cols {
			if _, ok := eqFor[c]; ok {
				continue
			}
			if _, ok := inFor[c]; ok && inPos < 0 {
				inPos = i
				continue
			}
			return false
		}
		key := make([]exec.ExprFn, len(cols))
		var in []exec.ExprFn
		inParam := -1
		used := make([]int, 0, len(cols))
		for i, c := range cols {
			if i != inPos {
				ci := eqFor[c]
				if key[i] = compileVal(classes[ci].eqVal); key[i] == nil {
					return false
				}
				used = append(used, ci)
				continue
			}
			ci := inFor[c]
			for _, v := range classes[ci].inVals {
				fn := compileVal(v)
				if fn == nil {
					return false
				}
				in = append(in, fn)
			}
			used = append(used, ci)
			inParam = inListParam(classes[ci].expr.(*parser.InExpr))
		}
		if inPos < 0 { // one key: a list of one
			inPos = len(cols) - 1
			in, key[inPos] = []exec.ExprFn{key[inPos]}, nil
		}
		scan.Index, scan.Key, scan.InPos, scan.In, scan.InParam = ix, key, inPos, in, inParam
		for _, u := range used {
			consumed[u] = true
		}
		return true
	}

	// 1. Primary key.
	if tryKeyed(leaf.table.PrimaryKey(), leaf.schema.PrimaryKeyIndexes()) {
		scan.Access = exec.AccessPK
		return consumed
	}

	// 2. Secondary indexes (hash equality / IN probes).
	for _, idx := range p.res.TableIndexes(leaf.schema.Name) {
		cols := make([]int, len(idx.Columns))
		valid := true
		for i, cn := range idx.Columns {
			ci := leaf.schema.ColumnIndex(cn)
			if ci < 0 {
				valid = false
				break
			}
			cols[i] = ci
		}
		if valid && tryKeyed(leaf.table.Index(idx.Name), cols) {
			scan.Access = exec.AccessIndex
			return consumed
		}
	}

	// 3. Ordered single-column range.
	for _, idx := range p.res.TableIndexes(leaf.schema.Name) {
		if !idx.Ordered || len(idx.Columns) != 1 {
			continue
		}
		ci := leaf.schema.ColumnIndex(idx.Columns[0])
		if ci < 0 {
			continue
		}
		var lo, hi exec.ExprFn
		found := false
		for _, cl := range classes {
			if cl.kind != 3 || cl.rangeCol != ci {
				continue
			}
			fn := compileVal(cl.rangeVal)
			if fn == nil {
				continue
			}
			switch cl.rangeOp {
			case parser.OpGt, parser.OpGe:
				lo = fn
			case parser.OpLt, parser.OpLe:
				hi = fn
			}
			found = true
		}
		if ix := leaf.table.Index(idx.Name); found && ix != nil {
			scan.Access = exec.AccessIndexRange
			scan.Index = ix
			if lo != nil {
				scan.Lo = []exec.ExprFn{lo}
			}
			if hi != nil {
				scan.Hi = []exec.ExprFn{hi}
			}
			// Range conjuncts stay in the residual filter: bounds are
			// inclusive pruning only, so strict comparisons still apply.
			return consumed
		}
	}

	return consumed
}
