// Package exec implements the Volcano-style (iterator) execution operators
// of the relational engine: table scans (full, primary-key, index, index
// range, multi-probe IN scans, and temporal AS OF scans), filters,
// projections, hash and nested-loop joins, hash aggregation, sorting,
// distinct, limit, and polymorphic table functions.
//
// Operators consume compiled expressions (func closures over a row) rather
// than AST nodes; compilation happens in the plan package.
package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"db2graph/internal/sql/storage"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// Column describes one output column of an operator.
type Column struct {
	// Qualifier is the table alias that produced the column ("" for
	// computed columns).
	Qualifier string
	Name      string
	Type      types.Kind
}

// ExprFn is a compiled scalar expression evaluated against an input row
// and the statement's parameters.
type ExprFn func(row []types.Value, params *Params) (types.Value, error)

// Params are the values bound to a statement's ? markers, by marker index.
// A marker bound to a list, which is legal only as the whole operand of
// IN, has its values in Lists and NULL in Vals.
type Params struct {
	Vals []types.Value
	// Lists is nil unless some marker is bound to a list.
	Lists [][]types.Value
}

// List returns the list bound to marker i, if it is bound to one.
func (p *Params) List(i int) ([]types.Value, bool) {
	if p == nil || uint(i) >= uint(len(p.Lists)) || p.Lists[i] == nil {
		return nil, false
	}
	return p.Lists[i], true
}

// TableFuncHost executes a registered polymorphic table function with
// already-evaluated arguments under the statement's context, producing rows
// matching the declared columns. A database installs itself as the host of
// every statement it runs, so executing a statement builds no per-statement
// runner.
type TableFuncHost interface {
	RunTableFunc(ctx context.Context, name string, args []types.Value, out []Column) ([][]types.Value, error)
}

// Context carries per-execution state through the operator tree.
type Context struct {
	// Ctx carries the statement's deadline and cancellation; nil means
	// context.Background().
	Ctx context.Context
	// Params are the values bound to ? markers.
	Params Params
	// TableFuncs executes table functions referenced in FROM clauses.
	TableFuncs TableFuncHost
}

// Interrupted returns a wrapped context error once the statement context is
// done, nil otherwise.
func (c *Context) Interrupted() error {
	if c == nil || c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return fmt.Errorf("sql: statement interrupted: %w", c.Ctx.Err())
	default:
		return nil
	}
}

// Node is a Volcano-style operator.
type Node interface {
	// Columns describes the operator's output schema.
	Columns() []Column
	// Open prepares the operator for iteration.
	Open(ctx *Context) error
	// Next returns the next row, or nil at end of stream.
	Next() (storage.Row, error)
	// Close releases resources. Close must be safe after a failed Open.
	Close() error
}

// Run drains a node into a materialized result, checking the statement
// context periodically so a canceled or deadline-expired query stops
// producing rows. When the statement context carries a telemetry.Span, the
// root operator's wall time and row count are recorded on it (the per-query
// SQL timings behind Gremlin profile()); statements without a span pay only
// the nil check.
func Run(n Node, ctx *Context) ([][]types.Value, error) {
	var span *telemetry.Span
	if ctx != nil && ctx.Ctx != nil {
		span = telemetry.SpanFrom(ctx.Ctx)
	}
	if span == nil {
		return run(n, ctx)
	}
	start := time.Now()
	out, err := run(n, ctx)
	d := time.Since(start)
	op := OperatorName(n)
	span.RecordOp("sql."+op, int64(len(out)), d)
	telemetry.Default().Histogram(`sql_exec_seconds{op="` + op + `"}`).Observe(d)
	return out, err
}

// OperatorName names a plan's root operator for telemetry (scans include
// their table).
func OperatorName(n Node) string {
	switch x := n.(type) {
	case *ScanNode:
		return "Scan(" + x.Table.Schema().Name + ")"
	case *ValuesNode:
		return "Values"
	case *TableFuncNode:
		return "TableFunc"
	case *FilterNode:
		return "Filter"
	case *ProjectNode:
		return "Project"
	case *HashJoinNode:
		return "HashJoin"
	case *NestedLoopJoinNode:
		return "NestedLoopJoin"
	case *AggregateNode:
		return "Aggregate"
	case *SortNode:
		return "Sort"
	case *DistinctNode:
		return "Distinct"
	case *LimitNode:
		return "Limit"
	case *CutNode:
		return "Cut"
	default:
		return fmt.Sprintf("%T", n)
	}
}

func run(n Node, ctx *Context) ([][]types.Value, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if err := n.Open(ctx); err != nil {
		n.Close()
		return nil, err
	}
	defer n.Close()
	var out [][]types.Value
	if k := exactRows(n); k > 0 {
		out = make([][]types.Value, 0, k)
	}
	for i := 0; ; i++ {
		if i&1023 == 0 {
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
		}
		row, err := n.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// --- Scan ---

// ScanAccess selects the access path of a ScanNode.
type ScanAccess int

// Access paths, from most to least selective.
const (
	// AccessFull scans all live rows.
	AccessFull ScanAccess = iota
	// AccessPK probes the primary key with equality values.
	AccessPK
	// AccessIndex probes a hash index with equality values.
	AccessIndex
	// AccessIndexRange scans an ordered index between bounds.
	AccessIndexRange
	// AccessAsOf scans a temporal snapshot (no index use).
	AccessAsOf
)

// ScanNode reads rows from one base table.
type ScanNode struct {
	Table  *storage.Table
	Access ScanAccess
	// Index is the index AccessPK, AccessIndex and AccessIndexRange read.
	Index *storage.Index
	// Key yields the key tuple of AccessPK/AccessIndex, one expression per
	// key column, but the column at InPos (its Key entry nil) takes every
	// value of In, so one probe covers a set of keys: an IN list, or one
	// value; or, when In's only item is marker InParam (-1: none) bound to
	// a list, that list.
	Key     []ExprFn
	InPos   int
	In      []ExprFn
	InParam int
	// Lo/Hi are the range bounds for AccessIndexRange (nil = open).
	Lo, Hi []ExprFn
	// AsOf evaluates the snapshot timestamp for AccessAsOf.
	AsOf ExprFn
	// Filter is the residual predicate applied to each row (nil = none).
	Filter ExprFn
	// CountOnly makes a Filter-free AccessPK/AccessIndex scan return one
	// row, its COUNT(*), from posting lengths, visiting no row.
	CountOnly bool
	// Cols is the output schema (the table's columns under its alias).
	Cols []Column

	rows   []storage.Row
	pos    int
	params *Params
	keys   []storage.Key
}

// Columns implements Node.
func (s *ScanNode) Columns() []Column { return s.Cols }

// Open implements Node. All access paths materialize the matching row set
// under one shared lock of the table, then iterate lock-free.
func (s *ScanNode) Open(ctx *Context) error {
	s.rows = s.rows[:0]
	s.pos = 0
	if ctx != nil {
		s.params = &ctx.Params
	}
	var scanErr error
	emit := func(row storage.Row) bool {
		if s.Filter != nil {
			v, err := s.Filter(row, s.params)
			if err != nil {
				scanErr = err
				return false
			}
			if !v.Bool() {
				return true
			}
		}
		s.rows = append(s.rows, row)
		return true
	}
	switch s.Access {
	case AccessFull:
		s.Table.Scan(func(_ storage.RowID, row storage.Row) bool { return emit(row) })
	case AccessPK, AccessIndex:
		keys, err := s.keySet(s.params)
		if err != nil {
			return err
		}
		if !s.CountOnly {
			s.Index.Probe(keys, emit)
			break
		}
		s.rows = append(s.rows, storage.Row{types.NewInt(int64(s.Index.Probe(keys, nil)))})
	case AccessIndexRange:
		lo, err := evalKey(s.Lo, nil, s.params)
		if err != nil {
			return err
		}
		hi, err := evalKey(s.Hi, nil, s.params)
		if err != nil {
			return err
		}
		if err := s.Index.Range(lo, hi, emit); err != nil {
			return err
		}
	case AccessAsOf:
		tv, err := s.AsOf(nil, s.params)
		if err != nil {
			return err
		}
		ts, ok := tv.Int()
		if !ok {
			return fmt.Errorf("exec: AS OF timestamp must be numeric, got %s", tv)
		}
		s.Table.ScanAsOf(ts, emit)
	default:
		return fmt.Errorf("exec: unknown scan access %d", s.Access)
	}
	return scanErr
}

// keySet evaluates the probe keys of an AccessPK/AccessIndex scan. A key
// with a NULL component equals nothing and is left out. The slice is the
// node's scratch, valid until the next call.
func (s *ScanNode) keySet(params *Params) ([]storage.Key, error) {
	key, err := evalKey(s.Key, nil, params)
	if err != nil {
		return nil, err
	}
	in, ok := params.List(s.InParam)
	if !ok {
		if in, err = evalKey(s.In, nil, params); err != nil {
			return nil, err
		}
	}
	s.keys = s.keys[:0]
	for _, v := range in {
		key[s.InPos] = v
		if !hasNullKey(key) {
			s.keys = append(s.keys, storage.TupleKey(key))
		}
	}
	return s.keys, nil
}

// evalKey evaluates exprs into a new tuple; a nil entry stays NULL.
func evalKey(exprs []ExprFn, row []types.Value, params *Params) ([]types.Value, error) {
	if exprs == nil {
		return nil, nil
	}
	out := make([]types.Value, len(exprs))
	for i, fn := range exprs {
		if fn == nil {
			continue
		}
		v, err := fn(row, params)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func hasNullKey(key []types.Value) bool {
	for _, v := range key {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// Next implements Node.
func (s *ScanNode) Next() (storage.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// exactRows returns how many more rows n emits when it knows exactly (a
// scan holds its matches from Open on, and a projection emits one row per
// child row), or -1.
func exactRows(n Node) int {
	switch x := n.(type) {
	case *ScanNode:
		return len(x.rows) - x.pos
	case *ProjectNode:
		return exactRows(x.Child)
	}
	return -1
}

// scanRowsKept bounds the row-slice capacity a closed scan keeps.
const scanRowsKept = 64

// Close implements Node. The row slice keeps its capacity for the next
// execution of a pooled plan, up to scanRowsKept rows (every pooled plan
// holds its slice, so a larger bound shows in the live heap), but no
// longer points at the rows.
func (s *ScanNode) Close() error {
	if cap(s.rows) > scanRowsKept {
		s.rows = nil
	} else {
		clear(s.rows)
		s.rows = s.rows[:0]
	}
	s.params = nil
	return nil
}

// --- Values (literal row source, used for FROM-less SELECT) ---

// ValuesNode emits a fixed set of rows computed from expressions.
type ValuesNode struct {
	Rows [][]ExprFn
	Cols []Column

	out [][]types.Value
	pos int
}

// Columns implements Node.
func (v *ValuesNode) Columns() []Column { return v.Cols }

// Open implements Node.
func (v *ValuesNode) Open(ctx *Context) error {
	v.out = v.out[:0]
	v.pos = 0
	var params *Params
	if ctx != nil {
		params = &ctx.Params
	}
	for _, exprs := range v.Rows {
		row, err := evalKey(exprs, nil, params)
		if err != nil {
			return err
		}
		v.out = append(v.out, row)
	}
	return nil
}

// Next implements Node.
func (v *ValuesNode) Next() (storage.Row, error) {
	if v.pos >= len(v.out) {
		return nil, nil
	}
	r := v.out[v.pos]
	v.pos++
	return r, nil
}

// Close implements Node.
func (v *ValuesNode) Close() error { return nil }

// --- Table function ---

// TableFuncNode runs a polymorphic table function and streams its rows.
type TableFuncNode struct {
	Name string
	Args []ExprFn
	Cols []Column

	rows [][]types.Value
	pos  int
}

// Columns implements Node.
func (t *TableFuncNode) Columns() []Column { return t.Cols }

// Open implements Node.
func (t *TableFuncNode) Open(ctx *Context) error {
	if ctx == nil || ctx.TableFuncs == nil {
		return fmt.Errorf("exec: no table function runner registered for %s", t.Name)
	}
	args, err := evalKey(t.Args, nil, &ctx.Params)
	if err != nil {
		return err
	}
	rows, err := ctx.TableFuncs.RunTableFunc(ctx.Ctx, t.Name, args, t.Cols)
	if err != nil {
		return err
	}
	t.rows = rows
	t.pos = 0
	return nil
}

// Next implements Node.
func (t *TableFuncNode) Next() (storage.Row, error) {
	if t.pos >= len(t.rows) {
		return nil, nil
	}
	r := t.rows[t.pos]
	t.pos++
	return r, nil
}

// Close implements Node.
func (t *TableFuncNode) Close() error {
	t.rows = nil
	return nil
}

// --- Filter ---

// FilterNode passes through rows satisfying a predicate.
type FilterNode struct {
	Child  Node
	Pred   ExprFn
	params *Params
}

// Columns implements Node.
func (f *FilterNode) Columns() []Column { return f.Child.Columns() }

// Open implements Node.
func (f *FilterNode) Open(ctx *Context) error {
	if ctx != nil {
		f.params = &ctx.Params
	}
	return f.Child.Open(ctx)
}

// Next implements Node.
func (f *FilterNode) Next() (storage.Row, error) {
	for {
		row, err := f.Child.Next()
		if err != nil || row == nil {
			return row, err
		}
		v, err := f.Pred(row, f.params)
		if err != nil {
			return nil, err
		}
		if v.Bool() {
			return row, nil
		}
	}
}

// Close implements Node.
func (f *FilterNode) Close() error { return f.Child.Close() }

// --- Project ---

// ProjectNode computes output expressions for each input row.
type ProjectNode struct {
	Child  Node
	Exprs  []ExprFn
	Cols   []Column
	params *Params
	// slab backs the rows this execution has yet to emit. Open drops it,
	// so a later execution never writes into rows a result still holds.
	slab []types.Value
}

// Columns implements Node.
func (p *ProjectNode) Columns() []Column { return p.Cols }

// Open implements Node.
func (p *ProjectNode) Open(ctx *Context) error {
	if ctx != nil {
		p.params = &ctx.Params
	}
	p.slab = nil
	return p.Child.Open(ctx)
}

// Next implements Node. When the child knows how many rows it has left,
// the first row's allocation carves all of them.
func (p *ProjectNode) Next() (storage.Row, error) {
	row, err := p.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	n := len(p.Exprs)
	// A nil row ends the rows, so even a row of no columns comes from a
	// non-nil slab.
	if p.slab == nil || len(p.slab) < n {
		p.slab = make([]types.Value, n*max(exactRows(p.Child)+1, 1))
	}
	out := p.slab[:n:n]
	p.slab = p.slab[n:]
	for i, fn := range p.Exprs {
		v, err := fn(row, p.params)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Node. It drops the slab, so a pooled plan does not keep
// the last result's rows alive.
func (p *ProjectNode) Close() error {
	p.slab = nil
	return p.Child.Close()
}

// --- Joins ---

// JoinKind mirrors the parser's join kinds for execution.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
)

// HashJoinNode builds a hash table on the right input keyed by RightKeys
// and probes with LeftKeys.
type HashJoinNode struct {
	Left, Right Node
	LeftKeys    []ExprFn
	RightKeys   []ExprFn
	Kind        JoinKind
	// Residual is an optional extra predicate over the combined row.
	Residual ExprFn

	cols    []Column
	ht      map[string][]storage.Row
	rightW  int
	current []storage.Row // pending matches for the current left row
	cur     storage.Row   // current left row
	pos     int
	params  *Params
}

// Columns implements Node.
func (j *HashJoinNode) Columns() []Column {
	if j.cols == nil {
		j.cols = append(append([]Column{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

// Open implements Node.
func (j *HashJoinNode) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	if ctx != nil {
		j.params = &ctx.Params
	}
	j.rightW = len(j.Right.Columns())
	j.ht = make(map[string][]storage.Row)
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, err := evalKey(j.RightKeys, row, j.params)
		if err != nil {
			return err
		}
		if hasNullKey(key) {
			continue // NULL keys never join
		}
		k := types.EncodeKeyTuple(key)
		j.ht[k] = append(j.ht[k], row)
	}
	j.current = nil
	j.cur = nil
	j.pos = 0
	return nil
}

// Next implements Node.
func (j *HashJoinNode) Next() (storage.Row, error) {
	for {
		for j.pos < len(j.current) {
			right := j.current[j.pos]
			j.pos++
			combined := append(append(make(storage.Row, 0, len(j.cur)+len(right)), j.cur...), right...)
			if j.Residual != nil {
				v, err := j.Residual(combined, j.params)
				if err != nil {
					return nil, err
				}
				if !v.Bool() {
					continue
				}
			}
			return combined, nil
		}
		// Advance left.
		left, err := j.Left.Next()
		if err != nil || left == nil {
			return nil, err
		}
		key, err := evalKey(j.LeftKeys, left, j.params)
		if err != nil {
			return nil, err
		}
		var matches []storage.Row
		if !hasNullKey(key) {
			matches = j.ht[types.EncodeKeyTuple(key)]
		}
		if len(matches) == 0 {
			if j.Kind == JoinLeft {
				nulls := make(storage.Row, j.rightW)
				return append(append(make(storage.Row, 0, len(left)+j.rightW), left...), nulls...), nil
			}
			continue
		}
		j.cur = left
		j.current = matches
		j.pos = 0
	}
}

// Close implements Node.
func (j *HashJoinNode) Close() error {
	err := j.Left.Close()
	if e := j.Right.Close(); e != nil && err == nil {
		err = e
	}
	j.ht = nil
	return err
}

// NestedLoopJoinNode joins by materializing the right side and testing the
// predicate per pair. Used for non-equi joins and cross joins.
type NestedLoopJoinNode struct {
	Left, Right Node
	Pred        ExprFn // nil for pure cross join
	Kind        JoinKind

	cols    []Column
	right   []storage.Row
	rightW  int
	cur     storage.Row
	pos     int
	matched bool
	params  *Params
}

// Columns implements Node.
func (j *NestedLoopJoinNode) Columns() []Column {
	if j.cols == nil {
		j.cols = append(append([]Column{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

// Open implements Node.
func (j *NestedLoopJoinNode) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.rightW = len(j.Right.Columns())
	j.right = j.right[:0]
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.right = append(j.right, row)
	}
	if ctx != nil {
		j.params = &ctx.Params
	}
	j.cur = nil
	j.pos = 0
	return nil
}

// Next implements Node.
func (j *NestedLoopJoinNode) Next() (storage.Row, error) {
	for {
		if j.cur == nil {
			left, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if left == nil {
				return nil, nil
			}
			j.cur = left
			j.pos = 0
			j.matched = false
		}
		for j.pos < len(j.right) {
			right := j.right[j.pos]
			j.pos++
			combined := append(append(make(storage.Row, 0, len(j.cur)+len(right)), j.cur...), right...)
			if j.Pred != nil {
				v, err := j.Pred(combined, j.params)
				if err != nil {
					return nil, err
				}
				if !v.Bool() {
					continue
				}
			}
			j.matched = true
			return combined, nil
		}
		if j.Kind == JoinLeft && !j.matched {
			nulls := make(storage.Row, j.rightW)
			out := append(append(make(storage.Row, 0, len(j.cur)+j.rightW), j.cur...), nulls...)
			j.cur = nil
			return out, nil
		}
		j.cur = nil
	}
}

// Close implements Node.
func (j *NestedLoopJoinNode) Close() error {
	err := j.Left.Close()
	if e := j.Right.Close(); e != nil && err == nil {
		err = e
	}
	j.right = nil
	return err
}

// --- Aggregation ---

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate computation.
type AggSpec struct {
	Kind     AggKind
	Arg      ExprFn // nil for COUNT(*)
	Distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	isInt bool
	intOK bool
	intS  int64
	min   types.Value
	max   types.Value
	seen  map[types.Value]bool
	first bool
}

// AggregateNode implements hash aggregation. Output rows are the group key
// columns followed by the aggregate results; with no GROUP BY a single
// global group is produced (even over empty input).
type AggregateNode struct {
	Child   Node
	GroupBy []ExprFn
	Aggs    []AggSpec
	Cols    []Column
	Global  bool // no GROUP BY: always emit exactly one row

	groups map[string]*group
	order  []string
	pos    int
	params *Params
}

type group struct {
	key    []types.Value
	states []*aggState
}

// Columns implements Node.
func (a *AggregateNode) Columns() []Column { return a.Cols }

// Open implements Node.
func (a *AggregateNode) Open(ctx *Context) error {
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	if ctx != nil {
		a.params = &ctx.Params
	}
	a.groups = make(map[string]*group)
	a.order = a.order[:0]
	a.pos = 0
	for {
		row, err := a.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, err := evalKey(a.GroupBy, row, a.params)
		if err != nil {
			return err
		}
		k := types.EncodeKeyTuple(key)
		g, ok := a.groups[k]
		if !ok {
			g = &group{key: key, states: make([]*aggState, len(a.Aggs))}
			for i := range g.states {
				g.states[i] = &aggState{isInt: true, intOK: true, first: true}
				if a.Aggs[i].Distinct {
					g.states[i].seen = make(map[types.Value]bool)
				}
			}
			a.groups[k] = g
			a.order = append(a.order, k)
		}
		for i, spec := range a.Aggs {
			if err := g.states[i].update(spec, row, a.params); err != nil {
				return err
			}
		}
	}
	if a.Global && len(a.order) == 0 {
		g := &group{states: make([]*aggState, len(a.Aggs))}
		for i := range g.states {
			g.states[i] = &aggState{isInt: true, intOK: true, first: true}
		}
		a.groups[""] = g
		a.order = append(a.order, "")
	}
	return nil
}

func (st *aggState) update(spec AggSpec, row []types.Value, params *Params) error {
	if spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	v, err := spec.Arg(row, params)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if spec.Distinct {
		if st.seen[v] {
			return nil
		}
		st.seen[v] = true
	}
	st.count++
	switch spec.Kind {
	case AggCount:
	case AggSum, AggAvg:
		f, ok := v.Float()
		if !ok {
			return fmt.Errorf("exec: cannot aggregate non-numeric value %s", v)
		}
		st.sum += f
		if v.Kind == types.KindInt {
			st.intS += v.I
		} else {
			st.intOK = false
		}
	case AggMin:
		if st.first || types.Compare(v, st.min) < 0 {
			st.min = v
		}
	case AggMax:
		if st.first || types.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	st.first = false
	return nil
}

func (st *aggState) result(kind AggKind) types.Value {
	switch kind {
	case AggCount, AggCountStar:
		return types.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return types.Null
		}
		if st.intOK {
			return types.NewInt(st.intS)
		}
		return types.NewFloat(st.sum)
	case AggAvg:
		if st.count == 0 {
			return types.Null
		}
		return types.NewFloat(st.sum / float64(st.count))
	case AggMin:
		if st.count == 0 {
			return types.Null
		}
		return st.min
	case AggMax:
		if st.count == 0 {
			return types.Null
		}
		return st.max
	default:
		return types.Null
	}
}

// Next implements Node.
func (a *AggregateNode) Next() (storage.Row, error) {
	if a.pos >= len(a.order) {
		return nil, nil
	}
	g := a.groups[a.order[a.pos]]
	a.pos++
	out := make(storage.Row, 0, len(a.GroupBy)+len(a.Aggs))
	out = append(out, g.key...)
	if a.Global && g.key == nil && len(a.GroupBy) > 0 {
		out = append(out, make(storage.Row, len(a.GroupBy))...)
	}
	for i, spec := range a.Aggs {
		out = append(out, g.states[i].result(spec.Kind))
	}
	return out, nil
}

// Close implements Node.
func (a *AggregateNode) Close() error {
	a.groups = nil
	a.order = nil
	return a.Child.Close()
}

// --- Sort / Distinct / Limit / Cut ---

// SortKey is one sort dimension over an output column index.
type SortKey struct {
	Col  int
	Desc bool
}

// SortNode materializes and sorts its input.
type SortNode struct {
	Child Node
	Keys  []SortKey

	rows [][]types.Value
	pos  int
}

// Columns implements Node.
func (s *SortNode) Columns() []Column { return s.Child.Columns() }

// Open implements Node.
func (s *SortNode) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0
	for {
		row, err := s.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		s.rows = append(s.rows, row)
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			c := types.Compare(s.rows[i][k.Col], s.rows[j][k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// Next implements Node.
func (s *SortNode) Next() (storage.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Node.
func (s *SortNode) Close() error {
	s.rows = nil
	return s.Child.Close()
}

// DistinctNode suppresses duplicate rows (over the first Width columns; 0
// means all columns).
type DistinctNode struct {
	Child Node
	Width int

	seen map[string]bool
}

// Columns implements Node.
func (d *DistinctNode) Columns() []Column { return d.Child.Columns() }

// Open implements Node.
func (d *DistinctNode) Open(ctx *Context) error {
	d.seen = make(map[string]bool)
	return d.Child.Open(ctx)
}

// Next implements Node.
func (d *DistinctNode) Next() (storage.Row, error) {
	for {
		row, err := d.Child.Next()
		if err != nil || row == nil {
			return row, err
		}
		w := d.Width
		if w == 0 || w > len(row) {
			w = len(row)
		}
		k := types.EncodeKeyTuple(row[:w])
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return row, nil
	}
}

// Close implements Node.
func (d *DistinctNode) Close() error {
	d.seen = nil
	return d.Child.Close()
}

// LimitNode caps the number of rows.
type LimitNode struct {
	Child Node
	N     int

	emitted int
}

// Columns implements Node.
func (l *LimitNode) Columns() []Column { return l.Child.Columns() }

// Open implements Node.
func (l *LimitNode) Open(ctx *Context) error {
	l.emitted = 0
	return l.Child.Open(ctx)
}

// Next implements Node.
func (l *LimitNode) Next() (storage.Row, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next()
	if err != nil || row == nil {
		return row, err
	}
	l.emitted++
	return row, nil
}

// Close implements Node.
func (l *LimitNode) Close() error { return l.Child.Close() }

// CutNode trims each row to the first Width columns (drops hidden sort
// columns appended by the planner).
type CutNode struct {
	Child Node
	Width int
	Cols  []Column
}

// Columns implements Node.
func (c *CutNode) Columns() []Column { return c.Cols }

// Open implements Node.
func (c *CutNode) Open(ctx *Context) error { return c.Child.Open(ctx) }

// Next implements Node.
func (c *CutNode) Next() (storage.Row, error) {
	row, err := c.Child.Next()
	if err != nil || row == nil {
		return row, err
	}
	return row[:c.Width], nil
}

// Close implements Node.
func (c *CutNode) Close() error { return c.Child.Close() }
