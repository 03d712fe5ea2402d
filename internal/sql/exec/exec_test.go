package exec

import (
	"context"
	"fmt"
	"testing"

	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/storage"
	"db2graph/internal/sql/types"
)

// lit builds a constant expression.
func lit(v types.Value) ExprFn {
	return func(_ []types.Value, _ *Params) (types.Value, error) { return v, nil }
}

// col builds a column-reference expression.
func col(i int) ExprFn {
	return func(row []types.Value, _ *Params) (types.Value, error) { return row[i], nil }
}

// param builds a parameter-reference expression.
func param(i int) ExprFn {
	return func(_ []types.Value, params *Params) (types.Value, error) { return params.Vals[i], nil }
}

// numbersTable builds a table with columns (id BIGINT PK, grp BIGINT,
// val BIGINT) filled with n rows: id=i, grp=i%3, val=i*10.
func numbersTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := &catalog.TableSchema{
		Name: "nums",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "grp", Type: types.KindInt},
			{Name: "val", Type: types.KindInt},
		},
		PrimaryKey: []string{"id"},
	}
	tbl := storage.NewTable(schema)
	if err := tbl.CreateIndex(&catalog.Index{Name: "idx_grp", Table: "nums", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(&catalog.Index{Name: "ord_val", Table: "nums", Columns: []string{"val"}, Ordered: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(storage.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewInt(int64(i * 10)),
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func numsCols() []Column {
	return []Column{
		{Qualifier: "nums", Name: "id", Type: types.KindInt},
		{Qualifier: "nums", Name: "grp", Type: types.KindInt},
		{Qualifier: "nums", Name: "val", Type: types.KindInt},
	}
}

func runAll(t *testing.T, n Node, ctx *Context) [][]types.Value {
	t.Helper()
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanFull(t *testing.T) {
	tbl := numbersTable(t, 10)
	scan := &ScanNode{Table: tbl, Access: AccessFull, Cols: numsCols()}
	rows := runAll(t, scan, &Context{})
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestScanWithFilter(t *testing.T) {
	tbl := numbersTable(t, 10)
	pred := func(row []types.Value, _ *Params) (types.Value, error) {
		return types.NewBool(row[1].I == 1), nil
	}
	scan := &ScanNode{Table: tbl, Access: AccessFull, Filter: pred, Cols: numsCols()}
	rows := runAll(t, scan, &Context{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestScanPK(t *testing.T) {
	tbl := numbersTable(t, 10)
	scan := &ScanNode{
		Table: tbl, Access: AccessPK, Index: tbl.PrimaryKey(), Cols: numsCols(),
		Key: make([]ExprFn, 1), In: []ExprFn{lit(types.NewInt(7))}, InParam: -1,
	}
	rows := runAll(t, scan, &Context{})
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
	// Missing key and NULL key yield nothing.
	scan.In = []ExprFn{lit(types.NewInt(99)), lit(types.Null)}
	if rows := runAll(t, scan, &Context{}); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScanPKWithParams(t *testing.T) {
	tbl := numbersTable(t, 10)
	scan := &ScanNode{
		Table: tbl, Access: AccessPK, Index: tbl.PrimaryKey(), Cols: numsCols(),
		Key: make([]ExprFn, 1), In: []ExprFn{param(0)}, InParam: -1,
	}
	rows := runAll(t, scan, &Context{Params: Params{Vals: []types.Value{types.NewInt(3)}}})
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Re-open with different params (prepared statement reuse).
	rows = runAll(t, scan, &Context{Params: Params{Vals: []types.Value{types.NewInt(5)}}})
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScanIndexProbes(t *testing.T) {
	tbl := numbersTable(t, 9)
	scan := &ScanNode{
		Table: tbl, Access: AccessIndex, Index: tbl.Index("idx_grp"), Cols: numsCols(),
		Key: make([]ExprFn, 1), InParam: -1,
		In: []ExprFn{lit(types.NewInt(0)), lit(types.NewInt(2))},
	}
	rows := runAll(t, scan, &Context{})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestScanIndexRange(t *testing.T) {
	tbl := numbersTable(t, 10)
	scan := &ScanNode{
		Table: tbl, Access: AccessIndexRange, Index: tbl.Index("ord_val"), Cols: numsCols(),
		Lo: []ExprFn{lit(types.NewInt(30))},
		Hi: []ExprFn{lit(types.NewInt(60))},
	}
	rows := runAll(t, scan, &Context{})
	if len(rows) != 4 { // 30, 40, 50, 60
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestValuesAndProject(t *testing.T) {
	vals := &ValuesNode{
		Rows: [][]ExprFn{{lit(types.NewInt(1)), lit(types.NewString("a"))}},
		Cols: []Column{{Name: "n"}, {Name: "s"}},
	}
	proj := &ProjectNode{
		Child: vals,
		Exprs: []ExprFn{func(row []types.Value, _ *Params) (types.Value, error) {
			return types.Add(row[0], types.NewInt(10))
		}},
		Cols: []Column{{Name: "sum"}},
	}
	rows := runAll(t, proj, &Context{})
	if len(rows) != 1 || rows[0][0].I != 11 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterNode(t *testing.T) {
	tbl := numbersTable(t, 10)
	scan := &ScanNode{Table: tbl, Access: AccessFull, Cols: numsCols()}
	filter := &FilterNode{Child: scan, Pred: func(row []types.Value, _ *Params) (types.Value, error) {
		return types.NewBool(row[0].I >= 8), nil
	}}
	rows := runAll(t, filter, &Context{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestHashJoin(t *testing.T) {
	left := numbersTable(t, 6)
	right := numbersTable(t, 6)
	join := &HashJoinNode{
		Left:      &ScanNode{Table: left, Access: AccessFull, Cols: numsCols()},
		Right:     &ScanNode{Table: right, Access: AccessFull, Cols: numsCols()},
		LeftKeys:  []ExprFn{col(1)}, // grp
		RightKeys: []ExprFn{col(1)},
		Kind:      JoinInner,
	}
	rows := runAll(t, join, &Context{})
	// 6 rows, grp buckets sized 2/2/2 => 2*2 * 3 buckets = 12 pairs.
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0]) != 6 {
		t.Fatalf("combined width = %d", len(rows[0]))
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left := numbersTable(t, 4)
	// Right side only has grp==0 rows matching.
	right := &ValuesNode{
		Rows: [][]ExprFn{{lit(types.NewInt(0)), lit(types.NewString("zero"))}},
		Cols: []Column{{Name: "g"}, {Name: "name"}},
	}
	join := &HashJoinNode{
		Left:      &ScanNode{Table: left, Access: AccessFull, Cols: numsCols()},
		Right:     right,
		LeftKeys:  []ExprFn{col(1)},
		RightKeys: []ExprFn{col(0)},
		Kind:      JoinLeft,
	}
	rows := runAll(t, join, &Context{})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	nulls := 0
	for _, r := range rows {
		if r[4].IsNull() {
			nulls++
		}
	}
	if nulls != 2 { // ids 1 and 3 have grp 1 and 0... ids 0..3 grp 0,1,2,0 -> grp!=0: ids 1,2
		t.Fatalf("null-extended rows = %d", nulls)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	mk := func() Node {
		return &ValuesNode{
			Rows: [][]ExprFn{{lit(types.Null)}, {lit(types.NewInt(1))}},
			Cols: []Column{{Name: "k"}},
		}
	}
	join := &HashJoinNode{
		Left: mk(), Right: mk(),
		LeftKeys: []ExprFn{col(0)}, RightKeys: []ExprFn{col(0)},
		Kind: JoinInner,
	}
	rows := runAll(t, join, &Context{})
	if len(rows) != 1 {
		t.Fatalf("NULL keys joined: %v", rows)
	}
}

func TestNestedLoopJoinCross(t *testing.T) {
	mk := func(n int) Node {
		var rws [][]ExprFn
		for i := 0; i < n; i++ {
			rws = append(rws, []ExprFn{lit(types.NewInt(int64(i)))})
		}
		return &ValuesNode{Rows: rws, Cols: []Column{{Name: "x"}}}
	}
	join := &NestedLoopJoinNode{Left: mk(3), Right: mk(4), Kind: JoinInner}
	rows := runAll(t, join, &Context{})
	if len(rows) != 12 {
		t.Fatalf("cross join rows = %d", len(rows))
	}
}

func TestAggregateGlobalAndGrouped(t *testing.T) {
	tbl := numbersTable(t, 9)
	mkScan := func() Node { return &ScanNode{Table: tbl, Access: AccessFull, Cols: numsCols()} }

	// Global: COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val).
	agg := &AggregateNode{
		Child:  mkScan(),
		Global: true,
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Arg: col(2)},
			{Kind: AggAvg, Arg: col(2)},
			{Kind: AggMin, Arg: col(2)},
			{Kind: AggMax, Arg: col(2)},
		},
		Cols: make([]Column, 5),
	}
	rows := runAll(t, agg, &Context{})
	r := rows[0]
	if r[0].I != 9 || r[1].I != 360 || r[2].F != 40 || r[3].I != 0 || r[4].I != 80 {
		t.Fatalf("aggregates = %v", r)
	}

	// Grouped by grp.
	agg = &AggregateNode{
		Child:   mkScan(),
		GroupBy: []ExprFn{col(1)},
		Aggs:    []AggSpec{{Kind: AggCountStar}},
		Cols:    make([]Column, 2),
	}
	rows = runAll(t, agg, &Context{})
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 3 {
			t.Fatalf("group count = %v", r)
		}
	}

	// Global over empty input still emits one row.
	agg = &AggregateNode{
		Child: &ValuesNode{Cols: []Column{{Name: "x"}}},
		Aggs:  []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: col(0)}},
		Cols:  make([]Column, 2), Global: true,
	}
	rows = runAll(t, agg, &Context{})
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty aggregate = %v", rows)
	}
}

func TestAggregateDistinct(t *testing.T) {
	var rws [][]ExprFn
	for _, v := range []int64{1, 1, 2, 2, 3} {
		rws = append(rws, []ExprFn{lit(types.NewInt(v))})
	}
	agg := &AggregateNode{
		Child:  &ValuesNode{Rows: rws, Cols: []Column{{Name: "x"}}},
		Aggs:   []AggSpec{{Kind: AggCount, Arg: col(0), Distinct: true}},
		Cols:   make([]Column, 1),
		Global: true,
	}
	rows := runAll(t, agg, &Context{})
	if rows[0][0].I != 3 {
		t.Fatalf("distinct count = %v", rows[0])
	}
}

func TestSortDistinctLimitCut(t *testing.T) {
	var rws [][]ExprFn
	for _, v := range []int64{3, 1, 2, 1, 3} {
		rws = append(rws, []ExprFn{lit(types.NewInt(v)), lit(types.NewInt(v * 100))})
	}
	src := &ValuesNode{Rows: rws, Cols: []Column{{Name: "x"}, {Name: "hidden"}}}
	var node Node = &DistinctNode{Child: src, Width: 1}
	node = &SortNode{Child: node, Keys: []SortKey{{Col: 0, Desc: true}}}
	node = &CutNode{Child: node, Width: 1, Cols: []Column{{Name: "x"}}}
	node = &LimitNode{Child: node, N: 2}
	rows := runAll(t, node, &Context{})
	if len(rows) != 2 || rows[0][0].I != 3 || rows[1][0].I != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if len(rows[0]) != 1 {
		t.Fatalf("cut width = %d", len(rows[0]))
	}
}

// tableFuncHost adapts a function to TableFuncHost.
type tableFuncHost func(name string, args []types.Value, out []Column) ([][]types.Value, error)

func (h tableFuncHost) RunTableFunc(_ context.Context, name string, args []types.Value, out []Column) ([][]types.Value, error) {
	return h(name, args, out)
}

func TestTableFuncNode(t *testing.T) {
	tf := &TableFuncNode{
		Name: "fn",
		Args: []ExprFn{lit(types.NewString("x"))},
		Cols: []Column{{Name: "a"}},
	}
	ctx := &Context{TableFuncs: tableFuncHost(func(name string, args []types.Value, out []Column) ([][]types.Value, error) {
		if name != "fn" || args[0].Text() != "x" {
			return nil, fmt.Errorf("bad invocation")
		}
		return [][]types.Value{{types.NewInt(1)}, {types.NewInt(2)}}, nil
	})}
	rows := runAll(t, tf, ctx)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Missing runner errors.
	if _, err := Run(tf, &Context{}); err == nil {
		t.Fatal("missing runner accepted")
	}
}

func TestOperatorsReusableAcrossRuns(t *testing.T) {
	// Re-running the same node tree must produce the same results (plan
	// pooling depends on it).
	tbl := numbersTable(t, 5)
	scan := &ScanNode{Table: tbl, Access: AccessFull, Cols: numsCols()}
	sort := &SortNode{Child: scan, Keys: []SortKey{{Col: 0}}}
	for i := 0; i < 3; i++ {
		rows := runAll(t, sort, &Context{})
		if len(rows) != 5 || rows[0][0].I != 0 {
			t.Fatalf("run %d: rows = %v", i, rows)
		}
	}
}
