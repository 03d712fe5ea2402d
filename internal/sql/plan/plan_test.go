package plan

import (
	"testing"

	"db2graph/internal/sql/exec"
	"db2graph/internal/sql/parser"
	"db2graph/internal/sql/types"

	// The engine package implements Resolver; using it here would create an
	// import cycle in tests only, so a local resolver is built instead.
	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/storage"
)

// testResolver implements Resolver over in-memory tables.
type testResolver struct {
	tables  map[string]*storage.Table
	views   map[string]*catalog.View
	indexes map[string][]*catalog.Index
}

func (r *testResolver) LookupTable(name string) (*storage.Table, *catalog.TableSchema, bool) {
	t, ok := r.tables[lower(name)]
	if !ok {
		return nil, nil, false
	}
	return t, t.Schema(), true
}
func (r *testResolver) LookupView(name string) (*catalog.View, bool) {
	v, ok := r.views[lower(name)]
	return v, ok
}
func (r *testResolver) TableIndexes(name string) []*catalog.Index { return r.indexes[lower(name)] }
func (r *testResolver) HasTableFunc(name string) bool             { return name == "tf" }

func lower(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c >= 'A' && c <= 'Z' {
			out[i] = c + 32
		}
	}
	return string(out)
}

func newResolver(t *testing.T) *testResolver {
	t.Helper()
	schema := &catalog.TableSchema{
		Name: "items",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "cat", Type: types.KindString},
			{Name: "price", Type: types.KindInt},
		},
		PrimaryKey: []string{"id"},
	}
	tbl := storage.NewTable(schema)
	idxCat := &catalog.Index{Name: "idx_cat", Table: "items", Columns: []string{"cat"}}
	idxPrice := &catalog.Index{Name: "ord_price", Table: "items", Columns: []string{"price"}, Ordered: true}
	if err := tbl.CreateIndex(idxCat); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(idxPrice); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		cat := "a"
		if i%2 == 1 {
			cat = "b"
		}
		if _, err := tbl.Insert(storage.Row{
			types.NewInt(i), types.NewString(cat), types.NewInt(i * 5),
		}, 1); err != nil {
			t.Fatal(err)
		}
	}
	return &testResolver{
		tables:  map[string]*storage.Table{"items": tbl},
		views:   map[string]*catalog.View{},
		indexes: map[string][]*catalog.Index{"items": {idxCat, idxPrice}},
	}
}

func planQuery(t *testing.T, r Resolver, sql string) exec.Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Select(r, stmt.(*parser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// findScan walks a plan to its (first) ScanNode.
func findScan(n exec.Node) *ScanProbe {
	switch x := n.(type) {
	case *exec.ScanNode:
		p := &ScanProbe{Access: x.Access, HasFilter: x.Filter != nil, Probes: len(x.In)}
		if x.Index != nil && x.Index.Def != nil {
			p.Index = x.Index.Def.Name
		}
		return p
	case *exec.FilterNode:
		return findScan(x.Child)
	case *exec.ProjectNode:
		return findScan(x.Child)
	case *exec.LimitNode:
		return findScan(x.Child)
	case *exec.SortNode:
		return findScan(x.Child)
	case *exec.CutNode:
		return findScan(x.Child)
	case *exec.DistinctNode:
		return findScan(x.Child)
	case *exec.AggregateNode:
		return findScan(x.Child)
	case *exec.HashJoinNode:
		return findScan(x.Left)
	case *exec.NestedLoopJoinNode:
		return findScan(x.Left)
	default:
		return nil
	}
}

// ScanProbe summarizes a scan's chosen access path.
type ScanProbe struct {
	Access    exec.ScanAccess
	Index     string
	HasFilter bool
	Probes    int
}

func TestPlannerChoosesPKAccess(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT * FROM items WHERE id = 7")
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessPK {
		t.Fatalf("probe = %+v", probe)
	}
	if probe.HasFilter {
		t.Fatal("fully consumed predicate still in residual filter")
	}
	rows, err := exec.Run(node, &exec.Context{})
	if err != nil || len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestPlannerChoosesPKInProbes(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT * FROM items WHERE id IN (1, 2, 3)")
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessPK || probe.Probes != 3 {
		t.Fatalf("probe = %+v", probe)
	}
	rows, _ := exec.Run(node, &exec.Context{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPlannerChoosesHashIndex(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT id FROM items WHERE cat = 'a'")
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessIndex || probe.Index != "idx_cat" {
		t.Fatalf("probe = %+v", probe)
	}
	rows, _ := exec.Run(node, &exec.Context{})
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPlannerChoosesOrderedRange(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT id FROM items WHERE price > 10 AND price < 30")
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessIndexRange || probe.Index != "ord_price" {
		t.Fatalf("probe = %+v", probe)
	}
	// Range conjuncts stay in the filter for strict-bound correctness.
	if !probe.HasFilter {
		t.Fatal("range residual filter missing")
	}
	rows, _ := exec.Run(node, &exec.Context{})
	if len(rows) != 3 { // prices 15, 20, 25
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPlannerFallsBackToFullScan(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT id FROM items WHERE price + 1 = 6")
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessFull || !probe.HasFilter {
		t.Fatalf("probe = %+v", probe)
	}
	rows, _ := exec.Run(node, &exec.Context{})
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPlannerPushesConjunctsThroughJoin(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, `
		SELECT a.id FROM items a, items b
		WHERE a.id = b.id AND a.id = 4`)
	// The per-table conjunct a.id = 4 must reach a's scan as a PK probe.
	probe := findScan(node)
	if probe == nil || probe.Access != exec.AccessPK {
		t.Fatalf("probe = %+v", probe)
	}
	rows, err := exec.Run(node, &exec.Context{})
	if err != nil || len(rows) != 1 || rows[0][0].I != 4 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestPlannerBuildsHashJoinForEquiPredicates(t *testing.T) {
	r := newResolver(t)
	node := planQuery(t, r, "SELECT a.id FROM items a JOIN items b ON a.id = b.price")
	// Walk for a HashJoinNode.
	found := false
	var walk func(n exec.Node)
	walk = func(n exec.Node) {
		switch x := n.(type) {
		case *exec.HashJoinNode:
			found = true
		case *exec.ProjectNode:
			walk(x.Child)
		case *exec.FilterNode:
			walk(x.Child)
		case *exec.CutNode:
			walk(x.Child)
		case *exec.LimitNode:
			walk(x.Child)
		}
	}
	walk(node)
	if !found {
		t.Fatal("equi join did not use hash join")
	}
	rows, err := exec.Run(node, &exec.Context{})
	if err != nil {
		t.Fatal(err)
	}
	// a.id = b.price: prices are 0,5,10,..95; ids 0..19 -> matches at ids 0,5,10,15.
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestViewExpansionAndPushdownThroughView(t *testing.T) {
	r := newResolver(t)
	r.views["cheap"] = &catalog.View{Name: "cheap", Query: "SELECT id, price FROM items WHERE price < 50"}
	node := planQuery(t, r, "SELECT id FROM cheap WHERE price > 20")
	rows, err := exec.Run(node, &exec.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 25,30,35,40,45
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestViewCycleDetected(t *testing.T) {
	r := newResolver(t)
	r.views["v1"] = &catalog.View{Name: "v1", Query: "SELECT * FROM v2"}
	r.views["v2"] = &catalog.View{Name: "v2", Query: "SELECT * FROM v1"}
	stmt, _ := parser.Parse("SELECT * FROM v1")
	if _, err := Select(r, stmt.(*parser.SelectStmt)); err == nil {
		t.Fatal("view cycle accepted")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l%", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%", true},
		{"a%b", "a%b", true},
		{"diabetes", "%diabetes", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestExprKeyStructuralEquality(t *testing.T) {
	parse := func(s string) parser.Expr {
		e, err := parser.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if exprKey(parse("a + b")) != exprKey(parse("a + b")) {
		t.Fatal("identical exprs differ")
	}
	if exprKey(parse("a + b")) == exprKey(parse("b + a")) {
		t.Fatal("different exprs collide")
	}
	if exprKey(parse("COUNT(*)")) == exprKey(parse("COUNT(a)")) {
		t.Fatal("count forms collide")
	}
}

func TestCompileConstExprRejectsColumns(t *testing.T) {
	e, _ := parser.ParseExpr("someColumn + 1")
	if _, err := CompileConstExpr(e); err == nil {
		t.Fatal("column in const expr accepted")
	}
	e, _ = parser.ParseExpr("1 + 2 * 3")
	fn, err := CompileConstExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fn(nil, nil)
	if err != nil || v.I != 7 {
		t.Fatalf("const eval = %v, %v", v, err)
	}
}
