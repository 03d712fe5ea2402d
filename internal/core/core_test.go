package core

import (
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

// paperOverlay is the Section 5 configuration.
const paperOverlay = `{
  "v_tables": [
    {"table_name": "Patient", "prefixed_id": true, "id": "'patient'::patientID",
     "fix_label": true, "label": "'patient'",
     "properties": ["patientID", "name", "address", "subscriptionID"]},
    {"table_name": "Disease", "id": "diseaseID", "fix_label": true, "label": "'disease'",
     "properties": ["diseaseID", "conceptCode", "conceptName"]}
  ],
  "e_tables": [
    {"table_name": "DiseaseOntology", "src_v_table": "Disease", "src_v": "sourceID",
     "dst_v_table": "Disease", "dst_v": "targetID",
     "prefixed_edge_id": true, "id": "'ontology'::sourceID::targetID", "label": "type"},
    {"table_name": "HasDisease", "src_v_table": "Patient", "src_v": "'patient'::patientID",
     "dst_v_table": "Disease", "dst_v": "diseaseID",
     "implicit_edge_id": true, "fix_label": true, "label": "'hasDisease'"}
  ]
}`

// newHealthGraph builds the paper's running example: tables, data, overlay.
func newHealthGraph(t *testing.T, opts Options) (*engine.Database, *Graph) {
	t.Helper()
	db := engine.New()
	script := `
	CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR(100), address VARCHAR(200), subscriptionID BIGINT);
	CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR(40), conceptName VARCHAR(100));
	CREATE TABLE HasDisease (patientID BIGINT NOT NULL, diseaseID BIGINT NOT NULL, description VARCHAR(200),
		PRIMARY KEY (patientID, diseaseID),
		FOREIGN KEY (patientID) REFERENCES Patient(patientID),
		FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
	CREATE TABLE DiseaseOntology (sourceID BIGINT NOT NULL, targetID BIGINT NOT NULL, type VARCHAR(20), description VARCHAR(100),
		PRIMARY KEY (sourceID, targetID));
	CREATE TABLE DeviceData (subscriptionID BIGINT NOT NULL, day BIGINT NOT NULL, steps BIGINT, exerciseMinutes BIGINT,
		PRIMARY KEY (subscriptionID, day));
	CREATE INDEX idx_hd_disease ON HasDisease (diseaseID);
	CREATE INDEX idx_do_target ON DiseaseOntology (targetID);
	INSERT INTO Patient VALUES (1, 'Alice', '12 Elm St', 100), (2, 'Bob', '4 Oak Ave', 200), (3, 'Carol', '9 Pine Rd', 300);
	INSERT INTO Disease VALUES (9, 'D9', 'metabolic disease'), (10, 'D10', 'diabetes'), (11, 'D11', 'type 2 diabetes'), (12, 'D12', 'hypertension'), (13, 'D13', 'mody diabetes');
	INSERT INTO HasDisease VALUES (1, 11, 'diagnosed 2018'), (2, 10, 'diagnosed 2019'), (3, 12, 'diagnosed 2020');
	INSERT INTO DiseaseOntology VALUES (11, 10, 'isa', ''), (13, 11, 'isa', ''), (10, 9, 'isa', '');
	INSERT INTO DeviceData VALUES (100, 1, 4000, 30), (100, 2, 6000, 45), (200, 1, 9000, 60), (300, 1, 2000, 10);
	`
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	cfg, err := overlay.Parse([]byte(paperOverlay))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Open(db, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func elementIDs(t *testing.T, tr *gremlin.Traversal) []string {
	t.Helper()
	objs, err := tr.ToList()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, o := range objs {
		switch x := o.(type) {
		case *graph.Element:
			out = append(out, x.ID)
		case types.Value:
			out = append(out, x.Text())
		default:
			t.Fatalf("unexpected result type %T", o)
		}
	}
	sort.Strings(out)
	return out
}

func expectIDs(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOpenAndTopology(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	if len(g.Topology().Vertices) != 2 || len(g.Topology().Edges) != 2 {
		t.Fatalf("topology = %+v", g.Topology())
	}
}

func TestVertexLookups(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	tr := g.Traversal()
	expectIDs(t, elementIDs(t, tr.V()), "10", "11", "12", "13", "9",
		"patient::1", "patient::2", "patient::3")
	expectIDs(t, elementIDs(t, tr.V().HasLabel("patient")), "patient::1", "patient::2", "patient::3")
	expectIDs(t, elementIDs(t, tr.V("patient::2")), "patient::2")
	expectIDs(t, elementIDs(t, tr.V("11")), "11")
	expectIDs(t, elementIDs(t, tr.V().Has("name", "Alice")), "patient::1")
	expectIDs(t, elementIDs(t, tr.V().HasLabel("patient").HasP("patientID", gremlin.Gte(2))), "patient::2", "patient::3")
}

func TestVertexProperties(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	objs, err := g.Traversal().V("patient::1").ToList()
	if err != nil {
		t.Fatal(err)
	}
	el := objs[0].(*graph.Element)
	if el.Label != "patient" || el.Table != "Patient" {
		t.Fatalf("element = %+v", el)
	}
	if el.Props["name"].Text() != "Alice" || el.Props["subscriptionID"].I != 100 {
		t.Fatalf("props = %v", el.Props)
	}
	vals, err := g.Traversal().V("patient::1").Values("address").ToValues()
	if err != nil || vals[0].Text() != "12 Elm St" {
		t.Fatalf("values = %v, %v", vals, err)
	}
}

func TestTraversalSteps(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	tr := g.Traversal()
	expectIDs(t, elementIDs(t, tr.V("patient::1").Out("hasDisease")), "11")
	expectIDs(t, elementIDs(t, tr.V("11").Out("isa")), "10")
	expectIDs(t, elementIDs(t, tr.V("10").In("isa")), "11")
	expectIDs(t, elementIDs(t, tr.V("10").In()), "11", "patient::2")
	expectIDs(t, elementIDs(t, tr.V("11").Both("isa")), "10", "13")
	// Edge ids: implicit for HasDisease, explicit for DiseaseOntology.
	expectIDs(t, elementIDs(t, tr.V("patient::1").OutE("hasDisease")), "patient::1::hasDisease::11")
	expectIDs(t, elementIDs(t, tr.V("11").OutE("isa")), "ontology::11::10")
	// Edge lookup by id (explicit and implicit).
	expectIDs(t, elementIDs(t, tr.E("ontology::11::10")), "ontology::11::10")
	expectIDs(t, elementIDs(t, tr.E("patient::1::hasDisease::11")), "patient::1::hasDisease::11")
	// Edge to vertex.
	expectIDs(t, elementIDs(t, tr.V("patient::1").OutE("hasDisease").InV()), "11")
	expectIDs(t, elementIDs(t, tr.V("patient::1").OutE("hasDisease").OutV()), "patient::1")
}

func TestEdgeProperties(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	objs, err := g.Traversal().V("patient::1").OutE("hasDisease").ToList()
	if err != nil {
		t.Fatal(err)
	}
	el := objs[0].(*graph.Element)
	if !el.IsEdge || el.OutV != "patient::1" || el.InV != "11" {
		t.Fatalf("edge = %+v", el)
	}
	if el.Props["description"].Text() != "diagnosed 2018" {
		t.Fatalf("edge props = %v", el.Props)
	}
}

func TestCountPushdown(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	tr := g.Traversal()
	n, err := tr.V().Count().Next()
	if err != nil || n.(types.Value).I != 8 {
		t.Fatalf("V count = %v, %v", n, err)
	}
	n, _ = tr.V().HasLabel("disease").Count().Next()
	if n.(types.Value).I != 5 {
		t.Fatalf("disease count = %v", n)
	}
	n, _ = tr.E().Count().Next()
	if n.(types.Value).I != 6 {
		t.Fatalf("E count = %v", n)
	}
	n, _ = tr.V("patient::1").OutE("hasDisease").Count().Next()
	if n.(types.Value).I != 1 {
		t.Fatalf("outE count = %v", n)
	}
	n, _ = tr.V().HasLabel("patient").Values("subscriptionID").Sum().Next()
	if f, _ := n.(types.Value).Float(); f != 600 {
		t.Fatalf("sum = %v", n)
	}
	n, _ = tr.V().HasLabel("patient").Values("subscriptionID").Mean().Next()
	if n.(types.Value).F != 200 {
		t.Fatalf("mean = %v", n)
	}
	n, _ = tr.V().HasLabel("patient").Values("subscriptionID").Min().Next()
	if v, _ := n.(types.Value).Int(); v != 100 {
		t.Fatalf("min = %v", n)
	}
}

// TestDanglingLinkCountPushdown checks that a pushed count answers the same
// whatever the shape of its frontier when a link row points at a missing
// node. The overlay cannot reject such a row, and the pushed COUNT(*) counts
// it as an edge, as the paper's pushdown does; a duplicated frontier must
// count it too rather than materialize the hop and drop the unresolvable
// endpoint.
func TestDanglingLinkCountPushdown(t *testing.T) {
	db, g := newHealthGraph(t, DefaultOptions())
	if err := db.ExecScript(`
	INSERT INTO DiseaseOntology VALUES (11, 99, 'isa', '');
	INSERT INTO HasDisease VALUES (2, 11, 'diagnosed 2021');
	`); err != nil {
		t.Fatal(err)
	}
	tr := g.Traversal()
	count := func(q *gremlin.Traversal) int64 {
		t.Helper()
		v, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		return v.(types.Value).I
	}
	// Unique frontiers: disease 11 has a resolvable and a dangling link.
	if n := count(tr.V("11").Out().Count()); n != 2 {
		t.Fatalf("V('11').out().count() = %d, want 2 link rows", n)
	}
	if n := count(tr.V("10").Out().Count()); n != 1 {
		t.Fatalf("V('10').out().count() = %d, want 1", n)
	}
	if n := count(tr.V("11", "11").Out().Count()); n != 4 {
		t.Fatalf("V('11','11').out().count() = %d, want 2 × 2", n)
	}
	// Patients 1 and 2 both reach 11, patient 2 also reaches 10: the
	// frontier is {11 ×2, 10 ×1}.
	if n := count(tr.V("patient::1", "patient::2").Out("hasDisease").Out().Count()); n != 2*2+1 {
		t.Fatalf("duplicated-frontier out().count() = %d, want 2×2 + 1", n)
	}
}

func TestSimilarDiseasesScript(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	script := `
	similar_diseases = g.V().hasLabel('patient').has('patientID', 1).out('hasDisease')
	  .repeat(out('isa').dedup().store('x')).times(2)
	  .repeat(in('isa').dedup().store('x')).times(2).cap('x').next();
	g.V(similar_diseases).in('hasDisease').dedup().values('patientID', 'subscriptionID')`
	results, err := g.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := gremlin.ResultsToRows(results, []string{"patientID", "subscriptionID"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range rows {
		pid, _ := r[0].Int()
		sid, _ := r[1].Int()
		got[pid] = sid
	}
	if len(got) != 2 || got[1] != 100 || got[2] != 200 {
		t.Fatalf("similar patients = %v", got)
	}
}

func TestGraphQueryTableFunction(t *testing.T) {
	db, g := newHealthGraph(t, DefaultOptions())
	g.RegisterGraphQuery("graphQuery")
	// The paper's Section 4 synergistic query.
	rows, err := db.Query(`
		SELECT P.patientID, AVG(steps), AVG(exerciseMinutes)
		FROM DeviceData AS D,
		TABLE (graphQuery('gremlin', 'similar_diseases = g.V()
		.hasLabel(\'patient\').has(\'patientID\', 1).out(\'hasDisease\')
		.repeat(out(\'isa\').dedup().store(\'x\')).times(2)
		.repeat(in(\'isa\').dedup().store(\'x\')).times(2).cap(\'x\').next();
		g.V(similar_diseases).in(\'hasDisease\').dedup()
		.values(\'patientID\', \'subscriptionID\')'))
		AS P (patientID BIGINT, subscriptionID BIGINT)
		WHERE D.subscriptionID = P.subscriptionID
		GROUP BY P.patientID
		ORDER BY P.patientID`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %v", rows.All())
	}
	if rows.Row(0)[0].I != 1 || rows.Row(0)[1].F != 5000 {
		t.Fatalf("row 0 = %v", rows.Row(0))
	}
	if rows.Row(1)[0].I != 2 || rows.Row(1)[1].F != 9000 {
		t.Fatalf("row 1 = %v", rows.Row(1))
	}
}

func TestGraphSeesLiveUpdates(t *testing.T) {
	db, g := newHealthGraph(t, DefaultOptions())
	tr := g.Traversal()
	expectIDs(t, elementIDs(t, tr.V().HasLabel("patient")), "patient::1", "patient::2", "patient::3")
	// SQL-side insert is immediately visible to graph queries.
	if _, err := db.Exec("INSERT INTO Patient VALUES (4, 'Dave', '', 400)"); err != nil {
		t.Fatal(err)
	}
	expectIDs(t, elementIDs(t, tr.V().HasLabel("patient")),
		"patient::1", "patient::2", "patient::3", "patient::4")
	// SQL-side update visible.
	db.Exec("UPDATE Patient SET name = 'Alicia' WHERE patientID = 1")
	vals, err := tr.V("patient::1").Values("name").ToValues()
	if err != nil || vals[0].Text() != "Alicia" {
		t.Fatalf("after update: %v, %v", vals, err)
	}
	// SQL-side delete visible.
	db.Exec("DELETE FROM Patient WHERE patientID = 4")
	expectIDs(t, elementIDs(t, tr.V().HasLabel("patient")), "patient::1", "patient::2", "patient::3")
}

func TestViewAsDerivedEdgeTable(t *testing.T) {
	// The "surprising benefit": a view joining two edge tables becomes a
	// new edge type, automatically tracking base-table changes.
	db, _ := newHealthGraph(t, DefaultOptions())
	if _, err := db.Exec(`CREATE VIEW PatientToParent AS
		SELECT H.patientID AS pid, O.targetID AS parentID
		FROM HasDisease H JOIN DiseaseOntology O ON H.diseaseID = O.sourceID`); err != nil {
		t.Fatal(err)
	}
	cfg, _ := overlay.Parse([]byte(paperOverlay))
	cfg.ETables = append(cfg.ETables, overlay.ETable{
		TableName: "PatientToParent",
		SrcVTable: "Patient", SrcV: "'patient'::pid",
		DstVTable: "Disease", DstV: "parentID",
		ImplicitEdgeID: true, FixLabel: true, Label: "'hasParentDisease'",
	})
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Traversal()
	expectIDs(t, elementIDs(t, tr.V("patient::1").Out("hasParentDisease")), "10")
	// Deleting the underlying ontology edge removes the derived edge with
	// no application logic.
	db.Exec("DELETE FROM DiseaseOntology WHERE sourceID = 11")
	expectIDs(t, elementIDs(t, tr.V("patient::1").Out("hasParentDisease")))
}

// allOptionCombos builds option sets with single optimizations disabled.
func optionVariants() map[string]Options {
	variants := map[string]Options{"all-on": DefaultOptions()}
	mod := func(name string, f func(*Options)) {
		o := DefaultOptions()
		f(&o)
		variants[name] = o
	}
	mod("no-label-pruning", func(o *Options) { o.LabelPruning = false })
	mod("no-property-pruning", func(o *Options) { o.PropertyPruning = false })
	mod("no-prefix-pinning", func(o *Options) { o.PrefixedIDPinning = false })
	mod("no-srcdst-tables", func(o *Options) { o.SrcDstVertexTables = false })
	mod("no-vertex-from-edge", func(o *Options) { o.VertexFromEdge = false })
	mod("no-implicit-ids", func(o *Options) { o.ImplicitEdgeIDs = false })
	mod("no-stmt-cache", func(o *Options) { o.StatementCache = false })
	variants["all-off"] = Options{}
	return variants
}

// TestOptimizationsPreserveSemantics runs a query battery under every
// optimization configuration and demands identical results.
func TestOptimizationsPreserveSemantics(t *testing.T) {
	queries := []func(tr *gremlin.Source) *gremlin.Traversal{
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V().HasLabel("patient") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1", "11") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V().Has("conceptName", "diabetes") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1").Out("hasDisease") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1").OutE("hasDisease").InV() },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("11").Both("isa") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.E("patient::2::hasDisease::10") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.E("ontology::11::10").OutV() },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V().Count() },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1").OutE().Count() },
		func(tr *gremlin.Source) *gremlin.Traversal {
			return tr.V("10").In("hasDisease").Values("name")
		},
	}
	var baseline [][]string
	for name, opts := range optionVariants() {
		_, g := newHealthGraph(t, opts)
		for qi, q := range queries {
			got := elementIDs(t, q(g.Traversal()))
			if baseline == nil {
				continue
			}
			want := baseline[qi]
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Errorf("%s query %d: got %v, want %v", name, qi, got, want)
			}
		}
		if baseline == nil {
			baseline = make([][]string, len(queries))
			for qi, q := range queries {
				baseline[qi] = elementIDs(t, q(g.Traversal()))
			}
			// Re-run the loop for variant coverage of the first name too.
			for qi, q := range queries {
				got := elementIDs(t, q(g.Traversal()))
				if strings.Join(got, "|") != strings.Join(baseline[qi], "|") {
					t.Errorf("%s query %d unstable", name, qi)
				}
			}
		}
	}
}

func TestNaiveStrategiesSameResults(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	opt := g.Traversal()
	naive := g.NaiveTraversal()
	build := []func(tr *gremlin.Source) *gremlin.Traversal{
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V().HasLabel("patient").Has("name", "Bob") },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1").OutE("hasDisease").Count() },
		func(tr *gremlin.Source) *gremlin.Traversal { return tr.V("patient::1").Out("hasDisease") },
		func(tr *gremlin.Source) *gremlin.Traversal {
			return tr.V().HasLabel("patient").Values("subscriptionID").Sum()
		},
	}
	for i, b := range build {
		a := elementIDs(t, b(opt))
		n := elementIDs(t, b(naive))
		if strings.Join(a, "|") != strings.Join(n, "|") {
			t.Errorf("query %d: optimized %v != naive %v", i, a, n)
		}
	}
}

func TestStatementCacheAndAdvisor(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	tr := g.Traversal()
	// Repeat a property lookup often enough to become a frequent pattern.
	for i := 0; i < 10; i++ {
		if _, err := tr.V().HasLabel("patient").Has("name", "Alice").ToList(); err != nil {
			t.Fatal(err)
		}
	}
	pats := g.Stats()
	if len(pats) == 0 {
		t.Fatal("no tracked patterns")
	}
	if pats[0].Count < 10 {
		t.Fatalf("top pattern count = %d", pats[0].Count)
	}
	sugg := g.Dialect().SuggestIndexes(5)
	found := false
	for _, s := range sugg {
		if strings.EqualFold(s.Table, "patient") && len(s.Columns) == 1 && strings.EqualFold(s.Columns[0], "name") {
			found = true
			if !strings.Contains(s.DDL, "CREATE INDEX") {
				t.Fatalf("DDL = %q", s.DDL)
			}
		}
	}
	if !found {
		t.Fatalf("expected an index suggestion on Patient(name); got %+v", sugg)
	}
	// Existing indexes are not re-suggested.
	for _, s := range sugg {
		if strings.EqualFold(s.Table, "hasdisease") && len(s.Columns) == 1 && strings.EqualFold(s.Columns[0], "diseaseid") {
			t.Fatalf("suggested an already existing index: %+v", s)
		}
	}
}

func TestProjectionNarrowsFetch(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	objs, err := g.Traversal().V().HasLabel("patient").Has("patientID", 1).Values("name").ToList()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].(types.Value).Text() != "Alicia" && objs[0].(types.Value).Text() != "Alice" {
		t.Fatalf("projection result = %v", objs)
	}
	// Confirm the generated SQL used a narrowed select list.
	narrow := false
	for _, p := range g.Stats() {
		if strings.Contains(p.SQL, "FROM Patient") && !strings.Contains(p.SQL, "address") {
			narrow = true
		}
	}
	if !narrow {
		t.Errorf("no narrowed SELECT observed: %+v", g.Stats())
	}
}

func TestAggregatePushdownGeneratesAggregateSQL(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	if _, err := g.Traversal().V().HasLabel("patient").Count().Next(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range g.Stats() {
		if strings.Contains(p.SQL, "COUNT(*)") && strings.Contains(p.SQL, "FROM Patient") {
			found = true
		}
	}
	if !found {
		t.Errorf("no COUNT(*) pushdown observed: %+v", g.Stats())
	}
}

func TestRunScriptErrorsSurface(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	if _, err := g.Run("g.V().nosuch()"); err == nil {
		t.Fatal("bad script accepted")
	}
	if _, err := g.Run(""); err == nil {
		t.Fatal("empty script accepted")
	}
}

func TestGraphQueryRejectsBadInput(t *testing.T) {
	db, g := newHealthGraph(t, DefaultOptions())
	g.RegisterGraphQuery("graphQuery")
	if _, err := db.Query(`SELECT a FROM TABLE (graphQuery('sparql', 'x')) AS t (a BIGINT)`); err == nil {
		t.Fatal("unsupported language accepted")
	}
	if _, err := db.Query(`SELECT a FROM TABLE (graphQuery('gremlin')) AS t (a BIGINT)`); err == nil {
		t.Fatal("missing argument accepted")
	}
}

func TestOpenValidatesOverlay(t *testing.T) {
	db := engine.New()
	db.Exec("CREATE TABLE t (a BIGINT PRIMARY KEY)")
	cfg := &overlay.Config{VTables: []overlay.VTable{{TableName: "missing", ID: "a", Label: "'x'"}}}
	if _, err := Open(db, cfg, DefaultOptions()); err == nil {
		t.Fatal("overlay on missing table accepted")
	}
}

func TestLimitStepOverLabelScan(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	objs, err := g.Traversal().V().HasLabel("disease").Limit(2).ToList()
	if err != nil || len(objs) != 2 {
		t.Fatalf("limit = %v, %v", objs, err)
	}
}

func TestOrderByProperty(t *testing.T) {
	_, g := newHealthGraph(t, DefaultOptions())
	vals, err := g.Traversal().V().HasLabel("patient").OrderBy("subscriptionID", true).Values("name").ToValues()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Text() != "Carol" {
		t.Fatalf("order = %v", vals)
	}
}

func TestTemporalGraphSnapshot(t *testing.T) {
	// Temporal tables give "graph as of" semantics through SQL; the graph
	// layer reads live data, so this exercises the paper's claim that
	// bi-temporal support comes from the underlying engine.
	db := engine.New()
	if err := db.ExecScript(`
		CREATE TABLE Person (id BIGINT PRIMARY KEY, name VARCHAR(50)) WITH SYSTEM VERSIONING;
		INSERT INTO Person VALUES (1, 'before');`); err != nil {
		t.Fatal(err)
	}
	ts := db.Now()
	db.Exec("UPDATE Person SET name = 'after' WHERE id = 1")
	rows, err := db.Query("SELECT name FROM Person FOR SYSTEM_TIME AS OF ?", ts)
	if err != nil || rows.Row(0)[0].Text() != "before" {
		t.Fatalf("as-of = %v, %v", rows, err)
	}
	cfg := &overlay.Config{VTables: []overlay.VTable{{
		TableName: "Person", ID: "id", FixLabel: true, Label: "'person'",
	}}}
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals, err := g.Traversal().V("1").Values("name").ToValues()
	if err != nil || vals[0].Text() != "after" {
		t.Fatalf("live graph = %v, %v", vals, err)
	}
}
