package linkbench

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"db2graph/internal/core"
	"db2graph/internal/gdbx"
	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/janus"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

func smallConfig() Config {
	cfg := DefaultConfig(500)
	return cfg
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	d1 := Generate(smallConfig())
	d2 := Generate(smallConfig())
	if len(d1.Edges) != len(d2.Edges) {
		t.Fatalf("non-deterministic generation: %d vs %d edges", len(d1.Edges), len(d2.Edges))
	}
	for i := range d1.Edges {
		if d1.Edges[i] != d2.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	st := d1.Stats()
	if st.Vertices != 500 {
		t.Fatalf("vertices = %d", st.Vertices)
	}
	// Average degree near the configured 4.3 (dedup trims a little).
	if st.AvgDegree < 2.5 || st.AvgDegree > 5.5 {
		t.Fatalf("avg degree = %.2f", st.AvgDegree)
	}
	// Heavy tail: the hub dominates.
	if st.MaxDegree < 20 {
		t.Fatalf("max degree = %d", st.MaxDegree)
	}
	if st.CSVBytes <= 0 {
		t.Fatal("csv bytes = 0")
	}
	// Edge (src,type,dst) triples are unique.
	seen := map[[3]int64]bool{}
	for _, e := range d1.Edges {
		k := [3]int64{e.Src, int64(e.Type), e.Dst}
		if seen[k] {
			t.Fatalf("duplicate link %v", k)
		}
		seen[k] = true
		if e.Src == e.Dst {
			t.Fatalf("self loop %v", k)
		}
	}
}

func TestVertexIDsAndLabels(t *testing.T) {
	d := Generate(smallConfig())
	if d.VertexID(13) != "13" {
		t.Fatalf("VertexID = %q", d.VertexID(13))
	}
	if VertexLabel(3) != "nodeT3" || EdgeLabel(7) != "linkT7" {
		t.Fatal("labels wrong")
	}
	single := Generate(Config{Vertices: 10, VertexTypes: 10, EdgeTypes: 10, AvgDegree: 2, Seed: 1, Layout: LayoutSingle})
	if single.VertexID(7) != "7" {
		t.Fatalf("single-layout id = %q", single.VertexID(7))
	}
}

func TestQueriesRenderTable1(t *testing.T) {
	q := Query{Kind: GetNode, ID1: "1", Label: "nodeT1"}
	if q.Gremlin() != "g.V('1').hasLabel('nodeT1')" {
		t.Fatalf("getNode = %q", q.Gremlin())
	}
	q = Query{Kind: CountLinks, ID1: "1", Label: "linkT2"}
	if q.Gremlin() != "g.V('1').outE('linkT2').count()" {
		t.Fatalf("countLinks = %q", q.Gremlin())
	}
	q = Query{Kind: GetLink, ID1: "a", Label: "l", ID2: "b"}
	if q.Gremlin() != "g.V('a').outE('l').filter(inV().id() == 'b')" {
		t.Fatalf("getLink = %q", q.Gremlin())
	}
	q = Query{Kind: GetLinkList, ID1: "a", Label: "l"}
	if q.Gremlin() != "g.V('a').outE('l')" {
		t.Fatalf("getLinkList = %q", q.Gremlin())
	}
	names := []string{GetNode.String(), CountLinks.String(), GetLink.String(), GetLinkList.String()}
	if strings.Join(names, ",") != "getNode,countLinks,getLink,getLinkList" {
		t.Fatalf("names = %v", names)
	}
}

// loadAll loads the same dataset into all three systems.
func loadAll(t *testing.T, d *Dataset) (db2 *gremlin.Source, gx *gremlin.Source, jn *gremlin.Source) {
	t.Helper()
	db := engine.New()
	cfg, err := d.LoadSQL(db)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Open(db, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	gdbxG := gdbx.New(gdbx.Config{PrefetchOnOpen: true})
	if err := d.LoadBackend(gdbxG); err != nil {
		t.Fatal(err)
	}
	if err := gdbxG.Seal(); err != nil {
		t.Fatal(err)
	}

	janusG := janus.New()
	loader := janusG.NewBulkLoader()
	if err := d.LoadBackend(loader); err != nil {
		t.Fatal(err)
	}
	if err := loader.Flush(); err != nil {
		t.Fatal(err)
	}

	return g.Traversal(), gremlin.NewSource(gdbxG), gremlin.NewSource(janusG)
}

// janus.BulkLoader must satisfy graph.Mutable for LoadBackend.
var _ graph.Mutable = (*janus.BulkLoader)(nil)

func resultKey(objs []any) string {
	var parts []string
	for _, o := range objs {
		switch x := o.(type) {
		case *graph.Element:
			parts = append(parts, x.ID)
		case types.Value:
			parts = append(parts, x.Text())
		default:
			parts = append(parts, "?")
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// TestAllSystemsAgree is the cross-system correctness anchor for the
// benchmark harness: the four LinkBench queries return identical results
// on Db2 Graph, GDB-X, and JanusGraph.
func TestAllSystemsAgree(t *testing.T) {
	d := Generate(smallConfig())
	db2, gx, jn := loadAll(t, d)
	w := d.NewWorkload(7)
	for i := 0; i < 100; i++ {
		q := w.NextAny()
		a, err := q.Build(db2).ToList()
		if err != nil {
			t.Fatalf("db2graph %s: %v", q.Gremlin(), err)
		}
		b, err := q.Build(gx).ToList()
		if err != nil {
			t.Fatalf("gdbx %s: %v", q.Gremlin(), err)
		}
		c, err := q.Build(jn).ToList()
		if err != nil {
			t.Fatalf("janus %s: %v", q.Gremlin(), err)
		}
		ka, kb, kc := resultKey(a), resultKey(b), resultKey(c)
		if ka != kb || ka != kc {
			t.Fatalf("query %s diverged:\n db2graph=%s\n gdbx=%s\n janus=%s", q.Gremlin(), ka, kb, kc)
		}
		if q.Kind == GetNode && len(a) != 1 {
			t.Fatalf("getNode returned %d results", len(a))
		}
	}
}

func TestGremlinTextMatchesBuilder(t *testing.T) {
	d := Generate(smallConfig())
	db2, _, _ := loadAll(t, d)
	w := d.NewWorkload(11)
	for i := 0; i < 20; i++ {
		q := w.NextAny()
		a, err := q.Build(db2).ToList()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gremlin.ParseTraversal(db2, q.Gremlin(), nil)
		if err != nil {
			t.Fatalf("parse %q: %v", q.Gremlin(), err)
		}
		b, err := tr.ToList()
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(a) != resultKey(b) {
			t.Fatalf("builder and text diverge for %s", q.Gremlin())
		}
	}
}

func TestSingleLayoutWorks(t *testing.T) {
	cfg := smallConfig()
	cfg.Layout = LayoutSingle
	d := Generate(cfg)
	db := engine.New()
	ocfg, err := d.LoadSQL(db)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Open(db, ocfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := g.Traversal()
	w := d.NewWorkload(3)
	for i := 0; i < 30; i++ {
		q := w.NextAny()
		if _, err := q.Build(src).ToList(); err != nil {
			t.Fatalf("%s: %v", q.Gremlin(), err)
		}
	}
	// getNode must find exactly one vertex.
	q := w.Next(GetNode)
	objs, err := q.Build(src).ToList()
	if err != nil || len(objs) != 1 {
		t.Fatalf("getNode on single layout = %v, %v", objs, err)
	}
}

func TestMeasureLatency(t *testing.T) {
	d := Generate(DefaultConfig(200))
	db2, _, _ := loadAll(t, d)
	w := d.NewWorkload(5)
	res, err := MeasureLatency(db2, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Ops != 5 || r.Mean <= 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestMeasureThroughput(t *testing.T) {
	d := Generate(DefaultConfig(200))
	db2, _, _ := loadAll(t, d)
	w := d.NewWorkload(5)
	res, err := MeasureThroughput(db2, w, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Ops != 20 || r.OpsSec <= 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestExportCSV(t *testing.T) {
	d := Generate(DefaultConfig(100))
	dir := t.TempDir()
	n, err := d.ExportCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("no bytes exported")
	}
	nodes, err := os.ReadFile(filepath.Join(dir, "nodes.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(nodes)), "\n")) != 100 {
		t.Fatal("nodes.csv row count wrong")
	}
	links, err := os.ReadFile(filepath.Join(dir, "links.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(nodes)+len(links)) != n {
		t.Fatalf("byte accounting: %d + %d != %d", len(nodes), len(links), n)
	}
	// csvBytes estimate matches the real export.
	if d.Stats().CSVBytes != n {
		t.Fatalf("csvBytes estimate %d != actual %d", d.Stats().CSVBytes, n)
	}
}

func TestCountLinksMatchesDataset(t *testing.T) {
	d := Generate(DefaultConfig(300))
	db2, _, _ := loadAll(t, d)
	// Count ground truth for a few (src, type) pairs.
	type key struct {
		src int64
		t   int
	}
	truth := map[key]int64{}
	for _, e := range d.Edges {
		truth[key{e.Src, e.Type}]++
	}
	checked := 0
	for k, want := range truth {
		if checked >= 20 {
			break
		}
		checked++
		q := Query{Kind: CountLinks, ID1: d.VertexID(k.src), Label: EdgeLabel(k.t)}
		obj, err := q.Build(db2).Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(types.Value).I; got != want {
			t.Fatalf("countLinks(%v) = %d, want %d", k, got, want)
		}
	}
}
