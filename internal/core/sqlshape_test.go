package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
)

// TestGeneratedSQLMatchesPaperShapes verifies the SQL the dialect emits for
// the paper's worked examples (Sections 6.1-6.2) has the documented shape.
func TestGeneratedSQLMatchesPaperShapes(t *testing.T) {
	db := engine.New()
	if err := db.ExecScript(`
		CREATE TABLE VertexTable (id BIGINT PRIMARY KEY, name VARCHAR(50), age BIGINT);
		CREATE TABLE EdgeTable (src_v BIGINT NOT NULL, dst_v BIGINT NOT NULL, metIn VARCHAR(20),
			PRIMARY KEY (src_v, dst_v));
		CREATE INDEX idx_e_src ON EdgeTable (src_v);
		INSERT INTO VertexTable VALUES (1, 'Alice', 40), (2, 'Bob', 50), (3, 'Cara', 60);
		INSERT INTO EdgeTable VALUES (1, 2, 'US'), (1, 3, 'FR'), (2, 3, 'US');
	`); err != nil {
		t.Fatal(err)
	}
	cfg := &overlay.Config{
		VTables: []overlay.VTable{{
			TableName: "VertexTable", ID: "id", FixLabel: true, Label: "'person'",
			Properties: []string{"name", "age"},
		}},
		ETables: []overlay.ETable{{
			TableName: "EdgeTable", SrcVTable: "VertexTable", SrcV: "src_v",
			DstVTable: "VertexTable", DstV: "dst_v",
			ImplicitEdgeID: true, FixLabel: true, Label: "'met'",
			Properties: []string{"metIn"},
		}},
	}
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Traversal()

	findSQL := func(substrs ...string) string {
		t.Helper()
		for _, p := range g.Stats() {
			ok := true
			for _, sub := range substrs {
				if !strings.Contains(p.SQL, sub) {
					ok = false
					break
				}
			}
			if ok {
				return p.SQL
			}
		}
		return ""
	}

	// Section 6.2 predicate pushdown: g.V().has('name','Alice') becomes
	// SELECT ... FROM VertexTable WHERE name = ?.
	if _, err := tr.V().Has("name", "Alice").ToList(); err != nil {
		t.Fatal(err)
	}
	if sql := findSQL("FROM VertexTable", "name = ?"); sql == "" {
		t.Fatalf("predicate pushdown SQL missing; have %+v", g.Stats())
	}

	// Section 6.2 aggregate pushdown: g.V().count() becomes
	// SELECT COUNT(*) FROM VertexTable.
	if _, err := tr.V().Count().Next(); err != nil {
		t.Fatal(err)
	}
	if sql := findSQL("SELECT COUNT(*)", "FROM VertexTable"); sql == "" {
		t.Fatalf("aggregate pushdown SQL missing; have %+v", g.Stats())
	}

	// Section 6.2 combined example: g.V(ids).outE().has('metIn','US').count()
	// becomes one SELECT COUNT(*) FROM EdgeTable WHERE src_v IN (...) AND
	// metIn = ? — the GraphStep::VertexStep mutation removed the vertex
	// fetch entirely.
	before := len(g.Stats())
	n, err := tr.V("1", "2").OutE().Has("metIn", "US").Count().Next()
	if err != nil {
		t.Fatal(err)
	}
	if gremlin.Display(n) != "2" {
		t.Fatalf("count = %v", gremlin.Display(n))
	}
	if sql := findSQL("SELECT COUNT(*)", "FROM EdgeTable", "src_v IN (?)", "metIn = ?"); sql == "" {
		t.Fatalf("combined pushdown SQL missing; have %+v", g.Stats())
	}
	// Exactly one new SQL template appeared for the whole query.
	if grown := len(g.Stats()) - before; grown != 1 {
		t.Fatalf("combined query created %d SQL templates, want 1", grown)
	}
	// No VertexTable statement was issued for it (mutation removed g.V()).
	for _, p := range g.Stats() {
		if strings.Contains(p.SQL, "FROM VertexTable") && strings.Contains(p.SQL, "id IN") {
			t.Fatalf("vertex fetch not eliminated: %s", p.SQL)
		}
	}

	// Section 6.1 naive shape: without strategies the same traversal issues
	// the wasteful vertex query too.
	naive := g.NaiveTraversal()
	if _, err := naive.V("1", "2").OutE().Has("metIn", "US").Count().Next(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range g.Stats() {
		if strings.Contains(p.SQL, "FROM VertexTable") &&
			(strings.Contains(p.SQL, "id IN") || strings.Contains(p.SQL, "id = ?")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("naive execution should fetch vertices; have %+v", g.Stats())
	}
}

// TestOneStatementPerTableShape holds the frontier to one bound list: id
// fetches, edge fetches and edge counts over frontiers of 1, 3, 64 and 200
// ids each issue one statement text per table, so the dialect tracks one
// pattern per (table, shape), used once per frontier.
func TestOneStatementPerTableShape(t *testing.T) {
	db := engine.New()
	if err := db.ExecScript(`
		CREATE TABLE VertexTable (id BIGINT PRIMARY KEY, name VARCHAR(50));
		CREATE TABLE EdgeTable (src_v BIGINT NOT NULL, dst_v BIGINT NOT NULL, PRIMARY KEY (src_v, dst_v));
		CREATE INDEX idx_e_src ON EdgeTable (src_v);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := db.Exec("INSERT INTO VertexTable VALUES (?, ?)", i, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO EdgeTable VALUES (?, ?)", i, (i+1)%256); err != nil {
			t.Fatal(err)
		}
	}
	cfg := &overlay.Config{
		VTables: []overlay.VTable{{TableName: "VertexTable", ID: "id", FixLabel: true, Label: "'v'", Properties: []string{"name"}}},
		ETables: []overlay.ETable{{
			TableName: "EdgeTable", SrcVTable: "VertexTable", SrcV: "src_v", DstVTable: "VertexTable", DstV: "dst_v",
			ImplicitEdgeID: true, FixLabel: true, Label: "'e'",
		}},
	}
	g, err := Open(db, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sizes := []int{1, 3, 64, 200}
	for _, n := range sizes {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprint(i)
		}
		vs, err := g.V(ctx, &graph.Query{IDs: ids})
		if err != nil || len(vs) != n {
			t.Fatalf("V over %d ids = %d vertices, %v", n, len(vs), err)
		}
		es, err := g.VertexEdges(ctx, ids, graph.DirOut, nil)
		if err != nil || len(es) != n {
			t.Fatalf("out edges of %d ids = %d, %v", n, len(es), err)
		}
		c, err := g.AggVertexEdges(ctx, ids, graph.DirOut, nil, graph.Agg{Kind: graph.AggCount})
		if err != nil || c.I != int64(n) {
			t.Fatalf("out edge count of %d ids = %v, %v", n, c, err)
		}
	}
	pats := g.Stats()
	if len(pats) != 3 {
		t.Fatalf("%d patterns, want one each for the vertex fetch, edge fetch and edge count: %+v", len(pats), pats)
	}
	for _, p := range pats {
		if p.Count != int64(len(sizes)) || !strings.Contains(p.SQL, " IN (?)") {
			t.Fatalf("pattern %+v: want one list-bound IN (?) statement used %d times", p, len(sizes))
		}
	}
}
