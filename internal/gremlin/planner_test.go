package gremlin

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// skewGraph builds the skewed-degree property graph the planner tests run
// on: a hub topic every user follows (duplicate-endpoint skew), a dense
// mention ring (high fan-out), and a sparse knows relation, with a small
// integer group property for predicates.
func skewGraph(t testing.TB) *graph.MemBackend {
	m := graph.NewMemBackend()
	add := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	const users = 40
	for i := 0; i < 3; i++ {
		add(m.AddVertex(&graph.Element{ID: fmt.Sprintf("t%d", i), Label: "topic"}))
	}
	for i := 0; i < users; i++ {
		g, _ := types.FromGo(i % 4)
		n, _ := types.FromGo(fmt.Sprintf("user%d", i))
		add(m.AddVertex(&graph.Element{ID: fmt.Sprintf("u%d", i), Label: "user",
			Props: map[string]types.Value{"group": g, "name": n}}))
	}
	eid := 0
	edge := func(label, out, in string) {
		eid++
		add(m.AddEdge(&graph.Element{ID: fmt.Sprintf("e%d", eid), Label: label,
			OutV: out, InV: in, IsEdge: true}))
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("u%d", i)
		edge("follows", u, "t0") // hub: every user follows t0
		if i%4 == 0 {
			edge("follows", u, "t1")
		}
		edge("likes", "t0", u) // hub likes back
		for j := 1; j <= 6; j++ {
			edge("mentions", u, fmt.Sprintf("u%d", (i+j)%users))
		}
		edge("knows", u, fmt.Sprintf("u%d", (i*7)%users))
	}
	edge("follows", "u0", "t2")
	return m
}

// randScript generates one random traversal over the skew graph. The
// generator is loosely typed (it tracks element-vs-value streams) so most
// scripts execute successfully; the rest must fail identically planned and
// unplanned.
func randScript(r *rand.Rand) string {
	labels := []string{"follows", "likes", "mentions", "knows"}
	pick := func(ss []string) string { return ss[r.Intn(len(ss))] }
	labelArgs := func() string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return "'" + pick(labels) + "'"
		default:
			a, b := pick(labels), pick(labels)
			return "'" + a + "','" + b + "'"
		}
	}
	var b strings.Builder
	switch r.Intn(4) {
	case 0:
		b.WriteString("g.V()")
	case 1:
		fmt.Fprintf(&b, "g.V('u%d')", r.Intn(40))
	case 2:
		fmt.Fprintf(&b, "g.V('u%d','u%d','t0')", r.Intn(40), r.Intn(40))
	default:
		b.WriteString("g.V('t0')")
	}
	values := false
	for n := 1 + r.Intn(4); n > 0 && !values; n-- {
		switch r.Intn(12) {
		case 0, 1, 2:
			fmt.Fprintf(&b, ".%s(%s)", pick([]string{"out", "in", "both"}), labelArgs())
		case 3:
			fmt.Fprintf(&b, ".%sE('%s').%s", pick([]string{"out", "in"}), pick(labels),
				pick([]string{"inV()", "outV()", "otherV()"}))
		case 4:
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&b, ".has('group', %d)", r.Intn(4))
			case 1:
				fmt.Fprintf(&b, ".has('group', gt(%d))", r.Intn(3))
			default:
				fmt.Fprintf(&b, ".has('group', within(%d, %d))", r.Intn(4), r.Intn(4))
			}
		case 5:
			fmt.Fprintf(&b, ".hasLabel('%s')", pick([]string{"user", "topic"}))
		case 6:
			b.WriteString(".dedup()")
		case 7:
			fmt.Fprintf(&b, ".limit(%d)", 1+r.Intn(20))
		case 8:
			fmt.Fprintf(&b, ".where(out('%s'))", pick(labels))
		case 9:
			fmt.Fprintf(&b, ".not(out('%s'))", pick(labels))
		case 10:
			b.WriteString(".values('name')")
			values = true
		default:
			fmt.Fprintf(&b, ".hasId('u%d', 'u%d', 't0')", r.Intn(40), r.Intn(40))
		}
	}
	switch r.Intn(4) {
	case 0:
		b.WriteString(".count()")
	case 1:
		if !values {
			b.WriteString(".order().by('name')")
		}
	case 2:
		if !values {
			b.WriteString(".groupCount().by('group')")
		}
	}
	return b.String()
}

// render serializes results for exact comparison.
func render(objs []any) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = Display(o)
	}
	return strings.Join(parts, ",")
}

// TestPlannerRandomDifferential is the property test behind the cost model:
// 500 random traversals over the skewed graph must return bit-identical
// results planned (statistics + shape-keyed plan cache) and unplanned.
// Each script runs twice planned, so the second execution covers the
// prepared-plan rebinding path.
func TestPlannerRandomDifferential(t *testing.T) {
	m := skewGraph(t)
	sp := graph.NewStatsProvider(m)
	if _, err := sp.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	golden := NewSource(m)
	planned := NewSource(m).WithPlanCache(NewPlanCache(0)).WithStats(sp)

	r := rand.New(rand.NewSource(20260808))
	for i := 0; i < 500; i++ {
		script := randScript(r)
		wantObjs, wantErr := RunScript(golden, script, nil)
		for round := 0; round < 2; round++ {
			gotObjs, gotErr := RunScript(planned, script, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("script %d %q round %d: planned err %v, unplanned err %v",
					i, script, round, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got, want := render(gotObjs), render(wantObjs); got != want {
				t.Fatalf("script %d %q round %d diverged\n got: %s\nwant: %s",
					i, script, round, got, want)
			}
		}
	}
}

// TestPlanCacheLiteralVariantsShareOnePlan is the regression test for the
// old exact-text keying: two scripts differing only in literals must compile
// once and share a single cached plan (the second is a hit).
func TestPlanCacheLiteralVariantsShareOnePlan(t *testing.T) {
	src := testGraph(t).WithPlanCache(NewPlanCache(0))
	a, err := RunScript(src, `g.V('p1').out('hasDisease').values('conceptName')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScript(src, `g.V('p2').out('hasDisease').values('conceptName')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := src.PlanCache.Stats()
	if st.Entries != 1 {
		t.Fatalf("literal variants compiled %d plans, want 1 shared (stats %+v)", st.Entries, st)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want 1 miss + 1 hit, got %+v", st)
	}
	if render(a) == render(b) {
		t.Fatalf("p1/p2 variants returned identical results %q; binding did not substitute", render(a))
	}
	// The same ids must keep answering correctly after many rebinding
	// rounds against the shared template.
	for i := 0; i < 3; i++ {
		again, err := RunScript(src, `g.V('p1').out('hasDisease').values('conceptName')`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if render(again) != render(a) {
			t.Fatalf("rebinding drifted: %q vs %q", render(again), render(a))
		}
	}
}

// TestPlanCacheHitRateLiteralWorkload replays a literal-varying workload —
// the shape mix a parameterized OLTP client produces — and requires a >90%
// plan-cache hit rate. Under exact-text keying this workload measured ~0%.
func TestPlanCacheHitRateLiteralWorkload(t *testing.T) {
	m := skewGraph(t)
	src := NewSource(m).WithPlanCache(NewPlanCache(0))
	shapes := []func(i int) string{
		func(i int) string { return fmt.Sprintf(`g.V('u%d').out('follows')`, i%40) },
		func(i int) string {
			return fmt.Sprintf(`g.V('u%d').out('mentions').has('group', %d).count()`, i%40, i%4)
		},
		func(i int) string { return fmt.Sprintf(`g.V().has('group', %d).out('knows').values('name')`, i%4) },
		func(i int) string {
			return fmt.Sprintf(`g.V('u%d','u%d').both('mentions').dedup().count()`, i%40, (i*3)%40)
		},
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for _, shape := range shapes {
			if _, err := RunScript(src, shape(i), nil); err != nil {
				t.Fatalf("%q: %v", shape(i), err)
			}
		}
	}
	st := src.PlanCache.Stats()
	total := st.Hits + st.Misses
	rate := float64(st.Hits) / float64(total)
	if rate <= 0.9 {
		t.Fatalf("hit rate %.3f (%d/%d), want > 0.9: %+v", rate, st.Hits, total, st)
	}
	if st.Entries != int64(len(shapes)) {
		t.Fatalf("workload of %d shapes cached %d plans: %+v", len(shapes), st.Entries, st)
	}
}

// TestPlanCacheEviction fills a tiny cache past capacity and checks LRU
// eviction bookkeeping.
func TestPlanCacheEviction(t *testing.T) {
	src := testGraph(t).WithPlanCache(NewPlanCache(2))
	scripts := []string{
		`g.V().hasLabel('patient').count()`,
		`g.V().hasLabel('disease').count()`,
		`g.V().out('isa').count()`,
	}
	for _, s := range scripts {
		if _, err := RunScript(src, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := src.PlanCache.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 entries + 1 eviction, got %+v", st)
	}
	// The evicted (least recently used) shape recompiles: a miss.
	if _, err := RunScript(src, scripts[0], nil); err != nil {
		t.Fatal(err)
	}
	if st = src.PlanCache.Stats(); st.Misses != 4 {
		t.Fatalf("evicted shape should miss (4 total), got %+v", st)
	}
}

// TestPlanCacheInvalidation checks both invalidation axes of the plan key:
// a backend configuration change and a statistics epoch change must each
// retire cached plans (age-out keying, not explicit flush).
func TestPlanCacheInvalidation(t *testing.T) {
	m := skewGraph(t)
	sp := graph.NewStatsProvider(m)
	src := NewSource(m).WithPlanCache(NewPlanCache(0)).WithStats(sp)
	script := `g.V('u1').out('follows')`

	run := func() {
		t.Helper()
		if _, err := RunScript(src, script, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	st := src.PlanCache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warmup: want 1 miss + 1 hit, got %+v", st)
	}

	// A new statistics epoch must recompile (the plan was costed — or not
	// costed at all — under the old epoch).
	if _, err := sp.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	run()
	if st = src.PlanCache.Stats(); st.Misses != 2 {
		t.Fatalf("stats epoch bump should miss, got %+v", st)
	}
	run()
	if st = src.PlanCache.Stats(); st.Hits != 2 {
		t.Fatalf("same epoch should hit again, got %+v", st)
	}
}

// TestExplainReportShape checks the explain() terminal step end to end:
// static and costed reports, estimate vs actual columns, and the scan note.
func TestExplainReportShape(t *testing.T) {
	m := skewGraph(t)
	src := NewSource(m)
	res, err := RunScript(src, `g.V().out('follows').explain()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := res[0].(*ExplainReport)
	if !ok {
		t.Fatalf("explain returned %T, want *ExplainReport", res[0])
	}
	if rep.Costed {
		t.Fatal("report costed without statistics")
	}
	if !strings.Contains(rep.String(), "static (no statistics)") {
		t.Fatalf("static render missing marker:\n%s", rep.String())
	}

	sp := graph.NewStatsProvider(m)
	if _, err := sp.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err = RunScript(src.WithStats(sp), `g.V().out('follows').explain()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = res[0].(*ExplainReport)
	if !rep.Costed || !rep.StatsFresh {
		t.Fatalf("want costed+fresh report, got %+v", rep)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("want 2 plan nodes, got %d: %s", len(rep.Nodes), rep.String())
	}
	hop := rep.Nodes[1]
	if hop.EstRows < 0 {
		t.Fatalf("hop estimate missing: %+v", hop)
	}
	if hop.ActualRows != 51 { // 40 u->t0, 10 u->t1, 1 u0->t2
		t.Fatalf("hop actual rows = %d, want 51", hop.ActualRows)
	}
	if root := rep.Nodes[0]; len(root.Notes) != 1 || root.Notes[0] != "full scan" || root.EstRows != 43 {
		t.Fatalf("root scan should estimate 43 rows by full scan: %+v", root)
	}
	// explain() anywhere but last is a planning error.
	if _, err := RunScript(src, `g.V().explain().count()`, nil); err == nil {
		t.Fatal("mid-chain explain() should fail")
	}
}

// TestPreparedMarkerStringsAreInert checks the normalization guard: a script
// whose *string literal* contains the parameter-marker prefix is not cached
// (shapeSafe), leaves no cache entry, and answers correctly on every run.
func TestPreparedMarkerStringsAreInert(t *testing.T) {
	src := testGraph(t).WithPlanCache(NewPlanCache(0))
	script := "g.V().has('name', '\x00gp\x000')"
	for round := 0; round < 2; round++ {
		res, err := RunScript(src, script, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res) != 0 {
			t.Fatalf("round %d: marker-looking literal matched %d vertices", round, len(res))
		}
		if st := src.PlanCache.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("round %d: marker-looking script touched the plan cache: %+v", round, st)
		}
	}
	// The guard is per script: an ordinary literal still caches.
	res, err := RunScript(src, "g.V().has('name', 'Alice')", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("has('name','Alice') matched %d vertices, want 1", len(res))
	}
	if st := src.PlanCache.Stats(); st.Entries != 1 {
		t.Fatalf("ordinary script should cache one plan: %+v", st)
	}
}
