// Cache invalidation conformance: interleaves mutations with cached
// traversals and proves read-your-writes — a query issued after a mutation
// completes must observe it, no matter what the plan cache, the backend's
// topology/adjacency caches, or batched expansion have memoized from the
// pre-mutation state. A reference MemBackend mirror receives every mutation
// and supplies the expected (order-insensitive) results. A final phase runs
// readers against a concurrent mutator under -race: results must always be
// consistent with some prefix of the mutation sequence, and the post-join
// state must match the mirror exactly.
package graphtest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/sql/types"
)

// invalidationScripts cover the cached read paths: vertex lookups (vertex
// caches), neighbor expansion (adjacency caches and batched multi-gets), and
// aggregate pushdowns, all as scripts so the plan cache engages too.
var invalidationScripts = []string{
	`g.V()`,
	`g.V().count()`,
	`g.V().hasLabel('patient')`,
	`g.V().out()`,
	`g.V().in('isa')`,
	`g.V().both().dedup()`,
	`g.V().outE()`,
	`g.V('p1').out('hasDisease').out('isa')`,
	`g.V().out().out().count()`,
	`g.E().count()`,
}

// renderSorted renders traversal results order-insensitively: backends order
// scans differently (table order vs key order), and freshness — not order —
// is what this suite proves.
func renderSorted(objs []any) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = gremlin.Display(o)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// RunCacheInvalidation executes the invalidation suite. build returns the
// backend plus the mutation interface for its underlying store (the backend
// itself for the standalone databases; a SQL-INSERT adapter for the
// overlay, whose writes go through DML like any other Db2 client's).
func RunCacheInvalidation(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, graph.Mutable, error)) {
	t.Helper()
	// The fan-out set gives hops wide frontiers, so a stale adjacency
	// entry among many cannot hide.
	vs, es := FanoutDataset()
	b, mut, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}

	// Mirror oracle: plain MemBackend, mutated in lockstep.
	mirror := graph.NewMemBackend()
	for _, v := range vs {
		if err := mirror.AddVertex(v); err != nil {
			t.Fatalf("mirror vertex: %v", err)
		}
	}
	for _, e := range es {
		if err := mirror.AddEdge(e); err != nil {
			t.Fatalf("mirror edge: %v", err)
		}
	}
	msrc := gremlin.NewSource(mirror)

	src := gremlin.NewSource(b).WithPlanCache(gremlin.NewPlanCache(0))
	check := func(phase string) {
		t.Helper()
		for _, script := range invalidationScripts {
			want, err := gremlin.RunScript(msrc, script, nil)
			if err != nil {
				t.Fatalf("%s: mirror %q: %v", phase, script, err)
			}
			got, err := gremlin.RunScript(src, script, nil)
			if err != nil {
				t.Fatalf("%s: %q: %v", phase, script, err)
			}
			if g, w := renderSorted(got), renderSorted(want); g != w {
				t.Fatalf("%s: %q stale or wrong\n got: %s\nwant: %s",
					phase, script, g, w)
			}
		}
	}
	prop := func(kv ...any) map[string]types.Value {
		out := map[string]types.Value{}
		for i := 0; i+1 < len(kv); i += 2 {
			v, _ := types.FromGo(kv[i+1])
			out[kv[i].(string)] = v
		}
		return out
	}
	addVertex := func(el *graph.Element) {
		t.Helper()
		if err := mut.AddVertex(el); err != nil {
			t.Fatalf("AddVertex(%s): %v", el.ID, err)
		}
		if err := mirror.AddVertex(el); err != nil {
			t.Fatalf("mirror AddVertex(%s): %v", el.ID, err)
		}
	}
	addEdge := func(el *graph.Element) {
		t.Helper()
		if err := mut.AddEdge(el); err != nil {
			t.Fatalf("AddEdge(%s): %v", el.ID, err)
		}
		if err := mirror.AddEdge(el); err != nil {
			t.Fatalf("mirror AddEdge(%s): %v", el.ID, err)
		}
	}

	// Phase 1: warm every cache, then interleave mutations with cached
	// traversals — each mutation must be visible to the very next query.
	check("cold")
	check("warm") // second pass served by caches
	steps := []func(){
		func() {
			addVertex(&graph.Element{ID: "p4", Label: "patient",
				Props: prop("patientID", 4, "name", "Dave", "subscriptionID", 400)})
		},
		func() {
			addEdge(&graph.Element{ID: "e7", Label: "hasDisease", OutV: "p4", InV: "d12",
				Props: prop("description", "2021"), IsEdge: true})
		},
		func() {
			addVertex(&graph.Element{ID: "d14", Label: "disease",
				Props: prop("conceptName", "type 1 diabetes")})
		},
		func() {
			addEdge(&graph.Element{ID: "e8", Label: "isa", OutV: "d14", InV: "d10", IsEdge: true})
		},
		func() {
			addEdge(&graph.Element{ID: "e9", Label: "hasDisease", OutV: "p2", InV: "d14",
				Props: prop("description", "2022"), IsEdge: true})
		},
	}
	for i, step := range steps {
		step()
		check(fmt.Sprintf("mutation %d", i+1))
	}

	// Phase 2: readers race a concurrent mutator. Edges only ever get added,
	// so every observed edge count must fall within [before, before+n] — a
	// cached pre-mutation answer served post-mutation would show up here as
	// a count below a previously observed one.
	const concurrentEdges = 16
	// Readers share one source and its plan cache.
	const invalidationReaders = 3
	// Two probes: a pushed-down store count, and a materializing expansion
	// whose result length is the isa-out-degree of d12 — the latter flows
	// through the batched adjacency-cache path end to end.
	countEdges := func(src *gremlin.Source) (int64, error) {
		res, err := gremlin.RunScript(src, `g.E().count()`, nil)
		if err != nil {
			return 0, err
		}
		return res[0].(types.Value).I, nil
	}
	countExpand := func(src *gremlin.Source) (int64, error) {
		res, err := gremlin.RunScript(src, `g.V('d12').out('isa').id()`, nil)
		if err != nil {
			return 0, err
		}
		return int64(len(res)), nil
	}
	before, err := countEdges(src)
	if err != nil {
		t.Fatalf("edge count: %v", err)
	}
	expandBefore, err := countExpand(src)
	if err != nil {
		t.Fatalf("expansion count: %v", err)
	}
	newEdges := make([]*graph.Element, concurrentEdges)
	for i := range newEdges {
		// Connect existing vertices only: backends may require both
		// endpoints to be present.
		newEdges[i] = &graph.Element{ID: fmt.Sprintf("ce%d", i), Label: "isa",
			OutV: "d12", InV: "d9", IsEdge: true}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range newEdges {
			if err := mut.AddEdge(e); err != nil {
				t.Errorf("concurrent AddEdge(%s): %v", e.ID, err)
				return
			}
		}
	}()
	for si := 0; si < invalidationReaders; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			lastCount, lastExpand := int64(-1), int64(-1)
			for r := 0; r < 30; r++ {
				n, err := countEdges(src)
				if err != nil {
					t.Errorf("reader %d round %d: %v", si, r, err)
					return
				}
				if n < before || n > before+concurrentEdges {
					t.Errorf("reader %d round %d: edge count %d outside [%d, %d]",
						si, r, n, before, before+concurrentEdges)
					return
				}
				if n < lastCount {
					t.Errorf("reader %d round %d: edge count went backwards (%d after %d): stale cache",
						si, r, n, lastCount)
					return
				}
				lastCount = n
				x, err := countExpand(src)
				if err != nil {
					t.Errorf("reader %d round %d: %v", si, r, err)
					return
				}
				if x < expandBefore || x > expandBefore+concurrentEdges {
					t.Errorf("reader %d round %d: d12 out-degree %d outside [%d, %d]",
						si, r, x, expandBefore, expandBefore+concurrentEdges)
					return
				}
				if x < lastExpand {
					t.Errorf("reader %d round %d: d12 out-degree went backwards (%d after %d): stale cache",
						si, r, x, lastExpand)
					return
				}
				lastExpand = x
			}
		}(si)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, e := range newEdges {
		if err := mirror.AddEdge(e); err != nil {
			t.Fatalf("mirror AddEdge(%s): %v", e.ID, err)
		}
	}
	check("after concurrent mutator")
}
