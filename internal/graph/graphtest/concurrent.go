// Concurrency conformance for graph.Backend implementations. RunConcurrent
// hammers one backend instance with overlapping reads from many goroutines
// — raw structure-API calls and Gremlin traversals — and checks every result
// against a serial golden pass. Run it under -race: its job is to prove the
// backend's documented concurrent-use guarantee and its deterministic-
// ordering contract (see graph.Backend). A second
// phase layers FaultBackend on top so probabilistic error and delay
// injection is itself exercised concurrently.
package graphtest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

const (
	concGoroutines = 8
	concRounds     = 20
)

// renderElements serializes an element list, order included, so two reads
// can be compared exactly. nil entries (filtered EdgeVertices slots) render
// as "-".
func renderElements(els []*graph.Element) string {
	parts := make([]string, len(els))
	for i, el := range els {
		if el == nil {
			parts[i] = "-"
			continue
		}
		parts[i] = el.String()
	}
	return strings.Join(parts, ",")
}

// renderObjs serializes traversal results.
func renderObjs(objs []any) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = gremlin.Display(o)
	}
	return strings.Join(parts, ",")
}

// RunConcurrent executes the concurrency conformance suite against a
// backend built by build.
func RunConcurrent(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	ctx := context.Background()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	allEdges, err := b.E(ctx, &graph.Query{})
	if err != nil {
		t.Fatalf("E: %v", err)
	}
	src := gremlin.NewSource(b)

	probes := []struct {
		name string
		run  func() (string, error)
	}{
		{"V", func() (string, error) {
			els, err := b.V(ctx, &graph.Query{})
			return renderElements(els), err
		}},
		{"E", func() (string, error) {
			els, err := b.E(ctx, &graph.Query{})
			return renderElements(els), err
		}},
		{"VertexEdges-out", func() (string, error) {
			els, err := b.VertexEdges(ctx, []string{"p1", "p2", "p3"}, graph.DirOut, &graph.Query{})
			return renderElements(els), err
		}},
		{"VertexEdges-both", func() (string, error) {
			els, err := b.VertexEdges(ctx, []string{"d10", "d11"}, graph.DirBoth, &graph.Query{})
			return renderElements(els), err
		}},
		{"EdgeVertices-out", func() (string, error) {
			els, err := b.EdgeVertices(ctx, allEdges, graph.DirOut, &graph.Query{})
			return renderElements(els), err
		}},
		{"AggV-count", func() (string, error) {
			v, err := b.AggV(ctx, &graph.Query{}, graph.Agg{Kind: graph.AggCount})
			return v.Text(), err
		}},
		{"AggVertexEdges-count", func() (string, error) {
			v, err := b.AggVertexEdges(ctx, []string{"p1", "p2", "p3"}, graph.DirOut,
				&graph.Query{}, graph.Agg{Kind: graph.AggCount})
			return v.Text(), err
		}},
		{"gremlin-out", func() (string, error) {
			objs, err := src.V().Out().ToList()
			return renderObjs(objs), err
		}},
		{"gremlin-both-dedup", func() (string, error) {
			objs, err := src.V().Both().Dedup().ToList()
			return renderObjs(objs), err
		}},
		{"gremlin-where", func() (string, error) {
			objs, err := src.V().Where(gremlin.Anon().Out("isa")).ToList()
			return renderObjs(objs), err
		}},
		{"gremlin-2hop-count", func() (string, error) {
			objs, err := src.V().Out().Out().Count().ToList()
			return renderObjs(objs), err
		}},
	}

	// Serial golden pass: with a fixed store, every later read must match.
	want := make([]string, len(probes))
	for i, p := range probes {
		got, err := p.run()
		if err != nil {
			t.Fatalf("%s (serial): %v", p.name, err)
		}
		want[i] = got
	}

	errc := make(chan error, concGoroutines)
	var wg sync.WaitGroup
	for g := 0; g < concGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < concRounds; r++ {
				for i, p := range probes {
					got, err := p.run()
					if err != nil {
						errc <- fmt.Errorf("goroutine %d round %d %s: %w", g, r, p.name, err)
						return
					}
					if got != want[i] {
						errc <- fmt.Errorf("goroutine %d round %d %s: diverged\n got: %s\nwant: %s",
							g, r, p.name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Phase 2: overlapping queries through a FaultBackend with probabilistic
	// error and delay injection. Every query must either succeed with the
	// golden result or fail with exactly the injected error.
	fb := WrapFaults(b, 11)
	fb.Inject("VertexEdges", FaultPoint{Err: ErrInjected, Prob: 0.3, Delay: 100 * time.Microsecond})
	fsrc := gremlin.NewSource(fb)
	var goldenOut string
	for i, p := range probes {
		if p.name == "gremlin-out" {
			goldenOut = want[i]
		}
	}
	for g := 0; g < concGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < concRounds; r++ {
				objs, err := fsrc.V().Out().ToList()
				if err != nil {
					if !errors.Is(err, ErrInjected) {
						t.Errorf("goroutine %d round %d: unexpected error %v", g, r, err)
						return
					}
					continue
				}
				if got := renderObjs(objs); got != goldenOut {
					t.Errorf("goroutine %d round %d: faulty run diverged\n got: %s\nwant: %s",
						g, r, got, goldenOut)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
