package gremlin

import (
	"fmt"
	"sync"
	"testing"

	"db2graph/internal/graph"
)

// aliasTestBackend builds a small graph with paths long enough to exercise
// slab growth and path copying.
func aliasTestBackend(t testing.TB, n int) *graph.MemBackend {
	t.Helper()
	m := graph.NewMemBackend()
	for i := 0; i < n; i++ {
		if err := m.AddVertex(&graph.Element{
			ID:    fmt.Sprintf("v%d", i),
			Label: fmt.Sprintf("t%d", i%3),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := m.AddEdge(&graph.Element{
			ID:     fmt.Sprintf("e%d", i),
			Label:  "link",
			OutV:   fmt.Sprintf("v%d", i),
			InV:    fmt.Sprintf("v%d", (i+1)%n),
			IsEdge: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// churn runs a mix of queries that mint, extend, and discard traversers
// while earlier results are still held by the caller.
func churn(t *testing.T, src *Source, rounds int) {
	t.Helper()
	scripts := []string{
		`g.V().out('link').out().path()`,
		`g.V().hasLabel('t1').both().dedup().values('id')`,
		`g.E().limit(500)`,
		`g.V().as('a').out().select('a')`,
	}
	for r := 0; r < rounds; r++ {
		if _, err := RunScript(src, scripts[r%len(scripts)], nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultsSurviveLaterQueries (DESIGN.md §15): results captured from one
// query must survive, bit for bit, any number of later queries.
func TestResultsSurviveLaterQueries(t *testing.T) {
	m := aliasTestBackend(t, 600)
	src := NewSource(m)

	trs, err := src.V().Out("link").Path().Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 600 {
		t.Fatalf("got %d traversers, want 600", len(trs))
	}
	// Snapshot the captured results by value before any churn.
	type snap struct {
		obj   string
		path  []string
		fromV string
	}
	render := func(tr *Traverser) snap {
		if tr == nil {
			return snap{obj: "<nil traverser>"}
		}
		s := snap{fromV: tr.FromV}
		if el, ok := tr.Obj.(*graph.Element); ok {
			s.obj = el.ID
		} else {
			s.obj = fmt.Sprint(tr.Obj)
		}
		for _, p := range tr.Path {
			if el, ok := p.(*graph.Element); ok {
				s.path = append(s.path, el.ID)
			} else {
				s.path = append(s.path, fmt.Sprint(p))
			}
		}
		return s
	}
	before := make([]snap, len(trs))
	for i, tr := range trs {
		before[i] = render(tr)
	}

	churn(t, src, 40)

	for i, tr := range trs {
		after := render(tr)
		if fmt.Sprint(after) != fmt.Sprint(before[i]) {
			t.Fatalf("result %d mutated by later queries:\n before %+v\n after  %+v", i, before[i], after)
		}
	}
}

// TestResultsSurviveConcurrentQueries runs queries from many goroutines,
// each verifying its own results after every query. Run under -race this
// proves traverser slots never cross live queries.
func TestResultsSurviveConcurrentQueries(t *testing.T) {
	m := aliasTestBackend(t, 300)
	src := NewSource(m)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				trs, err := src.V().Out("link").Execute()
				if err != nil {
					errc <- err
					return
				}
				if len(trs) != 300 {
					errc <- fmt.Errorf("worker %d: got %d traversers, want 300", w, len(trs))
					return
				}
				for _, tr := range trs {
					el, ok := tr.Obj.(*graph.Element)
					if !ok || el == nil || el.ID == "" {
						errc <- fmt.Errorf("worker %d: corrupted traverser %+v", w, tr)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
