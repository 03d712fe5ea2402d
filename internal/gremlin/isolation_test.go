package gremlin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// bigGraph builds a deterministic random graph with a few hundred vertices,
// so every fan-out step batches a wide frontier.
func bigGraph(t *testing.T, nv, ne int) *Source {
	t.Helper()
	m := graph.NewMemBackend()
	rng := rand.New(rand.NewSource(7))
	labels := []string{"alpha", "beta"}
	for i := 0; i < nv; i++ {
		el := &graph.Element{
			ID:    fmt.Sprintf("v%d", i),
			Label: labels[i%len(labels)],
			Props: map[string]types.Value{"n": types.NewInt(int64(i))},
		}
		if err := m.AddVertex(el); err != nil {
			t.Fatal(err)
		}
	}
	elabels := []string{"knows", "likes"}
	for i := 0; i < ne; i++ {
		el := &graph.Element{
			ID:    fmt.Sprintf("e%d", i),
			Label: elabels[rng.Intn(len(elabels))],
			OutV:  fmt.Sprintf("v%d", rng.Intn(nv)),
			InV:   fmt.Sprintf("v%d", rng.Intn(nv)),
			Props: map[string]types.Value{"w": types.NewInt(int64(rng.Intn(100)))},
		}
		if err := m.AddEdge(el); err != nil {
			t.Fatal(err)
		}
	}
	return NewSource(m)
}

// renderTraversers serializes every observable field of a traverser stream
// so two runs can be compared bit-for-bit, order included.
func renderTraversers(trs []*Traverser) []string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		var b strings.Builder
		b.WriteString(Display(tr.Obj))
		if tr.FromV != "" {
			b.WriteString(" from=" + tr.FromV)
		}
		if len(tr.Path) > 0 {
			b.WriteString(" path=" + Display(tr.Path))
		}
		if len(tr.Labels) > 0 {
			b.WriteString(" labels=" + Display(map[string]any(tr.Labels)))
		}
		out[i] = b.String()
	}
	return out
}

// shapeCases enumerates traversal shapes covering every execution path:
// vertex fan-out (out/in/both, edge and vertex forms), edge-endpoint
// resolution, sub-traversal loops (where/union/until), paths, side effects,
// and aggregates.
func shapeCases(src *Source) map[string]func() *Traversal {
	return map[string]func() *Traversal{
		"out":        func() *Traversal { return src.V().Out() },
		"out-label":  func() *Traversal { return src.V().Out("knows") },
		"in":         func() *Traversal { return src.V().In("likes") },
		"both":       func() *Traversal { return src.V().Both() },
		"outE-inV":   func() *Traversal { return src.V().OutE().InV() },
		"inE-outV":   func() *Traversal { return src.V().InE("knows").OutV() },
		"bothE-othV": func() *Traversal { return src.V().BothE().OtherV() },
		"bothV":      func() *Traversal { return src.V().OutE().BothV() },
		"two-hop":    func() *Traversal { return src.V().Out().Out() },
		"hop-count":  func() *Traversal { return src.V().Out().Out().Count() },
		"hop-values": func() *Traversal { return src.V().Out().Values("n") },
		"where":      func() *Traversal { return src.V().Where(Anon().Out("likes")) },
		"not":        func() *Traversal { return src.V().Not(Anon().Out()) },
		"union": func() *Traversal {
			return src.V().HasLabel("alpha").Union(Anon().Out(), Anon().In())
		},
		"repeat-times": func() *Traversal {
			return src.V().HasLabel("beta").Repeat(Anon().Out("knows")).Times(2)
		},
		"repeat-until": func() *Traversal {
			return src.V().Repeat(Anon().Out()).Until(Anon().HasLabel("beta")).Times(3).Emit()
		},
		"path":       func() *Traversal { return src.V().Out().Path() },
		"store-cap":  func() *Traversal { return src.V().Out().Store("x").Cap("x") },
		"dedup":      func() *Traversal { return src.V().Out().Dedup() },
		"groupcount": func() *Traversal { return src.V().Out().GroupCountBy("n") },
		"as-select":  func() *Traversal { return src.V().As("a").Out().As("b").Select("a", "b") },
	}
}

// concurrentRuns is how many copies of one query TestParallelIdenticalResults
// and TestParallelProfileCounts run at once over a shared source.
const concurrentRuns = 4

// runConcurrently executes fresh copies of one traversal on concurrentRuns
// goroutines at once and returns each run's rendering.
func runConcurrently(t *testing.T, build func() *Traversal, render func(*testing.T, []*Traverser) string) []string {
	t.Helper()
	got := make([]string, concurrentRuns)
	errs := make([]error, concurrentRuns)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs, err := build().Execute()
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = render(t, trs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	return got
}

// The tests below keep the TestParallel prefix of their long-standing IDs,
// which CI selects by name; each query in them runs serially on its own
// goroutine.

// TestParallelIdenticalResults checks query isolation: queries that run at
// the same time over one source and backend each return the traverser
// stream a lone run returns, bit for bit and in order, for every execution
// path. Under -race it also proves the engine shares no mutable state
// (allocators, side-effect stores, plans) between live queries.
func TestParallelIdenticalResults(t *testing.T) {
	src := bigGraph(t, 300, 900)
	render := func(_ *testing.T, trs []*Traverser) string {
		return strings.Join(renderTraversers(trs), "\n")
	}
	for name, build := range shapeCases(src) {
		t.Run(name, func(t *testing.T) {
			trs, err := build().Execute()
			if err != nil {
				t.Fatal(err)
			}
			if len(trs) == 0 {
				t.Fatalf("lone run returned no traversers (vacuous test)")
			}
			want := render(t, trs)
			for i, got := range runConcurrently(t, build, render) {
				if got != want {
					t.Fatalf("concurrent run %d diverged from the lone run:\n  got  %s\n  want %s", i, got, want)
				}
			}
		})
	}
}

// TestParallelProfileCounts checks that profile() reports belong to their
// own query: the per-step in/out/calls counts of profiled runs executing at
// the same time match a lone run's at every level.
func TestParallelProfileCounts(t *testing.T) {
	src := bigGraph(t, 200, 600)
	builds := shapeCases(src)
	render := func(t *testing.T, trs []*Traverser) string {
		if len(trs) != 1 {
			t.Errorf("profile() returned %d traversers", len(trs))
			return ""
		}
		p, ok := trs[0].Obj.(*telemetry.Profile)
		if !ok {
			t.Errorf("profile() returned %T", trs[0].Obj)
			return ""
		}
		parts := make([]string, len(p.Steps))
		for i, s := range p.Steps {
			parts[i] = fmt.Sprintf("%s[calls=%d,in=%d,out=%d]", s.Name, s.Calls, s.In, s.Out)
		}
		return strings.Join(parts, " -> ")
	}
	for _, name := range []string{"two-hop", "where", "union", "repeat-until"} {
		build := builds[name]
		profiled := func() *Traversal { return build().Profile() }
		t.Run(name, func(t *testing.T) {
			trs, err := profiled().Execute()
			if err != nil {
				t.Fatal(err)
			}
			want := render(t, trs)
			for i, got := range runConcurrently(t, profiled, render) {
				if got != want {
					t.Fatalf("concurrent run %d: profile\n  got  %s\n  want %s", i, got, want)
				}
			}
		})
	}
}

// TestParallelBudget checks that a frontier over the traverser budget
// aborts the query with the typed budget error.
func TestParallelBudget(t *testing.T) {
	s := bigGraph(t, 300, 900).WithLimits(graph.Limits{MaxTraversers: 50})
	_, err := s.V().Out().Out().Execute()
	if !errors.Is(err, graph.ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget error", err)
	}
	var be *graph.BudgetError
	if !errors.As(err, &be) || be.Resource != "traversers" || be.Limit != 50 {
		t.Fatalf("got %#v", err)
	}
}

// panicBackend panics inside VertexEdges to simulate a buggy provider.
type panicBackend struct{ graph.Backend }

func (p *panicBackend) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	panic("backend exploded")
}

// TestParallelPanicCapture checks that a backend panic on the query
// goroutine is folded into *PanicError instead of crashing the process.
func TestParallelPanicCapture(t *testing.T) {
	src := bigGraph(t, 300, 900)
	bad := NewSource(&panicBackend{Backend: src.Backend})
	_, err := bad.V().Out().Execute()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "backend exploded" || pe.Stack == "" {
		t.Fatalf("got %#v", pe)
	}
}

// TestParallelCancellation checks that a cancelled query context aborts the
// run with the usual interrupted error.
func TestParallelCancellation(t *testing.T) {
	src := bigGraph(t, 300, 900)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := src.V().Out().ExecuteCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
