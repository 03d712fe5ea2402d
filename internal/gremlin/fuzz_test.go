package gremlin

import (
	"context"
	"errors"
	"testing"
	"time"

	"db2graph/internal/graph"
)

// FuzzParseGremlin drives arbitrary input through the Gremlin lexer,
// parser, and — when a statement parses — the traversal engine
// over a small graph with a tight budget. The engine converts its own
// panics to *PanicError, so the target re-raises those as fuzz failures;
// everything else may error freely but must not crash or hang.
func FuzzParseGremlin(f *testing.F) {
	for _, seed := range []string{
		"g.V()",
		"g.V('p1').outE('hasDisease').inV()",
		"g.V().hasLabel('patient').out().dedup().count()",
		"g.V().has('patientID', 2).values('name')",
		"g.V().where(__.out('isa')).valueMap()",
		"g.V('d13').repeat(__.out('isa')).until(__.has('conceptName', 'diabetes')).path()",
		"g.V().union(__.out(), __.in()).groupCount()",
		"g.V($x).bothE().otherV().simplePath().limit(3)",
		"g.E().hasLabel('isa').outV().order().by('conceptName', desc)",
		"g.V().out().profile()",
		"g.V().values('patientID').is(gt(1)).sum()",
		"g.V(; broken",
		"g.V().repeat(__.both())",
	} {
		f.Add(seed)
	}
	vs, es := testElements()
	m := graph.NewMemBackend()
	for _, v := range vs {
		if err := m.AddVertex(v); err != nil {
			f.Fatal(err)
		}
	}
	for _, e := range es {
		if err := m.AddEdge(e); err != nil {
			f.Fatal(err)
		}
	}
	src := NewSource(m).
		WithLimits(graph.Limits{MaxTraversers: 1 << 12, MaxRepeatIters: 8, MaxResults: 1 << 12})
	env := map[string]any{"x": "p1", "ids": []string{"p1", "d10"}}
	f.Fuzz(func(t *testing.T, script string) {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_, err := RunScriptCtx(ctx, src, script, env)
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Fatalf("script %q panicked the engine: %v\n%s", script, pe.Value, pe.Stack)
		}
	})
}

// FuzzPreparedBinding differentially fuzzes the prepared-traversal pipeline:
// every script runs once against a plain source and twice against a source
// with statistics and a shape-keyed plan cache (cold compile, then warm
// rebinding of the cached template). Normalization, costing, and parameter
// rebinding must never change results, never panic the engine, and never let
// a marker-shaped literal corrupt a plan.
func FuzzPreparedBinding(f *testing.F) {
	for _, seed := range []string{
		"g.V('p1').out('hasDisease')",
		"g.V('p2').out('hasDisease').values('conceptName')",
		"g.V('d13', 'd11').out('isa').dedup().count()",
		"g.V().has('patientID', 2).values('name')",
		"g.V().has('patientID', within(1, 2, 3)).out()",
		"g.V().hasId('p1', 'd10').bothE().otherV()",
		"g.V().values('patientID').is(gt(1)).sum()",
		"g.V().constant('c').limit(2)",
		"g.V().has('name', 'quo\\'te').count()",
		"g.V().has('name', '\x00gp\x000')",
		"g.V('p1').repeat(__.out()).until(__.has('conceptName', 'diabetes'))",
		"g.V().union(__.out('isa'), __.in('hasDisease')).groupCount()",
		"g.V().where(__.out('isa')).has('conceptName', neq('x'))",
	} {
		f.Add(seed)
	}
	vs, es := testElements()
	m := graph.NewMemBackend()
	for _, v := range vs {
		if err := m.AddVertex(v); err != nil {
			f.Fatal(err)
		}
	}
	for _, e := range es {
		if err := m.AddEdge(e); err != nil {
			f.Fatal(err)
		}
	}
	limits := graph.Limits{MaxTraversers: 1 << 12, MaxRepeatIters: 8, MaxResults: 1 << 12}
	sp := graph.NewStatsProvider(m)
	if _, err := sp.Analyze(context.Background()); err != nil {
		f.Fatal(err)
	}
	plain := NewSource(m).WithLimits(limits)
	f.Fuzz(func(t *testing.T, script string) {
		// Fresh cache per input so "warm" is exactly the second run of this
		// script, not leakage from an earlier input.
		prepared := NewSource(m).WithLimits(limits).
			WithStats(sp).WithPlanCache(NewPlanCache(0))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		checkPanic := func(err error) {
			var pe *PanicError
			if errors.As(err, &pe) {
				t.Fatalf("script %q panicked the engine: %v\n%s", script, pe.Value, pe.Stack)
			}
		}
		wantObjs, wantErr := RunScriptCtx(ctx, plain, script, nil)
		checkPanic(wantErr)
		for round := 0; round < 2; round++ {
			gotObjs, gotErr := RunScriptCtx(ctx, prepared, script, nil)
			checkPanic(gotErr)
			if ctx.Err() != nil {
				return // deadline: runs are no longer comparable
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("script %q round %d: prepared err %v, plain err %v",
					script, round, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got, want := render(gotObjs), render(wantObjs); got != want {
				t.Fatalf("script %q round %d diverged\n got: %s\nwant: %s",
					script, round, got, want)
			}
		}
	})
}

// testElements returns the Figure 2(b) dataset used by the engine tests as
// raw elements (the fuzz target cannot use testGraph's *testing.T helper).
func testElements() (vs, es []*graph.Element) {
	src := map[string][3]string{
		"e1": {"hasDisease", "p1", "d11"},
		"e2": {"hasDisease", "p2", "d10"},
		"e3": {"hasDisease", "p3", "d12"},
		"e4": {"isa", "d11", "d10"},
		"e5": {"isa", "d13", "d11"},
		"e6": {"isa", "d10", "d9"},
	}
	for _, id := range []string{"p1", "p2", "p3"} {
		vs = append(vs, &graph.Element{ID: id, Label: "patient"})
	}
	for _, id := range []string{"d9", "d10", "d11", "d12", "d13"} {
		vs = append(vs, &graph.Element{ID: id, Label: "disease"})
	}
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6"} {
		m := src[id]
		es = append(es, &graph.Element{ID: id, Label: m[0], OutV: m[1], InV: m[2], IsEdge: true})
	}
	return vs, es
}
