package gremlin

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// ErrParse is the sentinel matched by errors.Is for script lexing and
// parsing failures, letting callers (the server's error-code mapping)
// distinguish malformed queries from execution failures.
var ErrParse = errors.New("gremlin: parse error")

// Script execution supports the mini-language the paper embeds in the
// graphQuery table function: semicolon-separated statements, each either a
// traversal or an assignment `name = <traversal>.next()`. Variables are
// usable as id lists in later statements, e.g.:
//
//	similar_diseases = g.V().hasLabel('patient').has('patientID', '1')
//	    .out('hasDisease')
//	    .repeat(out('isa').dedup().store('x')).times(2)
//	    .repeat(in('isa').dedup().store('x')).times(2).cap('x').next();
//	g.V(similar_diseases).in('hasDisease').dedup()
//	    .values('patientID', 'subscriptionID')

// RunScript executes a Gremlin script against src and returns the result
// objects of the final statement. env seeds the variable environment (may
// be nil); it is not mutated.
func RunScript(src *Source, script string, env map[string]any) ([]any, error) {
	return RunScriptCtx(context.Background(), src, script, env)
}

// RunScriptCtx is RunScript under a context carrying the query deadline and
// cancellation; the context is threaded through every statement execution
// down to the backend.
func RunScriptCtx(ctx context.Context, src *Source, script string, env map[string]any) ([]any, error) {
	buf := tokenPool.Get().(*[]gtok)
	toks, err := lexGremlin(*buf, script)
	defer func() {
		clear(toks)
		*buf = toks[:0]
		tokenPool.Put(buf)
	}()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	// vars is env until the first assignment, which copies it.
	vars, ownVars := env, false

	// Split statements on top-level semicolons.
	var stmts [][]gtok
	start := 0
	depth := 0
	for i, t := range toks {
		if t.kind == gtokPunct {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			case ";":
				if depth == 0 {
					if i > start {
						stmts = append(stmts, append(append([]gtok{}, toks[start:i]...), gtok{kind: gtokEOF, pos: t.pos}))
					}
					start = i + 1
				}
			}
		}
		if t.kind == gtokEOF {
			if i > start {
				stmts = append(stmts, toks[start:i+1])
			}
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("%w: empty script", ErrParse)
	}

	var lastResult []any
	for si, stmt := range stmts {
		// Assignment prefix?
		varName := ""
		body := stmt
		if len(stmt) >= 2 && stmt[0].kind == gtokIdent && stmt[1].kind == gtokPunct && stmt[1].text == "=" {
			varName = stmt[0].text
			body = stmt[2:]
			if !ownVars {
				vars, ownVars = make(map[string]any, len(env)+1), true
				for k, v := range env {
					vars[k] = v
				}
			}
		}
		// A single-statement script without an assignment may hit the plan
		// cache. The cache keys on the script's *normalized shape* — the
		// parse runs in paramize mode so literals at value positions render
		// as "?" in the key and literal variants share one compiled
		// template (see prepared.go). A hit skips the strategy rewrite and
		// the cost model; the template is rebound to this call's literals.
		// Before that, the token index (prepared.go, parse-free hits) may
		// answer from the masked token stream without parsing at all.
		// Scripts that bind or reference variables splice environment
		// values into the plan and always recompile (see PlanCache), as do
		// scripts whose string literals contain the parameter marker
		// (shapeSafe).
		cacheable := src.PlanCache != nil && len(stmts) == 1 && varName == "" && shapeSafe(body)
		var key planKey
		var masked []byte
		if cacheable {
			key = planKey{
				config:  graph.ConfigVersionOf(src.Backend),
				nostrat: src.DisableStrategies,
				stats:   statsEpoch(src),
			}
			var maskBuf [512]byte
			masked = appendMasked(maskBuf[:0], body)
			if plan, params, ok := src.PlanCache.getTokens(masked, body, key); ok {
				return runCachedPlan(ctx, src, plan, params)
			}
		}
		p := &gparser{toks: body, env: vars, paramize: cacheable}
		tr, term, err := p.parseChain(src, true)
		if err != nil {
			return nil, fmt.Errorf("%w: statement %d: %v", ErrParse, si+1, err)
		}
		if p.cur().kind != gtokEOF {
			return nil, fmt.Errorf("%w: statement %d: unexpected trailing input %q", ErrParse, si+1, p.cur().text)
		}
		if cacheable && !p.envUsed && tr.err == nil {
			key.shape = renderShape(body, p.paramToks)
			plan, ok := src.PlanCache.get(key)
			if !ok || plan.nparams != len(p.params) {
				// Compile the template once — strategies, then the cost
				// model when statistics are available — and cache it; this
				// run executes a bound copy of the very plan later hits will
				// share.
				steps := cloneSteps(tr.Steps)
				if !src.DisableStrategies {
					steps = applyStrategies(steps, src.Strategies)
				}
				if src.Stats != nil {
					if st := src.Stats.Current(); st != nil {
						applyCost(steps, st)
					}
				}
				plan = &cachedPlan{key: key, steps: steps, nparams: len(p.params), term: term}
				src.PlanCache.put(plan)
			}
			src.PlanCache.putTokens(masked, newTokenPlan(key, plan, body, p.paramToks))
			return runCachedPlan(ctx, src, plan, p.params)
		}
		if len(p.params) > 0 {
			// The paramized parse turned out uncacheable (variable
			// reference or builder error): substitute the literals back
			// before normal execution.
			tr.Steps = bindParams(tr.Steps, p.params)
		}
		trs, err := tr.ExecuteCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("gremlin: statement %d: %w", si+1, err)
		}
		if _, err := finishStatement(trs, term, si, vars, varName, &lastResult); err != nil {
			return nil, err
		}
	}
	return lastResult, nil
}

// tokenPool recycles the token slices of RunScriptCtx calls: nothing a call
// returns or caches refers to its tokens (plans and token plans keep only
// the literal texts, which belong to the script).
var tokenPool = sync.Pool{New: func() any { return new([]gtok) }}

// runCachedPlan executes a cached plan bound to params as a script's only
// statement.
func runCachedPlan(ctx context.Context, src *Source, plan *cachedPlan, params []types.Value) ([]any, error) {
	steps := plan.steps
	if plan.nparams > 0 {
		steps = bindParams(steps, params)
	}
	trs, err := (&Traversal{Src: src, Steps: steps, planned: true}).ExecuteCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("gremlin: statement 1: %w", err)
	}
	var result []any
	return finishStatement(trs, plan.term, 0, nil, "", &result)
}

// statsEpoch is the ANALYZE generation plans are costed under — part of the
// plan-cache key so plans compiled against stale statistics retire after the
// next ANALYZE (0 = no statistics configured or none collected yet).
func statsEpoch(src *Source) uint64 {
	if src.Stats == nil {
		return 0
	}
	return src.Stats.Epoch()
}

// finishStatement applies a statement's terminal method to its raw
// traversers, updating the variable environment and the running script
// result. It returns the statement's result so single-statement callers (the
// plan-cache hit path) can return it directly.
func finishStatement(trs []*Traverser, term terminalKind, si int, vars map[string]any, varName string, lastResult *[]any) ([]any, error) {
	objs := make([]any, len(trs))
	for i, t := range trs {
		objs[i] = t.Obj
	}
	switch term {
	case termNext:
		if len(objs) == 0 {
			return nil, fmt.Errorf("gremlin: statement %d: next() on empty traversal", si+1)
		}
		*lastResult = objs[:1]
		if varName != "" {
			vars[varName] = objs[0]
		}
	case termIterate:
		*lastResult = nil
		if varName != "" {
			vars[varName] = nil
		}
	default: // none or toList
		*lastResult = objs
		if varName != "" {
			vars[varName] = objs
		}
	}
	return *lastResult, nil
}

// ResultsToRows converts script results into relational rows with the given
// column count, for the graphQuery polymorphic table function. Supported
// result shapes:
//   - scalar values: each value becomes a 1-column row, or consecutive
//     values are folded into rows of ncols (the paper's
//     values('patientID','subscriptionID') pattern emits column-major
//     value streams per element);
//   - value maps: column values are matched by column name;
//   - elements: id, label, then properties in column order;
//   - lists (from cap()): flattened.
func ResultsToRows(results []any, cols []string) ([][]types.Value, error) {
	ncols := len(cols)
	var rows [][]types.Value
	var pending []types.Value

	flushPending := func() error {
		for len(pending) >= ncols {
			rows = append(rows, pending[:ncols:ncols])
			pending = pending[ncols:]
		}
		return nil
	}

	var handle func(obj any) error
	handle = func(obj any) error {
		switch x := obj.(type) {
		case types.Value:
			pending = append(pending, x)
			return flushPending()
		case map[string]types.Value:
			row := make([]types.Value, ncols)
			for i, c := range cols {
				row[i] = x[c]
			}
			rows = append(rows, row)
			return nil
		case *graph.Element:
			row := make([]types.Value, 0, ncols)
			row = append(row, types.NewString(x.ID))
			if ncols >= 2 {
				row = append(row, types.NewString(x.Label))
			}
			// Fill remaining columns by property name.
			for len(row) < ncols {
				c := cols[len(row)]
				row = append(row, x.Props[c])
			}
			rows = append(rows, row[:ncols])
			return nil
		case []any:
			for _, o := range x {
				if err := handle(o); err != nil {
					return err
				}
			}
			return nil
		case map[string]int64:
			// groupCount: key + count columns.
			for k, v := range x {
				row := make([]types.Value, ncols)
				row[0] = types.NewString(k)
				if ncols >= 2 {
					row[1] = types.NewInt(v)
				}
				rows = append(rows, row)
			}
			return nil
		case nil:
			return nil
		default:
			return fmt.Errorf("gremlin: cannot convert result of type %T into rows", obj)
		}
	}
	for _, obj := range results {
		if err := handle(obj); err != nil {
			return nil, err
		}
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("gremlin: %d leftover values do not fill a %d-column row", len(pending), ncols)
	}
	return rows, nil
}
