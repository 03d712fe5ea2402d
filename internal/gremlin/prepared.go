package gremlin

import (
	"slices"
	"strconv"
	"strings"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// Prepared traversals: the plan cache keys on a *normalized shape* of the
// script instead of the exact text, so literal-varying workloads
// (g.V('p1')..., g.V('p2')..., ...) share one compiled plan.
//
// During a cacheable parse the parser runs in paramize mode: literals at
// value positions (ids, predicate operands, is()/constant() scalars) are
// lifted into an ordered parameter list and replaced in the compiled plan by
// marker strings. The cache key is the token stream with those literals
// rendered as "?" — "?" cannot appear in valid Gremlin (the lexer rejects
// it), so a shape can never collide with a real script. At execution time
// bindParams clones the cached template and substitutes the call's literals
// back into the marker slots.
//
// Structural literals — labels, property keys, limit()/times() counts,
// as()/select()/by() names — are never parameterized: they change the plan
// the strategies and the cost model produce, so they stay part of the shape.

// paramMarkerPrefix tags a parameter slot inside a compiled plan template.
// The NUL bytes keep it disjoint from any script-supplied string (the HasKey
// absent-sentinel "\x00gremlin-absent\x00" shares only "\x00g").
const paramMarkerPrefix = "\x00gp\x00"

// paramMarker renders the placeholder stored in the template for parameter i.
func paramMarker(i int) string { return paramMarkerPrefix + strconv.Itoa(i) }

// paramIndex decodes a marker string; ok is false for ordinary strings.
func paramIndex(s string) (int, bool) {
	if !strings.HasPrefix(s, paramMarkerPrefix) {
		return 0, false
	}
	n, err := strconv.Atoi(s[len(paramMarkerPrefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// paramValueIndex decodes a marker carried in a types.Value.
func paramValueIndex(v types.Value) (int, bool) {
	if v.Kind != types.KindString {
		return 0, false
	}
	return paramIndex(v.S)
}

// shapeSafe reports whether the token stream may be parameterized: a script
// string literal that itself contains the marker prefix could forge a
// parameter slot, so such scripts are not cached at all.
func shapeSafe(toks []gtok) bool {
	for _, t := range toks {
		if t.kind == gtokString && strings.Contains(t.text, paramMarkerPrefix) {
			return false
		}
	}
	return true
}

// renderShape renders the normalized cache key: the token stream with every
// parameterized literal replaced by "?". Tokens are space-joined, strings
// quoted, so distinct scripts cannot render to the same shape.
func renderShape(toks []gtok, paramToks []int) string {
	isParam := make([]bool, len(toks))
	for _, i := range paramToks {
		isParam[i] = true
	}
	var b strings.Builder
	for i, t := range toks {
		if t.kind == gtokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if isParam[i] {
			b.WriteByte('?')
			continue
		}
		if t.kind == gtokString {
			b.WriteString(strconv.Quote(t.text))
			continue
		}
		b.WriteString(t.text)
	}
	return b.String()
}

// Parse-free hits. A hit through the shape key above still pays the lexer
// and the paramize-mode parse, only to render the key. So the cache also
// indexes each compiled plan by its script's token stream with every
// literal masked (appendMasked), as a tokenPlan: the literal tokens the
// script bound as parameters, and the exact text of every other
// (structural) literal — labels, property keys, limit()/times() counts,
// as() names. A script whose masked stream and structural literals match
// runs that plan with its parameters taken straight from its tokens; a miss
// or any mismatch parses as before. The parse is a function of the token
// stream in which a parameter literal only ever becomes a marker, so a
// match compiles to the very plan the parse would find under the shape key.

// appendMasked appends the masked token stream of toks to dst: tokens
// space-joined as in renderShape, every string literal as "?" and every
// number as "#" (the lexer admits neither character in any token).
func appendMasked(dst []byte, toks []gtok) []byte {
	for i, t := range toks {
		if t.kind == gtokEOF {
			break
		}
		if i > 0 {
			dst = append(dst, ' ')
		}
		switch t.kind {
		case gtokString:
			dst = append(dst, '?')
		case gtokNumber:
			dst = append(dst, '#')
		default:
			dst = append(dst, t.text...)
		}
	}
	return dst
}

// tokenPlan is one compiled plan in the token index: the plan key's
// configuration part (shape empty), the token index of each parameter
// (params[i] binds parameter i), and the structural literals.
type tokenPlan struct {
	key    planKey
	plan   *cachedPlan
	params []int
	fixed  []fixedLit
}

// fixedLit is a structural literal: a token index and its exact text.
type fixedLit struct {
	tok  int
	text string
}

// newTokenPlan indexes plan under toks, the script it was compiled or found
// for, whose parse bound paramToks.
func newTokenPlan(key planKey, plan *cachedPlan, toks []gtok, paramToks []int) *tokenPlan {
	key.shape = ""
	tp := &tokenPlan{key: key, plan: plan, params: slices.Clone(paramToks)}
	for i, t := range toks {
		if (t.kind == gtokString || t.kind == gtokNumber) && !slices.Contains(paramToks, i) {
			tp.fixed = append(tp.fixed, fixedLit{tok: i, text: strings.Clone(t.text)})
		}
	}
	return tp
}

// bind returns the parameters toks binds to the plan: toks has the plan's
// masked stream, so only the literal texts can differ. ok is false when a
// structural literal differs or a parameter number does not parse.
func (tp *tokenPlan) bind(toks []gtok) ([]types.Value, bool) {
	for _, f := range tp.fixed {
		if toks[f.tok].text != f.text {
			return nil, false
		}
	}
	params := make([]types.Value, len(tp.params))
	for i, ti := range tp.params {
		v, ok := literalValue(toks[ti])
		if !ok {
			return nil, false
		}
		params[i] = v
	}
	return params, true
}

// sameScript reports whether two variants of one masked stream answer the
// same scripts.
func (tp *tokenPlan) sameScript(o *tokenPlan) bool {
	return tp.key == o.key && slices.Equal(tp.params, o.params) && slices.Equal(tp.fixed, o.fixed)
}

// bindParams clones a cached plan template and substitutes the call's
// literal values into its parameter slots. The template itself is never
// mutated, so concurrent executions of the same cached plan are safe.
func bindParams(steps []Step, params []types.Value) []Step {
	bound := cloneSteps(steps)
	rebindSteps(bound, params)
	return bound
}

func rebindSteps(steps []Step, params []types.Value) {
	for _, s := range steps {
		switch x := s.(type) {
		case *GraphStep:
			rebindQuery(x.Query, params)
		case *VertexStep:
			rebindIDs(x.SeedIDs, params)
			rebindQuery(x.Query, params)
			rebindQuery(x.VQuery, params)
		case *EdgeVertexStep:
			rebindQuery(x.Query, params)
		case *HasStep:
			for i := range x.Preds {
				rebindPred(&x.Preds[i], params)
			}
		case *ConstantStep:
			if idx, ok := paramValueIndex(x.Value); ok {
				x.Value = params[idx]
			}
		case *IsStep:
			if idx, ok := paramValueIndex(x.Value); ok {
				x.Value = params[idx]
			}
		case *RepeatStep:
			rebindSteps(x.Body, params)
			rebindSteps(x.Until, params)
		case *WhereStep:
			rebindSteps(x.Sub, params)
		case *UnionStep:
			for _, b := range x.Branches {
				rebindSteps(b, params)
			}
		}
	}
}

// rebindQuery substitutes parameter slots inside a pushdown query. The
// query is already a private clone (cloneSteps ran Query.Clone), so IDs and
// the Preds slice may be written in place; only Pred.Values inner slices are
// still shared with the template and need copy-on-write (rebindPred).
func rebindQuery(q *graph.Query, params []types.Value) {
	if q == nil {
		return
	}
	rebindIDs(q.IDs, params)
	for i := range q.Preds {
		rebindPred(&q.Preds[i], params)
	}
}

// rebindIDs substitutes marker strings in an id list in place. Non-string
// parameters bind via their text form, matching how toIDList renders ids.
func rebindIDs(ids []string, params []types.Value) {
	for i, id := range ids {
		if idx, ok := paramIndex(id); ok {
			ids[i] = params[idx].Text()
		}
	}
}

// rebindPred substitutes parameter slots in one predicate. Values is shared
// with the cached template (Query.Clone keeps the inner slice), so it is
// copied before the first substitution.
func rebindPred(pr *graph.Pred, params []types.Value) {
	if idx, ok := paramValueIndex(pr.Value); ok {
		pr.Value = params[idx]
	}
	copied := false
	for i, v := range pr.Values {
		idx, ok := paramValueIndex(v)
		if !ok {
			continue
		}
		if !copied {
			pr.Values = append([]types.Value(nil), pr.Values...)
			copied = true
		}
		pr.Values[i] = params[idx]
	}
}
