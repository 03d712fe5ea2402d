package gremlin

import (
	"fmt"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// Source is a traversal source bound to a backend: the `g` in g.V(). The
// provider supplies its optimization strategies (the Traversal Strategy
// module of the paper); they can be disabled for experiments.
type Source struct {
	Backend    graph.Backend
	Strategies []Strategy
	// DisableStrategies turns off plan rewriting (Figure 4's "without
	// optimized traversal strategies" configuration).
	DisableStrategies bool
	// Limits is the per-query resource budget enforced during execution.
	// The zero value selects graph.DefaultLimits(); negative fields disable
	// individual bounds.
	Limits graph.Limits
	// PlanCache, when non-nil, lets RunScriptCtx reuse compiled plans for
	// repeated script texts (see PlanCache for the keying and the
	// cacheability rules). Safe to share across sources and goroutines.
	PlanCache *PlanCache
	// BatchHist, when non-nil, records the size of every batched backend
	// expansion call (gremlin_batch_size in the server's registry).
	BatchHist *telemetry.IntHistogram
	// Stats, when non-nil, enables the cost model: after the rule-based
	// strategies run, applyCost reads the provider's current statistics to
	// annotate each step with a row estimate for explain(). It makes no
	// physical choice, so execution is the same with or without it.
	Stats *graph.StatsProvider
}

// NewSource creates a traversal source with the standard strategy set.
func NewSource(b graph.Backend) *Source {
	return &Source{Backend: b, Strategies: StandardStrategies()}
}

// WithoutStrategies returns a copy of the source that skips plan rewriting.
func (s *Source) WithoutStrategies() *Source {
	cp := *s
	cp.DisableStrategies = true
	return &cp
}

// WithLimits returns a copy of the source with the given query budget.
func (s *Source) WithLimits(l graph.Limits) *Source {
	cp := *s
	cp.Limits = l
	return &cp
}

// WithPlanCache returns a copy of the source that compiles scripts through
// the given plan cache.
func (s *Source) WithPlanCache(pc *PlanCache) *Source {
	cp := *s
	cp.PlanCache = pc
	return &cp
}

// WithStats returns a copy of the source whose plans are annotated with
// estimates from the given statistics provider (nil disables the cost model).
func (s *Source) WithStats(sp *graph.StatsProvider) *Source {
	cp := *s
	cp.Stats = sp
	return &cp
}

// Traversal is a step pipeline under construction or execution.
type Traversal struct {
	Src   *Source
	Steps []Step
	// err defers builder errors until execution.
	err error
	// planned marks Steps as already cloned and strategy-rewritten (a plan
	// served by PlanCache). Execution reads them as-is — and must not mutate
	// them, since cached plans are shared across executions.
	planned bool
}

// V starts a vertex traversal. Arguments are element ids (strings, numbers,
// elements, or slices of those — the paper's g.V(similar_diseases) passes a
// collected list).
func (s *Source) V(ids ...any) *Traversal {
	t := &Traversal{Src: s}
	strIDs, err := toIDList(ids)
	if err != nil {
		t.err = err
	}
	t.Steps = append(t.Steps, &GraphStep{Kind: KindVertex, Query: &graph.Query{IDs: strIDs}})
	return t
}

// E starts an edge traversal.
func (s *Source) E(ids ...any) *Traversal {
	t := &Traversal{Src: s}
	strIDs, err := toIDList(ids)
	if err != nil {
		t.err = err
	}
	t.Steps = append(t.Steps, &GraphStep{Kind: KindEdge, Query: &graph.Query{IDs: strIDs}})
	return t
}

// toIDList flattens heterogeneous id arguments into strings.
func toIDList(ids []any) ([]string, error) {
	var out []string
	var add func(v any) error
	add = func(v any) error {
		switch x := v.(type) {
		case nil:
			return nil
		case string:
			out = append(out, x)
		case *graph.Element:
			out = append(out, x.ID)
		case types.Value:
			out = append(out, x.Text())
		case []any:
			for _, e := range x {
				if err := add(e); err != nil {
					return err
				}
			}
		case []string:
			out = append(out, x...)
		case int:
			out = append(out, types.NewInt(int64(x)).Text())
		case int64:
			out = append(out, types.NewInt(x).Text())
		default:
			return fmt.Errorf("gremlin: cannot use %T as an element id", v)
		}
		return nil
	}
	for _, v := range ids {
		if err := add(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Anon starts an anonymous traversal (Gremlin's __), used as argument to
// repeat/where/union.
func Anon() *Traversal { return &Traversal{} }

func (t *Traversal) add(s Step) *Traversal {
	t.Steps = append(t.Steps, s)
	return t
}

// Out moves to adjacent vertices along outgoing edges with the given labels.
func (t *Traversal) Out(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirOut, Query: &graph.Query{Labels: labels}})
}

// In moves to adjacent vertices along incoming edges.
func (t *Traversal) In(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirIn, Query: &graph.Query{Labels: labels}})
}

// Both moves to adjacent vertices along edges in either direction.
func (t *Traversal) Both(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirBoth, Query: &graph.Query{Labels: labels}})
}

// OutE moves to outgoing edges.
func (t *Traversal) OutE(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirOut, ReturnEdges: true, Query: &graph.Query{Labels: labels}})
}

// InE moves to incoming edges.
func (t *Traversal) InE(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirIn, ReturnEdges: true, Query: &graph.Query{Labels: labels}})
}

// BothE moves to incident edges in either direction.
func (t *Traversal) BothE(labels ...string) *Traversal {
	return t.add(&VertexStep{Dir: graph.DirBoth, ReturnEdges: true, Query: &graph.Query{Labels: labels}})
}

// OutV moves from edges to their source vertices.
func (t *Traversal) OutV() *Traversal {
	return t.add(&EdgeVertexStep{End: EndOut, Query: &graph.Query{}})
}

// InV moves from edges to their destination vertices.
func (t *Traversal) InV() *Traversal {
	return t.add(&EdgeVertexStep{End: EndIn, Query: &graph.Query{}})
}

// BothV moves from edges to both endpoints.
func (t *Traversal) BothV() *Traversal {
	return t.add(&EdgeVertexStep{End: EndBoth, Query: &graph.Query{}})
}

// OtherV moves from edges to the endpoint the traverser did not come from.
func (t *Traversal) OtherV() *Traversal {
	return t.add(&EdgeVertexStep{End: EndOther, Query: &graph.Query{}})
}

// Has filters elements by property equality.
func (t *Traversal) Has(key string, value any) *Traversal {
	v, err := types.FromGo(value)
	if err != nil {
		t.err = err
	}
	return t.add(&HasStep{Preds: []graph.Pred{{Key: key, Op: graph.OpEq, Value: v}}})
}

// HasP filters elements by an arbitrary predicate.
func (t *Traversal) HasP(key string, p P) *Traversal {
	return t.add(&HasStep{Preds: []graph.Pred{{Key: key, Op: p.Op, Value: p.Value, Values: p.Values}}})
}

// HasKey filters elements that carry the named property at all.
func (t *Traversal) HasKey(key string) *Traversal {
	return t.add(&HasStep{Preds: []graph.Pred{{Key: key, Op: graph.OpNeq, Value: types.NewString("\x00gremlin-absent\x00")}}})
}

// HasLabel filters by label.
func (t *Traversal) HasLabel(labels ...string) *Traversal {
	vals := make([]types.Value, len(labels))
	for i, l := range labels {
		vals[i] = types.NewString(l)
	}
	return t.add(&HasStep{Preds: []graph.Pred{{Key: graph.KeyLabel, Op: graph.OpWithin, Values: vals}}})
}

// HasID filters by element id.
func (t *Traversal) HasID(ids ...any) *Traversal {
	strIDs, err := toIDList(ids)
	if err != nil {
		t.err = err
	}
	vals := make([]types.Value, len(strIDs))
	for i, id := range strIDs {
		vals[i] = types.NewString(id)
	}
	return t.add(&HasStep{Preds: []graph.Pred{{Key: graph.KeyID, Op: graph.OpWithin, Values: vals}}})
}

// Values emits the values of the named properties.
func (t *Traversal) Values(keys ...string) *Traversal {
	return t.add(&ValuesStep{Keys: keys})
}

// ValueMap emits property maps.
func (t *Traversal) ValueMap(keys ...string) *Traversal {
	return t.add(&ValueMapStep{Keys: keys})
}

// ID emits element ids.
func (t *Traversal) ID() *Traversal { return t.add(&IDStep{}) }

// Label emits element labels.
func (t *Traversal) Label() *Traversal { return t.add(&LabelStep{}) }

// Count reduces to the number of traversers.
func (t *Traversal) Count() *Traversal { return t.add(&AggregateStep{Kind: graph.AggCount}) }

// Sum reduces numeric values to their sum.
func (t *Traversal) Sum() *Traversal { return t.add(&AggregateStep{Kind: graph.AggSum}) }

// Mean reduces numeric values to their mean.
func (t *Traversal) Mean() *Traversal { return t.add(&AggregateStep{Kind: graph.AggMean}) }

// Min reduces values to their minimum.
func (t *Traversal) Min() *Traversal { return t.add(&AggregateStep{Kind: graph.AggMin}) }

// Max reduces values to their maximum.
func (t *Traversal) Max() *Traversal { return t.add(&AggregateStep{Kind: graph.AggMax}) }

// Dedup removes duplicates.
func (t *Traversal) Dedup() *Traversal { return t.add(&DedupStep{}) }

// Limit keeps the first n traversers.
func (t *Traversal) Limit(n int) *Traversal { return t.add(&LimitStep{N: n}) }

// Order sorts by the traverser value.
func (t *Traversal) Order() *Traversal { return t.add(&OrderStep{}) }

// OrderBy sorts elements by a property.
func (t *Traversal) OrderBy(key string, desc bool) *Traversal {
	return t.add(&OrderStep{By: key, Desc: desc})
}

// Store appends objects to a side-effect list.
func (t *Traversal) Store(key string) *Traversal { return t.add(&StoreStep{Key: key}) }

// Cap replaces the stream with a side-effect list.
func (t *Traversal) Cap(key string) *Traversal { return t.add(&CapStep{Key: key}) }

// Repeat runs the sub-traversal repeatedly; follow with Times and/or Until.
func (t *Traversal) Repeat(sub *Traversal) *Traversal {
	if sub.err != nil {
		t.err = sub.err
	}
	return t.add(&RepeatStep{Body: sub.Steps, Times: 1})
}

// Until makes the preceding Repeat release traversers whose sub-traversal
// yields a result (repeat-until semantics). Combine with Times to bound the
// walk, or leave unbounded (capped internally to prevent infinite loops).
func (t *Traversal) Until(sub *Traversal) *Traversal {
	if sub.err != nil {
		t.err = sub.err
	}
	if len(t.Steps) > 0 {
		if r, ok := t.Steps[len(t.Steps)-1].(*RepeatStep); ok {
			r.Until = sub.Steps
			r.Times = 0 // unbounded unless Times() follows
			return t
		}
	}
	t.err = fmt.Errorf("gremlin: until() requires a preceding repeat()")
	return t
}

// Times sets the iteration count of the preceding Repeat.
func (t *Traversal) Times(n int) *Traversal {
	if len(t.Steps) == 0 {
		t.err = fmt.Errorf("gremlin: times() requires a preceding repeat()")
		return t
	}
	if r, ok := t.Steps[len(t.Steps)-1].(*RepeatStep); ok {
		r.Times = n
	} else {
		t.err = fmt.Errorf("gremlin: times() requires a preceding repeat()")
	}
	return t
}

// Emit makes the preceding Repeat emit intermediate frontiers.
func (t *Traversal) Emit() *Traversal {
	if len(t.Steps) > 0 {
		if r, ok := t.Steps[len(t.Steps)-1].(*RepeatStep); ok {
			r.Emit = true
			return t
		}
	}
	t.err = fmt.Errorf("gremlin: emit() requires a preceding repeat()")
	return t
}

// Where keeps traversers whose sub-traversal yields at least one result.
func (t *Traversal) Where(sub *Traversal) *Traversal {
	if sub.err != nil {
		t.err = sub.err
	}
	return t.add(&WhereStep{Sub: sub.Steps})
}

// Filter is an alias of Where.
func (t *Traversal) Filter(sub *Traversal) *Traversal { return t.Where(sub) }

// Not keeps traversers whose sub-traversal yields no result.
func (t *Traversal) Not(sub *Traversal) *Traversal {
	if sub.err != nil {
		t.err = sub.err
	}
	return t.add(&WhereStep{Sub: sub.Steps, Negate: true})
}

// Union runs every branch from each traverser.
func (t *Traversal) Union(branches ...*Traversal) *Traversal {
	bs := make([][]Step, len(branches))
	for i, b := range branches {
		if b.err != nil {
			t.err = b.err
		}
		bs[i] = b.Steps
	}
	return t.add(&UnionStep{Branches: bs})
}

// Path emits the visited-object path.
func (t *Traversal) Path() *Traversal { return t.add(&PathStep{}) }

// SimplePath drops traversers that revisit an element.
func (t *Traversal) SimplePath() *Traversal { return t.add(&SimplePathStep{}) }

// As labels the current object.
func (t *Traversal) As(label string) *Traversal { return t.add(&AsStep{Label: label}) }

// Select emits previously labeled objects.
func (t *Traversal) Select(labels ...string) *Traversal {
	return t.add(&SelectStep{Labels: labels})
}

// GroupCount reduces to occurrence counts.
func (t *Traversal) GroupCount() *Traversal { return t.add(&GroupCountStep{}) }

// GroupCountBy reduces to occurrence counts of a property value.
func (t *Traversal) GroupCountBy(key string) *Traversal {
	return t.add(&GroupCountStep{By: key})
}

// Constant replaces each object with a constant.
func (t *Traversal) Constant(v any) *Traversal {
	val, err := types.FromGo(v)
	if err != nil {
		t.err = err
	}
	return t.add(&ConstantStep{Value: val})
}

// Is filters values by comparison with a constant.
func (t *Traversal) Is(p P) *Traversal {
	return t.add(&IsStep{Op: p.Op, Value: p.Value})
}

// Profile closes the traversal with the profile() terminal step: the run is
// instrumented and yields a single *telemetry.Profile report (per-step
// traverser counts and wall time) instead of its normal results.
func (t *Traversal) Profile() *Traversal { return t.add(&ProfileStep{}) }

// Explain closes the traversal with the explain() terminal step: the run is
// instrumented and yields a single *ExplainReport (the chosen plan tree with
// estimated vs actual rows and the planner's decisions) instead of its
// normal results.
func (t *Traversal) Explain() *Traversal { return t.add(&ExplainStep{}) }

// P is a comparison predicate (Gremlin's P.gt(5) etc.).
type P struct {
	Op     graph.PredOp
	Value  types.Value
	Values []types.Value
}

// Eq builds an equality predicate.
func Eq(v any) P { return mkP(graph.OpEq, v) }

// Neq builds an inequality predicate.
func Neq(v any) P { return mkP(graph.OpNeq, v) }

// Lt builds a less-than predicate.
func Lt(v any) P { return mkP(graph.OpLt, v) }

// Lte builds a less-or-equal predicate.
func Lte(v any) P { return mkP(graph.OpLte, v) }

// Gt builds a greater-than predicate.
func Gt(v any) P { return mkP(graph.OpGt, v) }

// Gte builds a greater-or-equal predicate.
func Gte(v any) P { return mkP(graph.OpGte, v) }

// Within builds a membership predicate.
func Within(vs ...any) P {
	out := P{Op: graph.OpWithin}
	for _, v := range vs {
		val, err := types.FromGo(v)
		if err != nil {
			continue
		}
		out.Values = append(out.Values, val)
	}
	return out
}

func mkP(op graph.PredOp, v any) P {
	val, err := types.FromGo(v)
	if err != nil {
		val = types.Null
	}
	return P{Op: op, Value: val}
}
