package gremlin

import (
	"db2graph/internal/graph"
)

// Strategy is a traversal-plan rewrite, the equivalent of a TinkerPop
// provider strategy. Strategies run in order over the flat step list of a
// traversal (and, recursively, over nested sub-traversals).
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// Apply rewrites a step plan.
	Apply(steps []Step) []Step
}

// StandardStrategies returns the four optimized traversal strategies of the
// paper (Section 6.2) in their canonical application order:
// GraphStep::VertexStep mutation, predicate pushdown, projection pushdown,
// and aggregate pushdown.
func StandardStrategies() []Strategy {
	return []Strategy{
		GraphStepVertexStepStrategy{},
		PredicatePushdownStrategy{},
		ProjectionPushdownStrategy{},
		AggregatePushdownStrategy{},
	}
}

// applyStrategies rewrites the plan with every strategy, recursing into
// container steps (repeat bodies, where/union branches).
func applyStrategies(steps []Step, strategies []Strategy) []Step {
	out := append([]Step{}, steps...)
	for _, st := range strategies {
		out = st.Apply(out)
	}
	for i, s := range out {
		switch x := s.(type) {
		case *RepeatStep:
			cp := *x
			cp.Body = applySubStrategies(x.Body, strategies)
			cp.Until = applySubStrategies(x.Until, strategies)
			out[i] = &cp
		case *WhereStep:
			cp := *x
			cp.Sub = applySubStrategies(x.Sub, strategies)
			out[i] = &cp
		case *UnionStep:
			cp := *x
			cp.Branches = make([][]Step, len(x.Branches))
			for j, b := range x.Branches {
				cp.Branches[j] = applySubStrategies(b, strategies)
			}
			out[i] = &cp
		}
	}
	return out
}

// applySubStrategies rewrites a nested traversal. The GraphStep::VertexStep
// mutation never applies inside (sub-traversals start from incoming
// traversers, not from g.V()), but the pushdown strategies do.
func applySubStrategies(steps []Step, strategies []Strategy) []Step {
	return applyStrategies(steps, strategies)
}

// isGSA reports whether a step accesses the graph structure and returns its
// pushdown query (the edge-level query for VertexStep).
func gsaQuery(s Step) (*graph.Query, bool) {
	switch x := s.(type) {
	case *GraphStep:
		if x.Query == nil {
			x.Query = &graph.Query{}
		}
		return x.Query, true
	case *VertexStep:
		if x.Query == nil {
			x.Query = &graph.Query{}
		}
		return x.Query, true
	case *EdgeVertexStep:
		if x.Query == nil {
			x.Query = &graph.Query{}
		}
		return x.Query, true
	default:
		return nil, false
	}
}

// elementQuery returns the query describing the elements a step EMITS:
// for out()/in()/both() that is the vertex-side VQuery, not the edge query.
func elementQuery(s Step) (*graph.Query, bool) {
	if vs, ok := s.(*VertexStep); ok && !vs.ReturnEdges {
		if vs.VQuery == nil {
			vs.VQuery = &graph.Query{}
		}
		return vs.VQuery, true
	}
	return gsaQuery(s)
}

// foldPred merges a predicate into a query, routing reserved keys to the
// dedicated fields when possible.
func foldPred(q *graph.Query, p graph.Pred) {
	// Label and id restrictions go to the dedicated fields only when the
	// query has none yet — the fields are disjunctive internally, so a
	// second restriction must stay a conjunctive predicate (backends
	// evaluate reserved keys in Preds via Pred.Matches or translate them).
	switch {
	case p.Key == graph.KeyLabel && p.Op == graph.OpEq && len(q.Labels) == 0:
		q.Labels = append(q.Labels, p.Value.Text())
	case p.Key == graph.KeyLabel && p.Op == graph.OpWithin && len(q.Labels) == 0:
		for _, v := range p.Values {
			q.Labels = append(q.Labels, v.Text())
		}
	case p.Key == graph.KeyID && p.Op == graph.OpEq && len(q.IDs) == 0:
		q.IDs = append(q.IDs, p.Value.Text())
	case p.Key == graph.KeyID && p.Op == graph.OpWithin && len(q.IDs) == 0:
		for _, v := range p.Values {
			q.IDs = append(q.IDs, v.Text())
		}
	default:
		q.Preds = append(q.Preds, p)
	}
}

// PredicatePushdownStrategy folds HasSteps following a GSA step into the GSA
// step's query, so the backend evaluates them (for the Db2 Graph provider:
// inside the WHERE clause of the generated SQL).
type PredicatePushdownStrategy struct{}

// Name implements Strategy.
func (PredicatePushdownStrategy) Name() string { return "PredicatePushdown" }

// Apply implements Strategy.
func (PredicatePushdownStrategy) Apply(steps []Step) []Step {
	var out []Step
	for _, s := range steps {
		hs, isHas := s.(*HasStep)
		if isHas && len(out) > 0 {
			if q, ok := elementQuery(out[len(out)-1]); ok {
				// Folding an id/label restriction is only valid when the
				// query has no prior id restriction that it would widen.
				for _, p := range hs.Preds {
					foldPred(q, p)
				}
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// ProjectionPushdownStrategy is the paper's projection pushdown applied to
// the whole plan as one backward liveness pass: walking from the last step
// to the first, it tracks which properties of the stream's elements a later
// step can observe, and narrows each GSA step's fetch to them (for the Db2
// Graph provider: a narrower SELECT list; on the cluster wire: fewer
// columns).
//   - out()/in()/both() never emit their edges, so their edge query
//     fetches no properties, and a hop reads only its input's ids.
//   - count(), id(), label(), dedup(), limit(), constant() and is()
//     observe ids and labels only.
//   - values(k) and valueMap(k) observe the keys they name.
//   - Every other step observes all properties, as does the traversal's
//     result; so do as() (a select() may emit the element), store(),
//     sub-traversal steps, bare values()/valueMap(), and every step
//     before a path().
type ProjectionPushdownStrategy struct{}

// Name implements Strategy.
func (ProjectionPushdownStrategy) Name() string { return "ProjectionPushdown" }

// Apply implements Strategy. A need is a Query.Projection: nil reads every
// property, empty none.
func (ProjectionPushdownStrategy) Apply(steps []Step) []Step {
	var need []string // what later steps read of step i's output
	for i := len(steps) - 1; i >= 0; i-- {
		var in []string // what step i and later steps read of its input
		switch x := steps[i].(type) {
		case *GraphStep, *EdgeVertexStep:
			q, _ := gsaQuery(x)
			narrow(q, need)
			in = noProps
		case *VertexStep:
			if q, _ := gsaQuery(x); !x.ReturnEdges {
				narrow(q, noProps) // out()/in()/both() never emit the edges
			}
			q, _ := elementQuery(x)
			narrow(q, need)
			in = noProps
		case *ValuesStep:
			if len(x.Keys) > 0 {
				in = x.Keys
			}
		case *ValueMapStep:
			if len(x.Keys) > 0 {
				in = x.Keys
			}
		case *AggregateStep:
			if x.Kind == graph.AggCount {
				in = noProps
			}
		case *IDStep, *LabelStep, *ConstantStep, *IsStep:
			in = noProps
		case *DedupStep, *LimitStep, *ProfileStep, *ExplainStep:
			in = need
		}
		if plansPaths(steps[i:]) {
			in = nil // a path holds every object before its step
		}
		need = in
	}
	return steps
}

var noProps = []string{}

// narrow sets q's projection to need unless q already has one.
func narrow(q *graph.Query, need []string) {
	if q.Projection == nil && need != nil {
		q.Projection = append([]string{}, need...)
	}
}

// AggregatePushdownStrategy folds terminal aggregations into the preceding
// GSA step: count() directly after a GSA step, or values(p) + sum/mean/min/
// max after it (for the Db2 Graph provider: SELECT COUNT(*)/SUM(p)/... in
// SQL).
type AggregatePushdownStrategy struct{}

// Name implements Strategy.
func (AggregatePushdownStrategy) Name() string { return "AggregatePushdown" }

// Apply implements Strategy.
func (AggregatePushdownStrategy) Apply(steps []Step) []Step {
	var out []Step
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		agg, isAgg := s.(*AggregateStep)
		if isAgg && len(out) > 0 {
			prev := out[len(out)-1]
			// Pattern 1: GSA.count()
			if agg.Kind == graph.AggCount {
				if setPushAgg(prev, graph.Agg{Kind: graph.AggCount}) {
					continue
				}
			}
			// Pattern 2: GSA.values(p).<agg>()
			if vs, ok := prev.(*ValuesStep); ok && len(vs.Keys) == 1 && len(out) >= 2 {
				gsa := out[len(out)-2]
				if setPushAgg(gsa, graph.Agg{Kind: agg.Kind, Key: vs.Keys[0]}) {
					out = out[:len(out)-1] // drop the ValuesStep
					continue
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// setPushAgg attaches an aggregate to a GSA step if it supports pushdown
// and has none yet.
func setPushAgg(s Step, agg graph.Agg) bool {
	switch x := s.(type) {
	case *GraphStep:
		if x.PushAgg == nil {
			x.PushAgg = &agg
			return true
		}
	case *VertexStep:
		// Aggregating vertices reached via out()/in() cannot be pushed as an
		// edge aggregate when the vertex side filters differ; only edge
		// steps (outE/inE/bothE) push down cleanly. For count() on out(),
		// the edge count equals the reached-vertex count only without
		// vertex-side filters, and only when every edge endpoint resolves
		// to a vertex: a pushed count counts edges, so a dangling edge
		// (an overlay link row whose node is missing) counts although
		// materializing the hop would drop it.
		if x.PushAgg != nil {
			return false
		}
		if x.ReturnEdges {
			x.PushAgg = &agg
			return true
		}
		if agg.Kind == graph.AggCount && (x.VQuery == nil || queryIsEmpty(x.VQuery)) {
			x.PushAgg = &agg
			return true
		}
	}
	return false
}

func queryIsEmpty(q *graph.Query) bool {
	return len(q.IDs) == 0 && len(q.Labels) == 0 && len(q.Preds) == 0
}

// GraphStepVertexStepStrategy fuses g.V(ids).outE(...)-style prefixes: the
// initial vertex fetch is pure waste because the edge tables already hold
// the source vertex ids (Section 6.2's GraphStep::VertexStep mutation). The
// VertexStep becomes self-seeding from the ids.
type GraphStepVertexStepStrategy struct{}

// Name implements Strategy.
func (GraphStepVertexStepStrategy) Name() string { return "GraphStepVertexStep" }

// Apply implements Strategy.
func (GraphStepVertexStepStrategy) Apply(steps []Step) []Step {
	if len(steps) < 2 {
		return steps
	}
	gs, ok := steps[0].(*GraphStep)
	if !ok || gs.Kind != KindVertex || gs.PushAgg != nil {
		return steps
	}
	// Only fuse when the GraphStep is a pure id lookup: any label or
	// property restriction must be evaluated against the vertices.
	if gs.Query == nil || len(gs.Query.IDs) == 0 || len(gs.Query.Labels) > 0 ||
		len(gs.Query.Preds) > 0 {
		return steps
	}
	vs, ok := steps[1].(*VertexStep)
	if !ok || len(vs.SeedIDs) > 0 {
		return steps
	}
	// Fusing drops the vertex objects, so paths would lose an entry.
	if plansPaths(steps) {
		return steps
	}
	fused := *vs
	fused.SeedIDs = append([]string{}, gs.Query.IDs...)
	out := append([]Step{&fused}, steps[2:]...)
	return out
}

// Note on hasLabel after V(ids): TinkerPop evaluates hasLabel against the
// fetched vertices. Db2 Graph additionally uses the label to prune vertex
// tables at runtime (Section 6.3), which the provider implements inside its
// Backend.V.
