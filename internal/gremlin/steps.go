// Package gremlin implements the Gremlin graph traversal language subset
// used by the paper: a fluent Go builder and a text parser produce a step
// plan; provider strategies (Section 6.2 of the paper) rewrite the plan;
// and the traversal engine executes it against a graph.Backend.
package gremlin

import (
	"fmt"
	"strings"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// Step is one operation in a traversal plan.
type Step interface {
	// Name returns the Gremlin step name for diagnostics.
	Name() string
}

// ElementKind selects vertices or edges for a GraphStep.
type ElementKind int

// Element kinds.
const (
	KindVertex ElementKind = iota
	KindEdge
)

// GraphStep is the start step: g.V(ids...) or g.E(ids...). It is a
// graph-structure-accessing (GSA) step; strategies fold predicates,
// projections, and aggregates into Query/PushAgg.
type GraphStep struct {
	Kind ElementKind
	// Query carries ids plus pushed-down filters.
	Query *graph.Query
	// PushAgg, when non-nil, turns the step into a single aggregated value.
	PushAgg *graph.Agg
	// Est carries the planner's cardinality estimate (explain() rendering
	// only; never consulted during execution).
	Est *CostEst
}

// Name implements Step.
func (s *GraphStep) Name() string {
	if s.Kind == KindVertex {
		return "V"
	}
	return "E"
}

// VertexStep navigates adjacency from vertices: out/in/both (vertices) and
// outE/inE/bothE (edges). It is a GSA step.
type VertexStep struct {
	Dir graph.Direction
	// ReturnEdges selects outE/inE/bothE; otherwise out/in/both.
	ReturnEdges bool
	// Query carries edge labels plus pushed-down filters (on the edges).
	Query *graph.Query
	// VQuery carries filters/projections pushed down onto the destination
	// vertices of out()/in()/both() (nil when ReturnEdges).
	VQuery *graph.Query
	// PushAgg aggregates the reached edges without materializing them.
	PushAgg *graph.Agg
	// SeedIDs, when non-empty, makes the step self-seeding: it was fused
	// with a preceding g.V(ids) by the GraphStep::VertexStep mutation
	// strategy and starts directly from these vertex ids.
	SeedIDs []string

	// Est carries the planner's cardinality estimate (explain() rendering
	// only; never consulted during execution).
	Est *CostEst
}

// Name implements Step.
func (s *VertexStep) Name() string {
	n := s.Dir.String()
	if s.ReturnEdges {
		n += "E"
	}
	return n
}

// EdgeEnd selects which endpoint EdgeVertexStep resolves.
type EdgeEnd int

// Edge endpoints.
const (
	EndOut EdgeEnd = iota
	EndIn
	EndBoth
	EndOther
)

// EdgeVertexStep moves from edges to their endpoint vertices
// (outV/inV/bothV/otherV).
type EdgeVertexStep struct {
	End EdgeEnd
	// Query filters/projects the fetched vertices.
	Query *graph.Query
}

// Name implements Step.
func (s *EdgeVertexStep) Name() string {
	switch s.End {
	case EndOut:
		return "outV"
	case EndIn:
		return "inV"
	case EndBoth:
		return "bothV"
	default:
		return "otherV"
	}
}

// HasStep filters elements by predicates (hasLabel/hasId fold into the
// reserved ~label/~id keys).
type HasStep struct {
	Preds []graph.Pred
}

// Name implements Step.
func (s *HasStep) Name() string { return "has" }

// ValuesStep emits the values of the named properties, one traverser per
// present property. With no keys it emits every property, in key order.
type ValuesStep struct {
	Keys []string
}

// Name implements Step.
func (s *ValuesStep) Name() string { return "values" }

// ValueMapStep emits a map of property name to value per element. With no
// keys it emits all properties.
type ValueMapStep struct {
	Keys []string
	// WithIDLabel includes ~id and ~label entries (valueMap(true)).
	WithIDLabel bool
}

// Name implements Step.
func (s *ValueMapStep) Name() string { return "valueMap" }

// IDStep emits element ids.
type IDStep struct{}

// Name implements Step.
func (s *IDStep) Name() string { return "id" }

// LabelStep emits element labels.
type LabelStep struct{}

// Name implements Step.
func (s *LabelStep) Name() string { return "label" }

// AggregateStep reduces the incoming stream: count over anything;
// sum/mean/min/max over values.
type AggregateStep struct {
	Kind graph.AggKind
}

// Name implements Step.
func (s *AggregateStep) Name() string { return s.Kind.String() }

// DedupStep removes duplicate traversers (by element id, or by value).
type DedupStep struct{}

// Name implements Step.
func (s *DedupStep) Name() string { return "dedup" }

// LimitStep keeps the first N traversers.
type LimitStep struct {
	N int
}

// Name implements Step.
func (s *LimitStep) Name() string { return "limit" }

// OrderStep sorts traversers by their value or by a property.
type OrderStep struct {
	// By is the property key to sort elements by; empty sorts by the
	// traverser value itself.
	By   string
	Desc bool
}

// Name implements Step.
func (s *OrderStep) Name() string { return "order" }

// StoreStep appends each traverser's object to a named side-effect list.
type StoreStep struct {
	Key string
}

// Name implements Step.
func (s *StoreStep) Name() string { return "store" }

// CapStep replaces the stream with the accumulated side-effect list.
type CapStep struct {
	Key string
}

// Name implements Step.
func (s *CapStep) Name() string { return "cap" }

// RepeatStep executes Body over the traverser set. Times bounds the
// iteration count (0 means unbounded, requiring Until). With Emit,
// intermediate frontiers are also emitted. With Until, traversers whose
// until-traversal yields a result leave the loop as output after each
// iteration.
type RepeatStep struct {
	Body  []Step
	Times int
	Emit  bool
	Until []Step
}

// Name implements Step.
func (s *RepeatStep) Name() string { return "repeat" }

// WhereStep keeps traversers for which the sub-traversal produces at least
// one result (or none, when Negate — Gremlin's not()).
type WhereStep struct {
	Sub    []Step
	Negate bool
}

// Name implements Step.
func (s *WhereStep) Name() string {
	if s.Negate {
		return "not"
	}
	return "where"
}

// UnionStep runs each branch from each traverser and concatenates results.
type UnionStep struct {
	Branches [][]Step
}

// Name implements Step.
func (s *UnionStep) Name() string { return "union" }

// PathStep emits the path (the sequence of objects visited).
type PathStep struct{}

// Name implements Step.
func (s *PathStep) Name() string { return "path" }

// AsStep labels the current object for later select().
type AsStep struct {
	Label string
}

// Name implements Step.
func (s *AsStep) Name() string { return "as" }

// SelectStep emits previously labeled objects: one label yields the object,
// several yield a map.
type SelectStep struct {
	Labels []string
}

// Name implements Step.
func (s *SelectStep) Name() string { return "select" }

// GroupCountStep reduces the stream to a map from object (or property
// value, when By is set) to occurrence count.
type GroupCountStep struct {
	By string
}

// Name implements Step.
func (s *GroupCountStep) Name() string { return "groupCount" }

// ConstantStep replaces each traverser's object with a constant.
type ConstantStep struct {
	Value types.Value
}

// Name implements Step.
func (s *ConstantStep) Name() string { return "constant" }

// IsStep filters value traversers by comparing against a constant
// (Gremlin's is(); also produced by parsing `filter(... .id() == x)`).
type IsStep struct {
	Op    graph.PredOp
	Value types.Value
}

// Name implements Step.
func (s *IsStep) Name() string { return "is" }

// SimplePathStep drops traversers whose path contains a repeated element.
type SimplePathStep struct{}

// Name implements Step.
func (s *SimplePathStep) Name() string { return "simplePath" }

// ProfileStep is the TinkerPop-style profile() terminal step: it must close
// the chain, enables per-step instrumentation for the run, and replaces the
// result stream with a single *telemetry.Profile report.
type ProfileStep struct{}

// Name implements Step.
func (s *ProfileStep) Name() string { return "profile" }

// ExplainStep is the explain() terminal step: it must close the chain, runs
// the traversal with per-step instrumentation enabled, and replaces the
// result stream with a single *ExplainReport rendering the chosen plan with
// estimated vs actual rows per step.
type ExplainStep struct{}

// Name implements Step.
func (s *ExplainStep) Name() string { return "explain" }

// PlanString renders a step plan for diagnostics and tests.
func PlanString(steps []Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = describeStep(s)
	}
	return strings.Join(parts, ".")
}

func describeStep(s Step) string {
	switch x := s.(type) {
	case *GraphStep:
		extra := ""
		if x.PushAgg != nil {
			extra = "+agg:" + x.PushAgg.Kind.String()
		}
		if x.Query != nil && len(x.Query.Preds) > 0 {
			extra += fmt.Sprintf("+preds:%d", len(x.Query.Preds))
		}
		if x.Query != nil && x.Query.Projection != nil {
			extra += "+proj"
		}
		return x.Name() + "(" + strings.Join(x.Query.IDs, ",") + ")" + extra
	case *VertexStep:
		extra := ""
		if len(x.SeedIDs) > 0 {
			extra = "+seeded"
		}
		if x.PushAgg != nil {
			extra += "+agg:" + x.PushAgg.Kind.String()
		}
		if x.Query != nil && len(x.Query.Preds) > 0 {
			extra += fmt.Sprintf("+preds:%d", len(x.Query.Preds))
		}
		// +proj marks a narrowed fetch of the elements the step emits: the
		// edges of outE(), the vertices of out().
		emitted := x.Query
		if !x.ReturnEdges {
			emitted = x.VQuery
		}
		if emitted != nil && emitted.Projection != nil {
			extra += "+proj"
		}
		lbl := ""
		if x.Query != nil {
			lbl = strings.Join(x.Query.Labels, ",")
		}
		return x.Name() + "(" + lbl + ")" + extra
	default:
		return s.Name() + "()"
	}
}
