// Package graph defines the property-graph core API of the system — the
// equivalent of the TinkerPop graph structure API in the paper. The Gremlin
// traversal engine executes against the Backend interface, and three
// providers implement it: the Db2 Graph overlay (internal/core), the native
// graph database simulator (internal/gdbx), and the JanusGraph-style hybrid
// store (internal/janus).
//
// Query is the pushdown carrier: the optimized traversal strategies of the
// paper (Section 6.2) fold predicates, projections, and aggregates into the
// Query of each graph-structure-accessing step, and each backend translates
// it into its native access paths.
package graph

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"db2graph/internal/sql/types"
)

// Direction orients adjacency operations.
type Direction int

// Directions.
const (
	DirOut Direction = iota
	DirIn
	DirBoth
)

// String returns the Gremlin-ish name of the direction.
func (d Direction) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirIn:
		return "in"
	case DirBoth:
		return "both"
	default:
		return "dir?"
	}
}

// Reverse flips out and in.
func (d Direction) Reverse() Direction {
	switch d {
	case DirOut:
		return DirIn
	case DirIn:
		return DirOut
	default:
		return DirBoth
	}
}

// Element is a vertex or an edge of a property graph.
type Element struct {
	ID    string
	Label string
	// Props holds the element's properties. May be a partial set when a
	// projection was pushed down.
	Props map[string]types.Value
	// IsEdge distinguishes edges from vertices.
	IsEdge bool
	// OutV/InV are the source and destination vertex ids (edges only).
	OutV string
	InV  string
	// Table records the backing table the element came from; the Db2 Graph
	// runtime optimizations (Section 6.3) consult it.
	Table string
	// Ref is an opaque provider-specific reference (for Db2 Graph, the
	// overlay mapping that produced the element), letting the provider
	// apply table-aware optimizations when the element flows back in.
	Ref any
}

// Property returns a property value.
func (e *Element) Property(key string) (types.Value, bool) {
	v, ok := e.Props[key]
	return v, ok
}

// PropertyNames returns the sorted property keys.
func (e *Element) PropertyNames() []string {
	out := make([]string, 0, len(e.Props))
	for k := range e.Props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders a compact description for debugging and console output.
func (e *Element) String() string {
	if e == nil {
		return "<nil>"
	}
	if e.IsEdge {
		return fmt.Sprintf("e[%s][%s-%s->%s]", e.ID, e.OutV, e.Label, e.InV)
	}
	return fmt.Sprintf("v[%s][%s]", e.ID, e.Label)
}

// PredOp enumerates predicate operators available for pushdown.
type PredOp int

// Predicate operators.
const (
	OpEq PredOp = iota
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpWithin
)

// String renders the operator.
func (op PredOp) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpNeq:
		return "neq"
	case OpLt:
		return "lt"
	case OpLte:
		return "lte"
	case OpGt:
		return "gt"
	case OpGte:
		return "gte"
	case OpWithin:
		return "within"
	default:
		return "op?"
	}
}

// Pred is one property predicate. Key may be the reserved names KeyID and
// KeyLabel to address the element id and label.
type Pred struct {
	Key    string
	Op     PredOp
	Value  types.Value
	Values []types.Value // for OpWithin
}

// Reserved predicate keys.
const (
	KeyID    = "~id"
	KeyLabel = "~label"
)

// Matches evaluates the predicate against an element.
func (p Pred) Matches(e *Element) bool {
	var v types.Value
	switch p.Key {
	case KeyID:
		v = types.NewString(e.ID)
	case KeyLabel:
		v = types.NewString(e.Label)
	default:
		var ok bool
		v, ok = e.Props[p.Key]
		if !ok {
			return false
		}
	}
	switch p.Op {
	case OpEq:
		return types.Equal(v, p.Value)
	case OpNeq:
		return !v.IsNull() && !types.Equal(v, p.Value)
	case OpLt:
		return !v.IsNull() && !p.Value.IsNull() && types.Compare(v, p.Value) < 0
	case OpLte:
		return !v.IsNull() && !p.Value.IsNull() && types.Compare(v, p.Value) <= 0
	case OpGt:
		return !v.IsNull() && !p.Value.IsNull() && types.Compare(v, p.Value) > 0
	case OpGte:
		return !v.IsNull() && !p.Value.IsNull() && types.Compare(v, p.Value) >= 0
	case OpWithin:
		for _, w := range p.Values {
			if types.Equal(v, w) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// AggKind enumerates aggregates that can be pushed into a backend.
type AggKind int

// Aggregate kinds.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggMean
	AggMin
	AggMax
)

// String renders the aggregate name.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMean:
		return "mean"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// Agg describes an aggregate pushed into a graph-structure access: the kind
// plus the property it ranges over (empty for count).
type Agg struct {
	Kind AggKind
	Key  string
}

// Query carries the pushdown information attached to one graph-structure-
// accessing step.
type Query struct {
	// IDs restricts the result to elements with these ids (empty = all).
	// Repeating an id repeats its vertex in V's result (see Backend.V).
	IDs []string
	// Labels restricts to these labels (empty = all).
	Labels []string
	// Preds are property predicates all results must satisfy.
	Preds []Pred
	// Projection lists the property keys the caller needs; nil means all
	// properties, empty non-nil means none. It narrows which properties
	// come back, never which elements match. A backend may return more
	// properties than it names (a cache of full elements answers any
	// projection, and a predicate's key may ride along); the gserver reply
	// carries exactly the projected keys.
	Projection []string
}

// Clone returns a deep-enough copy for safe mutation.
func (q *Query) Clone() *Query {
	if q == nil {
		return &Query{}
	}
	out := *q
	out.IDs = append([]string(nil), q.IDs...)
	out.Labels = append([]string(nil), q.Labels...)
	out.Preds = append([]Pred(nil), q.Preds...)
	// slices.Clone keeps nil nil and empty empty: the two mean "all" and
	// "none".
	out.Projection = slices.Clone(q.Projection)
	return &out
}

// MatchesLabels reports whether the element label passes the label filter.
func (q *Query) MatchesLabels(e *Element) bool {
	if len(q.Labels) == 0 {
		return true
	}
	for _, l := range q.Labels {
		if e.Label == l {
			return true
		}
	}
	return false
}

// MatchesIDs reports whether the element id passes the id filter.
func (q *Query) MatchesIDs(e *Element) bool {
	if len(q.IDs) == 0 {
		return true
	}
	for _, id := range q.IDs {
		if e.ID == id {
			return true
		}
	}
	return false
}

// Matches evaluates the whole query (ids, labels, predicates) against an
// element. Backends without native filtering use it as their fallback.
func (q *Query) Matches(e *Element) bool {
	if q == nil {
		return true
	}
	if !q.MatchesIDs(e) || !q.MatchesLabels(e) {
		return false
	}
	for _, p := range q.Preds {
		if !p.Matches(e) {
			return false
		}
	}
	return true
}

// Backend is the provider contract: the minimal graph structure API every
// store implements. All methods must be safe for concurrent use: each query
// runs on one goroutine, but many queries share one backend, so calls from
// different queries overlap. graphtest.RunConcurrent exercises this
// guarantee under the race detector.
//
// Ordering contract: for a fixed store state, every method must return
// results in a deterministic order, and VertexEdges must keep each
// vertex's incident-edge sub-order independent of which other vertices are
// in the same call. Callers split one frontier into several calls and
// reassemble per-vertex groups: the cluster coordinator sends each shard
// only its own vertices, and GroupEdgesByVertex callers such as the
// overlay's adjacency cache fetch only the vertices they miss. A
// co-query-dependent sub-order would make results vary with the split.
//
// Every method takes a context.Context carrying the query's deadline and
// cancellation; implementations must return promptly (with an error wrapping
// ctx.Err()) once the context is done, checking it at entry and periodically
// inside long scans (see Interrupted and ScanTick).
type Backend interface {
	// Name identifies the provider ("db2graph", "gdbx", "janusgraph").
	Name() string

	// V returns the vertices matching q. A vertex whose id q.IDs repeats
	// appears once per occurrence, as g.V('a', 'a') has two traversers.
	V(ctx context.Context, q *Query) ([]*Element, error)
	// E returns the edges matching q. Like V, an edge whose id q.IDs
	// repeats appears once per occurrence.
	E(ctx context.Context, q *Query) ([]*Element, error)
	// VertexEdges returns the edges incident to the given vertex ids in the
	// given direction, filtered by q. Each matching edge appears at most
	// once, even when several of the given vertices touch it (the traversal
	// engine re-attributes edges to traversers itself).
	VertexEdges(ctx context.Context, vids []string, dir Direction, q *Query) ([]*Element, error)
	// EdgeVertices resolves, for each edge, the vertex at the given end
	// (DirOut = source vertex, DirIn = destination vertex), filtered by q.
	// dir is DirOut or DirIn only. The result MUST be aligned with edges:
	// same length, with nil entries where the vertex was filtered out by q.
	EdgeVertices(ctx context.Context, edges []*Element, dir Direction, q *Query) ([]*Element, error)

	// AggV computes an aggregate over the vertices matching q without
	// materializing them.
	AggV(ctx context.Context, q *Query, agg Agg) (types.Value, error)
	// AggE computes an aggregate over the edges matching q.
	AggE(ctx context.Context, q *Query, agg Agg) (types.Value, error)
	// AggVertexEdges computes an aggregate over the incident edges of the
	// given vertices, a multiset: the engine sends a frontier vertex once
	// per traverser on it, and an edge counts once per occurrence of its
	// frontier endpoint (out(): its source; in(): its destination; both():
	// the more frequent of its two ends, so a distinct id list still
	// counts an edge joining two of its vertices once). Repeats weight
	// sum and mean alike and leave min and max unchanged. The engine
	// answers out()/in().count() with it, counting edges for reached
	// vertices, which assumes every edge endpoint resolves to a vertex;
	// an edge whose endpoint is missing is still counted.
	// AggregateVertexEdges is the materialized answer.
	AggVertexEdges(ctx context.Context, vids []string, dir Direction, q *Query, agg Agg) (types.Value, error)
}

// Mutable is implemented by backends that support direct graph loading
// (the standalone-database baselines; the Db2 Graph overlay is loaded
// through SQL instead).
type Mutable interface {
	AddVertex(el *Element) error
	AddEdge(el *Element) error
}

// AggregateElements computes an aggregate over materialized elements; the
// generic fallback used by backends and by the traversal engine when a
// pushdown is unavailable.
func AggregateElements(els []*Element, agg Agg) (types.Value, error) {
	return aggregateWeighted(els, nil, agg)
}

// AggregateVertexEdges is the materialized AggVertexEdges: it computes agg
// over edges, the result of VertexEdges for the multiset vids, weighting
// each edge by the occurrences in vids of its frontier endpoint (the more
// frequent end for DirBoth). Without repeats it is AggregateElements.
func AggregateVertexEdges(edges []*Element, vids []string, dir Direction, agg Agg) (types.Value, error) {
	if len(vids) < 2 {
		return AggregateElements(edges, agg)
	}
	occ := make(map[string]int64, len(vids))
	for _, id := range vids {
		occ[id]++
	}
	if len(occ) == len(vids) {
		return AggregateElements(edges, agg)
	}
	return aggregateWeighted(edges, func(e *Element) int64 {
		switch dir {
		case DirOut:
			return occ[e.OutV]
		case DirIn:
			return occ[e.InV]
		default:
			return max(occ[e.OutV], occ[e.InV])
		}
	}, agg)
}

// aggregateWeighted computes agg over els, counting each element weight(e)
// times (once with a nil weight).
func aggregateWeighted(els []*Element, weight func(*Element) int64, agg Agg) (types.Value, error) {
	if agg.Kind == AggCount {
		if weight == nil {
			return types.NewInt(int64(len(els))), nil
		}
		var n int64
		for _, e := range els {
			n += weight(e)
		}
		return types.NewInt(n), nil
	}
	var (
		count int64
		sum   float64
		min   types.Value
		max   types.Value
		first = true
	)
	for _, e := range els {
		v, ok := e.Props[agg.Key]
		if !ok || v.IsNull() {
			continue
		}
		f, okf := v.Float()
		if !okf && (agg.Kind == AggSum || agg.Kind == AggMean) {
			return types.Null, fmt.Errorf("graph: cannot %s non-numeric property %q", agg.Kind, agg.Key)
		}
		w := int64(1)
		if weight != nil {
			w = weight(e)
		}
		count += w
		sum += f * float64(w)
		if first || types.Compare(v, min) < 0 {
			min = v
		}
		if first || types.Compare(v, max) > 0 {
			max = v
		}
		first = false
	}
	switch agg.Kind {
	case AggSum:
		if count == 0 {
			return types.Null, nil
		}
		return types.NewFloat(sum), nil
	case AggMean:
		if count == 0 {
			return types.Null, nil
		}
		return types.NewFloat(sum / float64(count)), nil
	case AggMin:
		if count == 0 {
			return types.Null, nil
		}
		return min, nil
	case AggMax:
		if count == 0 {
			return types.Null, nil
		}
		return max, nil
	default:
		return types.Null, fmt.Errorf("graph: unsupported aggregate %v", agg.Kind)
	}
}

// AggregateValues computes an aggregate over scalar values (used by the
// traversal engine for values(...)-style streams).
func AggregateValues(vals []types.Value, kind AggKind) (types.Value, error) {
	if kind == AggCount {
		return types.NewInt(int64(len(vals))), nil
	}
	var (
		count int64
		sum   float64
		isInt = true
		intS  int64
		min   types.Value
		max   types.Value
		first = true
	)
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		f, ok := v.Float()
		if !ok && (kind == AggSum || kind == AggMean) {
			return types.Null, fmt.Errorf("graph: cannot %s non-numeric value", kind)
		}
		if v.Kind == types.KindInt {
			intS += v.I
		} else {
			isInt = false
		}
		count++
		sum += f
		if first || types.Compare(v, min) < 0 {
			min = v
		}
		if first || types.Compare(v, max) > 0 {
			max = v
		}
		first = false
	}
	switch kind {
	case AggSum:
		if count == 0 {
			return types.Null, nil
		}
		if isInt {
			return types.NewInt(intS), nil
		}
		return types.NewFloat(sum), nil
	case AggMean:
		if count == 0 {
			return types.Null, nil
		}
		return types.NewFloat(sum / float64(count)), nil
	case AggMin:
		if count == 0 {
			return types.Null, nil
		}
		return min, nil
	case AggMax:
		if count == 0 {
			return types.Null, nil
		}
		return max, nil
	default:
		return types.Null, fmt.Errorf("graph: unsupported aggregate %v", kind)
	}
}
