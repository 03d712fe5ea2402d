package gremlin

import "db2graph/internal/graph"

// The cost model: after the rule-based strategies rewrite the plan,
// applyCost reads catalog statistics (graph.Stats) to annotate every step
// with a cardinality estimate for explain(). It only estimates: it makes no
// physical choice, so a costed plan executes exactly as the static one.
// Physical choices are the strategies' rules, as the paper's optimizations
// are (the compile-time pushdowns of §6.2, the SQL-dialect rewrites of §6.3).

// CostEst is the planner's cardinality estimate for one step, carried on the
// plan for explain() rendering only — execution never consults it.
type CostEst struct {
	// Rows is the estimated number of traversers leaving the step.
	Rows float64
	// Notes records how the step reaches its rows (id lookup or full scan).
	Notes []string
}

// predSelectivity is the assumed fraction of rows surviving one property
// predicate (no per-property histograms).
const predSelectivity = 0.25

// applyCost annotates a strategy-rewritten plan in place, recursing into
// nested plans the way applyStrategies does. st must be non-nil; steps must
// already be private to this plan (cloned).
func applyCost(steps []Step, st *graph.Stats) {
	est := -1.0 // unknown incoming cardinality (anonymous sub-traversals)
	for _, s := range steps {
		est = costStep(s, st, est)
	}
}

// costStep annotates one step and returns the estimated outgoing
// cardinality (-1 = unknown).
func costStep(s Step, st *graph.Stats, in float64) float64 {
	switch x := s.(type) {
	case *GraphStep:
		x.Est = &CostEst{}
		rows := 0.0
		if x.Query != nil && len(x.Query.IDs) > 0 {
			rows = float64(len(x.Query.IDs))
			x.Est.Notes = append(x.Est.Notes, "index: id lookup")
		} else {
			if x.Kind == KindVertex {
				rows = float64(labelRows(st.VertexCount, x.Query, st.VertexLabelCount))
			} else {
				rows = float64(labelRows(st.EdgeCount, x.Query, st.EdgeLabelCount))
			}
			x.Est.Notes = append(x.Est.Notes, "full scan")
		}
		rows = applyQueryEst(rows, x.Query)
		if x.PushAgg != nil {
			rows = 1
		}
		x.Est.Rows = rows
		return rows

	case *VertexStep:
		x.Est = &CostEst{}
		anchors := in
		if len(x.SeedIDs) > 0 {
			anchors = float64(len(x.SeedIDs))
		}
		rows := -1.0
		if anchors >= 0 {
			rows = anchors * fanoutEst(st, x.Dir, x.Query)
			rows = applyQueryEst(rows, x.Query)
			if !x.ReturnEdges {
				rows = applyQueryEst(rows, x.VQuery)
			}
		}
		if x.PushAgg != nil {
			rows = 1
		}
		x.Est.Rows = rows
		return rows

	case *HasStep:
		if in < 0 {
			return -1
		}
		rows := in
		for range x.Preds {
			rows *= predSelectivity
		}
		return rows

	case *LimitStep:
		if in < 0 || in > float64(x.N) {
			return float64(x.N)
		}
		return in

	case *AggregateStep, *GroupCountStep:
		return 1

	case *RepeatStep:
		applyCost(x.Body, st)
		applyCost(x.Until, st)
		return -1

	case *WhereStep:
		applyCost(x.Sub, st)
		return in

	case *UnionStep:
		for _, b := range x.Branches {
			applyCost(b, st)
		}
		return -1

	default:
		return in
	}
}

// labelRows estimates a label-filtered scan cardinality.
func labelRows(total int64, q *graph.Query, perLabel func(string) int64) int64 {
	if q == nil || len(q.Labels) == 0 {
		return total
	}
	var n int64
	for _, l := range q.Labels {
		n += perLabel(l)
	}
	if n > total {
		n = total
	}
	return n
}

// applyQueryEst folds predicate selectivity into a row estimate.
func applyQueryEst(rows float64, q *graph.Query) float64 {
	if q == nil || rows < 0 {
		return rows
	}
	for range q.Preds {
		rows *= predSelectivity
	}
	return rows
}

// fanoutEst estimates the mean edges per anchor vertex for one adjacency
// hop. Unknown labels contribute nothing.
func fanoutEst(st *graph.Stats, dir graph.Direction, q *graph.Query) float64 {
	var count int64
	if q == nil || len(q.Labels) == 0 {
		count = st.EdgeCount
	} else {
		for _, l := range q.Labels {
			count += st.EdgeLabels[l]
		}
	}
	if st.VertexCount == 0 {
		return 0
	}
	perAnchor := float64(count) / float64(st.VertexCount)
	if dir == graph.DirBoth {
		perAnchor *= 2
	}
	return perAnchor
}
