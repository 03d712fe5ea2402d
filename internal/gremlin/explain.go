package gremlin

import (
	"fmt"
	"strings"
	"time"
)

// ExplainNode is one step of an explained plan: the physical step rendering
// plus the planner's estimate and the measured actuals.
type ExplainNode struct {
	// Name is the physical step rendering (describeStep), including the
	// strategies' pushdown annotations like +seeded, +agg:count and +proj.
	Name string `json:"name"`
	// Depth indents steps nested inside repeat()/where()/union() bodies.
	Depth int `json:"depth,omitempty"`
	// EstRows is the planner's estimated output cardinality; negative when
	// unknown (no statistics, or an unestimatable step).
	EstRows float64 `json:"est_rows"`
	// ActualRows / Calls are the measured traverser output count and
	// invocation count, summed over every invocation.
	ActualRows int64 `json:"actual_rows"`
	Calls      int64 `json:"calls"`
	// Notes records how the step reaches its rows (id lookup or full scan).
	Notes []string `json:"notes,omitempty"`
}

// ExplainReport is the result of the explain() terminal step: the chosen
// plan tree with estimated vs actual rows per step and the statistics
// context the plan was costed under.
type ExplainReport struct {
	Backend string `json:"backend"`
	Plan    string `json:"plan"`
	// Costed reports whether statistics were available: false means the
	// plan is exactly what the static rule-based strategies produced.
	Costed bool `json:"costed"`
	// StatsEpoch / StatsFresh describe the statistics snapshot: the
	// ANALYZE generation and whether it still matches the backend's
	// current data version.
	StatsEpoch uint64 `json:"stats_epoch,omitempty"`
	StatsFresh bool   `json:"stats_fresh,omitempty"`

	Nodes   []ExplainNode `json:"nodes"`
	Results int           `json:"results"`
	Total   time.Duration `json:"total_ns"`
}

// buildExplain assembles the report after an instrumented run. prof may not
// be nil (ExecuteCtx always instruments explain runs).
func buildExplain(src *Source, steps []Step, prof *profiler, total time.Duration, results int) *ExplainReport {
	r := &ExplainReport{
		Backend: src.Backend.Name(),
		Plan:    PlanString(steps),
		Results: results,
		Total:   total,
	}
	if src.Stats != nil && src.Stats.Current() != nil {
		r.Costed = true
		r.StatsEpoch = src.Stats.Epoch()
		r.StatsFresh = src.Stats.Fresh()
	}
	explainWalk(steps, 0, prof, r)
	return r
}

func explainWalk(steps []Step, depth int, prof *profiler, r *ExplainReport) {
	for _, s := range steps {
		node := ExplainNode{Name: describeStep(s), Depth: depth, EstRows: -1}
		if est := stepEst(s); est != nil {
			node.EstRows = est.Rows
			node.Notes = est.Notes
		}
		if st := prof.stats[s]; st != nil {
			node.ActualRows = st.out
			node.Calls = st.calls
		}
		r.Nodes = append(r.Nodes, node)
		switch x := s.(type) {
		case *RepeatStep:
			explainWalk(x.Body, depth+1, prof, r)
			explainWalk(x.Until, depth+1, prof, r)
		case *WhereStep:
			explainWalk(x.Sub, depth+1, prof, r)
		case *UnionStep:
			for _, b := range x.Branches {
				explainWalk(b, depth+1, prof, r)
			}
		}
	}
}

// stepEst extracts the planner annotation of a step, if any.
func stepEst(s Step) *CostEst {
	switch x := s.(type) {
	case *GraphStep:
		return x.Est
	case *VertexStep:
		return x.Est
	default:
		return nil
	}
}

// String renders the report as the aligned text table the gserver !explain
// control request and console output show.
func (r *ExplainReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain [%s]", r.Backend)
	if r.Costed {
		fmt.Fprintf(&b, " costed stats_epoch=%d fresh=%v", r.StatsEpoch, r.StatsFresh)
	} else {
		b.WriteString(" static (no statistics)")
	}
	fmt.Fprintf(&b, "\nplan: %s\n", r.Plan)
	fmt.Fprintf(&b, "%-44s %12s %12s %8s\n", "step", "est.rows", "actual", "calls")
	for _, n := range r.Nodes {
		name := strings.Repeat("  ", n.Depth) + n.Name
		est := "-"
		if n.EstRows >= 0 {
			est = fmt.Sprintf("%.1f", n.EstRows)
		}
		fmt.Fprintf(&b, "%-44s %12s %12d %8d\n", name, est, n.ActualRows, n.Calls)
		for _, note := range n.Notes {
			fmt.Fprintf(&b, "%s  • %s\n", strings.Repeat("  ", n.Depth), note)
		}
	}
	fmt.Fprintf(&b, "results: %d  total: %s", r.Results, r.Total.Round(time.Microsecond))
	return b.String()
}
