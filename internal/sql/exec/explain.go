package exec

import (
	"fmt"
	"strings"
)

// Explain renders an operator tree as an indented plan description,
// exposing the planner's access-path and join-algorithm decisions
// (EXPLAIN output).
func Explain(n Node) string {
	var sb strings.Builder
	explainNode(&sb, n, 0)
	return strings.TrimRight(sb.String(), "\n")
}

func explainNode(sb *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *ScanNode:
		access := ""
		switch x.Access {
		case AccessFull:
			access = "full scan"
		case AccessPK:
			access = "primary key probe (" + keyList(x) + ")"
		case AccessIndex:
			access = "index probe " + x.Index.Def.Name + " (" + keyList(x) + ")"
		case AccessIndexRange:
			access = "index range scan " + x.Index.Def.Name
		case AccessAsOf:
			access = "temporal snapshot scan"
		}
		filter := ""
		if x.Filter != nil {
			filter = " + residual filter"
		}
		if x.CountOnly {
			filter = ", index-only COUNT(*)"
		}
		fmt.Fprintf(sb, "%sScan %s [%s%s]\n", indent, x.Table.Schema().Name, access, filter)
	case *ValuesNode:
		fmt.Fprintf(sb, "%sValues (%d row(s))\n", indent, len(x.Rows))
	case *TableFuncNode:
		fmt.Fprintf(sb, "%sTableFunction %s\n", indent, x.Name)
	case *FilterNode:
		fmt.Fprintf(sb, "%sFilter\n", indent)
		explainNode(sb, x.Child, depth+1)
	case *ProjectNode:
		names := make([]string, len(x.Cols))
		for i, c := range x.Cols {
			names[i] = c.Name
		}
		fmt.Fprintf(sb, "%sProject [%s]\n", indent, strings.Join(names, ", "))
		explainNode(sb, x.Child, depth+1)
	case *HashJoinNode:
		kind := "inner"
		if x.Kind == JoinLeft {
			kind = "left outer"
		}
		residual := ""
		if x.Residual != nil {
			residual = " + residual"
		}
		fmt.Fprintf(sb, "%sHashJoin [%s, %d key(s)%s]\n", indent, kind, len(x.LeftKeys), residual)
		explainNode(sb, x.Left, depth+1)
		explainNode(sb, x.Right, depth+1)
	case *NestedLoopJoinNode:
		kind := "inner"
		if x.Kind == JoinLeft {
			kind = "left outer"
		}
		pred := "cross"
		if x.Pred != nil {
			pred = "predicated"
		}
		fmt.Fprintf(sb, "%sNestedLoopJoin [%s, %s]\n", indent, kind, pred)
		explainNode(sb, x.Left, depth+1)
		explainNode(sb, x.Right, depth+1)
	case *AggregateNode:
		scope := "grouped"
		if x.Global {
			scope = "global"
		}
		fmt.Fprintf(sb, "%sAggregate [%s, %d group key(s), %d aggregate(s)]\n",
			indent, scope, len(x.GroupBy), len(x.Aggs))
		explainNode(sb, x.Child, depth+1)
	case *SortNode:
		fmt.Fprintf(sb, "%sSort [%d key(s)]\n", indent, len(x.Keys))
		explainNode(sb, x.Child, depth+1)
	case *DistinctNode:
		fmt.Fprintf(sb, "%sDistinct\n", indent)
		explainNode(sb, x.Child, depth+1)
	case *LimitNode:
		fmt.Fprintf(sb, "%sLimit %d\n", indent, x.N)
		explainNode(sb, x.Child, depth+1)
	case *CutNode:
		fmt.Fprintf(sb, "%sCut [%d column(s)]\n", indent, x.Width)
		explainNode(sb, x.Child, depth+1)
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, n)
	}
}

// keyList describes a probe's key set; "?" counts a list a marker binds.
func keyList(s *ScanNode) string {
	n := fmt.Sprint(len(s.In))
	if s.InParam >= 0 {
		n = "?"
	}
	return "list of " + n + " keys"
}
