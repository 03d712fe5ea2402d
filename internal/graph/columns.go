// Columnar adapters for batched element results. ColumnizeElements,
// ColumnizeGroups and ElementsFromColumns convert between the aligned
// []*Element / [][]*Element results of Backend and BatchBackend reads and
// graphenc.ColumnBatch, the column-grouped form every GraphOp read reply
// travels in (DESIGN.md §15). The round trip preserves slot alignment
// exactly: nil slots come back nil, nil groups come back nil and empty
// groups empty, edges keep their endpoints, and an element with no
// properties comes back with a nil Props map.
package graph

import (
	"sort"

	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
)

// ColumnizeElements groups an aligned element slice (vertices, edges, or
// both) by property key into an ungrouped batch.
func ColumnizeElements(els []*Element) *graphenc.ColumnBatch {
	return columnize(els, nil)
}

// ColumnizeGroups flattens per-vertex element groups (an EdgesForVertices
// result) into one grouped batch, so property keys shared across groups are
// named once per batch.
func ColumnizeGroups(groups [][]*Element) *graphenc.ColumnBatch {
	lens := make([]int, len(groups))
	n := 0
	for g, grp := range groups {
		lens[g] = len(grp)
		if grp == nil {
			lens[g] = graphenc.NilGroup
		}
		n += len(grp)
	}
	flat := make([]*Element, 0, n)
	for _, grp := range groups {
		flat = append(flat, grp...)
	}
	return columnize(flat, lens)
}

// columnize builds the batch. Column order is sorted by key so identical
// batches encode to identical bytes. Ref is dropped, as on every wire path.
func columnize(els []*Element, groups []int) *graphenc.ColumnBatch {
	n := len(els)
	strs := make([]string, 5*n)
	bits := make([]bool, 2*n)
	cb := &graphenc.ColumnBatch{
		Present: bits[:n:n],
		Edge:    bits[n:],
		IDs:     strs[:n:n],
		Labels:  strs[n : 2*n : 2*n],
		Tables:  strs[2*n : 3*n : 3*n],
		OutV:    strs[3*n : 4*n : 4*n],
		InV:     strs[4*n:],
		Groups:  groups,
	}
	byKey := map[string]int{}
	for i, el := range els {
		if el == nil {
			continue
		}
		cb.Present[i] = true
		cb.IDs[i] = el.ID
		cb.Labels[i] = el.Label
		cb.Tables[i] = el.Table
		if el.IsEdge {
			cb.Edge[i] = true
			cb.OutV[i] = el.OutV
			cb.InV[i] = el.InV
		}
		for k, v := range el.Props {
			c, ok := byKey[k]
			if !ok {
				c = len(cb.Cols)
				byKey[k] = c
				cb.Cols = append(cb.Cols, graphenc.Column{
					Key:  k,
					Has:  make([]bool, n),
					Vals: make([]types.Value, n),
				})
			}
			cb.Cols[c].Has[i] = true
			cb.Cols[c].Vals[i] = v
		}
	}
	sort.Slice(cb.Cols, func(a, b int) bool { return cb.Cols[a].Key < cb.Cols[b].Key })
	return cb
}

// ElementsFromColumns reconstructs the aligned element slice and, for a
// grouped batch, the groups as capacity-capped windows over it (appending
// to one group cannot overwrite the next). groups is nil for an ungrouped
// batch. Rows without any property get a nil Props map; every other row's
// map is sized once from its cell count.
func ElementsFromColumns(cb *graphenc.ColumnBatch) (els []*Element, groups [][]*Element) {
	n := cb.Rows()
	els = make([]*Element, n)
	backing := make([]Element, n)
	cells := make([]int32, n)
	for _, col := range cb.Cols {
		for i, has := range col.Has {
			if has {
				cells[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if !cb.Present[i] {
			continue
		}
		el := &backing[i]
		*el = Element{ID: cb.IDs[i], Label: cb.Labels[i], Table: cb.Tables[i]}
		if cb.Edge[i] {
			el.IsEdge, el.OutV, el.InV = true, cb.OutV[i], cb.InV[i]
		}
		if cells[i] > 0 {
			el.Props = make(map[string]types.Value, cells[i])
		}
		els[i] = el
	}
	for _, col := range cb.Cols {
		for i, has := range col.Has {
			// A cell on an absent row is only reachable through a batch
			// built in memory (DecodeColumns rejects it); drop it.
			if has && els[i] != nil {
				els[i].Props[col.Key] = col.Vals[i]
			}
		}
	}
	if cb.Groups == nil {
		return els, nil
	}
	groups = make([][]*Element, len(cb.Groups))
	off := 0
	for g, l := range cb.Groups {
		if l == graphenc.NilGroup {
			continue
		}
		groups[g] = els[off : off+l : off+l]
		off += l
	}
	return els, groups
}
