package graphenc

import (
	"fmt"

	"db2graph/internal/sql/types"
)

// ColumnBatch is a column-grouped batch of graph elements: the compact wire
// form of every GraphOp read reply (DESIGN.md §15). Row i is slot i of the
// aligned result; Present[i] == false marks a nil slot (an unresolved id).
// Per-row scalar fields live in aligned arrays and properties are grouped by
// key, so a batch of n elements sharing k property keys costs k column
// headers instead of n per-row property maps on the wire.
//
// All row arrays are aligned: len(IDs) == len(Labels) == len(Tables) ==
// len(OutV) == len(InV) == len(Edge) == len(Present) == N, and every
// Column's Has/Vals are length N. Entries for absent rows, and OutV/InV of
// vertex rows, are zero values and never encoded.
type ColumnBatch struct {
	Present []bool
	// Edge marks edge rows; only they carry OutV/InV.
	Edge   []bool
	IDs    []string
	Labels []string
	Tables []string
	OutV   []string
	InV    []string
	// Groups, when non-nil, splits the rows into consecutive groups (one
	// per requested vertex of an EdgesForVertices reply): Groups[g] is the
	// row count of group g, or NilGroup for a nil group, and the counts sum
	// to N. A nil Groups is an ungrouped batch, which is distinct from a
	// grouped batch with zero groups.
	Groups []int
	Cols   []Column
}

// NilGroup is the Groups entry of a nil (as opposed to empty) group.
const NilGroup = -1

// Column is one property key's values across the batch. Has[i] reports
// whether row i carries the key (a stored Null value is distinct from an
// absent key, so presence needs its own bit).
type Column struct {
	Key  string
	Has  []bool
	Vals []types.Value
}

// Rows returns the number of aligned slots in the batch.
func (cb *ColumnBatch) Rows() int { return len(cb.Present) }

// appendBitmap packs a bool slice into (n+7)/8 bytes, LSB-first.
func appendBitmap(buf []byte, bits []bool) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, (len(bits)+7)/8)...)
	for i, b := range bits {
		if b {
			buf[start+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// cutBitmap decodes a len(bits)-bit LSB-first bitmap into bits. Set padding
// bits past len(bits) are rejected so that every decodable bitmap has one
// encoding.
func cutBitmap(s string, bits []bool) (string, error) {
	n := len(bits)
	nb := (n + 7) / 8
	if len(s) < nb {
		return "", fmt.Errorf("graphenc: truncated bitmap")
	}
	if n%8 != 0 && s[nb-1]>>(n%8) != 0 {
		return "", fmt.Errorf("graphenc: bitmap padding bits set")
	}
	for i := range bits {
		bits[i] = s[i/8]&(1<<(i%8)) != 0
	}
	return s[nb:], nil
}

// AppendColumns encodes a column batch. Layout: row count, presence bitmap,
// edge bitmap, then id/label/table (plus out/in for edges) for each present
// row; the group count plus one (zero for an ungrouped batch) followed by
// each group's row count plus one (zero for a nil group); then the column
// count and per column its key, presence bitmap, and the values of rows that
// have the key. Absent rows and absent cells cost one bitmap bit each.
func AppendColumns(buf []byte, cb *ColumnBatch) []byte {
	n := cb.Rows()
	buf = AppendUvarint(buf, uint64(n))
	buf = appendBitmap(buf, cb.Present)
	buf = appendBitmap(buf, cb.Edge)
	for i := 0; i < n; i++ {
		if !cb.Present[i] {
			continue
		}
		buf = AppendString(buf, cb.IDs[i])
		buf = AppendString(buf, cb.Labels[i])
		buf = AppendString(buf, cb.Tables[i])
		if cb.Edge[i] {
			buf = AppendString(buf, cb.OutV[i])
			buf = AppendString(buf, cb.InV[i])
		}
	}
	if cb.Groups == nil {
		buf = AppendUvarint(buf, 0)
	} else {
		buf = AppendUvarint(buf, uint64(len(cb.Groups))+1)
		for _, g := range cb.Groups {
			buf = AppendUvarint(buf, uint64(g+1))
		}
	}
	buf = AppendUvarint(buf, uint64(len(cb.Cols)))
	for _, col := range cb.Cols {
		buf = AppendString(buf, col.Key)
		buf = appendBitmap(buf, col.Has)
		for i := 0; i < n; i++ {
			if col.Has[i] {
				buf = AppendValue(buf, col.Vals[i])
			}
		}
	}
	return buf
}

// DecodeColumns decodes an encoded column batch. Strings in the result are
// zero-copy views over one string conversion of blob (the Cut* discipline),
// so the decoded batch keeps blob's backing array alive.
//
// Decoding is strict: anything AppendColumns cannot produce from a batch
// ColumnizeElements builds — set padding bits, an edge bit or a property
// cell on an absent row, a column with no cells, column keys out of
// strictly ascending order, group counts that do not sum to the row count —
// is an error. Every batch that decodes therefore re-encodes to the same
// bytes.
func DecodeColumns(blob []byte) (*ColumnBatch, error) {
	s := string(blob)
	un, s, err := CutUvarint(s)
	if err != nil {
		return nil, err
	}
	// Each row costs at least two bitmap bits.
	if un > uint64(len(s))*4 {
		return nil, fmt.Errorf("graphenc: column batch row count %d exceeds blob", un)
	}
	n := int(un)
	strs := make([]string, 5*n)
	bits := make([]bool, 2*n)
	cb := &ColumnBatch{
		Present: bits[:n:n],
		Edge:    bits[n:],
		IDs:     strs[:n:n],
		Labels:  strs[n : 2*n : 2*n],
		Tables:  strs[2*n : 3*n : 3*n],
		OutV:    strs[3*n : 4*n : 4*n],
		InV:     strs[4*n:],
	}
	if s, err = cutBitmap(s, cb.Present); err != nil {
		return nil, err
	}
	if s, err = cutBitmap(s, cb.Edge); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if !cb.Present[i] {
			if cb.Edge[i] {
				return nil, fmt.Errorf("graphenc: edge bit on absent row %d", i)
			}
			continue
		}
		if cb.IDs[i], s, err = CutString(s); err != nil {
			return nil, err
		}
		if cb.Labels[i], s, err = CutString(s); err != nil {
			return nil, err
		}
		if cb.Tables[i], s, err = CutString(s); err != nil {
			return nil, err
		}
		if !cb.Edge[i] {
			continue
		}
		if cb.OutV[i], s, err = CutString(s); err != nil {
			return nil, err
		}
		if cb.InV[i], s, err = CutString(s); err != nil {
			return nil, err
		}
	}
	if cb.Groups, s, err = cutGroups(s, n); err != nil {
		return nil, err
	}
	ncols, s, err := CutUvarint(s)
	if err != nil {
		return nil, err
	}
	if ncols > uint64(len(s)) {
		return nil, fmt.Errorf("graphenc: column count %d exceeds blob", ncols)
	}
	cb.Cols = make([]Column, ncols)
	for c := range cb.Cols {
		col := &cb.Cols[c]
		if col.Key, s, err = CutString(s); err != nil {
			return nil, err
		}
		if c > 0 && col.Key <= cb.Cols[c-1].Key {
			return nil, fmt.Errorf("graphenc: column key %q out of order", col.Key)
		}
		col.Has = make([]bool, n)
		if s, err = cutBitmap(s, col.Has); err != nil {
			return nil, err
		}
		col.Vals = make([]types.Value, n)
		cells := 0
		for i := 0; i < n; i++ {
			if !col.Has[i] {
				continue
			}
			if !cb.Present[i] {
				return nil, fmt.Errorf("graphenc: column %q has a cell on absent row %d", col.Key, i)
			}
			if col.Vals[i], s, err = CutValue(s); err != nil {
				return nil, err
			}
			cells++
		}
		if cells == 0 {
			return nil, fmt.Errorf("graphenc: column %q has no cells", col.Key)
		}
	}
	if len(s) != 0 {
		return nil, fmt.Errorf("graphenc: %d trailing bytes after column batch", len(s))
	}
	return cb, nil
}

// cutGroups decodes the group section of a batch of n rows.
func cutGroups(s string, n int) ([]int, string, error) {
	ng, s, err := CutUvarint(s)
	if err != nil {
		return nil, "", err
	}
	if ng == 0 {
		return nil, s, nil
	}
	ng--
	if ng > uint64(len(s)) {
		return nil, "", fmt.Errorf("graphenc: group count %d exceeds blob", ng)
	}
	groups := make([]int, ng)
	rows := 0
	for g := range groups {
		var l uint64
		if l, s, err = CutUvarint(s); err != nil {
			return nil, "", err
		}
		if l > uint64(n-rows)+1 {
			return nil, "", fmt.Errorf("graphenc: group %d overruns %d rows", g, n)
		}
		groups[g] = int(l) - 1
		if groups[g] > 0 {
			rows += groups[g]
		}
	}
	if rows != n {
		return nil, "", fmt.Errorf("graphenc: groups cover %d of %d rows", rows, n)
	}
	return groups, s, nil
}
