// Package storage implements the physical layer of the relational engine:
// in-memory heap tables with slot reuse, hash and ordered secondary
// indexes, primary key enforcement, and system-time row versioning used by
// temporal (AS OF) queries.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"db2graph/internal/btree"
	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/types"
)

// RowID identifies a row slot within a table heap.
type RowID int64

// Row is a tuple of values matching the table schema column order.
type Row []types.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// version is one historical incarnation of a row, used by temporal tables.
type version struct {
	row      Row
	sysStart int64 // inclusive logical timestamp when this version became current
	sysEnd   int64 // exclusive logical timestamp when it stopped being current
}

// slot is one heap slot.
type slot struct {
	row      Row
	live     bool
	sysStart int64 // for temporal tables: when the current version began
}

// Table is the physical storage for a single base table. All public methods
// are safe for concurrent use; reads take a shared lock so concurrent
// queries scale (the property that lets the Db2 stand-in win the paper's
// throughput experiment).
type Table struct {
	mu     sync.RWMutex
	schema *catalog.TableSchema

	slots []slot
	free  []RowID

	liveCount int
	// bytes approximates the resident data size, maintained incrementally.
	bytes int64

	// pk is the primary key index when the schema has a PK.
	pk *Index

	indexes map[string]*Index

	// history holds superseded versions of temporal tables.
	history []version
}

// Index is a table's primary key (unique) or a secondary index (hash, and
// ord when Def.Ordered), as the handle a plan resolves once. A handle
// outlives DROP INDEX; plans holding one are dropped with the generation.
type Index struct {
	// Def is the index's definition; nil for the primary key.
	Def    *catalog.Index
	t      *Table
	cols   []int
	unique keyMap[RowID]
	hash   keyMap[[]RowID]
	ord    *btree.Map[RowID]
}

// Key is the hash key of an index entry: a value's kind and payload
// (integer, float bit pattern, or string), equal exactly when
// types.Value.EncodeKey encodes the values alike (kinds never mix; -0.0 is
// not 0.0; a NaN equals only the same NaN), or a multi-column key's
// EncodeKeyTuple string.
type Key struct {
	kind types.Kind
	bits uint64
	s    string
}

// KeyOf returns the one-column key of v.
func KeyOf(v types.Value) Key {
	switch v.Kind {
	case types.KindNull:
		return Key{}
	case types.KindFloat:
		return Key{kind: v.Kind, bits: math.Float64bits(v.F)}
	case types.KindString:
		return Key{kind: v.Kind, s: v.S}
	case types.KindBool:
		return Key{kind: v.Kind, bits: uint64(byte(v.I))}
	default:
		return Key{kind: v.Kind, bits: uint64(v.I)}
	}
}

// keyMap maps index keys to V. One-column BIGINT keys, the common case,
// have a map of their own: 8-byte keys on the runtime's fast path.
type keyMap[V any] struct {
	ints  map[int64]V
	other map[Key]V
}

func newKeyMap[V any]() keyMap[V] { return keyMap[V]{ints: map[int64]V{}, other: map[Key]V{}} }

func (m keyMap[V]) get(k Key) (V, bool) {
	if k.kind == types.KindInt {
		v, ok := m.ints[int64(k.bits)]
		return v, ok
	}
	v, ok := m.other[k]
	return v, ok
}

func (m keyMap[V]) set(k Key, v V) {
	if k.kind == types.KindInt {
		m.ints[int64(k.bits)] = v
	} else {
		m.other[k] = v
	}
}

func (m keyMap[V]) del(k Key) {
	if k.kind == types.KindInt {
		delete(m.ints, int64(k.bits))
	} else {
		delete(m.other, k)
	}
}

// TupleKey returns the key of a key tuple: KeyOf its value for one column.
func TupleKey(vals []types.Value) Key {
	if len(vals) == 1 {
		return KeyOf(vals[0])
	}
	return Key{s: types.EncodeKeyTuple(vals)}
}

// NewTable creates storage for the given schema.
func NewTable(schema *catalog.TableSchema) *Table {
	t := &Table{
		schema:  schema,
		indexes: make(map[string]*Index),
	}
	if schema.HasPrimaryKey() {
		t.pk = &Index{t: t, cols: schema.PrimaryKeyIndexes(), unique: newKeyMap[RowID]()}
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *catalog.TableSchema { return t.schema }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveCount
}

// ByteSize returns an approximation of the resident data size in bytes.
func (t *Table) ByteSize() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// rowBytes estimates the on-disk size of a row for accounting: a small
// per-value header plus an 8-byte payload for numerics or the string bytes
// (roughly what a slotted page layout costs).
func rowBytes(r Row) int64 {
	n := int64(0)
	for _, v := range r {
		n += 2 // slot/offset header
		if v.Kind == types.KindString {
			n += int64(len(v.S))
		} else if v.Kind != types.KindNull {
			n += 8
		}
	}
	return n
}

// keyFor returns the index key of a row's cols.
func keyFor(cols []int, row Row) Key {
	if len(cols) == 1 {
		return KeyOf(row[cols[0]])
	}
	return Key{s: string(encodeCols(nil, cols, row))}
}

// encodeCols appends the EncodeKeyTuple encoding of a row's cols to dst.
func encodeCols(dst []byte, cols []int, row Row) []byte {
	for _, c := range cols {
		dst = row[c].EncodeKey(dst)
	}
	return dst
}

// ordKey is a row's ordered-index entry: its key tuple's encoding, a zero
// byte and its row id big-endian, so equal keys stay distinct per row.
func ordKey(cols []int, row Row, id RowID) string {
	return string(binary.BigEndian.AppendUint64(append(encodeCols(nil, cols, row), 0), uint64(id)))
}

// Insert appends a row, enforcing the primary key, and returns its RowID.
// ts is the logical timestamp used for temporal bookkeeping.
func (t *Table) Insert(row Row, ts int64) (RowID, error) {
	if len(row) != len(t.schema.Columns) {
		return 0, fmt.Errorf("storage: table %s expects %d columns, got %d",
			t.schema.Name, len(t.schema.Columns), len(row))
	}
	for i, col := range t.schema.Columns {
		if col.NotNull && row[i].IsNull() {
			return 0, fmt.Errorf("storage: column %s.%s is NOT NULL", t.schema.Name, col.Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	var pkKey Key
	if t.pk != nil {
		pkKey = keyFor(t.pk.cols, row)
		if _, dup := t.pk.unique.get(pkKey); dup {
			return 0, fmt.Errorf("storage: duplicate primary key in table %s", t.schema.Name)
		}
	}

	var id RowID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[id] = slot{row: row, live: true, sysStart: ts}
	} else {
		id = RowID(len(t.slots))
		t.slots = append(t.slots, slot{row: row, live: true, sysStart: ts})
	}
	t.liveCount++
	t.bytes += rowBytes(row)

	if t.pk != nil {
		t.pk.unique.set(pkKey, id)
	}
	for _, idx := range t.indexes {
		idx.insert(row, id)
	}
	return id, nil
}

// Delete removes the row at id. For temporal tables the old version is
// preserved in history.
func (t *Table) Delete(id RowID, ts int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(id, ts)
}

func (t *Table) deleteLocked(id RowID, ts int64) error {
	if int(id) >= len(t.slots) || !t.slots[id].live {
		return fmt.Errorf("storage: row %d not found in table %s", id, t.schema.Name)
	}
	s := &t.slots[id]
	if t.schema.Temporal {
		t.history = append(t.history, version{row: s.row, sysStart: s.sysStart, sysEnd: ts})
	}
	if t.pk != nil {
		t.pk.unique.del(keyFor(t.pk.cols, s.row))
	}
	for _, idx := range t.indexes {
		idx.remove(s.row, id)
	}
	t.bytes -= rowBytes(s.row)
	s.row = nil
	s.live = false
	t.liveCount--
	t.free = append(t.free, id)
	return nil
}

// Update replaces the row at id with newRow, maintaining PK and indexes.
func (t *Table) Update(id RowID, newRow Row, ts int64) error {
	if len(newRow) != len(t.schema.Columns) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d",
			t.schema.Name, len(t.schema.Columns), len(newRow))
	}
	for i, col := range t.schema.Columns {
		if col.NotNull && newRow[i].IsNull() {
			return fmt.Errorf("storage: column %s.%s is NOT NULL", t.schema.Name, col.Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.slots) || !t.slots[id].live {
		return fmt.Errorf("storage: row %d not found in table %s", id, t.schema.Name)
	}
	s := &t.slots[id]
	if t.pk != nil {
		oldKey := keyFor(t.pk.cols, s.row)
		newKey := keyFor(t.pk.cols, newRow)
		if oldKey != newKey {
			if _, dup := t.pk.unique.get(newKey); dup {
				return fmt.Errorf("storage: duplicate primary key in table %s", t.schema.Name)
			}
			t.pk.unique.del(oldKey)
			t.pk.unique.set(newKey, id)
		}
	}
	if t.schema.Temporal {
		t.history = append(t.history, version{row: s.row, sysStart: s.sysStart, sysEnd: ts})
	}
	for _, idx := range t.indexes {
		idx.remove(s.row, id)
		idx.insert(newRow, id)
	}
	t.bytes += rowBytes(newRow) - rowBytes(s.row)
	s.row = newRow
	s.sysStart = ts
	return nil
}

// Get returns the live row at id (shared; callers must not mutate).
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.slots) || !t.slots[id].live {
		return nil, false
	}
	return t.slots[id].row, true
}

// LookupPK returns the RowID of the row with the given primary key values.
func (t *Table) LookupPK(key []types.Value) (RowID, bool) {
	if t.pk == nil {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.pk.unique.get(TupleKey(key))
	return id, ok
}

// Scan invokes fn for every live row until fn returns false. The table lock
// is held in shared mode for the duration.
func (t *Table) Scan(fn func(id RowID, row Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.slots {
		if t.slots[i].live {
			if !fn(RowID(i), t.slots[i].row) {
				return
			}
		}
	}
}

// ScanAsOf visits the rows as they existed at logical timestamp ts
// (system-time AS OF semantics). Only meaningful for temporal tables; for
// non-temporal tables it behaves like Scan.
func (t *Table) ScanAsOf(ts int64, fn func(row Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.schema.Temporal {
		for i := range t.slots {
			if t.slots[i].live && !fn(t.slots[i].row) {
				return
			}
		}
		return
	}
	for i := range t.slots {
		if t.slots[i].live && t.slots[i].sysStart <= ts {
			if !fn(t.slots[i].row) {
				return
			}
		}
	}
	for i := range t.history {
		v := &t.history[i]
		if v.sysStart <= ts && ts < v.sysEnd {
			if !fn(v.row) {
				return
			}
		}
	}
}

// HistoryCount returns the number of archived row versions (temporal only).
func (t *Table) HistoryCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.history)
}

// CreateIndex builds a secondary index over the given definition, populating
// it from existing rows.
func (t *Table) CreateIndex(def *catalog.Index) error {
	cols := make([]int, len(def.Columns))
	for i, name := range def.Columns {
		ci := t.schema.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("storage: index %s references unknown column %s", def.Name, name)
		}
		cols[i] = ci
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := def.Name
	if _, exists := t.indexes[key]; exists {
		return fmt.Errorf("storage: index %s already exists on table %s", def.Name, t.schema.Name)
	}
	idx := &Index{Def: def, t: t, cols: cols, hash: newKeyMap[[]RowID]()}
	if def.Ordered {
		idx.ord = btree.New[RowID]()
	}
	for i := range t.slots {
		if t.slots[i].live {
			idx.insert(t.slots[i].row, RowID(i))
		}
	}
	t.indexes[key] = idx
	return nil
}

// DropIndex removes a secondary index.
func (t *Table) DropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[name]; !ok {
		return fmt.Errorf("storage: index %s does not exist on table %s", name, t.schema.Name)
	}
	delete(t.indexes, name)
	return nil
}

// PrimaryKey returns the primary key index, or nil without a primary key.
func (t *Table) PrimaryKey() *Index { return t.pk }

// Index returns the secondary index called name, or nil.
func (t *Table) Index(name string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[name]
}

// Probe visits the live rows whose key is one of keys, under one shared
// lock of the table, until fn returns false, and returns how many it found.
// Keys go in order, a key's rows in posting order; a repeated key is
// skipped, so no row comes twice. seen is the scratch that tells repeats
// apart; a caller that probes again and again keeps one and reuses it. A
// nil fn only sums the distinct keys' posting lengths. fn must not modify
// the row, nor take the table's lock.
func (ix *Index) Probe(keys []Key, seen *ProbeSet, fn func(Row) bool) int {
	t := ix.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen.n, seen.big = 0, false
	var one [1]RowID
	n := 0
	for _, k := range keys {
		ids, _ := ix.hash.get(k)
		if id, ok := ix.unique.get(k); ok {
			one[0] = id
			ids = one[:]
		}
		if len(ids) == 0 || !seen.first(ids[0], len(keys)) {
			continue
		}
		n += len(ids)
		for _, id := range ids {
			if fn != nil && !fn(t.slots[id].row) {
				return n
			}
		}
	}
	return n
}

// ProbeSet remembers the keys a probe has found (a repeated miss finds
// nothing again), each by its posting's first row: distinct keys have
// disjoint postings. A frontier's probe hits few keys, so they are
// compared pairwise and moved to a set only past a handful; the set is
// kept, and cleared for the next probe that needs it. The zero value is
// ready to use.
type ProbeSet struct {
	few  [16]RowID
	n    int
	many map[RowID]struct{}
	big  bool // many holds this probe's keys
}

// first reports whether the key whose posting starts at id was not seen
// before, and remembers it; keys sizes a new set.
func (h *ProbeSet) first(id RowID, keys int) bool {
	if h.big {
		_, dup := h.many[id]
		h.many[id] = struct{}{}
		return !dup
	}
	if slices.Contains(h.few[:h.n], id) {
		return false
	}
	if h.n < len(h.few) {
		h.few[h.n] = id
		h.n++
		return true
	}
	if h.many == nil {
		h.many = make(map[RowID]struct{}, keys)
	} else {
		clear(h.many)
	}
	h.big = true
	for _, seen := range h.few {
		h.many[seen] = struct{}{}
	}
	h.many[id] = struct{}{}
	return true
}

// Range visits, under one shared lock of the table, the live rows of an
// ordered index between lo and hi (inclusive; nil is an open end) in key
// order, until fn returns false.
func (ix *Index) Range(lo, hi []types.Value, fn func(Row) bool) error {
	if ix.ord == nil {
		return fmt.Errorf("storage: index on table %s is not ordered", ix.t.schema.Name)
	}
	var loKey, hiKey string
	if lo != nil {
		loKey = types.EncodeKeyTuple(lo)
	}
	if hi != nil {
		hiKey = types.EncodeKeyTuple(hi) + "\xff" // inclusive upper bound
	}
	t := ix.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.ord.AscendRange(loKey, hiKey, hi == nil, func(_ string, id RowID) bool {
		return fn(t.slots[id].row)
	})
	return nil
}

func (ix *Index) insert(row Row, id RowID) {
	k := keyFor(ix.cols, row)
	ids, _ := ix.hash.get(k)
	ix.hash.set(k, append(ids, id))
	if ix.ord != nil {
		// Append the row id to make ordered keys unique per row.
		ix.ord.Set(ordKey(ix.cols, row, id), id)
	}
}

func (ix *Index) remove(row Row, id RowID) {
	k := keyFor(ix.cols, row)
	ids, _ := ix.hash.get(k)
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		ix.hash.del(k)
	} else {
		ix.hash.set(k, ids)
	}
	if ix.ord != nil {
		ix.ord.Delete(ordKey(ix.cols, row, id))
	}
}
