package storage

import (
	"fmt"
	"sync"
	"testing"

	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/types"
)

func patientSchema(temporal bool) *catalog.TableSchema {
	return &catalog.TableSchema{
		Name: "Patient",
		Columns: []catalog.Column{
			{Name: "patientID", Type: types.KindInt, NotNull: true},
			{Name: "name", Type: types.KindString},
			{Name: "address", Type: types.KindString},
			{Name: "subscriptionID", Type: types.KindInt},
		},
		PrimaryKey: []string{"patientID"},
		Temporal:   temporal,
	}
}

func row(id int64, name, addr string, sub int64) Row {
	return Row{types.NewInt(id), types.NewString(name), types.NewString(addr), types.NewInt(sub)}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	id, err := tbl.Insert(row(1, "Alice", "12 Elm", 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(id)
	if !ok || got[1].Text() != "Alice" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if tbl.RowCount() != 1 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	if err := tbl.Delete(id, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(id); ok {
		t.Fatal("row still visible after delete")
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("RowCount = %d after delete", tbl.RowCount())
	}
	if err := tbl.Delete(id, 3); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if _, err := tbl.Insert(row(1, "Alice", "", 0), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "Bob", "", 0), 2); err == nil {
		t.Fatal("duplicate PK insert should fail")
	}
	// After deleting, the key becomes reusable.
	id, _ := tbl.LookupPK([]types.Value{types.NewInt(1)})
	if err := tbl.Delete(id, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "Carol", "", 0), 4); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

func TestNotNullEnforced(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	bad := Row{types.Null, types.NewString("x"), types.Null, types.Null}
	if _, err := tbl.Insert(bad, 1); err == nil {
		t.Fatal("NOT NULL violation should fail")
	}
}

func TestWrongArity(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if _, err := tbl.Insert(Row{types.NewInt(1)}, 1); err == nil {
		t.Fatal("short row should fail")
	}
}

func TestLookupPK(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	want, _ := tbl.Insert(row(42, "Zed", "", 0), 1)
	got, ok := tbl.LookupPK([]types.Value{types.NewInt(42)})
	if !ok || got != want {
		t.Fatalf("LookupPK = %d, %v; want %d", got, ok, want)
	}
	if _, ok := tbl.LookupPK([]types.Value{types.NewInt(99)}); ok {
		t.Fatal("LookupPK for absent key returned ok")
	}
}

func TestUpdateMaintainsPKAndIndexes(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if err := tbl.CreateIndex(&catalog.Index{Name: "idx_name", Table: "Patient", Columns: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	id, _ := tbl.Insert(row(1, "Alice", "", 0), 1)
	if err := tbl.Update(id, row(2, "Bob", "", 0), 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK([]types.Value{types.NewInt(1)}); ok {
		t.Fatal("old PK still resolvable after update")
	}
	if _, ok := tbl.LookupPK([]types.Value{types.NewInt(2)}); !ok {
		t.Fatal("new PK not resolvable after update")
	}
	if rows := probeAll(tbl.Index("idx_name"), types.NewString("Alice")); len(rows) != 0 {
		t.Fatalf("stale index entry: %v", rows)
	}
	if rows := probeAll(tbl.Index("idx_name"), types.NewString("Bob")); len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("index after update = %v", rows)
	}
	// Update colliding with another row's PK must fail.
	if _, err := tbl.Insert(row(3, "Carol", "", 0), 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(id, row(3, "Bob", "", 0), 4); err == nil {
		t.Fatal("PK-colliding update should fail")
	}
}

func TestSlotReuse(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	id1, _ := tbl.Insert(row(1, "a", "", 0), 1)
	if err := tbl.Delete(id1, 2); err != nil {
		t.Fatal(err)
	}
	id2, _ := tbl.Insert(row(2, "b", "", 0), 3)
	if id1 != id2 {
		t.Fatalf("slot not reused: %d then %d", id1, id2)
	}
}

func TestHashIndexLookup(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if err := tbl.CreateIndex(&catalog.Index{Name: "idx_sub", Table: "Patient", Columns: []string{"subscriptionID"}}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := tbl.Insert(row(i, fmt.Sprint("p", i), "", i%10), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix := tbl.Index("idx_sub")
	rows := probeAll(ix, types.NewInt(3))
	if len(rows) != 10 {
		t.Fatalf("lookup returned %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r[3].I != 3 {
			t.Fatalf("row %v has wrong subscriptionID", r)
		}
	}
	// A key set probes each distinct key once and counts without visiting.
	rows = probeAll(ix, types.NewInt(3), types.NewInt(4), types.NewInt(3), types.NewFloat(4), types.NewString("4"))
	if len(rows) != 20 {
		t.Fatalf("key set probe returned %d rows, want 20", len(rows))
	}
	if n := ix.Probe([]Key{KeyOf(types.NewInt(3)), KeyOf(types.NewInt(3)), KeyOf(types.NewInt(42))}, nil); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}
	if n := tbl.PrimaryKey().Probe([]Key{KeyOf(types.NewInt(1)), KeyOf(types.NewInt(1)), KeyOf(types.NewInt(99)), KeyOf(types.NewInt(100))}, nil); n != 2 {
		t.Fatalf("primary key count = %d, want 2", n)
	}
}

// probeAll collects the rows a probe of ix with vals visits.
func probeAll(ix *Index, vals ...types.Value) []Row {
	keys := make([]Key, len(vals))
	for i, v := range vals {
		keys[i] = KeyOf(v)
	}
	var out []Row
	ix.Probe(keys, func(r Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

func TestCreateIndexOnPopulatedTable(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	for i := int64(0); i < 50; i++ {
		tbl.Insert(row(i, "n", "", i), int64(i))
	}
	if err := tbl.CreateIndex(&catalog.Index{Name: "late", Table: "Patient", Columns: []string{"subscriptionID"}}); err != nil {
		t.Fatal(err)
	}
	if rows := probeAll(tbl.Index("late"), types.NewInt(7)); len(rows) != 1 {
		t.Fatalf("late index lookup = %v", rows)
	}
}

func TestOrderedIndexRange(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if err := tbl.CreateIndex(&catalog.Index{Name: "ord_sub", Table: "Patient", Columns: []string{"subscriptionID"}, Ordered: true}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tbl.Insert(row(i, "n", "", i), int64(i))
	}
	var got []int64
	err := tbl.Index("ord_sub").Range(
		[]types.Value{types.NewInt(10)}, []types.Value{types.NewInt(15)},
		func(r Row) bool {
			got = append(got, r[3].I)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("range [10,15] returned %v", got)
	}
	for i, v := range got {
		if v != int64(10+i) {
			t.Fatalf("range order wrong: %v", got)
		}
	}
}

func TestTemporalAsOf(t *testing.T) {
	tbl := NewTable(patientSchema(true))
	id, _ := tbl.Insert(row(1, "Alice", "old address", 0), 10)
	if err := tbl.Update(id, row(1, "Alice", "new address", 0), 20); err != nil {
		t.Fatal(err)
	}

	snapshot := func(ts int64) []string {
		var out []string
		tbl.ScanAsOf(ts, func(r Row) bool {
			out = append(out, r[2].Text())
			return true
		})
		return out
	}

	if got := snapshot(5); len(got) != 0 {
		t.Fatalf("as of 5: %v, want empty", got)
	}
	if got := snapshot(15); len(got) != 1 || got[0] != "old address" {
		t.Fatalf("as of 15: %v", got)
	}
	if got := snapshot(25); len(got) != 1 || got[0] != "new address" {
		t.Fatalf("as of 25: %v", got)
	}

	// Delete archives the last version.
	if err := tbl.Delete(id, 30); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(25); len(got) != 1 || got[0] != "new address" {
		t.Fatalf("as of 25 after delete: %v", got)
	}
	if got := snapshot(35); len(got) != 0 {
		t.Fatalf("as of 35 after delete: %v", got)
	}
	if tbl.HistoryCount() != 2 {
		t.Fatalf("HistoryCount = %d, want 2", tbl.HistoryCount())
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	for i := int64(0); i < 20; i++ {
		tbl.Insert(row(i, "n", "", 0), 1)
	}
	n := 0
	tbl.Scan(func(RowID, Row) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("scan visited %d rows", n)
	}
}

func TestByteSizeAccounting(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	if tbl.ByteSize() != 0 {
		t.Fatal("empty table should have zero bytes")
	}
	id, _ := tbl.Insert(row(1, "Alice", "addr", 0), 1)
	sz := tbl.ByteSize()
	if sz <= 0 {
		t.Fatalf("ByteSize = %d", sz)
	}
	tbl.Delete(id, 2)
	if tbl.ByteSize() != 0 {
		t.Fatalf("ByteSize after delete = %d", tbl.ByteSize())
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	tbl := NewTable(patientSchema(false))
	for i := int64(0); i < 1000; i++ {
		tbl.Insert(row(i, "n", "", i), 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.LookupPK([]types.Value{types.NewInt(int64(i))})
				tbl.RowCount()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1000); i < 1200; i++ {
			tbl.Insert(row(i, "w", "", i), 2)
		}
	}()
	wg.Wait()
	if tbl.RowCount() != 1200 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
}
