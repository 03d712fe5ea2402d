package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"db2graph/internal/sql/types"
)

// TestListParamBinding binds lists to IN (?) markers: in prepared and
// ad-hoc statements, on a probed key, under NOT IN and OR, and empty. A list
// bound to any other marker is a bind error.
func TestListParamBinding(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
	CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, name VARCHAR(8));
	INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 10, 'c'), (4, 30, 'd');
	`); err != nil {
		t.Fatal(err)
	}
	ints := func(vs ...int64) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt(v)
		}
		return out
	}
	for _, c := range []struct {
		sql  string
		args []any
		want string
	}{
		{"SELECT id FROM t WHERE id IN (?) ORDER BY id", []any{ints(3, 1, 3, 9)}, "[[1] [3]]"},
		{"SELECT id FROM t WHERE id IN (?) ORDER BY id", []any{ints()}, "[]"},
		{"SELECT id FROM t WHERE id IN (?) ORDER BY id", []any{[]types.Value(nil)}, "[]"},
		{"SELECT id FROM t WHERE id IN (?) ORDER BY id", []any{4}, "[[4]]"},
		{"SELECT COUNT(*) FROM t WHERE id IN (?)", []any{ints(1, 2, 2, 7)}, "[[2]]"},
		{"SELECT id FROM t WHERE grp IN (?) AND name <> ? ORDER BY id", []any{ints(10, 30), "c"}, "[[1] [4]]"},
		{"SELECT id FROM t WHERE id NOT IN (?) ORDER BY id", []any{ints(1, 4)}, "[[2] [3]]"},
		{"SELECT id FROM t WHERE id IN (?) OR grp IN (?) ORDER BY id", []any{ints(1), ints(30)}, "[[1] [4]]"},
	} {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []func() (*Rows, error){
			func() (*Rows, error) { return st.Query(c.args...) },
			func() (*Rows, error) { return db.Query(c.sql, c.args...) },
		} {
			rows, err := run()
			if err != nil {
				t.Fatalf("%s %v: %v", c.sql, c.args, err)
			}
			if got := fmt.Sprint(rows.All()); got != c.want {
				t.Fatalf("%s %v = %s, want %s", c.sql, c.args, got, c.want)
			}
		}
	}
	for _, sql := range []string{
		"SELECT id FROM t WHERE id = ?",
		"SELECT id FROM t WHERE id IN (?, 2)",
		"SELECT id FROM t WHERE id IN ((?))",
		"SELECT ? FROM t",
	} {
		if _, err := db.Query(sql, ints(1, 2)); err == nil || !strings.Contains(err.Error(), "bound to a list") {
			t.Fatalf("%s with a list: err = %v, want a bind error", sql, err)
		}
	}
	if _, err := db.Exec("DELETE FROM t WHERE id = ?", ints(1)); err == nil {
		t.Fatal("DELETE ... = ? accepted a list")
	}
	if n, err := db.Exec("DELETE FROM t WHERE id IN (?)", ints(1, 2)); err != nil || n != 2 {
		t.Fatalf("DELETE ... IN (?) = %d, %v; want 2 rows", n, err)
	}
}

// TestPooledPlanDroppedAcrossDDL holds a plan instance across DDL, as a
// query in flight does, and returns it to the pool afterwards: no later
// query may run it, since it reads the dropped table or index.
func TestPooledPlanDroppedAcrossDDL(t *testing.T) {
	for _, c := range []struct {
		name, setup, query, ddl, want string
	}{{
		name:  "drop table",
		setup: "CREATE TABLE t (v BIGINT); INSERT INTO t VALUES (10)",
		query: "SELECT v FROM t",
		ddl:   "DROP TABLE t; CREATE TABLE t (v BIGINT); INSERT INTO t VALUES (20)",
		want:  "[[20]]",
	}, {
		name:  "drop index",
		setup: "CREATE TABLE t (k BIGINT, v BIGINT); CREATE INDEX idx_k ON t (k); INSERT INTO t VALUES (1, 10)",
		query: "SELECT v FROM t WHERE k IN (?) ORDER BY v",
		ddl:   "DROP INDEX idx_k; INSERT INTO t VALUES (1, 20)",
		want:  "[[10] [20]]",
	}} {
		t.Run(c.name, func(t *testing.T) {
			db := New()
			if err := db.ExecScript(c.setup); err != nil {
				t.Fatal(err)
			}
			st, err := db.Prepare(c.query)
			if err != nil {
				t.Fatal(err)
			}
			args := []any{[]types.Value{types.NewInt(1)}}
			if !strings.Contains(c.query, "?") {
				args = nil
			}
			node, gen, err := st.getPlan()
			if err != nil {
				t.Fatal(err)
			}
			if err := db.ExecScript(c.ddl); err != nil {
				t.Fatal(err)
			}
			check := func() {
				t.Helper()
				rows, err := st.Query(args...)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(rows.All()); got != c.want {
					t.Fatalf("after %s: %s, want %s", c.ddl, got, c.want)
				}
			}
			check()
			st.putPlan(node, gen)
			for i := 0; i < 3; i++ {
				check()
			}
		})
	}
}

// FuzzINListProbe holds IN probes to an oracle that shares no code with the
// engine's access paths: a full scan filtered in Go by key equality, which
// is what an index probe means (types.Value.EncodeKey: kinds never mix,
// floats compare by bit pattern, NULL matches nothing). On a random table
// with a BIGINT primary key, an indexed BIGINT column and an unindexed
// VARCHAR column, a list bound to IN (?), the same list written as literals
// and the oracle must agree, for SELECT * as a multiset and for COUNT(*).
// Lists mix kinds, repeat values, hold NULLs, -0.0 and NaN, or are empty.
func FuzzINListProbe(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed, uint8(5), uint8(8))
	}
	f.Add(int64(7), uint8(0), uint8(0))
	f.Add(int64(9), uint8(40), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, rowsN, listN uint8) {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		if err := db.ExecScript(`
		CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, name VARCHAR(8));
		CREATE INDEX idx_grp ON t (grp);
		`); err != nil {
			t.Fatal(err)
		}
		var all [][]types.Value
		for id := int64(0); len(all) < int(rowsN); id += 1 + rng.Int63n(3) {
			grp, name := types.NewInt(rng.Int63n(6)-2), types.NewString(fmt.Sprint("n", rng.Intn(5)))
			if rng.Intn(8) == 0 {
				grp = types.Null
			}
			if rng.Intn(8) == 0 {
				name = types.Null
			}
			row := []types.Value{types.NewInt(id), grp, name}
			if _, err := db.Exec("INSERT INTO t VALUES (?, ?, ?)", row[0], row[1], row[2]); err != nil {
				t.Fatal(err)
			}
			all = append(all, row)
		}
		list := make([]types.Value, int(listN)%24)
		for i := range list {
			n := rng.Int63n(int64(len(all)) + 4)
			switch rng.Intn(10) {
			case 0:
				list[i] = types.Null
			case 1:
				list[i] = types.NewFloat(float64(n))
			case 2:
				list[i] = types.NewString(fmt.Sprint(n))
			case 3:
				list[i] = types.NewFloat(math.Copysign(0, -1))
			case 4:
				list[i] = types.NewFloat(math.NaN())
			case 5:
				list[i] = types.NewString(fmt.Sprint("n", rng.Intn(6)))
			case 6:
				if i > 0 {
					list[i] = list[rng.Intn(i)]
					break
				}
				fallthrough
			default:
				list[i] = types.NewInt(n - 2)
			}
		}
		for col, name := range []string{"id", "grp", "name"} {
			var want []string
			for _, row := range all {
				for _, v := range list {
					if !v.IsNull() && keyEqual(row[col], v) {
						want = append(want, fmt.Sprint(row))
						break
					}
				}
			}
			sort.Strings(want)
			queries := [][2]string{{"list", "SELECT %s FROM t WHERE " + name + " IN (?)"}}
			// SQL has no NaN literal: the literal list binds NaN to a scalar
			// marker in its place.
			var nans []any
			if len(list) > 0 {
				lits := make([]string, len(list))
				for i, v := range list {
					if lits[i] = sqlLiteral(v); lits[i] == "?" {
						nans = append(nans, v)
					}
				}
				queries = append(queries, [2]string{"literal", "SELECT %s FROM t WHERE " + name + " IN (" + strings.Join(lits, ", ") + ")"})
			}
			for _, q := range queries {
				args := []any{list}
				if q[0] == "literal" {
					args = nans
				}
				rows, err := db.Query(fmt.Sprintf(q[1], "*"), args...)
				if err != nil {
					t.Fatalf("%s: %v", q[1], err)
				}
				var got []string
				for _, r := range rows.All() {
					got = append(got, fmt.Sprint(r))
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s bound to %v: %v, oracle %v", q[1], list, got, want)
				}
				rows, err = db.Query(fmt.Sprintf(q[1], "COUNT(*)"), args...)
				if err != nil {
					t.Fatalf("%s: %v", q[1], err)
				}
				if n, _ := rows.Value(); n.I != int64(len(want)) {
					t.Fatalf("COUNT(*) %s bound to %v: %v, oracle %d", q[1], list, n, len(want))
				}
			}
		}
	})
}

// keyEqual is index-key equality written out: same kind and same payload,
// floats by bit pattern.
func keyEqual(a, b types.Value) bool {
	if a.Kind != b.Kind || a.IsNull() {
		return false
	}
	switch a.Kind {
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case types.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// sqlLiteral renders v as SQL text that evaluates to the same value, -0.0
// included; NaN, which has no literal, renders as a ? marker.
func sqlLiteral(v types.Value) string {
	switch v.Kind {
	case types.KindNull:
		return "NULL"
	case types.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case types.KindFloat:
		switch {
		case math.IsNaN(v.F):
			return "?"
		case v.F == 0 && math.Signbit(v.F):
			return "-0.0"
		}
		return strconv.FormatFloat(v.F, 'f', 1, 64)
	default:
		return fmt.Sprint(v.I)
	}
}

// BenchmarkIndexProbe times one prepared statement probing a 256-key list
// bound to IN (?) on a 20k-row table: through the primary key and through a
// secondary index (four rows per key), returning the rows or only their
// COUNT(*), which reads posting lengths. Run with -benchmem.
func BenchmarkIndexProbe(b *testing.B) {
	db := New()
	if err := db.ExecScript(`CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, name VARCHAR(8));
		CREATE INDEX idx_grp ON t (grp)`); err != nil {
		b.Fatal(err)
	}
	const rows = 20000
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?, ?)", i, i%(rows/4), fmt.Sprint("n", i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]types.Value, 256)
	for i := range keys {
		keys[i] = types.NewInt(rng.Int63n(rows))
	}
	for _, c := range []struct{ name, sql string }{
		{"pk/rows", "SELECT * FROM t WHERE id IN (?)"},
		{"pk/count", "SELECT COUNT(*) FROM t WHERE id IN (?)"},
		{"index/rows", "SELECT * FROM t WHERE grp IN (?)"},
		{"index/count", "SELECT COUNT(*) FROM t WHERE grp IN (?)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, err := db.Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Query(keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPooledPlanKeepsEarlierRows runs one prepared statement again and
// again on its pooled plan. A projection carves each execution's rows from
// one slab; a later execution must never write into rows an earlier result
// still holds.
func TestPooledPlanKeepsEarlierRows(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
	CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, name VARCHAR(8));
	INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 10, 'c'), (4, 30, 'd');
	`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare("SELECT name, grp FROM t WHERE id IN (?)")
	if err != nil {
		t.Fatal(err)
	}
	var held []*Rows
	var want []string
	for _, ids := range [][]int64{{1, 2}, {3}, {4, 1, 2}, {9}, {2, 3, 4}} {
		list := make([]types.Value, len(ids))
		for i, id := range ids {
			list[i] = types.NewInt(id)
		}
		rows, err := st.Query(list)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, rows)
		want = append(want, fmt.Sprint(rows.All()))
	}
	for i, rows := range held {
		if got := fmt.Sprint(rows.All()); got != want[i] {
			t.Fatalf("result %d changed after later executions: %s, was %s", i, got, want[i])
		}
	}
}
