package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestRepeatedProbeKeysSameAnswer runs IN lists with repeated values and
// NULLs through the primary-key and the secondary-index probe paths. A
// probe takes the list as a key set and skips a repeated key wherever it
// appears, so each list must answer exactly as its distinct values in
// first-appearance order do, for COUNT(*) (an index-only count) and for the
// rows themselves, in order; and as a full scan of the same rows does,
// which probes nothing.
func TestRepeatedProbeKeysSameAnswer(t *testing.T) {
	db := New()
	const nodes = "(1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')"
	const links = "(1, 2, 'x'), (1, 3, 'y'), (2, 3, 'z'), (3, 1, 'w'), (3, 4, 'u'), (3, 2, 't'), (4, 1, 's')"
	if err := db.ExecScript(`
	CREATE TABLE node (id BIGINT PRIMARY KEY, v VARCHAR(8));
	CREATE TABLE link (id1 BIGINT NOT NULL, id2 BIGINT NOT NULL, v VARCHAR(8), PRIMARY KEY (id1, id2));
	CREATE INDEX idx_link_id1 ON link (id1);
	CREATE TABLE node_heap (id BIGINT, v VARCHAR(8));
	CREATE TABLE link_heap (id1 BIGINT, id2 BIGINT, v VARCHAR(8));
	INSERT INTO node VALUES ` + nodes + `;
	INSERT INTO node_heap VALUES ` + nodes + `;
	INSERT INTO link VALUES ` + links + `;
	INSERT INTO link_heap VALUES ` + links + `;
	`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ table, col, access string }{
		{"node", "id", "primary key probe"},
		{"link", "id1", "index probe idx_link_id1"},
	} {
		for _, list := range [][]any{
			{int64(1), int64(2), int64(3)},
			{int64(3), int64(3), int64(1), int64(1), int64(1), int64(2)}, // consecutive repeats
			{int64(1), int64(2), int64(1), int64(3), int64(2), int64(1)}, // non-consecutive repeats
			{int64(2), int64(3), int64(4), int64(4), int64(4), int64(4)}, // trailing repeats
			{int64(1), nil, int64(1), nil, nil, int64(3), int64(3)},      // NULLs between repeats
			{nil, nil, int64(4)},                     // leading NULLs
			{int64(9), int64(9), int64(1), int64(9)}, // misses
			{nil, nil},                               // nothing
		} {
			var distinct []any
			seen := map[any]bool{}
			for _, v := range list {
				if v != nil && !seen[v] {
					seen[v] = true
					distinct = append(distinct, v)
				}
			}
			if len(distinct) == 0 {
				distinct = []any{int64(-1)} // IN () is not SQL; -1 matches nothing either
			}
			for _, sel := range []string{"COUNT(*)", "*"} {
				query := func(table, access string, vals []any) []string {
					t.Helper()
					sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s IN (?%s)", sel, table, c.col, strings.Repeat(", ?", len(vals)-1))
					if plan, err := db.Explain(explainLiteral(sql, vals)); err != nil || !strings.Contains(plan, access) {
						t.Fatalf("%s: plan %q, %v; want %s", sql, plan, err, access)
					}
					rows, err := db.Query(sql, vals...)
					if err != nil {
						t.Fatal(err)
					}
					var out []string
					for _, r := range rows.All() {
						out = append(out, fmt.Sprint(r))
					}
					return out
				}
				got := query(c.table, c.access, list)
				if want := query(c.table, c.access, distinct); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("SELECT %s FROM %s WHERE %s IN %v = %v, distinct list %v gives %v", sel, c.table, c.col, list, got, distinct, want)
				}
				scan := query(c.table+"_heap", "full scan", list)
				sort.Strings(scan)
				sorted := append([]string(nil), got...)
				sort.Strings(sorted)
				if fmt.Sprint(sorted) != fmt.Sprint(scan) {
					t.Fatalf("SELECT %s FROM %s WHERE %s IN %v = %v, a full scan gives %v", sel, c.table, c.col, list, got, scan)
				}
			}
		}
	}
}

// explainLiteral inlines vals into sql's ? markers, for EXPLAIN.
func explainLiteral(sql string, vals []any) string {
	for _, v := range vals {
		lit := "NULL"
		if v != nil {
			lit = fmt.Sprint(v)
		}
		sql = strings.Replace(sql, "?", lit, 1)
	}
	return sql
}
