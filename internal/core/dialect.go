// Package core implements IBM Db2 Graph itself — the in-DBMS graph layer of
// the paper. It binds a graph overlay (internal/overlay) onto the embedded
// relational engine (internal/sql/engine), implements the graph structure
// API (graph.Backend) by generating SQL, applies the data-dependent runtime
// optimizations of Section 6.3, supplies the optimized traversal strategies
// of Section 6.2 to the Gremlin layer, and registers the graphQuery
// polymorphic table function for synergistic SQL+graph statements.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

// Dialect is the SQL Dialect module: it generates the SQL for graph
// operations, keeps pre-compiled statement templates for frequent query
// patterns, and suggests indexes that would speed the workload up.
type Dialect struct {
	db *engine.Database
	// useCache enables the prepared statement template cache.
	useCache bool

	mu    sync.RWMutex
	cache map[string]*cachedStmt
}

// cachedStmt is one pre-compiled SQL template plus usage statistics.
type cachedStmt struct {
	stmt   *engine.Stmt
	count  atomic.Int64
	table  string
	eqCols []string
}

// NewDialect creates a dialect bound to a database.
func NewDialect(db *engine.Database, useCache bool) *Dialect {
	return &Dialect{db: db, useCache: useCache, cache: make(map[string]*cachedStmt)}
}

// Query executes generated SQL under the query's context. table and eqCols
// describe the access pattern for the frequent-pattern tracker (eqCols are
// the equality-restricted columns).
func (d *Dialect) Query(ctx context.Context, sql string, table string, eqCols []string, params ...any) (*engine.Rows, error) {
	if !d.useCache {
		return d.db.QueryCtx(ctx, sql, params...)
	}
	d.mu.RLock()
	cs := d.cache[sql]
	d.mu.RUnlock()
	if cs == nil {
		stmt, err := d.db.Prepare(sql)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if existing := d.cache[sql]; existing != nil {
			cs = existing
		} else {
			cs = &cachedStmt{stmt: stmt, table: table, eqCols: eqCols}
			d.cache[sql] = cs
		}
		d.mu.Unlock()
	}
	cs.count.Add(1)
	return cs.stmt.QueryCtx(ctx, params...)
}

// PatternStat describes one tracked SQL template.
type PatternStat struct {
	SQL    string
	Table  string
	EqCols []string
	Count  int64
}

// Patterns returns the tracked SQL templates ordered by descending use.
func (d *Dialect) Patterns() []PatternStat {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PatternStat, 0, len(d.cache))
	for sql, cs := range d.cache {
		out = append(out, PatternStat{SQL: sql, Table: cs.table, EqCols: cs.eqCols, Count: cs.count.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// IndexSuggestion is one index the advisor recommends.
type IndexSuggestion struct {
	Table   string
	Columns []string
	// DDL is the CREATE INDEX statement to run.
	DDL string
	// Uses is how many tracked queries would benefit.
	Uses int64
}

// SuggestIndexes inspects the frequent query patterns (those used at least
// minUses times) and recommends indexes on equality-restricted columns that
// are not already covered by the primary key or an existing index.
func (d *Dialect) SuggestIndexes(minUses int64) []IndexSuggestion {
	type key struct {
		table string
		cols  string
	}
	uses := map[key]int64{}
	colsOf := map[key][]string{}
	for _, p := range d.Patterns() {
		if p.Count < minUses || len(p.EqCols) == 0 || p.Table == "" {
			continue
		}
		cols := append([]string{}, p.EqCols...)
		sort.Strings(cols)
		k := key{table: strings.ToLower(p.Table), cols: strings.ToLower(strings.Join(cols, ","))}
		uses[k] += p.Count
		colsOf[k] = cols
	}
	var out []IndexSuggestion
	for k, n := range uses {
		cols := colsOf[k]
		if d.coveredByExisting(k.table, cols) {
			continue
		}
		name := "idx_" + strings.ReplaceAll(k.table, " ", "_") + "_" + strings.ReplaceAll(k.cols, ",", "_")
		out = append(out, IndexSuggestion{
			Table:   k.table,
			Columns: cols,
			DDL:     fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name, k.table, strings.Join(cols, ", ")),
			Uses:    n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uses > out[j].Uses })
	return out
}

// coveredByExisting reports whether the column set is already served by the
// primary key or an existing index.
func (d *Dialect) coveredByExisting(table string, cols []string) bool {
	want := map[string]bool{}
	for _, c := range cols {
		want[strings.ToLower(c)] = true
	}
	same := func(existing []string) bool {
		if len(existing) != len(want) {
			return false
		}
		for _, c := range existing {
			if !want[strings.ToLower(c)] {
				return false
			}
		}
		return true
	}
	if tbl := d.db.Table(table); tbl != nil {
		if same(tbl.Schema().PrimaryKey) {
			return true
		}
	}
	for _, idx := range d.db.Catalog().TableIndexes(table) {
		if same(idx.Columns) {
			return true
		}
	}
	return false
}

// sqlBuilder assembles one SELECT statement.
type sqlBuilder struct {
	selectList []string
	table      string
	where      []string
	params     []any
	// asOf, when non-zero, reads a system-time snapshot of the table.
	asOf int64
	// fullyPushed is true while every query constraint has been expressed
	// in SQL (enabling aggregate pushdown).
	fullyPushed bool
	// eqCols records equality-restricted columns for the index advisor.
	eqCols []string
}

func newSQLBuilder(table string) *sqlBuilder {
	return &sqlBuilder{table: table, fullyPushed: true}
}

func (b *sqlBuilder) addWhere(fragment string, params ...any) {
	b.where = append(b.where, fragment)
	b.params = append(b.params, params...)
}

// inList binds vals as one list to "col IN (?)": one text for every length.
func (b *sqlBuilder) inList(col string, vals []types.Value) {
	b.addWhere(col+" IN (?)", vals)
	b.eqCols = append(b.eqCols, col)
}

// SQL renders the SELECT statement.
func (b *sqlBuilder) SQL(selectList string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(selectList)
	sb.WriteString(" FROM ")
	sb.WriteString(b.table)
	if b.asOf != 0 {
		fmt.Fprintf(&sb, " FOR SYSTEM_TIME AS OF %d", b.asOf)
	}
	if len(b.where) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(b.where, " AND "))
	}
	return sb.String()
}
