// Package engine is the public facade of the embedded relational database:
// it owns the catalog and table storage, parses and plans SQL, executes
// queries and DML, manages transactions with rollback, caches prepared
// statements, and hosts polymorphic table functions (the integration point
// for the graphQuery function of the Db2 Graph layer).
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"db2graph/internal/sql/catalog"
	"db2graph/internal/sql/exec"
	"db2graph/internal/sql/parser"
	"db2graph/internal/sql/plan"
	"db2graph/internal/sql/storage"
	"db2graph/internal/sql/types"
)

// TableFunc is a polymorphic table function callable from SQL FROM clauses.
// It receives the statement's context (deadline/cancellation), the evaluated
// argument values, and the declared output schema, and returns the produced
// rows.
type TableFunc func(ctx context.Context, args []types.Value, out []exec.Column) ([][]types.Value, error)

// Options configure a Database.
type Options struct {
	// EnforceForeignKeys validates foreign keys on INSERT and UPDATE
	// (referenced columns must be the referenced table's primary key).
	EnforceForeignKeys bool
}

// Database is an embedded, thread-safe relational database instance.
type Database struct {
	opts Options
	cat  *catalog.Catalog

	mu     sync.RWMutex
	tables map[string]*storage.Table

	// writeMu serializes all writers (auto-commit DML and transactions).
	// Readers never take it: they synchronize on per-table storage locks,
	// which is what lets concurrent read throughput scale.
	writeMu sync.Mutex

	tfMu   sync.RWMutex
	tfuncs map[string]TableFunc

	clock atomic.Int64
	// generation invalidates cached plans after DDL.
	generation atomic.Int64
	// dataVersion invalidates version-tagged data caches: it increments
	// after a mutating statement's effects are visible (clock ticks before
	// they apply, so it cannot serve as a freshness tag). Over-counting is
	// harmless; missing a bump would serve stale reads.
	dataVersion atomic.Uint64
}

// New creates an empty database.
func New() *Database { return NewWithOptions(Options{}) }

// NewWithOptions creates an empty database with the given options.
func NewWithOptions(opts Options) *Database {
	return &Database{
		opts:   opts,
		cat:    catalog.New(),
		tables: make(map[string]*storage.Table),
		tfuncs: make(map[string]TableFunc),
	}
}

// Catalog exposes the metadata registry (read-mostly; DDL goes through
// Exec).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Now returns the current logical timestamp, usable with
// FOR SYSTEM_TIME AS OF.
func (db *Database) Now() int64 { return db.clock.Load() }

func (db *Database) tick() int64 { return db.clock.Add(1) }

// RegisterTableFunc installs a polymorphic table function under name
// (case-insensitive).
func (db *Database) RegisterTableFunc(name string, fn TableFunc) {
	db.tfMu.Lock()
	defer db.tfMu.Unlock()
	db.tfuncs[strings.ToLower(name)] = fn
}

// --- plan.Resolver implementation ---

// LookupTable implements plan.Resolver.
func (db *Database) LookupTable(name string) (*storage.Table, *catalog.TableSchema, bool) {
	db.mu.RLock()
	tbl := db.tables[strings.ToLower(name)]
	db.mu.RUnlock()
	if tbl == nil {
		return nil, nil, false
	}
	return tbl, tbl.Schema(), true
}

// LookupView implements plan.Resolver.
func (db *Database) LookupView(name string) (*catalog.View, bool) {
	v := db.cat.View(name)
	return v, v != nil
}

// TableIndexes implements plan.Resolver.
func (db *Database) TableIndexes(name string) []*catalog.Index {
	return db.cat.TableIndexes(name)
}

// HasTableFunc implements plan.Resolver.
func (db *Database) HasTableFunc(name string) bool {
	db.tfMu.RLock()
	defer db.tfMu.RUnlock()
	_, ok := db.tfuncs[strings.ToLower(name)]
	return ok
}

// Table returns the storage for a base table (nil if absent); intended for
// in-process layers like the graph overlay that bypass SQL for hot paths.
func (db *Database) Table(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// execContext builds the per-execution context. ctx carries the statement's
// deadline and cancellation (nil means context.Background()).
func (db *Database) execContext(ctx context.Context, params exec.Params) *exec.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return &exec.Context{Ctx: ctx, Params: params, TableFuncs: db}
}

// RunTableFunc implements exec.TableFuncHost: it runs the table function
// registered under name with the statement context ctx.
func (db *Database) RunTableFunc(ctx context.Context, name string, args []types.Value, out []exec.Column) ([][]types.Value, error) {
	db.tfMu.RLock()
	fn := db.tfuncs[strings.ToLower(name)]
	db.tfMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("sql: unknown table function %q", name)
	}
	return fn(ctx, args, out)
}

// --- Results ---

// Rows is a fully materialized query result.
type Rows struct {
	cols []exec.Column
	data [][]types.Value
}

// Columns returns the output column names.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// ColumnTypes returns the inferred column kinds.
func (r *Rows) ColumnTypes() []types.Kind {
	out := make([]types.Kind, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Type
	}
	return out
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.data) }

// Row returns the i-th row.
func (r *Rows) Row(i int) []types.Value { return r.data[i] }

// All returns every row.
func (r *Rows) All() [][]types.Value { return r.data }

// Value returns the single value of a single-row, single-column result.
func (r *Rows) Value() (types.Value, error) {
	if len(r.data) != 1 || len(r.data[0]) != 1 {
		return types.Null, fmt.Errorf("sql: result is not a single value (%d rows)", len(r.data))
	}
	return r.data[0][0], nil
}

// bindArgs binds Go arguments to the ? markers of the statement sql. A
// []types.Value argument binds a list, which only a marker that is the
// whole operand of IN accepts; listOK flags those markers, and is computed
// from sql when nil.
func bindArgs(sql string, listOK []bool, args []any) (exec.Params, error) {
	p := exec.Params{Vals: make([]types.Value, len(args))}
	for i, a := range args {
		list, isList := a.([]types.Value)
		if !isList {
			v, err := types.FromGo(a)
			if err != nil {
				return p, err
			}
			p.Vals[i] = v
			continue
		}
		if listOK == nil {
			var err error
			if listOK, err = parser.ListParams(sql); err != nil {
				return p, err
			}
		}
		if i >= len(listOK) || !listOK[i] {
			return p, fmt.Errorf("sql: parameter %d is bound to a list but is not the whole operand of IN (?)", i+1)
		}
		if p.Lists == nil {
			p.Lists = make([][]types.Value, len(args))
		}
		if list == nil {
			list = []types.Value{}
		}
		p.Lists[i] = list
	}
	return p, nil
}

// --- Query / Exec ---

// Query parses, plans, and runs a SELECT statement.
func (db *Database) Query(sql string, args ...any) (*Rows, error) {
	return db.QueryCtx(context.Background(), sql, args...)
}

// QueryCtx is Query under a context carrying the statement deadline and
// cancellation; execution checks it between row batches and passes it to
// table functions.
func (db *Database) QueryCtx(ctx context.Context, sql string, args ...any) (*Rows, error) {
	params, err := bindArgs(sql, nil, args)
	if err != nil {
		return nil, err
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*parser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires a SELECT statement")
	}
	return db.runSelect(ctx, sel, params)
}

func (db *Database) runSelect(ctx context.Context, sel *parser.SelectStmt, params exec.Params) (*Rows, error) {
	node, err := plan.Select(db, sel)
	if err != nil {
		return nil, err
	}
	data, err := exec.Run(node, db.execContext(ctx, params))
	if err != nil {
		return nil, err
	}
	return &Rows{cols: node.Columns(), data: data}, nil
}

// Exec parses and runs any statement, returning the number of affected rows
// (0 for DDL; the result size for SELECT).
func (db *Database) Exec(sql string, args ...any) (int, error) {
	params, err := bindArgs(sql, nil, args)
	if err != nil {
		return 0, err
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.execStmt(stmt, params, nil)
}

// ExecScript runs a semicolon-separated sequence of statements, stopping at
// the first error.
func (db *Database) ExecScript(sql string) error {
	stmts, err := parser.ParseAll(sql)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if _, err := db.execStmt(stmt, exec.Params{}, nil); err != nil {
			return err
		}
	}
	return nil
}

// execStmt dispatches one statement. tx is non-nil inside a transaction.
func (db *Database) execStmt(stmt parser.Statement, params exec.Params, tx *Tx) (int, error) {
	switch stmt.(type) {
	case *parser.InsertStmt, *parser.UpdateStmt, *parser.DeleteStmt,
		*parser.CreateTableStmt, *parser.CreateIndexStmt, *parser.CreateViewStmt,
		*parser.DropStmt:
		// Bump after the statement's effects (or their undo) are in place,
		// even on error — a failed statement may have applied and reversed
		// mutations, and over-invalidation is the safe direction.
		defer db.dataVersion.Add(1)
	}
	switch s := stmt.(type) {
	case *parser.SelectStmt:
		rows, err := db.runSelect(context.Background(), s, params)
		if err != nil {
			return 0, err
		}
		return rows.Len(), nil
	case *parser.InsertStmt:
		return db.execInsert(s, &params, tx)
	case *parser.UpdateStmt:
		return db.execUpdate(s, &params, tx)
	case *parser.DeleteStmt:
		return db.execDelete(s, &params, tx)
	case *parser.CreateTableStmt:
		return 0, db.execCreateTable(s)
	case *parser.CreateIndexStmt:
		return 0, db.execCreateIndex(s)
	case *parser.CreateViewStmt:
		return 0, db.execCreateView(s)
	case *parser.DropStmt:
		return 0, db.execDrop(s)
	case *parser.BeginStmt, *parser.CommitStmt, *parser.RollbackStmt:
		return 0, fmt.Errorf("sql: use Begin/Commit/Rollback via the transaction API")
	default:
		return 0, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// --- DDL ---

func (db *Database) execCreateTable(s *parser.CreateTableStmt) error {
	if db.cat.Table(s.Name) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %s already exists", s.Name)
	}
	schema := &catalog.TableSchema{
		Name:       s.Name,
		PrimaryKey: s.PrimaryKey,
		Temporal:   s.Temporal,
	}
	for _, c := range s.Columns {
		schema.Columns = append(schema.Columns, catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
	}
	for i, fk := range s.ForeignKeys {
		schema.ForeignKeys = append(schema.ForeignKeys, catalog.ForeignKey{
			Name:       fmt.Sprintf("fk_%s_%d", strings.ToLower(s.Name), i),
			Columns:    fk.Columns,
			RefTable:   fk.RefTable,
			RefColumns: fk.RefColumns,
		})
	}
	if err := db.cat.AddTable(schema); err != nil {
		return err
	}
	db.mu.Lock()
	db.tables[strings.ToLower(s.Name)] = storage.NewTable(schema)
	db.mu.Unlock()
	db.generation.Add(1)
	return nil
}

func (db *Database) execCreateIndex(s *parser.CreateIndexStmt) error {
	idx := &catalog.Index{Name: s.Name, Table: s.Table, Columns: s.Columns, Unique: s.Unique, Ordered: s.Ordered}
	if err := db.cat.AddIndex(idx); err != nil {
		return err
	}
	tbl := db.Table(s.Table)
	if tbl == nil {
		return fmt.Errorf("sql: table %s has no storage", s.Table)
	}
	if err := tbl.CreateIndex(idx); err != nil {
		db.cat.DropIndex(s.Name)
		return err
	}
	db.generation.Add(1)
	return nil
}

func (db *Database) execCreateView(s *parser.CreateViewStmt) error {
	// Validate the view by planning its query now.
	if _, err := plan.Select(db, s.Select); err != nil {
		return fmt.Errorf("sql: invalid view %s: %w", s.Name, err)
	}
	if err := db.cat.AddView(&catalog.View{Name: s.Name, Query: s.Query, Columns: s.Columns}); err != nil {
		return err
	}
	db.generation.Add(1)
	return nil
}

func (db *Database) execDrop(s *parser.DropStmt) error {
	var err error
	switch s.Kind {
	case "TABLE":
		if err = db.cat.DropTable(s.Name); err == nil {
			db.mu.Lock()
			delete(db.tables, strings.ToLower(s.Name))
			db.mu.Unlock()
		}
	case "VIEW":
		err = db.cat.DropView(s.Name)
	case "INDEX":
		idx := db.cat.Index(s.Name)
		if idx == nil {
			err = fmt.Errorf("sql: index %s does not exist", s.Name)
		} else {
			if tbl := db.Table(idx.Table); tbl != nil {
				tbl.DropIndex(idx.Name)
			}
			err = db.cat.DropIndex(s.Name)
		}
	default:
		err = fmt.Errorf("sql: unknown DROP kind %s", s.Kind)
	}
	if err != nil && s.IfExists {
		return nil
	}
	if err == nil {
		db.generation.Add(1)
	}
	return err
}

// --- DML ---

// undoEntry reverses one storage mutation.
type undoEntry func() error

func (db *Database) execInsert(s *parser.InsertStmt, params *exec.Params, tx *Tx) (int, error) {
	tbl, schema, ok := db.LookupTable(s.Table)
	if !ok {
		return 0, fmt.Errorf("sql: unknown table %s", s.Table)
	}
	// Map the provided column list to schema ordinals.
	colIdx := make([]int, 0, len(s.Columns))
	if len(s.Columns) > 0 {
		for _, cn := range s.Columns {
			ci := schema.ColumnIndex(cn)
			if ci < 0 {
				return 0, fmt.Errorf("sql: unknown column %s.%s", s.Table, cn)
			}
			colIdx = append(colIdx, ci)
		}
	}

	if tx == nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	ts := db.tick()

	var undo []undoEntry
	n := 0
	for _, rowExprs := range s.Rows {
		want := len(schema.Columns)
		if len(s.Columns) > 0 {
			want = len(s.Columns)
		}
		if len(rowExprs) != want {
			return 0, fmt.Errorf("sql: INSERT expects %d values, got %d", want, len(rowExprs))
		}
		row := make(storage.Row, len(schema.Columns))
		for i, e := range rowExprs {
			fn, err := plan.CompileConstExpr(e)
			if err != nil {
				return 0, err
			}
			v, err := fn(nil, params)
			if err != nil {
				return 0, err
			}
			target := i
			if len(s.Columns) > 0 {
				target = colIdx[i]
			}
			cv, err := types.CoerceTo(v, schema.Columns[target].Type)
			if err != nil {
				return 0, fmt.Errorf("sql: column %s.%s: %w", s.Table, schema.Columns[target].Name, err)
			}
			row[target] = cv
		}
		if db.opts.EnforceForeignKeys {
			if err := db.checkForeignKeys(schema, row); err != nil {
				db.applyUndo(undo)
				return 0, err
			}
		}
		id, err := tbl.Insert(row, ts)
		if err != nil {
			db.applyUndo(undo)
			return 0, err
		}
		rid := id
		undo = append(undo, func() error { return tbl.Delete(rid, ts) })
		n++
	}
	if tx != nil {
		tx.undo = append(tx.undo, undo...)
	}
	return n, nil
}

// applyUndo reverses already-applied mutations of a failed statement.
func (db *Database) applyUndo(undo []undoEntry) {
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]() // best effort; storage errors here indicate corruption
	}
	if len(undo) > 0 {
		db.dataVersion.Add(1)
	}
}

func (db *Database) checkForeignKeys(schema *catalog.TableSchema, row storage.Row) error {
	for _, fk := range schema.ForeignKeys {
		ref := db.Table(fk.RefTable)
		if ref == nil {
			return fmt.Errorf("sql: foreign key references missing table %s", fk.RefTable)
		}
		key := make([]types.Value, len(fk.Columns))
		hasNull := false
		for i, cn := range fk.Columns {
			v := row[schema.ColumnIndex(cn)]
			if v.IsNull() {
				hasNull = true
				break
			}
			key[i] = v
		}
		if hasNull {
			continue
		}
		refSchema := ref.Schema()
		samePK := len(refSchema.PrimaryKey) == len(fk.RefColumns)
		if samePK {
			for i, rc := range fk.RefColumns {
				if !strings.EqualFold(refSchema.PrimaryKey[i], rc) {
					samePK = false
					break
				}
			}
		}
		if !samePK {
			continue // only PK-referencing FKs are enforced
		}
		if _, ok := ref.LookupPK(key); !ok {
			return fmt.Errorf("sql: foreign key violation: %s -> %s", schema.Name, fk.RefTable)
		}
	}
	return nil
}

// matchingRows evaluates a WHERE predicate over a table, returning RowIDs.
// Point predicates covering the full primary key short-circuit to a direct
// lookup instead of scanning.
func matchingRows(tbl *storage.Table, schema *catalog.TableSchema, where parser.Expr, params *exec.Params) ([]storage.RowID, error) {
	if ids, ok, err := pkLookupRows(tbl, schema, where, params); ok || err != nil {
		return ids, err
	}
	var pred exec.ExprFn
	if where != nil {
		var err error
		pred, err = plan.CompileRowExpr(schema, where)
		if err != nil {
			return nil, err
		}
	}
	var ids []storage.RowID
	var scanErr error
	tbl.Scan(func(id storage.RowID, row storage.Row) bool {
		if pred != nil {
			v, err := pred(row, params)
			if err != nil {
				scanErr = err
				return false
			}
			if !v.Bool() {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	return ids, scanErr
}

// pkLookupRows recognizes WHERE clauses that are a conjunction of equality
// predicates covering exactly the table's primary key with constant (or
// parameter) values, and resolves them with one PK probe.
func pkLookupRows(tbl *storage.Table, schema *catalog.TableSchema, where parser.Expr, params *exec.Params) ([]storage.RowID, bool, error) {
	if where == nil || !schema.HasPrimaryKey() {
		return nil, false, nil
	}
	// Split the conjunction into col = <const> bindings.
	bindings := map[string]parser.Expr{}
	var walk func(e parser.Expr) bool
	walk = func(e parser.Expr) bool {
		b, ok := e.(*parser.BinaryExpr)
		if !ok {
			return false
		}
		if b.Op == parser.OpAnd {
			return walk(b.Left) && walk(b.Right)
		}
		if b.Op != parser.OpEq {
			return false
		}
		col, val := b.Left, b.Right
		cr, ok := col.(*parser.ColumnRef)
		if !ok {
			cr, ok = val.(*parser.ColumnRef)
			if !ok {
				return false
			}
			val = b.Left
		}
		if cr.Qualifier != "" && !strings.EqualFold(cr.Qualifier, schema.Name) {
			return false
		}
		switch val.(type) {
		case *parser.Literal, *parser.Param:
		default:
			return false
		}
		key := strings.ToLower(cr.Name)
		if _, dup := bindings[key]; dup {
			return false
		}
		bindings[key] = val
		return true
	}
	if !walk(where) || len(bindings) != len(schema.PrimaryKey) {
		return nil, false, nil
	}
	key := make([]types.Value, len(schema.PrimaryKey))
	for i, pk := range schema.PrimaryKey {
		e, ok := bindings[strings.ToLower(pk)]
		if !ok {
			return nil, false, nil
		}
		fn, err := plan.CompileConstExpr(e)
		if err != nil {
			return nil, false, nil
		}
		v, err := fn(nil, params)
		if err != nil {
			return nil, false, err
		}
		cv, err := types.CoerceTo(v, schema.Columns[schema.ColumnIndex(pk)].Type)
		if err != nil {
			return nil, true, nil // uncoercible value matches nothing
		}
		key[i] = cv
	}
	if id, ok := tbl.LookupPK(key); ok {
		return []storage.RowID{id}, true, nil
	}
	return nil, true, nil
}

func (db *Database) execUpdate(s *parser.UpdateStmt, params *exec.Params, tx *Tx) (int, error) {
	tbl, schema, ok := db.LookupTable(s.Table)
	if !ok {
		return 0, fmt.Errorf("sql: unknown table %s", s.Table)
	}
	type setOp struct {
		col int
		fn  exec.ExprFn
	}
	sets := make([]setOp, 0, len(s.Set))
	for _, sc := range s.Set {
		ci := schema.ColumnIndex(sc.Column)
		if ci < 0 {
			return 0, fmt.Errorf("sql: unknown column %s.%s", s.Table, sc.Column)
		}
		fn, err := plan.CompileRowExpr(schema, sc.Expr)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{col: ci, fn: fn})
	}

	if tx == nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	ts := db.tick()

	ids, err := matchingRows(tbl, schema, s.Where, params)
	if err != nil {
		return 0, err
	}
	var undo []undoEntry
	n := 0
	for _, id := range ids {
		old, ok := tbl.Get(id)
		if !ok {
			continue
		}
		oldCopy := old.Clone()
		newRow := old.Clone()
		for _, op := range sets {
			v, err := op.fn(old, params)
			if err != nil {
				db.applyUndo(undo)
				return 0, err
			}
			cv, err := types.CoerceTo(v, schema.Columns[op.col].Type)
			if err != nil {
				db.applyUndo(undo)
				return 0, fmt.Errorf("sql: column %s.%s: %w", s.Table, schema.Columns[op.col].Name, err)
			}
			newRow[op.col] = cv
		}
		if db.opts.EnforceForeignKeys {
			if err := db.checkForeignKeys(schema, newRow); err != nil {
				db.applyUndo(undo)
				return 0, err
			}
		}
		if err := tbl.Update(id, newRow, ts); err != nil {
			db.applyUndo(undo)
			return 0, err
		}
		rid := id
		undo = append(undo, func() error { return tbl.Update(rid, oldCopy, ts) })
		n++
	}
	if tx != nil {
		tx.undo = append(tx.undo, undo...)
	}
	return n, nil
}

func (db *Database) execDelete(s *parser.DeleteStmt, params *exec.Params, tx *Tx) (int, error) {
	tbl, schema, ok := db.LookupTable(s.Table)
	if !ok {
		return 0, fmt.Errorf("sql: unknown table %s", s.Table)
	}
	if tx == nil {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	ts := db.tick()

	ids, err := matchingRows(tbl, schema, s.Where, params)
	if err != nil {
		return 0, err
	}
	var undo []undoEntry
	n := 0
	for _, id := range ids {
		old, ok := tbl.Get(id)
		if !ok {
			continue
		}
		oldCopy := old.Clone()
		if err := tbl.Delete(id, ts); err != nil {
			db.applyUndo(undo)
			return 0, err
		}
		undo = append(undo, func() error {
			_, err := tbl.Insert(oldCopy, ts)
			return err
		})
		n++
	}
	if tx != nil {
		tx.undo = append(tx.undo, undo...)
	}
	return n, nil
}

// --- Transactions ---

// Tx is an explicit transaction. Transactions serialize against each other
// and against auto-commit writers; rollback restores all mutated rows.
// Readers outside the transaction may observe intermediate states (the
// engine provides atomicity and durability-in-memory, not snapshot
// isolation; see DESIGN.md).
type Tx struct {
	db   *Database
	undo []undoEntry
	done bool
}

// Begin starts a transaction, blocking until any other writer finishes.
func (db *Database) Begin() *Tx {
	db.writeMu.Lock()
	return &Tx{db: db}
}

// Exec runs a statement inside the transaction.
func (t *Tx) Exec(sql string, args ...any) (int, error) {
	if t.done {
		return 0, fmt.Errorf("sql: transaction already finished")
	}
	params, err := bindArgs(sql, nil, args)
	if err != nil {
		return 0, err
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch stmt.(type) {
	case *parser.CreateTableStmt, *parser.CreateIndexStmt, *parser.CreateViewStmt, *parser.DropStmt:
		return 0, fmt.Errorf("sql: DDL is not allowed inside a transaction")
	}
	return t.db.execStmt(stmt, params, t)
}

// Query runs a SELECT inside the transaction (sees the transaction's own
// writes).
func (t *Tx) Query(sql string, args ...any) (*Rows, error) {
	if t.done {
		return nil, fmt.Errorf("sql: transaction already finished")
	}
	return t.db.Query(sql, args...)
}

// Commit makes the transaction's effects permanent.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("sql: transaction already finished")
	}
	t.done = true
	t.undo = nil
	t.db.writeMu.Unlock()
	return nil
}

// Rollback reverses every mutation made in the transaction.
func (t *Tx) Rollback() error {
	if t.done {
		return fmt.Errorf("sql: transaction already finished")
	}
	t.done = true
	t.db.applyUndo(t.undo)
	t.undo = nil
	t.db.writeMu.Unlock()
	return nil
}

// --- Prepared statements ---

// Stmt is a prepared statement: parsed once, planned lazily, with plan
// instances pooled for concurrent reuse (mirroring the pre-compiled SQL
// templates of the paper's SQL Dialect module).
type Stmt struct {
	db   *Database
	sql  string
	stmt parser.Statement
	sel  *parser.SelectStmt // non-nil for SELECT
	// listOK flags the markers a list may bind (parser.ListParams).
	listOK []bool

	pool chan pooledPlan
}

// pooledPlan is a plan instance tagged with the DDL generation it was
// planned at: it holds table and index handles of that generation.
type pooledPlan struct {
	node exec.Node
	gen  int64
}

// Prepare parses a statement for repeated execution.
func (db *Database) Prepare(sql string) (*Stmt, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	listOK, err := parser.ListParams(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, sql: sql, stmt: stmt, listOK: listOK, pool: make(chan pooledPlan, 64)}
	if sel, ok := stmt.(*parser.SelectStmt); ok {
		s.sel = sel
		// Plan eagerly to surface errors at prepare time.
		node, gen, err := s.getPlan()
		if err != nil {
			return nil, err
		}
		s.putPlan(node, gen)
	}
	return s, nil
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// getPlan returns a plan instance of the current DDL generation, and that
// generation. Pooled plans of an older generation are dropped.
func (s *Stmt) getPlan() (exec.Node, int64, error) {
	gen := s.db.generation.Load()
	for {
		select {
		case p := <-s.pool:
			if p.gen == gen {
				return p.node, gen, nil
			}
		default:
			node, err := plan.Select(s.db, s.sel)
			return node, gen, err
		}
	}
}

// putPlan pools a plan instance planned at generation gen, unless DDL has
// run since.
func (s *Stmt) putPlan(n exec.Node, gen int64) {
	if gen != s.db.generation.Load() {
		return
	}
	select {
	case s.pool <- pooledPlan{node: n, gen: gen}:
	default:
	}
}

// Query executes a prepared SELECT.
func (s *Stmt) Query(args ...any) (*Rows, error) {
	return s.QueryCtx(context.Background(), args...)
}

// QueryCtx executes a prepared SELECT under a statement context. An
// argument of type []types.Value binds a list to a marker that is the whole
// operand of IN, so one statement text serves every list length.
func (s *Stmt) QueryCtx(ctx context.Context, args ...any) (*Rows, error) {
	if s.sel == nil {
		return nil, fmt.Errorf("sql: prepared statement is not a SELECT")
	}
	params, err := bindArgs(s.sql, s.listOK, args)
	if err != nil {
		return nil, err
	}
	node, gen, err := s.getPlan()
	if err != nil {
		return nil, err
	}
	data, err := exec.Run(node, s.db.execContext(ctx, params))
	if err != nil {
		return nil, err
	}
	rows := &Rows{cols: node.Columns(), data: data}
	s.putPlan(node, gen)
	return rows, nil
}

// Exec executes a prepared DML statement.
func (s *Stmt) Exec(args ...any) (int, error) {
	if s.sel != nil {
		rows, err := s.Query(args...)
		if err != nil {
			return 0, err
		}
		return rows.Len(), nil
	}
	params, err := bindArgs(s.sql, s.listOK, args)
	if err != nil {
		return 0, err
	}
	return s.db.execStmt(s.stmt, params, nil)
}

// --- Statistics ---

// TableStats describes a table's size.
type TableStats struct {
	Name     string
	Rows     int
	Bytes    int64
	Temporal bool
}

// Stats returns per-table row counts and approximate byte sizes.
func (db *Database) Stats() []TableStats {
	names := db.cat.TableNames()
	out := make([]TableStats, 0, len(names))
	for _, n := range names {
		tbl := db.Table(n)
		if tbl == nil {
			continue
		}
		out = append(out, TableStats{
			Name:     n,
			Rows:     tbl.RowCount(),
			Bytes:    tbl.ByteSize(),
			Temporal: tbl.Schema().Temporal,
		})
	}
	return out
}

// TotalBytes returns the approximate resident size of all tables.
func (db *Database) TotalBytes() int64 {
	var total int64
	for _, st := range db.Stats() {
		total += st.Bytes
	}
	return total
}

// RelationColumnInfo returns the output columns (names and types) of a base
// table or view. The graph overlay layer uses it to resolve mappings and to
// coerce id values to column types.
func (db *Database) RelationColumnInfo(name string) ([]exec.Column, error) {
	if tbl := db.Table(name); tbl != nil {
		schema := tbl.Schema()
		cols := make([]exec.Column, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = exec.Column{Qualifier: schema.Name, Name: c.Name, Type: c.Type}
		}
		return cols, nil
	}
	if v := db.cat.View(name); v != nil {
		stmt, err := parser.Parse("SELECT * FROM \"" + v.Name + "\"")
		if err != nil {
			return nil, err
		}
		node, err := plan.Select(db, stmt.(*parser.SelectStmt))
		if err != nil {
			return nil, err
		}
		return node.Columns(), nil
	}
	return nil, fmt.Errorf("sql: unknown table or view %q", name)
}

// RelationColumns implements the overlay.SchemaProvider contract: the
// output column names of a table or view.
func (db *Database) RelationColumns(name string) ([]string, error) {
	cols, err := db.RelationColumnInfo(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out, nil
}

// Generation returns the DDL generation counter; it increments on every
// CREATE/DROP, letting layers above detect schema changes (the AutoOverlay
// catalog integration uses it).
func (db *Database) Generation() int64 { return db.generation.Load() }

// DataVersion reports the mutation counter backing version-tagged caches
// above the engine (see graph.DataVersioned for the protocol).
func (db *Database) DataVersion() uint64 { return db.dataVersion.Load() }

// Explain plans a SELECT statement and returns the physical plan rendered
// as an indented tree, exposing access-path and join decisions.
func (db *Database) Explain(sql string) (string, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*parser.SelectStmt)
	if !ok {
		return "", fmt.Errorf("sql: EXPLAIN supports SELECT statements only")
	}
	node, err := plan.Select(db, sel)
	if err != nil {
		return "", err
	}
	return exec.Explain(node), nil
}
