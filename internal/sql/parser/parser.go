package parser

import (
	"fmt"
	"strconv"
	"strings"

	"db2graph/internal/sql/types"
)

// Parser consumes a token stream and produces statements.
type Parser struct {
	input  string
	toks   []token
	pos    int
	params int // count of ? markers seen so far
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// ParseAll parses a semicolon-separated sequence of statements.
func ParseAll(input string) ([]Statement, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(tokOp, ";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, got %q", p.cur().text)
		}
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used in tests and by the
// overlay layer).
func ParseExpr(input string) (Expr, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return e, nil
}

// NumParams reports the number of parameter markers in a parsed statement's
// source. It is recomputed by reparsing; the engine caches this with the
// prepared statement.
func NumParams(input string) (int, error) {
	toks, err := lex(input)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range toks {
		if t.kind == tokParam {
			n++
		}
	}
	return n, nil
}

// ListParams reports, by marker index, which ? markers of a statement are
// the whole operand of an IN list, "IN (?)": the only markers that may be
// bound to a list of values.
func ListParams(input string) ([]bool, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	var out []bool
	for i, t := range toks {
		if t.kind == tokParam {
			out = append(out, i >= 2 && toks[i-2].kind == tokKeyword && toks[i-2].text == "IN" &&
				toks[i-1].kind == tokOp && toks[i-1].text == "(" &&
				toks[i+1].kind == tokOp && toks[i+1].text == ")")
		}
	}
	return out, nil
}

func newParser(input string) (*Parser, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return &Parser{input: input, toks: toks}, nil
}

func (p *Parser) cur() token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// accept consumes the current token if it matches kind and (case-folded)
// text; empty text matches any token of the kind.
func (p *Parser) accept(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if text != "" && t.text != text {
		return false
	}
	p.pos++
	return true
}

// expect consumes a token or fails.
func (p *Parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if t.kind != kind || (text != "" && t.text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errf("expected %q, got %q", want, t.text)
	}
	p.pos++
	return t, nil
}

// peekKeyword reports whether the current token is the given keyword.
func (p *Parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && t.text == kw
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

// expectIdent consumes an identifier (plain or quoted) or a non-reserved
// keyword-looking name.
func (p *Parser) expectIdent() (string, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent, tokQIdent:
		p.pos++
		return t.text, nil
	default:
		return "", p.errf("expected identifier, got %q", t.text)
	}
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekKeyword("BEGIN"):
		p.pos++
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case p.peekKeyword("COMMIT"):
		p.pos++
		return &CommitStmt{}, nil
	case p.peekKeyword("ROLLBACK"):
		p.pos++
		return &RollbackStmt{}, nil
	default:
		return nil, p.errf("unexpected statement start %q", p.cur().text)
	}
}

// --- SELECT ---

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFromClause()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// qualifier.* form
	if p.cur().kind == tokIdent || p.cur().kind == tokQIdent {
		save := p.pos
		name := p.cur().text
		p.pos++
		if p.accept(tokOp, ".") && p.accept(tokOp, "*") {
			return SelectItem{Star: true, StarQualifier: name}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().kind == tokIdent || p.cur().kind == tokQIdent {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

// parseFromClause parses comma-separated table refs (implicit cross joins)
// and explicit JOIN chains into a left-deep Join tree.
func (p *Parser) parseFromClause() (TableRef, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOp, ",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &Join{Kind: JoinCross, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseJoinChain() (TableRef, error) {
	left, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	for {
		kind := JoinInner
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.acceptKeyword("CROSS"):
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		j := &Join{Kind: kind, Left: left, Right: right}
		if kind != JoinCross {
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parseTableRef() (TableRef, error) {
	// TABLE(fn(...)) AS alias (col type, ...)
	if p.peekKeyword("TABLE") {
		return p.parseTableFunc()
	}
	// ( subselect ) AS alias
	if p.accept(tokOp, "(") {
		if !p.peekKeyword("SELECT") {
			return nil, p.errf("expected SELECT in parenthesized table reference")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel}
		p.acceptKeyword("AS")
		if p.cur().kind == tokIdent || p.cur().kind == tokQIdent {
			ref.Alias = p.cur().text
			p.pos++
		}
		if ref.Alias == "" {
			return nil, p.errf("subquery in FROM requires an alias")
		}
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	// FOR SYSTEM_TIME AS OF <expr>
	if p.peekKeyword("FOR") {
		save := p.pos
		p.pos++
		if p.acceptKeyword("SYSTEM_TIME") {
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "OF"); err != nil {
				return nil, err
			}
			asOf, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			bt.AsOf = asOf
		} else {
			p.pos = save
		}
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = alias
	} else if p.cur().kind == tokIdent || p.cur().kind == tokQIdent {
		bt.Alias = p.cur().text
		p.pos++
	}
	return bt, nil
}

func (p *Parser) parseTableFunc() (TableRef, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	fnName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	tf := &TableFunc{Name: fnName}
	if !p.accept(tokOp, ")") {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tf.Args = append(tf.Args, arg)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	p.acceptKeyword("AS")
	alias, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tf.Alias = alias
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		tf.Columns = append(tf.Columns, col)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return tf, nil
}

// --- DML ---

func (p *Parser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.accept(tokOp, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: col, Expr: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// --- DDL ---

func (p *Parser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	unique := p.acceptKeyword("UNIQUE")
	ordered := p.acceptKeyword("ORDERED")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique || ordered {
			return nil, p.errf("UNIQUE/ORDERED only apply to CREATE INDEX")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique, ordered)
	case p.acceptKeyword("VIEW"):
		if unique || ordered {
			return nil, p.errf("UNIQUE/ORDERED only apply to CREATE INDEX")
		}
		return p.parseCreateView()
	default:
		return nil, p.errf("expected TABLE, INDEX, or VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ct := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if !p.acceptKeyword("NOT") || !p.acceptKeyword("EXISTS") {
			return nil, p.errf("expected IF NOT EXISTS")
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		case p.acceptKeyword("FOREIGN"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{Columns: cols, RefTable: ref, RefColumns: refCols})
		default:
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			// Inline PRIMARY KEY on a column.
			if p.acceptKeyword("PRIMARY") {
				if _, err := p.expect(tokKeyword, "KEY"); err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col.Name)
				col.NotNull = true
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WITH") {
		if !p.acceptKeyword("SYSTEM") || !p.acceptKeyword("VERSIONING") {
			return nil, p.errf("expected WITH SYSTEM VERSIONING")
		}
		ct.Temporal = true
	}
	return ct, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	tname, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, p.errf("expected type for column %s", name)
	}
	kind, ok := TypeFromName(tname)
	if !ok {
		return ColumnDef{}, p.errf("unknown type %q for column %s", tname, name)
	}
	// Optional length, e.g. VARCHAR(100) — parsed and ignored.
	if p.accept(tokOp, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return ColumnDef{}, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return ColumnDef{}, err
		}
	}
	col := ColumnDef{Name: name, Type: kind}
	if p.acceptKeyword("NOT") {
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return ColumnDef{}, err
		}
		col.NotNull = true
	}
	return col, nil
}

func (p *Parser) parseParenIdentList() ([]string, error) {
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseCreateIndex(unique, ordered bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseParenIdentList()
	if err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique, Ordered: ordered}, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cv := &CreateViewStmt{Name: name}
	if p.cur().kind == tokOp && p.cur().text == "(" {
		cols, err := p.parseParenIdentList()
		if err != nil {
			return nil, err
		}
		cv.Columns = cols
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	// Capture the original SELECT text so views re-plan on each reference.
	start := p.cur().pos
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	end := len(p.input)
	if !p.atEOF() {
		end = p.cur().pos
	}
	cv.Select = sel
	cv.Query = strings.TrimRight(strings.TrimSpace(p.input[start:end]), ";")
	return cv, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	var kind string
	switch {
	case p.acceptKeyword("TABLE"):
		kind = "TABLE"
	case p.acceptKeyword("VIEW"):
		kind = "VIEW"
	case p.acceptKeyword("INDEX"):
		kind = "INDEX"
	default:
		return nil, p.errf("expected TABLE, VIEW, or INDEX after DROP")
	}
	d := &DropStmt{Kind: kind}
	if p.acceptKeyword("IF") {
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("expected IF EXISTS")
		}
		d.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

// --- Expressions (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Not: not}, nil
	}
	not := false
	if p.peekKeyword("NOT") {
		// Lookahead for NOT IN / NOT LIKE / NOT BETWEEN.
		save := p.pos
		p.pos++
		if p.peekKeyword("IN") || p.peekKeyword("LIKE") || p.peekKeyword("BETWEEN") {
			not = true
		} else {
			p.pos = save
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, Not: not}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Expr: left, Pattern: pat, Not: not}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
	}
	ops := map[string]BinaryOp{"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	if t := p.cur(); t.kind == tokOp {
		if op, ok := ops[t.text]; ok {
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp {
			return left, nil
		}
		var op BinaryOp
		switch t.text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Kind {
			case types.KindInt:
				return &Literal{Value: types.NewInt(-lit.Value.I)}, nil
			case types.KindFloat:
				return &Literal{Value: types.NewFloat(-lit.Value.F)}, nil
			}
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return &Literal{Value: types.NewInt(n)}, nil
	case tokString:
		p.pos++
		return &Literal{Value: types.NewString(t.text)}, nil
	case tokParam:
		p.pos++
		e := &Param{Index: p.params}
		p.params++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Literal{Value: types.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Value: types.NewBool(false)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokOp:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token %q in expression", t.text)
	case tokIdent, tokQIdent:
		name := t.text
		p.pos++
		// Function call?
		if p.accept(tokOp, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.accept(tokOp, "*") {
				fc.Star = true
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptKeyword("DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(tokOp, ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.accept(tokOp, ",") {
						break
					}
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}
