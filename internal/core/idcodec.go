package core

import (
	"strconv"
	"strings"

	"db2graph/internal/overlay"
	"db2graph/internal/sql/types"
)

// This file compiles the overlay's id expressions once, at Open, into the
// access path every id-restricted fetch shares. Section 6.3's runtime
// optimizations exist to generate less SQL; this makes generating it cheap.
// An idCodec decodes an id value into the coerced column values its
// expression binds; an idAccess pairs a codec with the expression's column
// names and the WHERE fragment rendered from them. A backend call decodes
// its id list once per distinct codec (idMemo), and every table whose
// expression shares the codec binds the same decoded list.

// idCodec is an id expression with everything but the id value resolved:
// its arity, its constant terms and the kind each column term coerces to.
// Codecs are interned by that signature, so expressions that decode alike
// (the ten LinkBench link tables' id1) share one.
type idCodec struct {
	terms []codecTerm
	ncols int // column terms: values bound per matching id
}

// codecTerm is one compiled id-expression term.
type codecTerm struct {
	isConst bool
	konst   string
	kind    types.Kind // column terms: the column's kind (KindNull: unknown)
}

// decode appends the column values id binds to dst. ok is false, and dst
// comes back at its original length, when the arity or a constant term does
// not match. Parts split on '::' and unescape only when they contain '%',
// exactly as overlay.DecomposeID would.
func (c *idCodec) decode(dst []types.Value, id string) ([]types.Value, bool) {
	switch len(c.terms) {
	case 0:
		return dst, false
	case 1:
		if strings.Contains(id, "::") {
			return dst, false
		}
		return c.terms[0].bind(dst, id)
	}
	start := len(dst)
	rest := id
	last := len(c.terms) - 1
	for i := range c.terms {
		part := rest
		if i < last {
			j := strings.Index(rest, "::")
			if j < 0 {
				return dst[:start], false
			}
			part, rest = rest[:j], rest[j+2:]
		} else if strings.Contains(rest, "::") {
			return dst[:start], false
		}
		var ok bool
		if dst, ok = c.terms[i].bind(dst, part); !ok {
			return dst[:start], false
		}
	}
	return dst, true
}

// bind matches one escaped id part against the term: a constant must equal
// it, a column term appends the part coerced to the column's kind. A part
// the kind cannot parse stays a string, so SQL equality simply fails.
func (t *codecTerm) bind(dst []types.Value, raw string) ([]types.Value, bool) {
	part := raw
	if strings.IndexByte(raw, '%') >= 0 {
		part = overlay.UnescapePart(raw)
	}
	if t.isConst {
		return dst, part == t.konst
	}
	v := types.NewString(part)
	if t.kind != types.KindNull && t.kind != types.KindString {
		if cv, err := types.CoerceTo(v, t.kind); err == nil {
			v = cv
		}
	}
	return append(dst, v), true
}

// idAccess is one id expression bound for SQL: its interned codec, the
// columns its column terms name, and the fragment rendered from them.
// Accesses are interned by codec and column names, so every table that
// restricts the same column the same way shares one fragment.
type idAccess struct {
	codec *idCodec
	cols  []string
	// fragment is "col IN (?)" for one column term, or one id's
	// conjunction "(c1 = ? AND c2 = ?)" for several.
	fragment string
}

// restrict restricts b to the ids in m that x can decode, marking the
// restricted columns for the index advisor. It reports false when no id
// can belong to the mapping (table skippable).
func (x *idAccess) restrict(b *sqlBuilder, m *idMemo) bool {
	if !x.where(b, m.decode(x.codec)) {
		return false
	}
	b.eqCols = append(b.eqCols, x.cols...)
	return true
}

// where adds to b the restriction matching any decoded id and reports
// whether some id can match at all (false: the table is skippable). It adds
// nothing when an all-constant expression matches. A single column binds
// the decoded values as one list to "col IN (?)", so every fan-out shares
// one statement; several columns become OR'd conjunctions.
func (x *idAccess) where(b *sqlBuilder, d decodedIDs) bool {
	switch {
	case d.n == 0:
		return false
	case len(x.cols) == 0:
		return true
	case len(x.cols) == 1:
		b.addWhere(x.fragment, d.vals)
	default:
		b.addWhere("(" + strings.Repeat(x.fragment+" OR ", d.n-1) + x.fragment + ")")
		for _, v := range d.vals {
			b.params = append(b.params, v)
		}
	}
	return true
}

// decodedIDs is an id list decoded by one codec: the column values of the
// n ids that matched, codec.ncols values each, in id order.
type decodedIDs struct {
	codec *idCodec
	vals  []types.Value
	n     int
}

// idMemo decodes one backend call's id list at most once per distinct
// codec and lends the result to every table whose expression shares it.
// A call meets one or two codecs, so a slice is searched instead of a map.
type idMemo struct {
	ids  []string
	done []decodedIDs
}

// decode returns the memo's id list decoded by c.
func (m *idMemo) decode(c *idCodec) decodedIDs {
	for _, d := range m.done {
		if d.codec == c {
			return d
		}
	}
	d := decodedIDs{codec: c}
	if c.ncols > 0 {
		d.vals = make([]types.Value, 0, len(m.ids)*c.ncols)
	}
	for _, id := range m.ids {
		var ok bool
		if d.vals, ok = c.decode(d.vals, id); ok {
			d.n++
		}
	}
	m.done = append(m.done, d)
	return d
}

// idCompiler interns codecs and accesses while Open compiles the overlay.
type idCompiler struct {
	g        *Graph
	codecs   map[string]*idCodec
	accesses map[string]*idAccess
}

func newIDCompiler(g *Graph) *idCompiler {
	return &idCompiler{g: g, codecs: map[string]*idCodec{}, accesses: map[string]*idAccess{}}
}

// compile resolves expr against table's column kinds and returns the
// interned access for it.
func (ic *idCompiler) compile(table string, expr overlay.IDExpr) *idAccess {
	c := &idCodec{terms: make([]codecTerm, len(expr.Terms))}
	var sig strings.Builder
	var cols []string
	for i, t := range expr.Terms {
		if t.IsConst {
			c.terms[i] = codecTerm{isConst: true, konst: t.Const}
			sig.WriteString("c" + strconv.Quote(t.Const))
			continue
		}
		kind := ic.g.columnType(table, t.Column)
		c.terms[i] = codecTerm{kind: kind}
		c.ncols++
		cols = append(cols, t.Column)
		sig.WriteString("k" + strconv.Itoa(int(kind)))
	}
	codecKey := sig.String()
	if have := ic.codecs[codecKey]; have != nil {
		c = have
	} else {
		ic.codecs[codecKey] = c
	}
	for _, col := range cols {
		sig.WriteString("|" + strconv.Quote(col))
	}
	if x := ic.accesses[sig.String()]; x != nil {
		return x
	}
	x := &idAccess{codec: c, cols: cols}
	if len(cols) == 1 {
		x.fragment = cols[0] + " IN (?)"
	} else if len(cols) > 1 {
		conj := make([]string, len(cols))
		for i, col := range cols {
			conj[i] = col + " = ?"
		}
		x.fragment = "(" + strings.Join(conj, " AND ") + ")"
	}
	ic.accesses[sig.String()] = x
	return x
}
