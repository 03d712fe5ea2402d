package core

import (
	"math"
	"strings"
	"testing"

	"db2graph/internal/overlay"
	"db2graph/internal/sql/types"
)

// refDecomposeID is the per-table id decomposition the compiled codecs
// replaced, kept as their independent oracle: split and unescape with
// overlay.DecomposeID, match constants, and coerce each column part to the
// column's type looked up by name.
func refDecomposeID(g *Graph, table string, expr overlay.IDExpr, id string) ([]any, bool) {
	parts := overlay.DecomposeID(id)
	if len(parts) != len(expr.Terms) {
		return nil, false
	}
	var out []any
	for i, term := range expr.Terms {
		if term.IsConst {
			if parts[i] != term.Const {
				return nil, false
			}
			continue
		}
		out = append(out, refCoerceIDPart(g, table, term.Column, parts[i]))
	}
	return out, true
}

// refCoerceIDPart converts a decomposed id part to the column's type so SQL
// equality behaves (ids travel as strings; columns are usually BIGINT).
func refCoerceIDPart(g *Graph, table, col, part string) any {
	kind := g.columnType(table, col)
	v := types.NewString(part)
	if kind != types.KindNull && kind != types.KindString {
		if cv, err := types.CoerceTo(v, kind); err == nil {
			return cv
		}
	}
	return v
}

// codecOracleGraph carries just the column types the codecs resolve
// against: one column of each kind, and mixed-case names in the
// expressions below, since lookups ignore case.
func codecOracleGraph() *Graph {
	return &Graph{colTypes: map[string]map[string]types.Kind{
		"t": {"n": types.KindInt, "s": types.KindString, "f": types.KindFloat, "b": types.KindBool},
	}}
}

// codecOracleExprs covers every codec shape: each column kind, a column the
// table lacks (no coercion), constant prefixes, suffixes and infixes, a
// composite of columns and an all-constant expression.
var codecOracleExprs = []string{
	"n", "N", "s", "f", "b", "missing",
	"'p'::n", "n::'p'", "n::s", "'p'::n::'q'", "n::'mid'::s", "'x'", "'a:b'::n",
}

var codecOracleIDs = []string{
	// bare ints, including ones BIGINT cannot parse
	"1", "-7", "007", "+3", " 1", "9223372036854775807", "9223372036854775808", "0x10", "1.5",
	// non-numeric parts, which keep the string fallback
	"abc", "x", "mid", "true", "NaN", "-0", "Inf",
	// '::' composites of every arity
	"1::2", "p::1", "p::abc", "q::1", "1::p", "p::1::q", "p::1::r", "1::mid::z",
	"1::mid::z::w", "a%3Ab::1", "1::x::2::y",
	// escapes: %3A is ':', %25 is '%'; malformed ones stay literal
	"%3A", "a%3Ab", "%25", "%253A", "%2", "%", "p%3A::1", "1%3A%3A2", "a%3Ab",
	// empty parts
	"", "::", "::::", "1::", "::1", "p::", "x::", "1:::2", ":", "1::::2",
}

// TestIDCodecMatchesReference checks every compiled codec against the
// reference decomposition on every id: same match verdict and, on a match,
// the same bound values with identical kinds.
func TestIDCodecMatchesReference(t *testing.T) {
	g := codecOracleGraph()
	ic := newIDCompiler(g)
	for _, src := range codecOracleExprs {
		expr, err := overlay.ParseIDExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		x := ic.compile("T", expr)
		for _, id := range codecOracleIDs {
			checkCodec(t, g, x, expr, src, id)
		}
	}
}

// TestIDCodecInterning checks that expressions decoding alike share a codec
// and that the same columns restricted alike share an access.
func TestIDCodecInterning(t *testing.T) {
	g := &Graph{colTypes: map[string]map[string]types.Kind{
		"a": {"id1": types.KindInt, "id2": types.KindInt, "name": types.KindString},
		"b": {"id1": types.KindInt, "src": types.KindInt},
	}}
	ic := newIDCompiler(g)
	parse := func(s string) overlay.IDExpr {
		e, err := overlay.ParseIDExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a1, b1 := ic.compile("a", parse("id1")), ic.compile("b", parse("id1"))
	if a1 != b1 {
		t.Fatal("id1 in two tables of the same kind compiled to two accesses")
	}
	a2, bs := ic.compile("a", parse("id2")), ic.compile("b", parse("src"))
	if a2 == a1 || a2.codec != a1.codec || bs.codec != a1.codec {
		t.Fatal("BIGINT columns must share one codec but keep their own accesses")
	}
	if name := ic.compile("a", parse("name")); name.codec == a1.codec {
		t.Fatal("a VARCHAR column shares a BIGINT column's codec")
	}
	if p := ic.compile("a", parse("'p'::id1")); p.codec == a1.codec || p.cols[0] != "id1" {
		t.Fatal("a constant prefix must change the codec")
	}
}

func checkCodec(t *testing.T, g *Graph, x *idAccess, expr overlay.IDExpr, src, id string) {
	t.Helper()
	want, wantOK := refDecomposeID(g, "T", expr, id)
	got, gotOK := x.codec.decode([]types.Value{types.NewString("sentinel")}, id)
	if gotOK != wantOK {
		t.Fatalf("%s on %q: codec ok=%v, reference ok=%v", src, id, gotOK, wantOK)
	}
	if got[0] != types.NewString("sentinel") || (!gotOK && len(got) != 1) {
		t.Fatalf("%s on %q: codec clobbered or leaked into dst: %v", src, id, got)
	}
	if !gotOK {
		return
	}
	got = got[1:]
	if len(got) != len(want) || len(got) != x.codec.ncols {
		t.Fatalf("%s on %q: codec bound %v, reference %v", src, id, got, want)
	}
	for i := range got {
		gv, wv := got[i], want[i].(types.Value)
		if gv.Kind != wv.Kind || gv.I != wv.I || gv.S != wv.S || math.Float64bits(gv.F) != math.Float64bits(wv.F) {
			t.Fatalf("%s on %q: value %d is %#v, reference %#v", src, id, i, gv, wv)
		}
	}
}

// FuzzIDCodec holds the codec to the reference decomposition on arbitrary
// ids, against every expression shape.
func FuzzIDCodec(f *testing.F) {
	for _, id := range codecOracleIDs {
		f.Add(id)
	}
	g := codecOracleGraph()
	ic := newIDCompiler(g)
	type compiled struct {
		src  string
		expr overlay.IDExpr
		x    *idAccess
	}
	var all []compiled
	bySrc := map[string]compiled{}
	for _, src := range codecOracleExprs {
		expr, err := overlay.ParseIDExpr(src)
		if err != nil {
			f.Fatal(err)
		}
		c := compiled{src, expr, ic.compile("T", expr)}
		all = append(all, c)
		bySrc[src] = c
	}
	pq, mid := bySrc["'p'::n::'q'"], bySrc["n::'mid'::s"]
	f.Fuzz(func(t *testing.T, id string) {
		for _, c := range all {
			checkCodec(t, g, c.x, c.expr, c.src, id)
		}
		// Ids built from the expression's own constants reach the deeper
		// match paths that random bytes rarely do.
		checkCodec(t, g, pq.x, pq.expr, pq.src, "p::"+id+"::q")
		checkCodec(t, g, mid.x, mid.expr, mid.src, strings.ReplaceAll(id, "|", "::mid::"))
	})
}
