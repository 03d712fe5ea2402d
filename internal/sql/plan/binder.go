// Package plan turns parsed SQL statements into executable operator trees.
// It performs name resolution, view expansion, predicate pushdown into
// scans, index selection (primary key, hash, IN-list multi-probe, and
// ordered range access), join algorithm choice, and aggregate rewriting.
package plan

import (
	"fmt"
	"strings"

	"db2graph/internal/sql/exec"
	"db2graph/internal/sql/parser"
	"db2graph/internal/sql/types"
)

// binder resolves column references against an environment (the concatenated
// output schema of the input operators).
type binder struct {
	env []exec.Column
}

// lookup resolves a (qualifier, name) pair to a column ordinal.
func (b *binder) lookup(qualifier, name string) (int, error) {
	found := -1
	for i, c := range b.env {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column reference %q", refName(qualifier, name))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", refName(qualifier, name))
	}
	return found, nil
}

func refName(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// columnType returns the declared type of column i.
func (b *binder) columnType(i int) types.Kind { return b.env[i].Type }

// compile turns an AST expression into an executable closure. Aggregate
// function calls are rejected here; the planner rewrites them before
// compilation.
func (b *binder) compile(e parser.Expr) (exec.ExprFn, types.Kind, error) {
	switch x := e.(type) {
	case *parser.Literal:
		v := x.Value
		return func(_ []types.Value, _ *exec.Params) (types.Value, error) { return v, nil }, v.Kind, nil

	case *parser.Param:
		idx := x.Index
		return func(_ []types.Value, params *exec.Params) (types.Value, error) {
			if params == nil || idx >= len(params.Vals) {
				return types.Null, fmt.Errorf("sql: missing value for parameter %d", idx+1)
			}
			return params.Vals[idx], nil
		}, types.KindNull, nil

	case *parser.ColumnRef:
		i, err := b.lookup(x.Qualifier, x.Name)
		if err != nil {
			return nil, 0, err
		}
		kind := b.columnType(i)
		return func(row []types.Value, _ *exec.Params) (types.Value, error) {
			if i >= len(row) {
				return types.Null, fmt.Errorf("sql: row too short for column %d", i)
			}
			return row[i], nil
		}, kind, nil

	case *parser.UnaryExpr:
		inner, kind, err := b.compile(x.Expr)
		if err != nil {
			return nil, 0, err
		}
		switch x.Op {
		case "NOT":
			return func(row []types.Value, params *exec.Params) (types.Value, error) {
				v, err := inner(row, params)
				if err != nil {
					return types.Null, err
				}
				if v.IsNull() {
					return types.Null, nil
				}
				return types.NewBool(!v.Bool()), nil
			}, types.KindBool, nil
		case "-":
			return func(row []types.Value, params *exec.Params) (types.Value, error) {
				v, err := inner(row, params)
				if err != nil || v.IsNull() {
					return types.Null, err
				}
				switch v.Kind {
				case types.KindInt:
					return types.NewInt(-v.I), nil
				case types.KindFloat:
					return types.NewFloat(-v.F), nil
				default:
					return types.Null, fmt.Errorf("sql: cannot negate %s", v.Kind)
				}
			}, kind, nil
		default:
			return nil, 0, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}

	case *parser.BinaryExpr:
		return b.compileBinary(x)

	case *parser.InExpr:
		itemFn, _, err := b.compile(x.Expr)
		if err != nil {
			return nil, 0, err
		}
		list := make([]exec.ExprFn, len(x.List))
		for i, le := range x.List {
			fn, _, err := b.compile(le)
			if err != nil {
				return nil, 0, err
			}
			list[i] = fn
		}
		not := x.Not
		listParam := inListParam(x)
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := itemFn(row, params)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			if vals, ok := params.List(listParam); ok {
				for _, lv := range vals {
					if types.Equal(v, lv) {
						return types.NewBool(!not), nil
					}
				}
				return types.NewBool(not), nil
			}
			for _, fn := range list {
				lv, err := fn(row, params)
				if err != nil {
					return types.Null, err
				}
				if types.Equal(v, lv) {
					return types.NewBool(!not), nil
				}
			}
			return types.NewBool(not), nil
		}, types.KindBool, nil

	case *parser.IsNullExpr:
		inner, _, err := b.compile(x.Expr)
		if err != nil {
			return nil, 0, err
		}
		not := x.Not
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := inner(row, params)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}, types.KindBool, nil

	case *parser.LikeExpr:
		inner, _, err := b.compile(x.Expr)
		if err != nil {
			return nil, 0, err
		}
		patFn, _, err := b.compile(x.Pattern)
		if err != nil {
			return nil, 0, err
		}
		not := x.Not
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := inner(row, params)
			if err != nil {
				return types.Null, err
			}
			p, err := patFn(row, params)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || p.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(likeMatch(v.Text(), p.Text()) != not), nil
		}, types.KindBool, nil

	case *parser.BetweenExpr:
		inner, _, err := b.compile(x.Expr)
		if err != nil {
			return nil, 0, err
		}
		loFn, _, err := b.compile(x.Lo)
		if err != nil {
			return nil, 0, err
		}
		hiFn, _, err := b.compile(x.Hi)
		if err != nil {
			return nil, 0, err
		}
		not := x.Not
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := inner(row, params)
			if err != nil {
				return types.Null, err
			}
			lo, err := loFn(row, params)
			if err != nil {
				return types.Null, err
			}
			hi, err := hiFn(row, params)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return types.Null, nil
			}
			in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
			return types.NewBool(in != not), nil
		}, types.KindBool, nil

	case *parser.FuncCall:
		if x.IsAggregate() {
			return nil, 0, fmt.Errorf("sql: aggregate %s is not allowed here", x.Name)
		}
		return b.compileScalarFunc(x)

	default:
		return nil, 0, fmt.Errorf("sql: cannot compile expression %T", e)
	}
}

func (b *binder) compileBinary(x *parser.BinaryExpr) (exec.ExprFn, types.Kind, error) {
	lf, lk, err := b.compile(x.Left)
	if err != nil {
		return nil, 0, err
	}
	rf, rk, err := b.compile(x.Right)
	if err != nil {
		return nil, 0, err
	}
	op := x.Op
	switch op {
	case parser.OpAnd:
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			l, err := lf(row, params)
			if err != nil {
				return types.Null, err
			}
			// Short-circuit: false AND x = false.
			if !l.IsNull() && !l.Bool() {
				return types.NewBool(false), nil
			}
			r, err := rf(row, params)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && !r.Bool() {
				return types.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(true), nil
		}, types.KindBool, nil
	case parser.OpOr:
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			l, err := lf(row, params)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && l.Bool() {
				return types.NewBool(true), nil
			}
			r, err := rf(row, params)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && r.Bool() {
				return types.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(false), nil
		}, types.KindBool, nil
	case parser.OpEq, parser.OpNe, parser.OpLt, parser.OpLe, parser.OpGt, parser.OpGe:
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			l, err := lf(row, params)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(row, params)
			if err != nil {
				return types.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			c := types.Compare(l, r)
			var res bool
			switch op {
			case parser.OpEq:
				res = c == 0
			case parser.OpNe:
				res = c != 0
			case parser.OpLt:
				res = c < 0
			case parser.OpLe:
				res = c <= 0
			case parser.OpGt:
				res = c > 0
			case parser.OpGe:
				res = c >= 0
			}
			return types.NewBool(res), nil
		}, types.KindBool, nil
	case parser.OpConcat:
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			l, err := lf(row, params)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(row, params)
			if err != nil {
				return types.Null, err
			}
			return types.Concat(l, r), nil
		}, types.KindString, nil
	case parser.OpAdd, parser.OpSub, parser.OpMul, parser.OpDiv:
		kind := types.KindInt
		if lk == types.KindFloat || rk == types.KindFloat {
			kind = types.KindFloat
		}
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			l, err := lf(row, params)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(row, params)
			if err != nil {
				return types.Null, err
			}
			switch op {
			case parser.OpAdd:
				return types.Add(l, r)
			case parser.OpSub:
				return types.Sub(l, r)
			case parser.OpMul:
				return types.Mul(l, r)
			default:
				return types.Div(l, r)
			}
		}, kind, nil
	default:
		return nil, 0, fmt.Errorf("sql: unknown binary operator %v", op)
	}
}

func (b *binder) compileScalarFunc(x *parser.FuncCall) (exec.ExprFn, types.Kind, error) {
	args := make([]exec.ExprFn, len(x.Args))
	for i, a := range x.Args {
		fn, _, err := b.compile(a)
		if err != nil {
			return nil, 0, err
		}
		args[i] = fn
	}
	requireArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: function %s expects %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "UPPER", "LOWER":
		if err := requireArgs(1); err != nil {
			return nil, 0, err
		}
		upper := x.Name == "UPPER"
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := args[0](row, params)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			if upper {
				return types.NewString(strings.ToUpper(v.Text())), nil
			}
			return types.NewString(strings.ToLower(v.Text())), nil
		}, types.KindString, nil
	case "LENGTH":
		if err := requireArgs(1); err != nil {
			return nil, 0, err
		}
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := args[0](row, params)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			return types.NewInt(int64(len(v.Text()))), nil
		}, types.KindInt, nil
	case "ABS":
		if err := requireArgs(1); err != nil {
			return nil, 0, err
		}
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			v, err := args[0](row, params)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			switch v.Kind {
			case types.KindInt:
				if v.I < 0 {
					return types.NewInt(-v.I), nil
				}
				return v, nil
			case types.KindFloat:
				if v.F < 0 {
					return types.NewFloat(-v.F), nil
				}
				return v, nil
			default:
				return types.Null, fmt.Errorf("sql: ABS of non-numeric value")
			}
		}, types.KindFloat, nil
	case "COALESCE":
		if len(args) == 0 {
			return nil, 0, fmt.Errorf("sql: COALESCE requires at least one argument")
		}
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			for _, fn := range args {
				v, err := fn(row, params)
				if err != nil {
					return types.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return types.Null, nil
		}, types.KindNull, nil
	case "MOD":
		if err := requireArgs(2); err != nil {
			return nil, 0, err
		}
		return func(row []types.Value, params *exec.Params) (types.Value, error) {
			a, err := args[0](row, params)
			if err != nil || a.IsNull() {
				return types.Null, err
			}
			c, err := args[1](row, params)
			if err != nil || c.IsNull() {
				return types.Null, err
			}
			ai, ok1 := a.Int()
			ci, ok2 := c.Int()
			if !ok1 || !ok2 || ci == 0 {
				return types.Null, fmt.Errorf("sql: invalid MOD arguments")
			}
			return types.NewInt(ai % ci), nil
		}, types.KindInt, nil
	default:
		return nil, 0, fmt.Errorf("sql: unknown function %s", x.Name)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char).
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matching with backtracking on %.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			match = si
			pi++
		} else if star >= 0 {
			pi = star + 1
			match++
			si = match
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// inListParam returns the index of the ? marker that is the whole operand
// of an IN list (the one place a marker may be bound to a list), or -1.
func inListParam(x *parser.InExpr) int {
	if len(x.List) == 1 {
		if p, ok := x.List[0].(*parser.Param); ok {
			return p.Index
		}
	}
	return -1
}

// exprKey renders an expression to a canonical string for structural
// equality tests (GROUP BY matching, aggregate dedup).
func exprKey(e parser.Expr) string {
	switch x := e.(type) {
	case *parser.Literal:
		return "lit:" + x.Value.String()
	case *parser.Param:
		return fmt.Sprintf("param:%d", x.Index)
	case *parser.ColumnRef:
		return "col:" + strings.ToLower(refName(x.Qualifier, x.Name))
	case *parser.UnaryExpr:
		return x.Op + "(" + exprKey(x.Expr) + ")"
	case *parser.BinaryExpr:
		return "(" + exprKey(x.Left) + x.Op.String() + exprKey(x.Right) + ")"
	case *parser.InExpr:
		parts := make([]string, len(x.List))
		for i, le := range x.List {
			parts[i] = exprKey(le)
		}
		neg := ""
		if x.Not {
			neg = "not "
		}
		return exprKey(x.Expr) + " " + neg + "in(" + strings.Join(parts, ",") + ")"
	case *parser.IsNullExpr:
		if x.Not {
			return exprKey(x.Expr) + " is not null"
		}
		return exprKey(x.Expr) + " is null"
	case *parser.LikeExpr:
		return exprKey(x.Expr) + " like " + exprKey(x.Pattern)
	case *parser.BetweenExpr:
		return exprKey(x.Expr) + " between " + exprKey(x.Lo) + " and " + exprKey(x.Hi)
	case *parser.FuncCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = exprKey(a)
		}
		star := ""
		if x.Star {
			star = "*"
		}
		dist := ""
		if x.Distinct {
			dist = "distinct "
		}
		return x.Name + "(" + dist + star + strings.Join(parts, ",") + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// exprColumns returns the ordinals (resolved against b.env) of every column
// referenced by e. Errors propagate from ambiguous/unknown references.
func (b *binder) exprColumns(e parser.Expr) ([]int, error) {
	var out []int
	var walk func(e parser.Expr) error
	walk = func(e parser.Expr) error {
		switch x := e.(type) {
		case nil:
			return nil
		case *parser.Literal, *parser.Param:
			return nil
		case *parser.ColumnRef:
			i, err := b.lookup(x.Qualifier, x.Name)
			if err != nil {
				return err
			}
			out = append(out, i)
			return nil
		case *parser.UnaryExpr:
			return walk(x.Expr)
		case *parser.BinaryExpr:
			if err := walk(x.Left); err != nil {
				return err
			}
			return walk(x.Right)
		case *parser.InExpr:
			if err := walk(x.Expr); err != nil {
				return err
			}
			for _, le := range x.List {
				if err := walk(le); err != nil {
					return err
				}
			}
			return nil
		case *parser.IsNullExpr:
			return walk(x.Expr)
		case *parser.LikeExpr:
			if err := walk(x.Expr); err != nil {
				return err
			}
			return walk(x.Pattern)
		case *parser.BetweenExpr:
			if err := walk(x.Expr); err != nil {
				return err
			}
			if err := walk(x.Lo); err != nil {
				return err
			}
			return walk(x.Hi)
		case *parser.FuncCall:
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("sql: cannot analyze expression %T", e)
		}
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return out, nil
}

// containsAggregate reports whether e contains an aggregate function call.
func containsAggregate(e parser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *parser.FuncCall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
		return false
	case *parser.UnaryExpr:
		return containsAggregate(x.Expr)
	case *parser.BinaryExpr:
		return containsAggregate(x.Left) || containsAggregate(x.Right)
	case *parser.InExpr:
		if containsAggregate(x.Expr) {
			return true
		}
		for _, le := range x.List {
			if containsAggregate(le) {
				return true
			}
		}
		return false
	case *parser.IsNullExpr:
		return containsAggregate(x.Expr)
	case *parser.LikeExpr:
		return containsAggregate(x.Expr) || containsAggregate(x.Pattern)
	case *parser.BetweenExpr:
		return containsAggregate(x.Expr) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	default:
		return false
	}
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e parser.Expr) []parser.Expr {
	if b, ok := e.(*parser.BinaryExpr); ok && b.Op == parser.OpAnd {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []parser.Expr{e}
}
