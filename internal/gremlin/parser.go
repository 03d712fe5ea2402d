package gremlin

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// --- Lexer ---

type gtokKind int

const (
	gtokEOF gtokKind = iota
	gtokIdent
	gtokString
	gtokNumber
	gtokPunct // . ( ) , ; = == != >= <= > <
)

type gtok struct {
	kind gtokKind
	text string
	pos  int
}

// lexGremlin tokenizes input into dst's storage, which it reuses when large
// enough for maxTokens(input) tokens.
func lexGremlin(dst []gtok, input string) ([]gtok, error) {
	toks := dst[:0]
	if n := maxTokens(input); cap(toks) < n {
		toks = make([]gtok, 0, n)
	}
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(input) && input[i+1] == '/':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			// A literal without escapes is a substring of the input.
			if end := strings.IndexByte(input[i:], quote); end >= 0 && strings.IndexByte(input[i:i+end], '\\') < 0 {
				toks = append(toks, gtok{kind: gtokString, text: input[i : i+end], pos: start})
				i += end + 1
				continue
			}
			var sb strings.Builder
			for {
				if i >= len(input) {
					return nil, fmt.Errorf("gremlin: unterminated string at offset %d", start)
				}
				ch := input[i]
				if ch == '\\' && i+1 < len(input) {
					i += 2
					sb.WriteByte(input[i-1])
					continue
				}
				if ch == quote {
					i++
					break
				}
				sb.WriteByte(ch)
				i++
			}
			toks = append(toks, gtok{kind: gtokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9' || (c == '-' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			i++
			for i < len(input) && (input[i] >= '0' && input[i] <= '9' || input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '+' || input[i] == '-') && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			// Trailing L suffix (Groovy long literals).
			text := input[start:i]
			if i < len(input) && (input[i] == 'L' || input[i] == 'l') {
				i++
			}
			toks = append(toks, gtok{kind: gtokNumber, text: text, pos: start})
		case isGIdentStart(rune(c)):
			start := i
			for i < len(input) && isGIdentPart(rune(input[i])) {
				i++
			}
			toks = append(toks, gtok{kind: gtokIdent, text: input[start:i], pos: start})
		default:
			start := i
			two := ""
			if i+1 < len(input) {
				two = input[i : i+2]
			}
			switch two {
			case "==", "!=", ">=", "<=":
				toks = append(toks, gtok{kind: gtokPunct, text: two, pos: start})
				i += 2
				continue
			}
			switch c {
			case '.', '(', ')', ',', ';', '=', '>', '<':
				toks = append(toks, gtok{kind: gtokPunct, text: string(c), pos: start})
				i++
			default:
				return nil, fmt.Errorf("gremlin: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, gtok{kind: gtokEOF, pos: len(input)})
	return toks, nil
}

// maxTokens bounds from above the number of tokens lexGremlin makes of
// input, so the token slice is sized once: every token starts a run of
// word bytes, is a punctuation byte, or is a string literal, which counts
// once however many bytes it spans.
func maxTokens(input string) int {
	n := 1 // EOF
	word := false
	for i := 0; i < len(input); i++ {
		c := input[i]
		switch {
		case c == '\'' || c == '"':
			n++
			word = false
			for i++; i < len(input) && input[i] != c; i++ {
				if input[i] == '\\' {
					i++
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			word = false
		case c == '_' || c == '$' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80:
			if !word {
				n++
			}
			word = true
		default:
			n++
			word = false
		}
	}
	return n
}

func isGIdentStart(r rune) bool { return r == '_' || r == '$' || unicode.IsLetter(r) }
func isGIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// --- Parser ---

// gparser parses Gremlin traversal text into step plans.
type gparser struct {
	toks []gtok
	pos  int
	env  map[string]any
	// envUsed records that the parse resolved a script variable, splicing an
	// environment value into the plan. Such plans are bound to this
	// execution's environment and must not enter the plan cache.
	envUsed bool

	// paramize enables prepared-traversal normalization: literals at value
	// positions (ids, predicate operands, constants — never structural
	// arguments like labels, property keys, or limit counts) are replaced
	// by parameter markers in the plan and collected into params, and their
	// token indices recorded in paramToks (paramToks[i] is params[i]'s) so
	// the normalized shape key renders them as "?" (see prepared.go).
	paramize  bool
	params    []types.Value
	paramToks []int
}

// paramArg returns the value of a literal argument, substituting a parameter
// marker when normalization is active. Non-literal arguments pass through.
func (p *gparser) paramArg(a parsedArg) types.Value {
	if !p.paramize || !a.isVal {
		return a.value
	}
	idx := len(p.params)
	p.params = append(p.params, a.value)
	p.paramToks = append(p.paramToks, a.tok)
	return types.NewString(paramMarker(idx))
}

func (p *gparser) cur() gtok { return p.toks[p.pos] }

func (p *gparser) errf(format string, args ...any) error {
	return fmt.Errorf("gremlin: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *gparser) acceptPunct(text string) bool {
	if p.cur().kind == gtokPunct && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *gparser) expectPunct(text string) error {
	if !p.acceptPunct(text) {
		return p.errf("expected %q, got %q", text, p.cur().text)
	}
	return nil
}

// ParseTraversal parses Gremlin text like
// "g.V().hasLabel('patient').out('hasDisease')" into a traversal bound to
// src. env supplies script variables referenced by name.
func ParseTraversal(src *Source, input string, env map[string]any) (*Traversal, error) {
	toks, err := lexGremlin(nil, input)
	if err != nil {
		return nil, err
	}
	p := &gparser{toks: toks, env: env}
	tr, _, err := p.parseChain(src, true)
	if err != nil {
		return nil, err
	}
	if p.cur().kind != gtokEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return tr, nil
}

// terminalKind identifies the terminal method closing a chain.
type terminalKind int

const (
	termNone terminalKind = iota
	termNext
	termToList
	termIterate
)

// parseChain parses `g.step()...` (rooted) or `step()...` (anonymous).
// Returns the traversal and any terminal method found.
func (p *gparser) parseChain(src *Source, rooted bool) (*Traversal, terminalKind, error) {
	var tr *Traversal
	if rooted {
		if p.cur().kind != gtokIdent || p.cur().text != "g" {
			return nil, termNone, p.errf("traversal must start with g, got %q", p.cur().text)
		}
		p.pos++
		if err := p.expectPunct("."); err != nil {
			return nil, termNone, err
		}
		name, args, err := p.parseCall(src)
		if err != nil {
			return nil, termNone, err
		}
		ids, err := p.argIDs(args)
		if err != nil {
			return nil, termNone, err
		}
		switch name {
		case "V":
			tr = src.V(ids...)
		case "E":
			tr = src.E(ids...)
		default:
			return nil, termNone, p.errf("traversal must start with g.V() or g.E(), got g.%s()", name)
		}
	} else {
		tr = Anon()
		tr.Src = src
		// Optional leading __ .
		if p.cur().kind == gtokIdent && p.cur().text == "__" {
			p.pos++
			if err := p.expectPunct("."); err != nil {
				return nil, termNone, err
			}
		}
		name, args, err := p.parseCall(src)
		if err != nil {
			return nil, termNone, err
		}
		if err := p.applyStep(src, tr, name, args); err != nil {
			return nil, termNone, err
		}
	}
	for p.acceptPunct(".") {
		name, args, err := p.parseCall(src)
		if err != nil {
			return nil, termNone, err
		}
		switch name {
		case "next":
			return tr, termNext, nil
		case "toList":
			return tr, termToList, nil
		case "iterate":
			return tr, termIterate, nil
		}
		if err := p.applyStep(src, tr, name, args); err != nil {
			return nil, termNone, err
		}
	}
	return tr, termNone, nil
}

// parsedArg is one argument: a literal value, a variable's value, a
// predicate, or a sub-traversal.
type parsedArg struct {
	value  types.Value
	isVal  bool
	raw    any // variable values keep their Go shape (lists etc.)
	isRaw  bool
	pred   *P
	sub    *Traversal
	isDesc bool // order modulators: desc/decr/incr/asc keywords
	name   string
	tok    int // token index of a literal (parameter normalization)
}

// anonStepNames are step names that can begin an anonymous sub-traversal.
var anonStepNames = map[string]bool{
	"out": true, "in": true, "both": true, "outE": true, "inE": true,
	"bothE": true, "outV": true, "inV": true, "bothV": true, "otherV": true,
	"has": true, "hasLabel": true, "hasId": true, "values": true,
	"valueMap": true, "id": true, "label": true, "count": true, "dedup": true,
	"store": true, "limit": true, "order": true, "where": true, "not": true,
	"filter": true, "repeat": true, "union": true, "constant": true,
	"until":  true,
	"select": true, "is": true, "simplePath": true, "path": true, "cap": true,
	"sum": true, "mean": true, "min": true, "max": true, "as": true,
	"groupCount": true, "emit": true, "times": true,
}

// predFns are Gremlin P.* predicate constructors.
var predFns = map[string]graph.PredOp{
	"eq": graph.OpEq, "neq": graph.OpNeq, "lt": graph.OpLt, "lte": graph.OpLte,
	"gt": graph.OpGt, "gte": graph.OpGte, "within": graph.OpWithin,
}

// parseCall parses `name(args...)`.
func (p *gparser) parseCall(src *Source) (string, []parsedArg, error) {
	if p.cur().kind != gtokIdent {
		return "", nil, p.errf("expected step name, got %q", p.cur().text)
	}
	name := p.cur().text
	p.pos++
	if err := p.expectPunct("("); err != nil {
		return "", nil, err
	}
	var args []parsedArg
	if p.acceptPunct(")") {
		return name, args, nil
	}
	for {
		arg, err := p.parseArg(src)
		if err != nil {
			return "", nil, err
		}
		args = append(args, arg)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return "", nil, err
	}
	return name, args, nil
}

func (p *gparser) parseArg(src *Source) (parsedArg, error) {
	t := p.cur()
	tok := p.pos
	if v, ok := literalValue(t); ok {
		p.pos++
		return parsedArg{value: v, isVal: true, tok: tok}, nil
	}
	switch t.kind {
	case gtokNumber:
		p.pos++
		return parsedArg{}, p.errf("bad number %q", t.text)
	case gtokIdent:
		name := t.text
		// Keywords for order modulators.
		switch name {
		case "desc", "decr":
			p.pos++
			return parsedArg{isDesc: true, name: name}, nil
		case "asc", "incr":
			p.pos++
			return parsedArg{name: name}, nil
		}
		// Predicate constructor?
		next := p.toks[p.pos+1]
		if op, isPred := predFns[name]; isPred && next.kind == gtokPunct && next.text == "(" {
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return parsedArg{}, err
			}
			pr := &P{Op: op}
			for {
				a, err := p.parseArg(src)
				if err != nil {
					return parsedArg{}, err
				}
				if !a.isVal {
					return parsedArg{}, p.errf("predicate %s expects literal arguments", name)
				}
				if op == graph.OpWithin {
					pr.Values = append(pr.Values, p.paramArg(a))
				} else {
					pr.Value = p.paramArg(a)
				}
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return parsedArg{}, err
			}
			return parsedArg{pred: pr}, nil
		}
		// Anonymous sub-traversal?
		if (anonStepNames[name] || name == "__") && next.kind == gtokPunct && (next.text == "(" || (name == "__" && next.text == ".")) {
			sub, term, err := p.parseChain(src, false)
			if err != nil {
				return parsedArg{}, err
			}
			if term != termNone {
				return parsedArg{}, p.errf("terminal methods are not allowed inside sub-traversals")
			}
			// Comparison sugar: filter(outV().id() == id2).
			if cmp := p.cur(); cmp.kind == gtokPunct {
				var op graph.PredOp
				matched := true
				switch cmp.text {
				case "==":
					op = graph.OpEq
				case "!=":
					op = graph.OpNeq
				case ">":
					op = graph.OpGt
				case ">=":
					op = graph.OpGte
				case "<":
					op = graph.OpLt
				case "<=":
					op = graph.OpLte
				default:
					matched = false
				}
				if matched {
					p.pos++
					rhs, err := p.parseArg(src)
					if err != nil {
						return parsedArg{}, err
					}
					var v types.Value
					if rhs.isVal {
						v = p.paramArg(rhs)
					} else {
						var ok bool
						v, ok = p.argScalar(rhs)
						if !ok {
							return parsedArg{}, p.errf("comparison requires a literal or variable")
						}
					}
					sub = sub.Is(P{Op: op, Value: v})
				}
			}
			return parsedArg{sub: sub}, nil
		}
		// Variable reference.
		p.pos++
		if p.env != nil {
			if v, ok := p.env[name]; ok {
				p.envUsed = true
				return parsedArg{raw: v, isRaw: true, name: name}, nil
			}
		}
		return parsedArg{}, p.errf("unknown identifier %q", name)
	default:
		return parsedArg{}, p.errf("unexpected token %q in argument list", t.text)
	}
}

// literalValue is the value of a literal token: a string, a number, or
// true/false. ok is false for any other token and for a number that does
// not parse.
func literalValue(t gtok) (types.Value, bool) {
	switch t.kind {
	case gtokString:
		return types.NewString(t.text), true
	case gtokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			return types.NewFloat(f), err == nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		return types.NewInt(n), err == nil
	case gtokIdent:
		switch t.text {
		case "true":
			return types.NewBool(true), true
		case "false":
			return types.NewBool(false), true
		}
	}
	return types.Null, false
}

// argScalar converts an argument to a single scalar value when possible.
func (p *gparser) argScalar(a parsedArg) (types.Value, bool) {
	if a.isVal {
		return a.value, true
	}
	if a.isRaw {
		v, err := types.FromGo(a.raw)
		if err == nil {
			return v, true
		}
		// A single-element list also works as a scalar.
		if list, ok := a.raw.([]any); ok && len(list) == 1 {
			v, err := types.FromGo(list[0])
			if err == nil {
				return v, true
			}
		}
	}
	return types.Null, false
}

// argStrings renders arguments as a string list (labels, property keys).
func argStrings(args []parsedArg) ([]string, error) {
	out := make([]string, 0, len(args))
	for _, a := range args {
		if !a.isVal {
			return nil, fmt.Errorf("gremlin: expected string argument")
		}
		out = append(out, a.value.Text())
	}
	return out, nil
}

// argIDs renders arguments as element ids, flattening variables. Literal ids
// are value positions: under paramize they become parameter markers (the
// markers flow through toIDList into Query.IDs / HasStep preds as strings,
// where bindParams substitutes them back).
func (p *gparser) argIDs(args []parsedArg) ([]any, error) {
	var out []any
	for _, a := range args {
		switch {
		case a.isVal:
			out = append(out, p.paramArg(a))
		case a.isRaw:
			out = append(out, a.raw)
		default:
			return nil, fmt.Errorf("gremlin: expected id argument")
		}
	}
	return out, nil
}

// applyStep appends a parsed step to the traversal.
func (p *gparser) applyStep(src *Source, tr *Traversal, name string, args []parsedArg) error {
	switch name {
	case "V", "E":
		return p.errf("%s() is only valid at the start of a rooted traversal", name)
	case "out", "in", "both", "outE", "inE", "bothE":
		labels, err := argStrings(args)
		if err != nil {
			return err
		}
		switch name {
		case "out":
			tr.Out(labels...)
		case "in":
			tr.In(labels...)
		case "both":
			tr.Both(labels...)
		case "outE":
			tr.OutE(labels...)
		case "inE":
			tr.InE(labels...)
		case "bothE":
			tr.BothE(labels...)
		}
	case "outV":
		tr.OutV()
	case "inV":
		tr.InV()
	case "bothV":
		tr.BothV()
	case "otherV":
		tr.OtherV()
	case "has":
		switch len(args) {
		case 1:
			if !args[0].isVal {
				return p.errf("has() expects a property name")
			}
			tr.HasKey(args[0].value.Text())
		case 2:
			if !args[0].isVal {
				return p.errf("has() expects a property name")
			}
			key := args[0].value.Text()
			if args[1].pred != nil {
				tr.HasP(key, *args[1].pred)
			} else if args[1].isVal {
				tr.HasP(key, P{Op: graph.OpEq, Value: p.paramArg(args[1])})
			} else if v, ok := p.argScalar(args[1]); ok {
				tr.HasP(key, P{Op: graph.OpEq, Value: v})
			} else {
				return p.errf("has() expects a literal, variable, or predicate")
			}
		default:
			return p.errf("has() expects 1 or 2 arguments")
		}
	case "hasNot":
		if len(args) != 1 || !args[0].isVal {
			return p.errf("hasNot() expects a property name")
		}
		key := args[0].value.Text()
		tr.Not(Anon().HasKey(key))
	case "hasLabel":
		labels, err := argStrings(args)
		if err != nil {
			return err
		}
		tr.HasLabel(labels...)
	case "hasId":
		ids, err := p.argIDs(args)
		if err != nil {
			return err
		}
		tr.HasID(ids...)
	case "values":
		keys, err := argStrings(args)
		if err != nil {
			return err
		}
		tr.Values(keys...)
	case "valueMap":
		// valueMap(true) includes id/label.
		withIDLabel := false
		var keys []string
		for _, a := range args {
			if a.isVal && a.value.Kind == types.KindBool {
				withIDLabel = a.value.Bool()
				continue
			}
			if !a.isVal {
				return p.errf("valueMap() expects string keys")
			}
			keys = append(keys, a.value.Text())
		}
		tr.add(&ValueMapStep{Keys: keys, WithIDLabel: withIDLabel})
	case "id":
		tr.ID()
	case "label":
		tr.Label()
	case "count":
		tr.Count()
	case "sum":
		tr.Sum()
	case "mean":
		tr.Mean()
	case "min":
		tr.Min()
	case "max":
		tr.Max()
	case "dedup":
		tr.Dedup()
	case "limit":
		if len(args) != 1 {
			return p.errf("limit() expects one number")
		}
		n, ok := args[0].value.Int()
		if !args[0].isVal || !ok {
			return p.errf("limit() expects one number")
		}
		tr.Limit(int(n))
	case "order":
		tr.Order()
	case "by":
		// Modulator for order()/groupCount().
		if len(tr.Steps) == 0 {
			return p.errf("by() requires a preceding step")
		}
		last := tr.Steps[len(tr.Steps)-1]
		switch x := last.(type) {
		case *OrderStep:
			for _, a := range args {
				switch {
				case a.isDesc:
					x.Desc = true
				case a.name == "asc" || a.name == "incr":
				case a.isVal:
					x.By = a.value.Text()
				default:
					return p.errf("unsupported by() argument")
				}
			}
		case *GroupCountStep:
			if len(args) != 1 || !args[0].isVal {
				return p.errf("groupCount().by() expects a property name")
			}
			x.By = args[0].value.Text()
		default:
			return p.errf("by() cannot modulate %s()", last.Name())
		}
	case "store", "aggregate":
		if len(args) != 1 || !args[0].isVal {
			return p.errf("%s() expects a key", name)
		}
		tr.Store(args[0].value.Text())
	case "cap":
		if len(args) != 1 || !args[0].isVal {
			return p.errf("cap() expects a key")
		}
		tr.Cap(args[0].value.Text())
	case "repeat":
		if len(args) != 1 || args[0].sub == nil {
			return p.errf("repeat() expects a sub-traversal")
		}
		tr.Repeat(args[0].sub)
	case "until":
		if len(args) != 1 || args[0].sub == nil {
			return p.errf("until() expects a sub-traversal")
		}
		tr.Until(args[0].sub)
	case "times":
		if len(args) != 1 {
			return p.errf("times() expects one number")
		}
		n, ok := args[0].value.Int()
		if !args[0].isVal || !ok {
			return p.errf("times() expects one number")
		}
		tr.Times(int(n))
	case "emit":
		tr.Emit()
	case "where", "filter":
		if len(args) != 1 || args[0].sub == nil {
			return p.errf("%s() expects a sub-traversal", name)
		}
		tr.Where(args[0].sub)
	case "not":
		if len(args) != 1 || args[0].sub == nil {
			return p.errf("not() expects a sub-traversal")
		}
		tr.Not(args[0].sub)
	case "union":
		var branches []*Traversal
		for _, a := range args {
			if a.sub == nil {
				return p.errf("union() expects sub-traversals")
			}
			branches = append(branches, a.sub)
		}
		tr.Union(branches...)
	case "path":
		tr.Path()
	case "simplePath":
		tr.SimplePath()
	case "as":
		if len(args) != 1 || !args[0].isVal {
			return p.errf("as() expects a label")
		}
		tr.As(args[0].value.Text())
	case "select":
		labels, err := argStrings(args)
		if err != nil {
			return err
		}
		tr.Select(labels...)
	case "groupCount":
		tr.GroupCount()
	case "constant":
		if len(args) != 1 {
			return p.errf("constant() expects one value")
		}
		if args[0].isVal {
			tr.add(&ConstantStep{Value: p.paramArg(args[0])})
			break
		}
		v, ok := p.argScalar(args[0])
		if !ok {
			return p.errf("constant() expects a literal")
		}
		tr.add(&ConstantStep{Value: v})
	case "is":
		if len(args) != 1 {
			return p.errf("is() expects a predicate or value")
		}
		if args[0].pred != nil {
			tr.Is(*args[0].pred)
		} else if args[0].isVal {
			tr.Is(P{Op: graph.OpEq, Value: p.paramArg(args[0])})
		} else if v, ok := p.argScalar(args[0]); ok {
			tr.Is(P{Op: graph.OpEq, Value: v})
		} else {
			return p.errf("is() expects a predicate or value")
		}
	case "profile":
		if len(args) != 0 {
			return p.errf("profile() expects no arguments")
		}
		tr.Profile()
	case "explain":
		if len(args) != 0 {
			return p.errf("explain() expects no arguments")
		}
		tr.Explain()
	default:
		return p.errf("unsupported step %s()", name)
	}
	return tr.err
}
