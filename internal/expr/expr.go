// Package expr implements the small expression language used in generated
// test scripts and status tables. The paper keeps measurement limits
// symbolic in the XML — e.g. u_max="(1.1*ubatt)" — because values such as
// the DUT supply voltage Ubatt are only known on the concrete test stand.
// This package compiles such expressions once at script-load time and
// evaluates them against a stand-specific variable environment.
//
// Grammar (conventional precedence; case of identifiers is folded to
// lower case so "UBATT" and "ubatt" are the same variable):
//
//	expr   := term (('+'|'-') term)*
//	term   := unary (('*'|'/') unary)*
//	unary  := ('+'|'-') unary | factor
//	factor := number | ident | ident '(' args ')' | '(' expr ')'
//	args   := expr (',' expr)*
//
// Numbers accept both German decimal commas and English points via
// unit.ParseNumber; the literal INF is the positive infinity.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/unit"
)

// Env supplies variable values during evaluation.
type Env interface {
	// Lookup returns the value of the named variable (lower case) and
	// whether it exists.
	Lookup(name string) (float64, bool)
}

// MapEnv is the common map-backed environment. Keys must be lower case.
type MapEnv map[string]float64

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// Expr is a compiled expression ready for repeated evaluation. Compile
// shares one Expr among every caller that compiles the same source, so
// an Expr is immutable: evaluating it from many goroutines is safe, and
// the slice Vars returns must not be modified.
type Expr struct {
	src  string
	root node
	vars []string
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Vars returns the sorted set of variable names the expression
// references. The slice is shared; callers must not modify it.
func (e *Expr) Vars() []string { return e.vars }

// IsConstant reports whether the expression references no variables and can
// therefore be folded at script-generation time.
func (e *Expr) IsConstant() bool { return len(e.vars) == 0 }

// Eval evaluates the expression against env. A reference to an unknown
// variable or a call to an unknown function yields an error; division by
// zero follows IEEE-754 (yields ±Inf), since infinite resistances are
// first-class in this domain.
func (e *Expr) Eval(env Env) (float64, error) {
	return e.root.eval(env)
}

// EvalConst evaluates an expression that must be constant.
func (e *Expr) EvalConst() (float64, error) {
	if !e.IsConstant() {
		return 0, fmt.Errorf("expr: %q is not constant (references %v)", e.src, e.vars)
	}
	return e.root.eval(MapEnv{})
}

// String returns a normalised rendering of the expression.
func (e *Expr) String() string { return e.root.render() }

// memoCap bounds the compile memo. Sources come from scripts, and a
// generator can feed new ones forever (explore), so the memo is flushed
// when full rather than grown without bound.
const memoCap = 1 << 13

// memo maps a source to its compiled Expr. Compiling is a pure function
// of the source, so a hit returns exactly what a fresh compile would.
var memo = struct {
	sync.Mutex
	m map[string]*Expr
}{m: make(map[string]*Expr)}

// Compile parses src into an Expr. Successful compiles are memoised by
// source: the same limit string recurs in every mutant of a script, and
// a repeat compile returns the shared Expr without parsing again. A
// source that fails to compile is not remembered, so it fails with the
// same error every time.
func Compile(src string) (*Expr, error) {
	memo.Lock()
	e, ok := memo.m[src]
	memo.Unlock()
	if ok {
		return e, nil
	}
	// Clone the key so the memo pins no larger document src was cut from.
	src = strings.Clone(src)
	e, err := compile(src)
	if err != nil {
		return nil, err
	}
	memo.Lock()
	if len(memo.m) >= memoCap {
		clear(memo.m)
	}
	memo.m[src] = e
	memo.Unlock()
	return e, nil
}

// compile is Compile without the memo.
func compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("expr: unexpected %q after expression in %q", p.peek().text, src)
	}
	set := map[string]bool{}
	collectVars(root, set)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return &Expr{src: src, root: root, vars: vars}, nil
}

// MustCompile is Compile that panics on error; for tests and literals.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ---------------------------------------------------------------- lexer --

type tokKind int

const (
	tokNum tokKind = iota
	tokIdent
	tokOp  // + - * /
	tokLP  // (
	tokRP  // )
	tokCom // ,
	tokEOF
)

type token struct {
	kind tokKind
	text string
	num  float64
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	depth := 0 // parenthesis nesting; a ',' can only be a German decimal
	// comma at depth 0, because inside parentheses it may separate
	// function arguments ("min(1,5)" means min of 1 and 5).
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLP, text: "("})
			depth++
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRP, text: ")"})
			if depth > 0 {
				depth--
			}
			i++
		case c == ',':
			toks = append(toks, token{kind: tokCom, text: ","})
			i++
		case c == '+' || c == '-' || c == '*' || c == '/':
			toks = append(toks, token{kind: tokOp, text: string(c)})
			i++
		case c >= '0' && c <= '9' || c == '.':
			start := i
			i++
			seenSep := c == '.'
			for i < len(src) {
				d := src[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if (d == '.' || (d == ',' && depth == 0)) && !seenSep && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9' {
					seenSep = true
					i += 2
					continue
				}
				if (d == 'e' || d == 'E') && i+1 < len(src) &&
					(src[i+1] == '+' || src[i+1] == '-' || (src[i+1] >= '0' && src[i+1] <= '9')) {
					i += 2
					continue
				}
				break
			}
			text := src[start:i]
			f, ok := unit.Number(text)
			if !ok {
				return nil, fmt.Errorf("expr: bad number %q in %q", text, src)
			}
			toks = append(toks, token{kind: tokNum, text: text, num: f})
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			text := src[start:i]
			if strings.EqualFold(text, "INF") {
				toks = append(toks, token{kind: tokNum, text: text, num: math.Inf(1)})
			} else {
				toks = append(toks, token{kind: tokIdent, text: strings.ToLower(text)})
			}
		default:
			return nil, fmt.Errorf("expr: illegal character %q in %q", c, src)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// --------------------------------------------------------------- parser --

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEnd() bool { return p.peek().kind == tokEOF }
func (p *parser) expect(k tokKind, what string) error {
	if p.peek().kind != k {
		return fmt.Errorf("expr: expected %s in %q, got %q", what, p.src, p.peek().text)
	}
	p.pos++
	return nil
}

func (p *parser) parseExpr() (node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "*" || p.peek().text == "/") {
		op := p.next().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == "-" {
			return &negNode{child: child}, nil
		}
		return child, nil
	}
	return p.parseFactor()
}

func (p *parser) parseFactor() (node, error) {
	switch t := p.peek(); t.kind {
	case tokNum:
		p.next()
		return &numNode{f: t.num}, nil
	case tokIdent:
		p.next()
		if p.peek().kind == tokLP {
			p.next()
			var args []node
			if p.peek().kind != tokRP {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind != tokCom {
						break
					}
					p.next()
				}
			}
			if err := p.expect(tokRP, "')'"); err != nil {
				return nil, err
			}
			fn, ok := functions[t.text]
			if !ok {
				return nil, fmt.Errorf("expr: unknown function %q in %q", t.text, p.src)
			}
			if fn.arity >= 0 && len(args) != fn.arity {
				return nil, fmt.Errorf("expr: function %q expects %d argument(s), got %d", t.text, fn.arity, len(args))
			}
			if fn.arity < 0 && len(args) < 1 {
				return nil, fmt.Errorf("expr: function %q expects at least 1 argument", t.text)
			}
			return &callNode{name: t.text, fn: fn, args: args}, nil
		}
		return &varNode{name: t.text}, nil
	case tokLP:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRP, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, fmt.Errorf("expr: unexpected %q in %q", t.text, p.src)
	}
}

// ------------------------------------------------------------------ AST --

type node interface {
	eval(env Env) (float64, error)
	render() string
}

type numNode struct{ f float64 }

func (n *numNode) eval(Env) (float64, error) { return n.f, nil }
func (n *numNode) render() string            { return unit.FormatNumber(n.f) }

type varNode struct{ name string }

func (n *varNode) eval(env Env) (float64, error) {
	v, ok := env.Lookup(n.name)
	if !ok {
		return 0, fmt.Errorf("expr: undefined variable %q", n.name)
	}
	return v, nil
}
func (n *varNode) render() string { return n.name }

type negNode struct{ child node }

func (n *negNode) eval(env Env) (float64, error) {
	v, err := n.child.eval(env)
	return -v, err
}
func (n *negNode) render() string { return "-" + n.child.render() }

type binNode struct {
	op   string
	l, r node
}

func (n *binNode) eval(env Env) (float64, error) {
	l, err := n.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := n.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		return l / r, nil
	}
	return 0, fmt.Errorf("expr: unknown operator %q", n.op)
}

func (n *binNode) render() string {
	return "(" + n.l.render() + n.op + n.r.render() + ")"
}

type fnSpec struct {
	arity int // -1 = variadic (>=1)
	call  func(args []float64) float64
}

var functions = map[string]fnSpec{
	"abs":   {1, func(a []float64) float64 { return math.Abs(a[0]) }},
	"sqrt":  {1, func(a []float64) float64 { return math.Sqrt(a[0]) }},
	"round": {1, func(a []float64) float64 { return math.Round(a[0]) }},
	"floor": {1, func(a []float64) float64 { return math.Floor(a[0]) }},
	"ceil":  {1, func(a []float64) float64 { return math.Ceil(a[0]) }},
	"min": {-1, func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			m = math.Min(m, v)
		}
		return m
	}},
	"max": {-1, func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			m = math.Max(m, v)
		}
		return m
	}},
}

type callNode struct {
	name string
	fn   fnSpec
	args []node
}

func (n *callNode) eval(env Env) (float64, error) {
	vals := make([]float64, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(env)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return n.fn.call(vals), nil
}

func (n *callNode) render() string {
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = a.render()
	}
	return n.name + "(" + strings.Join(parts, ",") + ")"
}

func collectVars(n node, set map[string]bool) {
	switch t := n.(type) {
	case *varNode:
		set[t.name] = true
	case *negNode:
		collectVars(t.child, set)
	case *binNode:
		collectVars(t.l, set)
		collectVars(t.r, set)
	case *callNode:
		for _, a := range t.args {
			collectVars(a, set)
		}
	}
}
