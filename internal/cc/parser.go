package cc

import (
	"errors"
	"fmt"
	"strconv"

	"accmulti/internal/acc"
)

// parser is a recursive-descent parser that pulls its tokens from the
// lexer one at a time: it looks at one token (tok) and never back. A
// parse error abandons the parse: the parser panics with a bail, which
// the entry point (parse) recovers.
type parser struct {
	lx  lexer
	tok Token
	// line, when positive (ParseExprString), is every token's line, and
	// no token has a column.
	line int
	// exprNest and stmtNest count the expressions and the statements the
	// parser is inside of: its own recursion depth.
	exprNest, stmtNest int
	// peakExpr and peakStmt are the deepest nesting met so far (for
	// expressions, of the recursion and of the trees built).
	peakExpr, peakStmt int
}

// bail is a parse error on its way up the parser's recursion.
type bail struct{ err error }

// check abandons the parse with err, if there is one.
func check(err error) {
	if err != nil {
		panic(bail{err})
	}
}

// maxNest bounds how deep expressions and statements may nest. Source
// arrives from the network (accd), and every walker downstream — sema,
// the folders, the compilers, the closures they build — recurses over the
// tree: an unbounded depth is a stack overflow, which no recover catches.
// The bound applies to the parser's own recursion (parentheses build no
// node) and to the height of the tree it builds (a sum of a million terms
// is built in a loop, left-deep). The deepest expression of the shipped
// corpus is a few dozen levels.
const maxNest = 1000

// tooDeep is the diagnostic of a construct at tok past the budget.
func tooDeep(what string, tok Token) error {
	return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf("%s nested deeper than %d", what, maxNest)}
}

// built gives a node the parser has just made its depth, one more than
// its deepest operand's, and holds it to the budget.
func (p *parser) built(e Expr, operands ...Expr) Expr {
	b := e.base()
	for _, o := range operands {
		b.depth = max(b.depth, o.base().depth+1)
	}
	if b.depth > maxNest {
		panic(bail{tooDeep("expression", Token{Line: b.Line, Col: int(b.Col)})})
	}
	p.peakExpr = max(p.peakExpr, int(b.depth))
	return e
}

// advance reads the next token.
func (p *parser) advance() {
	p.tok = p.lx.next()
	if p.line > 0 {
		p.tok.Line, p.tok.Col = p.line, 0
	}
}

// next returns the current token and reads the one after it.
func (p *parser) next() Token { t := p.tok; p.advance(); return t }

// parse reads the first token and runs f, returning the error it bailed
// with or the lexer's: a lexical error anywhere in the text wins over a
// parse error, so after one the lexer is drained to the end of the text,
// and the error does not depend on where the parser stopped.
func (p *parser) parse(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bail)
			if !ok {
				panic(r)
			}
			err = b.err
			for p.tok.Kind != TokEOF {
				p.advance()
			}
		}
		if p.lx.err != nil {
			err = p.lx.err
		}
	}()
	p.advance()
	f()
	return nil
}

// ParseProgram lexes, parses and analyzes a translation unit.
func ParseProgram(src string) (*Program, error) {
	p := parser{lx: lexer{src: src, line: 1}}
	var prog *Program
	if err := p.parse(func() { prog = p.parseUnit() }); err != nil {
		return nil, err
	}
	prog.Source = src
	prog.peakExpr, prog.peakStmt = p.peakExpr, p.peakStmt
	if err := analyze(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// errTrailing is what ParseExprString says of tokens after its expression.
var errTrailing = errors.New("trailing tokens after expression")

// ParseExprString parses a standalone expression (used for directive
// arguments such as localaccess bounds) and resolves it against the
// given scope. Its tokens take the directive's line and no column:
// columns would be relative to the directive text, not the source line.
func ParseExprString(text string, line int, scope map[string]*VarDecl) (Expr, error) {
	p := parser{lx: lexer{src: text, line: 1}, line: line}
	var e Expr
	err := p.parse(func() {
		if e = p.parseExpr(); p.tok.Kind != TokEOF {
			check(errTrailing)
		}
	})
	switch {
	case p.lx.err != nil, err == errTrailing:
		return nil, errf(line, "in directive expression %q: %v", text, err)
	case err != nil:
		return nil, fmt.Errorf("in directive expression %q: %w", text, err)
	}
	sa := &sema{scope: scope, noDecl: true}
	if err := sa.expr(e); err != nil {
		return nil, fmt.Errorf("in directive expression %q: %w", text, err)
	}
	return e, nil
}

func (p *parser) accept(text string) bool {
	if p.tok.Kind == TokPunct && p.tok.Text == text {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptIdent(name string) bool {
	if p.tok.Kind == TokIdent && p.tok.Text == name {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) {
	if !p.accept(text) {
		panic(bail{errf(p.tok.Line, "expected %q, found %s", text, p.tok)})
	}
}

func (p *parser) typeName() (ElemType, bool) {
	if p.tok.Kind != TokIdent {
		return 0, false
	}
	switch p.tok.Text {
	case "int":
		return TInt, true
	case "float":
		return TFloat, true
	case "double":
		return TDouble, true
	}
	return 0, false
}

// parseUnit parses globals followed by void main().
func (p *parser) parseUnit() *Program {
	prog := &Program{}
	for p.tok.Kind != TokEOF {
		// Skip storage qualifiers on globals.
		for p.acceptIdent("extern") || p.acceptIdent("const") {
		}
		if p.acceptIdent("void") {
			fn := p.parseFunc()
			if prog.Main != nil {
				panic(bail{errf(fn.Line, "multiple functions: only one void main() is supported")})
			}
			prog.Main = fn
			continue
		}
		if t, ok := p.typeName(); ok {
			p.advance()
			prog.Globals = append(prog.Globals, p.parseDeclarators(t, true)...)
			continue
		}
		panic(bail{errf(p.tok.Line, "expected declaration or void main(), found %s", p.tok)})
	}
	if prog.Main == nil {
		panic(bail{errf(1, "program has no void main()")})
	}
	return prog
}

func (p *parser) parseFunc() *FuncDecl {
	name := p.tok
	if name.Kind != TokIdent || IsKeyword(name.Text) {
		panic(bail{errf(name.Line, "expected function name, found %s", name)})
	}
	p.advance()
	if name.Text != "main" {
		panic(bail{errf(name.Line, "only void main() is supported, found function %q", name.Text)})
	}
	p.expect("(")
	p.acceptIdent("void")
	p.expect(")")
	return &FuncDecl{Name: name.Text, Body: p.parseBlock(nil), Line: name.Line}
}

// parseDeclarators parses `name [expr]? (, name [expr]?)* ;` after the
// type keyword.
func (p *parser) parseDeclarators(t ElemType, global bool) []*VarDecl {
	var decls []*VarDecl
	for {
		tok := p.tok
		if tok.Kind != TokIdent || IsKeyword(tok.Text) {
			panic(bail{errf(tok.Line, "expected variable name, found %s", tok)})
		}
		p.advance()
		d := &VarDecl{Name: tok.Text, Type: t, Global: global, Line: tok.Line}
		if p.accept("[") {
			if !global {
				panic(bail{errf(tok.Line, "local arrays are not supported; declare %q at file scope", tok.Text)})
			}
			d.IsArray = true
			d.Size = p.parseExpr()
			p.expect("]")
		}
		decls = append(decls, d)
		if p.accept(",") {
			continue
		}
		break
	}
	p.expect(";")
	return decls
}

// pending accumulates pragmas that must attach to the next statement.
type pending struct {
	parallel *acc.Directive
	local    []acc.LocalAccess
	reduce   *acc.ReductionToArray
	data     *acc.Directive
}

func (pd *pending) empty() bool {
	return pd.parallel == nil && len(pd.local) == 0 && pd.reduce == nil && pd.data == nil
}

func (p *parser) parseBlock(data *acc.Directive) *Block {
	line := p.tok.Line
	p.expect("{")
	b := &Block{stmtBase: stmtBase{Line: line}, Data: data}
	for !p.accept("}") {
		if p.tok.Kind == TokEOF {
			panic(bail{errf(line, "unterminated block")})
		}
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	return b
}

// parseStmt is on every path by which statement parsing recurses, so it
// is where that recursion is counted (an error abandons the parser, and
// its counters with it).
func (p *parser) parseStmt() Stmt {
	if p.stmtNest++; p.stmtNest > maxNest {
		panic(bail{tooDeep("statement", p.tok)})
	}
	p.peakStmt = max(p.peakStmt, p.stmtNest)
	st := p.parseDirectedStmt()
	p.stmtNest--
	return st
}

func (p *parser) parseDirectedStmt() Stmt {
	var pd pending
	// Gather directives that prefix the statement.
	for p.tok.Kind == TokPragma {
		tok := p.next()
		d, err := acc.ParseDirectiveAt(tok.Text, tok.Line, tok.Col)
		check(err)
		switch d.Kind {
		case acc.KindUpdate:
			if !pd.empty() {
				panic(bail{errf(d.Line, "update directive cannot follow other pending directives")})
			}
			return &UpdateStmt{stmtBase: stmtBase{Line: d.Line}, Directive: d}
		case acc.KindData:
			if pd.data != nil {
				panic(bail{errf(d.Line, "duplicate data directive")})
			}
			pd.data = d
		case acc.KindParallelLoop:
			if pd.parallel != nil {
				panic(bail{errf(d.Line, "duplicate parallel loop directive")})
			}
			pd.parallel = d
		case acc.KindLocalAccess:
			la, err := acc.ParseLocalAccess(d)
			check(err)
			pd.local = append(pd.local, la)
		case acc.KindReductionToArray:
			if pd.reduce != nil {
				panic(bail{errf(d.Line, "duplicate reductiontoarray directive")})
			}
			r, err := acc.ParseReductionToArray(d)
			check(err)
			pd.reduce = &r
		}
	}
	st := p.parseStmtBody(&pd)
	if !pd.empty() {
		panic(bail{errf(st.Pos(), "directive does not apply to this statement kind")})
	}
	return st
}

func (p *parser) parseStmtBody(pd *pending) Stmt {
	tok := p.tok
	switch {
	case tok.Kind == TokPunct && tok.Text == "{":
		data := pd.data
		pd.data = nil
		return p.parseBlock(data)
	case tok.Kind == TokPunct && tok.Text == ";":
		p.advance()
		return &Block{stmtBase: stmtBase{Line: tok.Line}}
	case tok.Kind == TokIdent && tok.Text == "if":
		return p.parseIf()
	case tok.Kind == TokIdent && tok.Text == "while":
		return p.parseWhile()
	case tok.Kind == TokIdent && tok.Text == "for":
		return p.parseFor(pd)
	case tok.Kind == TokIdent && tok.Text == "return":
		panic(bail{errf(tok.Line, "return is not supported in void main()")})
	case tok.Kind == TokIdent && (tok.Text == "break" || tok.Text == "continue"):
		p.advance()
		p.expect(";")
		return &BranchStmt{stmtBase: stmtBase{Line: tok.Line}, IsBreak: tok.Text == "break"}
	default:
		if t, ok := p.typeName(); ok {
			p.advance()
			return p.parseLocalDecl(t, tok.Line)
		}
		st := p.parseSimpleStmt()
		p.expect(";")
		if pd.reduce != nil {
			st.Reduce = pd.reduce
			pd.reduce = nil
		}
		return st
	}
}

// parseLocalDecl parses `type name (= expr)? (, name (= expr)?)* ;` and
// desugars initializers into a block of decl + assignments.
func (p *parser) parseLocalDecl(t ElemType, line int) Stmt {
	decl := &DeclStmt{stmtBase: stmtBase{Line: line}}
	var inits []Stmt
	for {
		tok := p.tok
		if tok.Kind != TokIdent || IsKeyword(tok.Text) {
			panic(bail{errf(tok.Line, "expected variable name, found %s", tok)})
		}
		p.advance()
		if p.tok.Kind == TokPunct && p.tok.Text == "[" {
			panic(bail{errf(tok.Line, "local arrays are not supported; declare %q at file scope", tok.Text)})
		}
		d := &VarDecl{Name: tok.Text, Type: t, Line: tok.Line}
		decl.Decls = append(decl.Decls, d)
		if p.accept("=") {
			inits = append(inits, &AssignStmt{
				stmtBase: stmtBase{Line: tok.Line},
				LHS:      &Ident{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Name: tok.Text},
				Op:       "=",
				RHS:      p.parseExpr(),
			})
		}
		if p.accept(",") {
			continue
		}
		break
	}
	p.expect(";")
	if len(inits) == 0 {
		return decl
	}
	stmts := append([]Stmt{decl}, inits...)
	return &Block{stmtBase: stmtBase{Line: line}, Stmts: stmts}
}

// parenExpr parses `( expr )`.
func (p *parser) parenExpr() Expr {
	p.expect("(")
	e := p.parseExpr()
	p.expect(")")
	return e
}

func (p *parser) parseIf() Stmt {
	line := p.next().Line // "if"
	st := &IfStmt{stmtBase: stmtBase{Line: line}, Cond: p.parenExpr(), Then: p.parseStmt()}
	if p.acceptIdent("else") {
		st.Else = p.parseStmt()
	}
	return st
}

func (p *parser) parseWhile() Stmt {
	line := p.next().Line // "while"
	return &WhileStmt{stmtBase: stmtBase{Line: line}, Cond: p.parenExpr(), Body: p.parseStmt()}
}

func (p *parser) parseFor(pd *pending) Stmt {
	line := p.next().Line // "for"
	p.expect("(")
	st := &ForStmt{stmtBase: stmtBase{Line: line}}
	if !p.accept(";") {
		st.Init = p.parseSimpleStmt()
		p.expect(";")
	}
	if !p.accept(";") {
		st.Cond = p.parseExpr()
		p.expect(";")
	}
	if !p.accept(")") {
		st.Post = p.parseSimpleStmt()
		p.expect(")")
	}
	st.Body = p.parseStmt()
	st.Parallel = pd.parallel
	st.Local = pd.local
	pd.parallel, pd.local = nil, nil
	return st
}

// parseSimpleStmt parses an assignment (including ++/-- desugaring).
func (p *parser) parseSimpleStmt() *AssignStmt {
	line := p.tok.Line
	lhs := p.parseUnary()
	tok := p.tok
	if tok.Kind == TokPunct {
		switch tok.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=":
			p.advance()
			return &AssignStmt{stmtBase: stmtBase{Line: line}, LHS: lhs, Op: tok.Text, RHS: p.parseExpr()}
		case "++", "--":
			p.advance()
			op := "+="
			if tok.Text == "--" {
				op = "-="
			}
			one := &NumLit{exprBase: exprBase{Line: line}, I: 1}
			return &AssignStmt{stmtBase: stmtBase{Line: line}, LHS: lhs, Op: op, RHS: one}
		}
	}
	panic(bail{errf(line, "expected assignment statement, found %s", tok)})
}

// Expression parsing: precedence climbing.

// binPrec is the precedence of a binary operator, 0 — below every
// parseBinary's minPrec — for any other punctuation.
func binPrec(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "|":
		return 3
	case "^":
		return 4
	case "&":
		return 5
	case "==", "!=":
		return 6
	case "<", "<=", ">", ">=":
		return 7
	case "<<", ">>":
		return 8
	case "+", "-":
		return 9
	case "*", "/", "%":
		return 10
	}
	return 0
}

func (p *parser) parseExpr() Expr {
	return p.parseTernary()
}

func (p *parser) parseTernary() Expr {
	cond := p.parseBinary(1)
	if !p.accept("?") {
		return cond
	}
	then := p.parseExpr()
	p.expect(":")
	els := p.parseTernary()
	return p.built(&CondExpr{exprBase: exprBase{Line: cond.Pos(), Col: int32(cond.Column())}, Cond: cond, Then: then, Else: els}, cond, then, els)
}

func (p *parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		tok := p.tok
		if tok.Kind != TokPunct {
			return lhs
		}
		prec := binPrec(tok.Text)
		if prec < minPrec {
			return lhs
		}
		p.advance()
		rhs := p.parseBinary(prec + 1)
		lhs = p.built(&BinaryExpr{exprBase: exprBase{Line: lhs.Pos(), Col: int32(lhs.Column())}, Op: tok.Text, X: lhs, Y: rhs}, lhs, rhs)
	}
}

// parseUnary is on every path by which expression parsing recurses, so it
// is where that recursion is counted.
func (p *parser) parseUnary() Expr {
	if p.exprNest++; p.exprNest > maxNest {
		panic(bail{tooDeep("expression", p.tok)})
	}
	p.peakExpr = max(p.peakExpr, p.exprNest)
	x := p.parsePrefixed()
	p.exprNest--
	return x
}

func (p *parser) parsePrefixed() Expr {
	tok := p.tok
	if tok.Kind == TokPunct {
		switch tok.Text {
		case "-", "!", "+", "~":
			p.advance()
			x := p.parseUnary()
			if tok.Text == "+" {
				return x
			}
			return p.built(&UnaryExpr{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Op: tok.Text, X: x}, x)
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		switch {
		case p.accept("["):
			idx := p.parseExpr()
			p.expect("]")
			id, ok := x.(*Ident)
			if !ok {
				panic(bail{errf(x.Pos(), "only named arrays can be indexed")})
			}
			x = p.built(&IndexExpr{
				exprBase: exprBase{Line: id.Line, Col: id.Col},
				Array:    &VarDecl{Name: id.Name, Line: id.Line}, // resolved by sema
				Index:    idx,
			}, idx)
		case p.accept("("):
			id, ok := x.(*Ident)
			if !ok {
				panic(bail{errf(x.Pos(), "only builtin functions can be called")})
			}
			call := &CallExpr{exprBase: exprBase{Line: id.Line, Col: id.Col}, Name: id.Name}
			if !p.accept(")") {
				for {
					call.Args = append(call.Args, p.parseExpr())
					if !p.accept(",") {
						break
					}
				}
				p.expect(")")
			}
			x = p.built(call, call.Args...)
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() Expr {
	tok := p.tok
	switch tok.Kind {
	case TokInt:
		p.advance()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			panic(bail{errf(tok.Line, "bad integer literal %q", tok.Text)})
		}
		return &NumLit{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, I: v}
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			panic(bail{errf(tok.Line, "bad float literal %q", tok.Text)})
		}
		return &NumLit{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, IsFloat: true, F: v}
	case TokIdent:
		if IsKeyword(tok.Text) {
			panic(bail{errf(tok.Line, "unexpected keyword %q in expression", tok.Text)})
		}
		p.advance()
		return &Ident{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Name: tok.Text}
	case TokPunct:
		if tok.Text == "(" {
			p.advance()
			if t, ok := p.typeName(); ok {
				// Cast: (type) unary.
				p.advance()
				p.expect(")")
				x := p.parseUnary()
				return p.built(&CastExpr{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, To: t, X: x}, x)
			}
			x := p.parseExpr()
			p.expect(")")
			return x
		}
	}
	panic(bail{errf(tok.Line, "expected expression, found %s", tok)})
}
