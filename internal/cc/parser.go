package cc

import (
	"fmt"
	"strconv"

	"accmulti/internal/acc"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
	// exprNest and stmtNest count the expressions and the statements the
	// parser is inside of: its own recursion depth.
	exprNest, stmtNest int
	// peakExpr and peakStmt are the deepest nesting met so far (for
	// expressions, of the recursion and of the trees built).
	peakExpr, peakStmt int
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
func (p *parser) built(e Expr, operands ...Expr) (Expr, error) {
	b := e.base()
	for _, o := range operands {
		b.depth = max(b.depth, o.base().depth+1)
	}
	if b.depth > maxNest {
		return nil, tooDeep("expression", Token{Line: b.Line, Col: int(b.Col)})
	}
	p.peakExpr = max(p.peakExpr, int(b.depth))
	return e, nil
}

// ParseProgram lexes, parses and analyzes a translation unit.
func ParseProgram(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseUnit()
	if err != nil {
		return nil, err
	}
	prog.Source = src
	prog.peakExpr, prog.peakStmt = p.peakExpr, p.peakStmt
	if err := analyze(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExprString parses a standalone expression (used for directive
// arguments such as localaccess bounds) and resolves it against the
// given scope.
func ParseExprString(text string, line int, scope map[string]*VarDecl) (Expr, error) {
	toks, err := Lex(text)
	if err != nil {
		return nil, errf(line, "in directive expression %q: %v", text, err)
	}
	// Rebase token lines onto the directive's line. Columns are
	// relative to the directive text, not the source line, so drop
	// them rather than report misleading positions.
	for i := range toks {
		toks[i].Line = line
		toks[i].Col = 0
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("in directive expression %q: %w", text, err)
	}
	if p.cur().Kind != TokEOF {
		return nil, errf(line, "in directive expression %q: trailing tokens after expression", text)
	}
	sa := &sema{scope: scope, noDecl: true}
	if err := sa.expr(e); err != nil {
		return nil, fmt.Errorf("in directive expression %q: %w", text, err)
	}
	return e, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(text string) bool {
	if p.cur().Kind == TokPunct && p.cur().Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptIdent(name string) bool {
	if p.cur().Kind == TokIdent && p.cur().Text == name {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return errf(p.cur().Line, "expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *parser) typeName() (ElemType, bool) {
	if p.cur().Kind != TokIdent {
		return 0, false
	}
	switch p.cur().Text {
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
func (p *parser) parseUnit() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		// Skip storage qualifiers on globals.
		for p.acceptIdent("extern") || p.acceptIdent("const") {
		}
		if p.acceptIdent("void") {
			fn, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			if prog.Main != nil {
				return nil, errf(fn.Line, "multiple functions: only one void main() is supported")
			}
			prog.Main = fn
			continue
		}
		if t, ok := p.typeName(); ok {
			p.pos++
			decls, err := p.parseDeclarators(t, true)
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, decls...)
			continue
		}
		return nil, errf(p.cur().Line, "expected declaration or void main(), found %s", p.cur())
	}
	if prog.Main == nil {
		return nil, errf(1, "program has no void main()")
	}
	return prog, nil
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	name := p.cur()
	if name.Kind != TokIdent || IsKeyword(name.Text) {
		return nil, errf(name.Line, "expected function name, found %s", name)
	}
	p.pos++
	if name.Text != "main" {
		return nil, errf(name.Line, "only void main() is supported, found function %q", name.Text)
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	p.acceptIdent("void")
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock(nil)
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.Text, Body: body, Line: name.Line}, nil
}

// parseDeclarators parses `name [expr]? (, name [expr]?)* ;` after the
// type keyword.
func (p *parser) parseDeclarators(t ElemType, global bool) ([]*VarDecl, error) {
	var decls []*VarDecl
	for {
		tok := p.cur()
		if tok.Kind != TokIdent || IsKeyword(tok.Text) {
			return nil, errf(tok.Line, "expected variable name, found %s", tok)
		}
		p.pos++
		d := &VarDecl{Name: tok.Text, Type: t, Global: global, Line: tok.Line}
		if p.accept("[") {
			if !global {
				return nil, errf(tok.Line, "local arrays are not supported; declare %q at file scope", tok.Text)
			}
			size, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.IsArray = true
			d.Size = size
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		decls = append(decls, d)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return decls, nil
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

func (p *parser) parseBlock(data *acc.Directive) (*Block, error) {
	line := p.cur().Line
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{Line: line}, Data: data}
	for !p.accept("}") {
		if p.cur().Kind == TokEOF {
			return nil, errf(line, "unterminated block")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if st != nil {
			b.Stmts = append(b.Stmts, st)
		}
	}
	return b, nil
}

// parseStmt is on every path by which statement parsing recurses, so it
// is where that recursion is counted (an error abandons the parser, and
// its counters with it).
func (p *parser) parseStmt() (Stmt, error) {
	if p.stmtNest++; p.stmtNest > maxNest {
		return nil, tooDeep("statement", p.cur())
	}
	p.peakStmt = max(p.peakStmt, p.stmtNest)
	st, err := p.parseDirectedStmt()
	p.stmtNest--
	return st, err
}

func (p *parser) parseDirectedStmt() (Stmt, error) {
	var pd pending
	// Gather directives that prefix the statement.
	for p.cur().Kind == TokPragma {
		tok := p.next()
		d, err := acc.ParseDirectiveAt(tok.Text, tok.Line, tok.Col)
		if err != nil {
			return nil, err
		}
		switch d.Kind {
		case acc.KindUpdate:
			if !pd.empty() {
				return nil, errf(d.Line, "update directive cannot follow other pending directives")
			}
			return &UpdateStmt{stmtBase: stmtBase{Line: d.Line}, Directive: d}, nil
		case acc.KindData:
			if pd.data != nil {
				return nil, errf(d.Line, "duplicate data directive")
			}
			pd.data = d
		case acc.KindParallelLoop:
			if pd.parallel != nil {
				return nil, errf(d.Line, "duplicate parallel loop directive")
			}
			pd.parallel = d
		case acc.KindLocalAccess:
			la, err := acc.ParseLocalAccess(d)
			if err != nil {
				return nil, err
			}
			pd.local = append(pd.local, la)
		case acc.KindReductionToArray:
			if pd.reduce != nil {
				return nil, errf(d.Line, "duplicate reductiontoarray directive")
			}
			r, err := acc.ParseReductionToArray(d)
			if err != nil {
				return nil, err
			}
			pd.reduce = &r
		}
	}
	st, err := p.parseStmtBody(&pd)
	if err != nil {
		return nil, err
	}
	if !pd.empty() {
		return nil, errf(st.Pos(), "directive does not apply to this statement kind")
	}
	return st, nil
}

func (p *parser) parseStmtBody(pd *pending) (Stmt, error) {
	tok := p.cur()
	switch {
	case tok.Kind == TokPunct && tok.Text == "{":
		data := pd.data
		pd.data = nil
		return p.parseBlock(data)
	case tok.Kind == TokPunct && tok.Text == ";":
		p.pos++
		return &Block{stmtBase: stmtBase{Line: tok.Line}}, nil
	case tok.Kind == TokIdent && tok.Text == "if":
		return p.parseIf()
	case tok.Kind == TokIdent && tok.Text == "while":
		return p.parseWhile()
	case tok.Kind == TokIdent && tok.Text == "for":
		return p.parseFor(pd)
	case tok.Kind == TokIdent && tok.Text == "return":
		return nil, errf(tok.Line, "return is not supported in void main()")
	case tok.Kind == TokIdent && (tok.Text == "break" || tok.Text == "continue"):
		p.pos++
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BranchStmt{stmtBase: stmtBase{Line: tok.Line}, IsBreak: tok.Text == "break"}, nil
	default:
		if t, ok := p.typeName(); ok {
			p.pos++
			return p.parseLocalDecl(t, tok.Line)
		}
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if as, ok := st.(*AssignStmt); ok && pd.reduce != nil {
			as.Reduce = pd.reduce
			pd.reduce = nil
		}
		return st, nil
	}
}

// parseLocalDecl parses `type name (= expr)? (, name (= expr)?)* ;` and
// desugars initializers into a block of decl + assignments.
func (p *parser) parseLocalDecl(t ElemType, line int) (Stmt, error) {
	decl := &DeclStmt{stmtBase: stmtBase{Line: line}}
	var inits []Stmt
	for {
		tok := p.cur()
		if tok.Kind != TokIdent || IsKeyword(tok.Text) {
			return nil, errf(tok.Line, "expected variable name, found %s", tok)
		}
		p.pos++
		if p.cur().Kind == TokPunct && p.cur().Text == "[" {
			return nil, errf(tok.Line, "local arrays are not supported; declare %q at file scope", tok.Text)
		}
		d := &VarDecl{Name: tok.Text, Type: t, Line: tok.Line}
		decl.Decls = append(decl.Decls, d)
		if p.accept("=") {
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			inits = append(inits, &AssignStmt{
				stmtBase: stmtBase{Line: tok.Line},
				LHS:      &Ident{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Name: tok.Text},
				Op:       "=",
				RHS:      rhs,
			})
		}
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if len(inits) == 0 {
		return decl, nil
	}
	stmts := append([]Stmt{decl}, inits...)
	return &Block{stmtBase: stmtBase{Line: line}, Stmts: stmts}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	line := p.next().Line // "if"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{stmtBase: stmtBase{Line: line}, Cond: cond, Then: then}
	if p.acceptIdent("else") {
		st.Else, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	line := p.next().Line // "while"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{stmtBase: stmtBase{Line: line}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor(pd *pending) (Stmt, error) {
	line := p.next().Line // "for"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &ForStmt{stmtBase: stmtBase{Line: line}}
	if !p.accept(";") {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		as, ok := s.(*AssignStmt)
		if !ok {
			return nil, errf(line, "for-loop initializer must be an assignment")
		}
		st.Init = as
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(")") {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		as, ok := s.(*AssignStmt)
		if !ok {
			return nil, errf(line, "for-loop post statement must be an assignment")
		}
		st.Post = as
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	st.Parallel = pd.parallel
	st.Local = pd.local
	pd.parallel, pd.local = nil, nil
	return st, nil
}

// parseSimpleStmt parses an assignment (including ++/-- desugaring).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().Line
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	tok := p.cur()
	if tok.Kind == TokPunct {
		switch tok.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=":
			p.pos++
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{stmtBase: stmtBase{Line: line}, LHS: lhs, Op: tok.Text, RHS: rhs}, nil
		case "++", "--":
			p.pos++
			op := "+="
			if tok.Text == "--" {
				op = "-="
			}
			one := &NumLit{exprBase: exprBase{Line: line}, I: 1}
			return &AssignStmt{stmtBase: stmtBase{Line: line}, LHS: lhs, Op: op, RHS: one}, nil
		}
	}
	return nil, errf(line, "expected assignment statement, found %s", tok)
}

// Expression parsing: precedence climbing.

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return p.built(&CondExpr{exprBase: exprBase{Line: cond.Pos(), Col: int32(cond.Column())}, Cond: cond, Then: then, Else: els}, cond, then, els)
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.cur()
		if tok.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[tok.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		if lhs, err = p.built(&BinaryExpr{exprBase: exprBase{Line: lhs.Pos(), Col: int32(lhs.Column())}, Op: tok.Text, X: lhs, Y: rhs}, lhs, rhs); err != nil {
			return nil, err
		}
	}
}

// parseUnary is on every path by which expression parsing recurses, so it
// is where that recursion is counted.
func (p *parser) parseUnary() (Expr, error) {
	if p.exprNest++; p.exprNest > maxNest {
		return nil, tooDeep("expression", p.cur())
	}
	p.peakExpr = max(p.peakExpr, p.exprNest)
	x, err := p.parsePrefixed()
	p.exprNest--
	return x, err
}

func (p *parser) parsePrefixed() (Expr, error) {
	tok := p.cur()
	if tok.Kind == TokPunct {
		switch tok.Text {
		case "-", "!", "+", "~":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if tok.Text == "+" {
				return x, nil
			}
			return p.built(&UnaryExpr{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Op: tok.Text, X: x}, x)
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			id, ok := x.(*Ident)
			if !ok {
				return nil, errf(x.Pos(), "only named arrays can be indexed")
			}
			x, err = p.built(&IndexExpr{
				exprBase: exprBase{Line: id.Line, Col: id.Col},
				Array:    &VarDecl{Name: id.Name, Line: id.Line}, // resolved by sema
				Index:    idx,
			}, idx)
			if err != nil {
				return nil, err
			}
		case p.accept("("):
			id, ok := x.(*Ident)
			if !ok {
				return nil, errf(x.Pos(), "only builtin functions can be called")
			}
			call := &CallExpr{exprBase: exprBase{Line: id.Line, Col: id.Col}, Name: id.Name}
			if !p.accept(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if p.accept(",") {
						continue
					}
					break
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			if x, err = p.built(call, call.Args...); err != nil {
				return nil, err
			}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case TokInt:
		p.pos++
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, errf(tok.Line, "bad integer literal %q", tok.Text)
		}
		return &NumLit{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, I: v}, nil
	case TokFloat:
		p.pos++
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, errf(tok.Line, "bad float literal %q", tok.Text)
		}
		return &NumLit{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, IsFloat: true, F: v}, nil
	case TokIdent:
		if IsKeyword(tok.Text) {
			return nil, errf(tok.Line, "unexpected keyword %q in expression", tok.Text)
		}
		p.pos++
		return &Ident{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, Name: tok.Text}, nil
	case TokPunct:
		if tok.Text == "(" {
			p.pos++
			if t, ok := p.typeName(); ok {
				// Cast: (type) unary.
				p.pos++
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return p.built(&CastExpr{exprBase: exprBase{Line: tok.Line, Col: int32(tok.Col)}, To: t, X: x}, x)
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, errf(tok.Line, "expected expression, found %s", tok)
}
