package cc

import (
	"accmulti/internal/acc"
)

// Builtin describes one math builtin callable from kernels and host
// code. Flops is the arithmetic weight charged by the cost model.
type Builtin struct {
	Arity int
	// IntCapable builtins (min/max/abs) stay integer when all
	// arguments are integers.
	IntCapable bool
	// Flops is the operation count charged per call.
	Flops int64
}

// Builtins is the table of supported math functions.
var Builtins = map[string]Builtin{
	"sqrt":  {Arity: 1, Flops: 8},
	"sqrtf": {Arity: 1, Flops: 8},
	"fabs":  {Arity: 1, Flops: 1},
	"fabsf": {Arity: 1, Flops: 1},
	"abs":   {Arity: 1, IntCapable: true, Flops: 1},
	"exp":   {Arity: 1, Flops: 12},
	"expf":  {Arity: 1, Flops: 12},
	"log":   {Arity: 1, Flops: 12},
	"logf":  {Arity: 1, Flops: 12},
	"pow":   {Arity: 2, Flops: 20},
	"powf":  {Arity: 2, Flops: 20},
	"floor": {Arity: 1, Flops: 1},
	"ceil":  {Arity: 1, Flops: 1},
	"min":   {Arity: 2, IntCapable: true, Flops: 1},
	"max":   {Arity: 2, IntCapable: true, Flops: 1},
}

// LocalSpec is a semantically resolved localaccess directive attached
// to a parallel loop.
type LocalSpec struct {
	Array     *VarDecl
	HasStride bool
	// Stride/Left/Right are the resolved stride-form expressions
	// (integer typed, evaluated in the host scope at kernel launch).
	Stride, Left, Right Expr
	// Lower/Upper are the resolved bounds-form expressions (integer
	// typed, functions of the induction variable).
	Lower, Upper Expr
	Line         int
	// Col is the source column of the localaccess clause and ClauseCol
	// the column of its stride()/bounds() clause (0 when unknown).
	Col, ClauseCol int
}

// ReduceSpec is a semantically resolved reductiontoarray directive.
type ReduceSpec struct {
	Op    string
	Array *VarDecl
	Line  int
}

type sema struct {
	prog                    *Program
	scope                   map[string]*VarDecl
	noDecl                  bool
	nInts, nFloats, nArrays int
	loopDepth               int
}

func analyze(prog *Program) error {
	sa := &sema{prog: prog, scope: make(map[string]*VarDecl)}
	for _, d := range prog.Globals {
		if err := sa.declare(d); err != nil {
			return err
		}
	}
	// Array sizes may reference global scalars (declared in any order,
	// as C permits for our host-bound model); resolve them now.
	for _, d := range prog.Globals {
		if d.IsArray {
			if err := sa.expr(d.Size); err != nil {
				return err
			}
			if d.Size.Type() != TInt {
				return errf(d.Line, "array %q size must be an integer expression", d.Name)
			}
		}
	}
	if err := sa.stmt(prog.Main.Body); err != nil {
		return err
	}
	prog.Scope = sa.scope
	prog.NumInts, prog.NumFloats, prog.NumArrays = sa.nInts, sa.nFloats, sa.nArrays
	return nil
}

func (sa *sema) declare(d *VarDecl) error {
	if IsKeyword(d.Name) {
		return errf(d.Line, "cannot declare keyword %q as a variable", d.Name)
	}
	if _, ok := Builtins[d.Name]; ok {
		return errf(d.Line, "cannot declare builtin %q as a variable", d.Name)
	}
	if prev, ok := sa.scope[d.Name]; ok {
		return errf(d.Line, "%q already declared at line %d (the subset uses one flat scope)", d.Name, prev.Line)
	}
	switch {
	case d.IsArray:
		d.Slot = sa.nArrays
		sa.nArrays++
	case d.Type == TInt:
		d.Slot = sa.nInts
		sa.nInts++
	default:
		d.Slot = sa.nFloats
		sa.nFloats++
	}
	sa.scope[d.Name] = d
	if !d.Global && sa.prog != nil {
		sa.prog.Main.Locals = append(sa.prog.Main.Locals, d)
	}
	return nil
}

func (sa *sema) lookup(name string, line int) (*VarDecl, error) {
	d, ok := sa.scope[name]
	if !ok {
		return nil, errf(line, "undeclared identifier %q", name)
	}
	return d, nil
}

func (sa *sema) stmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		if st.Data != nil {
			var err error
			if st.Args, err = sa.dataArrays(st.Data); err != nil {
				return err
			}
		}
		for _, sub := range st.Stmts {
			if err := sa.stmt(sub); err != nil {
				return err
			}
		}
	case *DeclStmt:
		if sa.noDecl {
			return errf(st.Line, "declarations are not allowed here")
		}
		for _, d := range st.Decls {
			if err := sa.declare(d); err != nil {
				return err
			}
		}
	case *AssignStmt:
		return sa.assign(st)
	case *IfStmt:
		if err := sa.expr(st.Cond); err != nil {
			return err
		}
		if err := sa.stmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return sa.stmt(st.Else)
		}
	case *WhileStmt:
		if err := sa.expr(st.Cond); err != nil {
			return err
		}
		sa.loopDepth++
		defer func() { sa.loopDepth-- }()
		return sa.stmt(st.Body)
	case *ForStmt:
		return sa.forStmt(st)
	case *BranchStmt:
		if sa.loopDepth == 0 {
			word := "continue"
			if st.IsBreak {
				word = "break"
			}
			return errf(st.Line, "%s outside of a loop", word)
		}
	case *UpdateStmt:
		for _, c := range st.Directive.Clauses {
			dst := &st.ToHost // host, self
			if c.Name == "device" {
				dst = &st.ToDevice
			}
			for _, name := range c.Args {
				d, err := sa.lookup(name, st.Line)
				if err != nil {
					return err
				}
				if !d.IsArray {
					return errf(st.Line, "update %s(%s): %q is not an array", c.Name, name, name)
				}
				*dst = append(*dst, d)
			}
		}
	default:
		return errf(s.Pos(), "internal: unknown statement type %T", s)
	}
	return nil
}

// dataArrays resolves the data clauses of a data or parallel-loop
// directive.
func (sa *sema) dataArrays(d *acc.Directive) ([]DataArg, error) {
	args, err := d.DataArgs()
	if err != nil {
		return nil, err
	}
	var out []DataArg
	for _, a := range args {
		decl, err := sa.lookup(a.Array, d.Line)
		if err != nil {
			return nil, err
		}
		if !decl.IsArray {
			return nil, errf(d.Line, "data clause %s(%s): %q is not an array", a.Class, a.Array, a.Array)
		}
		out = append(out, DataArg{Decl: decl, Class: a.Class})
	}
	return out, nil
}

func (sa *sema) assign(st *AssignStmt) error {
	if err := sa.expr(st.RHS); err != nil {
		return err
	}
	switch lhs := st.LHS.(type) {
	case *Ident:
		d, err := sa.lookup(lhs.Name, lhs.Line)
		if err != nil {
			return err
		}
		if d.IsArray {
			return errf(lhs.Line, "cannot assign to array %q without an index", lhs.Name)
		}
		lhs.Decl = d
		lhs.setT(d.Type)
	case *IndexExpr:
		if err := sa.index(lhs); err != nil {
			return err
		}
	default:
		return errf(st.Line, "left side of assignment must be a variable or array element")
	}
	switch st.Op {
	case "%=", "<<=", ">>=":
		if st.LHS.Type() != TInt {
			return errf(st.Line, "operator %q requires an integer target", st.Op)
		}
	}
	if st.Reduce != nil {
		return sa.reduce(st)
	}
	return nil
}

func (sa *sema) reduce(st *AssignStmt) error {
	r := st.Reduce
	idx, ok := st.LHS.(*IndexExpr)
	if !ok {
		return errf(st.Line, "reductiontoarray must annotate an assignment to an array element")
	}
	if idx.Array.Name != r.Array {
		return errf(st.Line, "reductiontoarray names %q but the statement updates %q", r.Array, idx.Array.Name)
	}
	var wantOp string
	switch r.Op {
	case "+":
		wantOp = "+="
	case "*":
		wantOp = "*="
	default:
		return errf(st.Line, "reductiontoarray operator %q is not supported (use + or *)", r.Op)
	}
	if st.Op != wantOp {
		return errf(st.Line, "reductiontoarray(%s:...) requires the statement to use %q, found %q", r.Op, wantOp, st.Op)
	}
	return nil
}

func (sa *sema) forStmt(st *ForStmt) error {
	if st.Init != nil {
		if err := sa.assign(st.Init); err != nil {
			return err
		}
	}
	if st.Cond != nil {
		if err := sa.expr(st.Cond); err != nil {
			return err
		}
	}
	if st.Post != nil {
		if err := sa.assign(st.Post); err != nil {
			return err
		}
	}
	if st.Parallel != nil {
		if _, err := sa.dataArrays(st.Parallel); err != nil {
			return err
		}
		reds, err := st.Parallel.Reductions()
		if err != nil {
			return err
		}
		for _, red := range reds {
			d, err := sa.lookup(red.Var, st.Parallel.Line)
			if err != nil {
				return err
			}
			if d.IsArray {
				return errf(st.Parallel.Line, "reduction(%s:%s): scalar reductions need a scalar variable (use reductiontoarray for arrays)", red.Op, red.Var)
			}
			st.Reductions = append(st.Reductions, Reduction{Decl: d, Op: red.Op})
		}
	}
	for _, la := range st.Local {
		spec, err := sa.localSpec(la)
		if err != nil {
			return err
		}
		st.Specs = append(st.Specs, spec)
	}
	if len(st.Local) > 0 && st.Parallel == nil {
		return errf(st.Line, "localaccess directives require a parallel loop directive on the same loop")
	}
	sa.loopDepth++
	defer func() { sa.loopDepth-- }()
	return sa.stmt(st.Body)
}

func (sa *sema) localSpec(la acc.LocalAccess) (*LocalSpec, error) {
	decl, err := sa.lookup(la.Array, la.Line)
	if err != nil {
		return nil, err
	}
	if !decl.IsArray {
		return nil, errf(la.Line, "localaccess(%s): %q is not an array", la.Array, la.Array)
	}
	spec := &LocalSpec{Array: decl, HasStride: la.HasStride, Line: la.Line, Col: la.Col, ClauseCol: la.ClauseCol}
	parse := func(text string) (Expr, error) {
		e, err := ParseExprString(text, la.Line, sa.scope)
		if err != nil {
			return nil, err
		}
		if e.Type() != TInt {
			return nil, errf(la.Line, "localaccess(%s): expression %q must be integer typed", la.Array, text)
		}
		return e, nil
	}
	if la.HasStride {
		if spec.Stride, err = parse(la.Stride); err != nil {
			return nil, err
		}
		if spec.Left, err = parse(la.Left); err != nil {
			return nil, err
		}
		if spec.Right, err = parse(la.Right); err != nil {
			return nil, err
		}
	} else {
		if spec.Lower, err = parse(la.Lower); err != nil {
			return nil, err
		}
		if spec.Upper, err = parse(la.Upper); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

func (sa *sema) index(e *IndexExpr) error {
	// The parser leaves a placeholder VarDecl carrying only the name.
	d, err := sa.lookup(e.Array.Name, e.Line)
	if err != nil {
		return err
	}
	if !d.IsArray {
		return errf(e.Line, "%q is not an array", e.Array.Name)
	}
	e.Array = d
	if err := sa.expr(e.Index); err != nil {
		return err
	}
	if e.Index.Type() != TInt {
		return errf(e.Line, "array index must be an integer expression (cast with (int) if needed)")
	}
	e.setT(d.Type)
	return nil
}

func (sa *sema) expr(e Expr) error {
	switch x := e.(type) {
	case *NumLit:
		if x.IsFloat {
			x.setT(TDouble)
		} else {
			x.setT(TInt)
		}
	case *Ident:
		d, err := sa.lookup(x.Name, x.Line)
		if err != nil {
			return err
		}
		if d.IsArray {
			return errf(x.Line, "array %q must be indexed in expressions", x.Name)
		}
		x.Decl = d
		x.setT(d.Type)
	case *IndexExpr:
		return sa.index(x)
	case *BinaryExpr:
		if err := sa.expr(x.X); err != nil {
			return err
		}
		if err := sa.expr(x.Y); err != nil {
			return err
		}
		switch x.Op {
		case "%", "&", "|", "^", "<<", ">>":
			if x.X.Type() != TInt || x.Y.Type() != TInt {
				return errf(x.Line, "operator %q requires integer operands", x.Op)
			}
			x.setT(TInt)
		case "<", "<=", ">", ">=", "==", "!=", "&&", "||":
			x.setT(TInt)
		default: // + - * /
			if x.X.Type() == TInt && x.Y.Type() == TInt {
				x.setT(TInt)
			} else if x.X.Type() == TDouble || x.Y.Type() == TDouble {
				x.setT(TDouble)
			} else {
				x.setT(TFloat)
			}
		}
	case *UnaryExpr:
		if err := sa.expr(x.X); err != nil {
			return err
		}
		switch x.Op {
		case "!":
			x.setT(TInt)
		case "~":
			if x.X.Type() != TInt {
				return errf(x.Line, "operator ~ requires an integer operand")
			}
			x.setT(TInt)
		default: // -
			x.setT(x.X.Type())
		}
	case *CondExpr:
		if err := sa.expr(x.Cond); err != nil {
			return err
		}
		if err := sa.expr(x.Then); err != nil {
			return err
		}
		if err := sa.expr(x.Else); err != nil {
			return err
		}
		if x.Then.Type() == TInt && x.Else.Type() == TInt {
			x.setT(TInt)
		} else if x.Then.Type() == TDouble || x.Else.Type() == TDouble {
			x.setT(TDouble)
		} else {
			x.setT(TFloat)
		}
	case *CallExpr:
		b, ok := Builtins[x.Name]
		if !ok {
			return errf(x.Line, "unknown function %q (only math builtins can be called)", x.Name)
		}
		if len(x.Args) != b.Arity {
			return errf(x.Line, "%s expects %d arguments, got %d", x.Name, b.Arity, len(x.Args))
		}
		allInt := true
		for _, a := range x.Args {
			if err := sa.expr(a); err != nil {
				return err
			}
			if a.Type() != TInt {
				allInt = false
			}
		}
		if b.IntCapable && allInt {
			x.setT(TInt)
		} else {
			x.setT(TDouble)
		}
	case *CastExpr:
		if err := sa.expr(x.X); err != nil {
			return err
		}
		x.setT(x.To)
	default:
		return errf(e.Pos(), "internal: unknown expression type %T", e)
	}
	return nil
}
