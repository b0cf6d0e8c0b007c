package cc

import "accmulti/internal/acc"

// ElemType is the value type of a scalar or array element.
type ElemType int

const (
	// TInt is a C int: 4-byte storage, 64-bit arithmetic inside the
	// simulator (overflow-free for the index math the apps perform).
	TInt ElemType = iota
	// TFloat is a C float: 4-byte storage, float64 arithmetic.
	TFloat
	// TDouble is a C double: 8-byte storage, float64 arithmetic.
	TDouble
)

// Size returns the storage size in bytes of one element.
func (t ElemType) Size() int64 {
	if t == TDouble {
		return 8
	}
	return 4
}

// IsFloat reports whether the type uses floating-point arithmetic.
func (t ElemType) IsFloat() bool { return t != TInt }

func (t ElemType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TDouble:
		return "double"
	default:
		return "?"
	}
}

// VarDecl declares one scalar or array variable. Globals are bound by
// the host program at run time (the paper's model: arrays live in host
// memory and move to GPUs under data-directive control).
type VarDecl struct {
	Name    string
	Type    ElemType
	IsArray bool
	// Size is the element-count expression of an array (evaluated in
	// the global scalar scope at bind time).
	Size Expr
	// Global marks host-bound variables declared at file scope.
	Global bool
	// Slot is the variable's index in its environment table, assigned
	// by semantic analysis: arrays index the view table, int scalars
	// the int table, float/double scalars the float table.
	Slot int
	Line int
}

// Program is one analyzed translation unit.
type Program struct {
	Globals []*VarDecl
	Main    *FuncDecl
	// Scope maps every variable name (globals and main's locals; the
	// subset has one flat function scope) to its declaration, for
	// later parsing of directive argument expressions.
	Scope map[string]*VarDecl
	// NumInts, NumFloats, NumArrays size the environment tables.
	NumInts, NumFloats, NumArrays int
	// Source is the original text, kept for diagnostics and codegen.
	Source string
	// peakExpr and peakStmt are how deep the program's expressions and
	// statements nest (the parser holds both to maxNest).
	peakExpr, peakStmt int
}

// ArrayDecls returns the global array declarations in source order.
func (p *Program) ArrayDecls() []*VarDecl {
	var out []*VarDecl
	for _, d := range p.Globals {
		if d.IsArray {
			out = append(out, d)
		}
	}
	return out
}

// FuncDecl is the single void main() of a program.
type FuncDecl struct {
	Name   string
	Body   *Block
	Locals []*VarDecl
	Line   int
}

// Expr is an expression node. Every node carries its source position
// and, after semantic analysis, its value type.
type Expr interface {
	Pos() int
	// Column is the 1-based source column of the expression's first
	// token (0 for synthesized nodes).
	Column() int
	// Type is the analyzed value type (valid after ParseProgram).
	Type() ElemType
	// base is the node's common part (position, type, depth).
	base() *exprBase
}

type exprBase struct {
	Line int
	Col  int32
	// depth is the height of the tree under a node the parser built: one
	// more than its deepest operand's (see parser.built). It shares a word
	// with Col, so the nodes are as large as they were without it.
	depth int32
	T     ElemType
}

func (e *exprBase) Pos() int        { return e.Line }
func (e *exprBase) Column() int     { return int(e.Col) }
func (e *exprBase) Type() ElemType  { return e.T }
func (e *exprBase) setT(t ElemType) { e.T = t }
func (e *exprBase) base() *exprBase { return e }

// NumLit is an integer or floating literal.
type NumLit struct {
	exprBase
	IsFloat bool
	I       int64
	F       float64
}

// Ident is a resolved scalar variable reference (array names never
// appear bare except in directives).
type Ident struct {
	exprBase
	Name string
	Decl *VarDecl
}

// IndexExpr is arr[index].
type IndexExpr struct {
	exprBase
	Array *VarDecl
	Index Expr
}

// BinaryExpr is x op y for op in + - * / % < <= > >= == != && || & | ^ << >>.
type BinaryExpr struct {
	exprBase
	Op   string
	X, Y Expr
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	exprBase
	Op string
	X  Expr
}

// CondExpr is c ? a : b.
type CondExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// CallExpr invokes a math builtin.
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
}

// CastExpr is (float)x / (int)x / (double)x.
type CastExpr struct {
	exprBase
	To ElemType
	X  Expr
}

// Stmt is a statement node.
type Stmt interface {
	Pos() int
}

type stmtBase struct{ Line int }

func (s *stmtBase) Pos() int { return s.Line }

// Block is { ... }. A data directive, when present, wraps the block in
// a device data region.
type Block struct {
	stmtBase
	Stmts []Stmt
	Data  *acc.Directive
	// Args are Data's clauses resolved by semantic analysis, in source
	// order.
	Args []DataArg
}

// DataArg is one array named in a data clause, bound to its declaration.
type DataArg struct {
	Decl  *VarDecl
	Class acc.DataClass
}

// Reduction is one scalar `reduction(op:var)` clause, bound to its
// declaration.
type Reduction struct {
	Decl *VarDecl
	Op   acc.RedOp
}

// DeclStmt declares locals (no initializer in the subset; assign
// separately).
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// AssignStmt is lhs op rhs for op in = += -= *= /=. i++ / i-- are
// desugared to += / -= 1. A reductiontoarray directive, when present,
// marks this statement as an array reduction.
type AssignStmt struct {
	stmtBase
	LHS Expr // *Ident or *IndexExpr
	Op  string
	RHS Expr
	// Reduce is the attached reductiontoarray directive, if any.
	Reduce *acc.ReductionToArray
}

// IfStmt is if (cond) then [else els].
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// ForStmt is for (init; cond; post) body. When Parallel is non-nil the
// loop is offloaded; Local lists its localaccess directives.
type ForStmt struct {
	stmtBase
	Init *AssignStmt // may be nil
	Cond Expr        // may be nil
	Post *AssignStmt // may be nil
	Body Stmt
	// Parallel is the attached `parallel loop` directive, if any.
	Parallel *acc.Directive
	// Local are the attached localaccess extensions.
	Local []acc.LocalAccess
	// Specs are the semantically resolved forms of Local.
	Specs []*LocalSpec
	// Reductions are Parallel's scalar reduction clauses, resolved.
	Reductions []Reduction
}

// BranchStmt is break or continue (IsBreak selects which), bound to
// the innermost enclosing loop.
type BranchStmt struct {
	stmtBase
	IsBreak bool
}

// UpdateStmt is the standalone `#pragma acc update ...` directive.
type UpdateStmt struct {
	stmtBase
	Directive *acc.Directive
	// ToHost (host and self clauses) and ToDevice (device clauses) are
	// the directive's arrays resolved by semantic analysis.
	ToHost, ToDevice []*VarDecl
}
