package ir

import (
	"fmt"
	"math"

	"accmulti/internal/cc"
)

// Expr is a compiled expression whose value is an S: an int expression
// computes in int64, a float or double one in float64 (the tiles' lane
// types). The compiler is written once over S. What only one lane type
// has stays typed: %, the bit operators, the shifts and ~ for int, the
// math builtins and a (float) cast's rounding for float. The leaves that
// reach S's own tables — its scalar slots and its arrays' views — are
// written for both and pick one when the closure is built: no evaluation
// pays for a choice by type.
type Expr[S Num] func(*Env) S

type (
	// ExprI is a compiled integer-valued expression.
	ExprI = Expr[int64]
	// ExprF is a compiled float-valued expression.
	ExprF = Expr[float64]
)

// CompileExprI compiles an expression and coerces it to integer
// (C truncation semantics for floats). Literal subtrees fold first.
func CompileExprI(e cc.Expr) (ExprI, error) { return compileExpr[int64](foldExpr(e)) }

// CompileExprF compiles an expression and coerces it to float.
// Literal subtrees fold first.
func CompileExprF(e cc.Expr) (ExprF, error) { return compileExpr[float64](foldExpr(e)) }

// compileExpr compiles e into an S, converting once where e's own type
// is the other lane type.
func compileExpr[S Num](e cc.Expr) (Expr[S], error) {
	switch float := e.Type() != cc.TInt; {
	case float == isF[S]():
		return compileOwn[S](e)
	case float:
		return converted[float64, S](e)
	}
	return converted[int64, S](e)
}

// converted compiles e, whose own lanes are F, into an S.
func converted[F, S Num](e cc.Expr) (Expr[S], error) {
	op, err := compileOwn[F](e)
	if err != nil {
		return nil, err
	}
	return func(env *Env) S { return S(op(env)) }, nil
}

// compileOwn compiles e, whose own lanes are S. A node whose value is
// always an int (a comparison, && and ||, !) is compiled only with S
// int64.
func compileOwn[S Num](e cc.Expr) (Expr[S], error) {
	switch x := e.(type) {
	case *cc.NumLit:
		v := S(x.I)
		if isF[S]() {
			v = S(x.F)
		}
		return func(*Env) S { return v }, nil

	case *cc.Ident:
		return readScalar[S](x.Decl.Slot), nil

	case *cc.IndexExpr:
		idx, err := compileExpr[int64](x.Index)
		if err != nil {
			return nil, err
		}
		return readArray[S](x.Array.Slot, idx), nil

	case *cc.BinaryExpr:
		return compileBinary[S](x)

	case *cc.UnaryExpr:
		if x.Op == "!" {
			op, err := compileCond(x.X)
			if err != nil {
				return nil, err
			}
			return as[Expr[S]](ExprI(func(env *Env) int64 { env.Flops++; return 1 - b2i(op(env)) })), nil
		}
		op, err := compileExpr[S](x.X)
		switch {
		case err != nil:
			return nil, err
		case x.Op == "-":
			return func(env *Env) S { env.Flops++; return -op(env) }, nil
		case x.Op == "~" && !isF[S]():
			i := as[ExprI](op)
			return as[Expr[S]](ExprI(func(env *Env) int64 { env.Flops++; return ^i(env) })), nil
		}
		return nil, fmt.Errorf("ir: line %d: unknown unary operator %q", x.Pos(), x.Op)

	case *cc.CondExpr:
		cond, err := compileCond(x.Cond)
		if err != nil {
			return nil, err
		}
		a, err := compileExpr[S](x.Then)
		if err != nil {
			return nil, err
		}
		b, err := compileExpr[S](x.Else)
		if err != nil {
			return nil, err
		}
		return func(env *Env) S {
			if cond(env) {
				return a(env)
			}
			return b(env)
		}, nil

	case *cc.CallExpr:
		return compileCall[S](x)

	case *cc.CastExpr:
		// To int or double: the conversion of the context; to float, a
		// rounding through float32 on top, like a C float cast.
		op, err := compileExpr[S](x.X)
		if err != nil || x.To != cc.TFloat {
			return op, err
		}
		f := as[ExprF](op)
		return as[Expr[S]](ExprF(func(env *Env) float64 { return float64(float32(f(env))) })), nil
	}
	return nil, fmt.Errorf("ir: line %d: cannot compile expression %T", e.Pos(), e)
}

// compileCond compiles an expression used as a truth value, in its own
// type.
func compileCond(e cc.Expr) (func(*Env) bool, error) {
	if e.Type() == cc.TInt {
		return condOver[int64](e)
	}
	return condOver[float64](e)
}

func condOver[S Num](e cc.Expr) (func(*Env) bool, error) {
	op, err := compileOwn[S](e)
	if err != nil {
		return nil, err
	}
	return func(env *Env) bool { return op(env) != 0 }, nil
}

func compileBinary[S Num](x *cc.BinaryExpr) (Expr[S], error) {
	switch x.Op {
	case "&&", "||":
		// Logical operators short-circuit.
		a, err := compileCond(x.X)
		if err != nil {
			return nil, err
		}
		b, err := compileCond(x.Y)
		if err != nil {
			return nil, err
		}
		if x.Op == "&&" {
			return as[Expr[S]](ExprI(func(env *Env) int64 { env.Flops++; return b2i(a(env) && b(env)) })), nil
		}
		return as[Expr[S]](ExprI(func(env *Env) int64 { env.Flops++; return b2i(a(env) || b(env)) })), nil

	case "<", "<=", ">", ">=", "==", "!=":
		// Comparisons yield int but compare in the operands' joint type.
		if x.X.Type() == cc.TInt && x.Y.Type() == cc.TInt {
			return compare[int64, S](x)
		}
		return compare[float64, S](x)
	}

	a, err := compileExpr[S](x.X)
	if err != nil {
		return nil, err
	}
	b, err := compileExpr[S](x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return func(env *Env) S { env.Flops++; return a(env) + b(env) }, nil
	case "-":
		return func(env *Env) S { env.Flops++; return a(env) - b(env) }, nil
	case "*":
		return func(env *Env) S { env.Flops++; return a(env) * b(env) }, nil
	case "/":
		// A float division costs four flops, an int one one.
		n := 1 + 3*b2i(isF[S]())
		return func(env *Env) S { env.Flops += n; return a(env) / b(env) }, nil
	}
	fn := opOf[S](x.Op)
	if fn == nil {
		return nil, fmt.Errorf("ir: line %d: unknown %s operator %q", x.Pos(), [2]string{"int", "float"}[b2i(isF[S]())], x.Op)
	}
	return func(env *Env) S { env.Flops++; return fn(a(env), b(env)) }, nil
}

// compare compiles a comparison of two T operands; its value is an int.
func compare[T, S Num](x *cc.BinaryExpr) (Expr[S], error) {
	a, err := compileExpr[T](x.X)
	if err != nil {
		return nil, err
	}
	b, err := compileExpr[T](x.Y)
	if err != nil {
		return nil, err
	}
	cmp := cmpOf[T](x.Op)
	return as[Expr[S]](ExprI(func(env *Env) int64 { env.Flops++; return b2i(cmp(a(env), b(env))) })), nil
}

// opOf is the one table of the binary arithmetic operators over S, by
// name: + - * / over either lane type, and what only an int has — %, the
// bit operators and the shifts (the count converts to uint: one of 64 or
// more, or a negative one, leaves 0, or -1 for a negative value shifted
// right). Nil for an operator S lacks. The interpreter's binary nodes run
// + - * / inline and the rest through it; its compound assignments
// (applyOf), the tiles' and the folder's are all this table.
func opOf[S Num](op string) func(S, S) S {
	switch op {
	case "+":
		return func(a, b S) S { return a + b }
	case "-":
		return func(a, b S) S { return a - b }
	case "*":
		return func(a, b S) S { return a * b }
	case "/":
		return func(a, b S) S { return a / b }
	}
	if isF[S]() {
		return nil
	}
	var f func(a, b int64) int64
	switch op {
	case "%":
		f = func(a, b int64) int64 { return a % b }
	case "&":
		f = func(a, b int64) int64 { return a & b }
	case "|":
		f = func(a, b int64) int64 { return a | b }
	case "^":
		f = func(a, b int64) int64 { return a ^ b }
	case "<<":
		f = func(a, b int64) int64 { return a << uint(b) }
	case ">>":
		f = func(a, b int64) int64 { return a >> uint(b) }
	}
	return as[func(S, S) S](f)
}

// applyOf gives the operator of a compound assignment over S: opOf's, nil
// for "=" and for an operator S lacks.
func applyOf[S Num](op string) func(S, S) S {
	if len(op) < 2 {
		return nil
	}
	return opOf[S](op[:len(op)-1])
}

// cmpOf gives a comparison operator over either scalar type.
func cmpOf[S Num](op string) func(S, S) bool {
	switch op {
	case "<":
		return func(a, b S) bool { return a < b }
	case "<=":
		return func(a, b S) bool { return a <= b }
	case ">":
		return func(a, b S) bool { return a > b }
	case ">=":
		return func(a, b S) bool { return a >= b }
	case "==":
		return func(a, b S) bool { return a == b }
	default:
		return func(a, b S) bool { return a != b }
	}
}

// compileCall compiles a builtin: min, max and abs for int, floatBuiltin's
// functions for float; builtin gives the same functions to the tiles.
func compileCall[S Num](x *cc.CallExpr) (Expr[S], error) {
	var args [2]Expr[S]
	for i, a := range x.Args {
		c, err := compileExpr[S](a)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	fn1, fn2, _ := builtin[S](x.Name)
	flops, a0, a1 := cc.Builtins[x.Name].Flops, args[0], args[1]
	switch {
	case fn1 != nil:
		return func(env *Env) S { env.Flops += flops; return fn1(a0(env)) }, nil
	case fn2 != nil:
		return func(env *Env) S { env.Flops += flops; return fn2(a0(env), a1(env)) }, nil
	}
	return nil, fmt.Errorf("ir: line %d: unknown builtin %q", x.Pos(), x.Name)
}

// floatBuiltin maps a float builtin name to its math implementation
// (one- or two-argument); the interpreter and the tiles share it so they
// call bit-identical functions.
func floatBuiltin(name string) (fn1 func(float64) float64, fn2 func(float64, float64) float64, ok bool) {
	switch name {
	case "sqrt", "sqrtf":
		fn1 = math.Sqrt
	case "fabs", "fabsf", "abs":
		fn1 = math.Abs
	case "exp", "expf":
		fn1 = math.Exp
	case "log", "logf":
		fn1 = math.Log
	case "floor":
		fn1 = math.Floor
	case "ceil":
		fn1 = math.Ceil
	case "pow", "powf":
		fn2 = math.Pow
	case "min":
		fn2 = math.Min
	case "max":
		fn2 = math.Max
	default:
		return nil, nil, false
	}
	return fn1, fn2, true
}

// readScalar and readArray are the expression's leaves: the reads of S's
// scalar slot and of element idx of S's array.
func readScalar[S Num](slot int) Expr[S] {
	if isF[S]() {
		return as[Expr[S]](ExprF(func(env *Env) float64 { return env.Floats[slot] }))
	}
	return as[Expr[S]](ExprI(func(env *Env) int64 { return env.Ints[slot] }))
}

func readArray[S Num](slot int, idx ExprI) Expr[S] {
	if isF[S]() {
		return as[Expr[S]](ExprF(func(env *Env) float64 { return env.Views[slot].F.Load(env, idx(env)) }))
	}
	return as[Expr[S]](ExprI(func(env *Env) int64 { return env.Views[slot].I.Load(env, idx(env)) }))
}
