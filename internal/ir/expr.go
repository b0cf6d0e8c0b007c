package ir

import (
	"fmt"
	"math"

	"accmulti/internal/cc"
)

// ExprI is a compiled integer-valued expression.
type ExprI func(*Env) int64

// ExprF is a compiled float-valued expression.
type ExprF func(*Env) float64

// CompileExprI compiles an expression and coerces it to integer
// (C truncation semantics for floats). Literal subtrees fold first.
func CompileExprI(e cc.Expr) (ExprI, error) {
	e = foldExpr(e)
	if e.Type() == cc.TInt {
		ci, _, err := compileExpr(e)
		return ci, err
	}
	_, cf, err := compileExpr(e)
	if err != nil {
		return nil, err
	}
	return func(env *Env) int64 { return int64(cf(env)) }, nil
}

// CompileExprF compiles an expression and coerces it to float.
// Literal subtrees fold first.
func CompileExprF(e cc.Expr) (ExprF, error) {
	e = foldExpr(e)
	if e.Type() != cc.TInt {
		_, cf, err := compileExpr(e)
		return cf, err
	}
	ci, _, err := compileExpr(e)
	if err != nil {
		return nil, err
	}
	return func(env *Env) float64 { return float64(ci(env)) }, nil
}

// compileExpr returns exactly one non-nil closure matching e's type.
func compileExpr(e cc.Expr) (ExprI, ExprF, error) {
	switch x := e.(type) {
	case *cc.NumLit:
		if x.IsFloat {
			v := x.F
			return nil, func(*Env) float64 { return v }, nil
		}
		v := x.I
		return func(*Env) int64 { return v }, nil, nil

	case *cc.Ident:
		slot := x.Decl.Slot
		if x.Type() == cc.TInt {
			return func(env *Env) int64 { return env.Ints[slot] }, nil, nil
		}
		return nil, func(env *Env) float64 { return env.Floats[slot] }, nil

	case *cc.IndexExpr:
		idx, err := CompileExprI(x.Index)
		if err != nil {
			return nil, nil, err
		}
		slot := x.Array.Slot
		if x.Type() == cc.TInt {
			return func(env *Env) int64 { return env.Views[slot].LoadI(env, idx(env)) }, nil, nil
		}
		return nil, func(env *Env) float64 { return env.Views[slot].LoadF(env, idx(env)) }, nil

	case *cc.BinaryExpr:
		return compileBinary(x)

	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			if x.Type() == cc.TInt {
				op, err := CompileExprI(x.X)
				if err != nil {
					return nil, nil, err
				}
				return func(env *Env) int64 { env.Flops++; return -op(env) }, nil, nil
			}
			op, err := CompileExprF(x.X)
			if err != nil {
				return nil, nil, err
			}
			return nil, func(env *Env) float64 { env.Flops++; return -op(env) }, nil
		case "!":
			op, err := compileCond(x.X)
			if err != nil {
				return nil, nil, err
			}
			return func(env *Env) int64 {
				env.Flops++
				if op(env) {
					return 0
				}
				return 1
			}, nil, nil
		case "~":
			op, err := CompileExprI(x.X)
			if err != nil {
				return nil, nil, err
			}
			return func(env *Env) int64 { env.Flops++; return ^op(env) }, nil, nil
		}
		return nil, nil, fmt.Errorf("ir: line %d: unknown unary operator %q", x.Pos(), x.Op)

	case *cc.CondExpr:
		cond, err := compileCond(x.Cond)
		if err != nil {
			return nil, nil, err
		}
		if x.Type() == cc.TInt {
			a, err := CompileExprI(x.Then)
			if err != nil {
				return nil, nil, err
			}
			b, err := CompileExprI(x.Else)
			if err != nil {
				return nil, nil, err
			}
			return func(env *Env) int64 {
				if cond(env) {
					return a(env)
				}
				return b(env)
			}, nil, nil
		}
		a, err := CompileExprF(x.Then)
		if err != nil {
			return nil, nil, err
		}
		b, err := CompileExprF(x.Else)
		if err != nil {
			return nil, nil, err
		}
		return nil, func(env *Env) float64 {
			if cond(env) {
				return a(env)
			}
			return b(env)
		}, nil

	case *cc.CallExpr:
		return compileCall(x)

	case *cc.CastExpr:
		if x.To == cc.TInt {
			if x.X.Type() == cc.TInt {
				return compileExpr(x.X)
			}
			op, err := CompileExprF(x.X)
			if err != nil {
				return nil, nil, err
			}
			return func(env *Env) int64 { return int64(op(env)) }, nil, nil
		}
		op, err := CompileExprF(x.X)
		if err != nil {
			return nil, nil, err
		}
		if x.To == cc.TFloat {
			// Round through float32 like a C float cast.
			return nil, func(env *Env) float64 { return float64(float32(op(env))) }, nil
		}
		return nil, op, nil
	}
	return nil, nil, fmt.Errorf("ir: line %d: cannot compile expression %T", e.Pos(), e)
}

// compileCond compiles an expression used as a truth value.
func compileCond(e cc.Expr) (func(*Env) bool, error) {
	if e.Type() == cc.TInt {
		op, err := CompileExprI(e)
		if err != nil {
			return nil, err
		}
		return func(env *Env) bool { return op(env) != 0 }, nil
	}
	op, err := CompileExprF(e)
	if err != nil {
		return nil, err
	}
	return func(env *Env) bool { return op(env) != 0 }, nil
}

func compileBinary(x *cc.BinaryExpr) (ExprI, ExprF, error) {
	// Logical operators short-circuit.
	switch x.Op {
	case "&&", "||":
		a, err := compileCond(x.X)
		if err != nil {
			return nil, nil, err
		}
		b, err := compileCond(x.Y)
		if err != nil {
			return nil, nil, err
		}
		if x.Op == "&&" {
			return func(env *Env) int64 {
				env.Flops++
				if a(env) && b(env) {
					return 1
				}
				return 0
			}, nil, nil
		}
		return func(env *Env) int64 {
			env.Flops++
			if a(env) || b(env) {
				return 1
			}
			return 0
		}, nil, nil
	}

	// Comparisons yield int but compare in the operands' joint type.
	switch x.Op {
	case "<", "<=", ">", ">=", "==", "!=":
		if x.X.Type() == cc.TInt && x.Y.Type() == cc.TInt {
			a, err := CompileExprI(x.X)
			if err != nil {
				return nil, nil, err
			}
			b, err := CompileExprI(x.Y)
			if err != nil {
				return nil, nil, err
			}
			cmp := cmpOf[int64](x.Op)
			return func(env *Env) int64 {
				env.Flops++
				if cmp(a(env), b(env)) {
					return 1
				}
				return 0
			}, nil, nil
		}
		a, err := CompileExprF(x.X)
		if err != nil {
			return nil, nil, err
		}
		b, err := CompileExprF(x.Y)
		if err != nil {
			return nil, nil, err
		}
		cmp := cmpOf[float64](x.Op)
		return func(env *Env) int64 {
			env.Flops++
			if cmp(a(env), b(env)) {
				return 1
			}
			return 0
		}, nil, nil
	}

	if x.Type() == cc.TInt {
		a, err := CompileExprI(x.X)
		if err != nil {
			return nil, nil, err
		}
		b, err := CompileExprI(x.Y)
		if err != nil {
			return nil, nil, err
		}
		var fn func(int64, int64) int64
		switch x.Op {
		case "+":
			fn = func(p, q int64) int64 { return p + q }
		case "-":
			fn = func(p, q int64) int64 { return p - q }
		case "*":
			fn = func(p, q int64) int64 { return p * q }
		case "/":
			fn = func(p, q int64) int64 { return p / q }
		case "%":
			fn = func(p, q int64) int64 { return p % q }
		case "&":
			fn = func(p, q int64) int64 { return p & q }
		case "|":
			fn = func(p, q int64) int64 { return p | q }
		case "^":
			fn = func(p, q int64) int64 { return p ^ q }
		case "<<":
			fn = func(p, q int64) int64 { return p << uint(q) }
		case ">>":
			fn = func(p, q int64) int64 { return p >> uint(q) }
		default:
			return nil, nil, fmt.Errorf("ir: line %d: unknown int operator %q", x.Pos(), x.Op)
		}
		return func(env *Env) int64 { env.Flops++; return fn(a(env), b(env)) }, nil, nil
	}

	a, err := CompileExprF(x.X)
	if err != nil {
		return nil, nil, err
	}
	b, err := CompileExprF(x.Y)
	if err != nil {
		return nil, nil, err
	}
	switch x.Op {
	case "+":
		return nil, func(env *Env) float64 { env.Flops++; return a(env) + b(env) }, nil
	case "-":
		return nil, func(env *Env) float64 { env.Flops++; return a(env) - b(env) }, nil
	case "*":
		return nil, func(env *Env) float64 { env.Flops++; return a(env) * b(env) }, nil
	case "/":
		return nil, func(env *Env) float64 { env.Flops += 4; return a(env) / b(env) }, nil
	}
	return nil, nil, fmt.Errorf("ir: line %d: unknown float operator %q", x.Pos(), x.Op)
}

// cmpOf gives a comparison operator over either scalar type.
func cmpOf[S num](op string) func(S, S) bool {
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

func compileCall(x *cc.CallExpr) (ExprI, ExprF, error) {
	b := cc.Builtins[x.Name]
	flops := b.Flops
	if x.Type() == cc.TInt {
		// Integer min/max/abs.
		args := make([]ExprI, len(x.Args))
		for i, a := range x.Args {
			c, err := CompileExprI(a)
			if err != nil {
				return nil, nil, err
			}
			args[i] = c
		}
		switch x.Name {
		case "min":
			return func(env *Env) int64 { env.Flops += flops; return min(args[0](env), args[1](env)) }, nil, nil
		case "max":
			return func(env *Env) int64 { env.Flops += flops; return max(args[0](env), args[1](env)) }, nil, nil
		case "abs":
			return func(env *Env) int64 {
				env.Flops += flops
				v := args[0](env)
				if v < 0 {
					return -v
				}
				return v
			}, nil, nil
		}
		return nil, nil, fmt.Errorf("ir: line %d: builtin %q has no integer form", x.Pos(), x.Name)
	}

	args := make([]ExprF, len(x.Args))
	for i, a := range x.Args {
		c, err := CompileExprF(a)
		if err != nil {
			return nil, nil, err
		}
		args[i] = c
	}
	fn1, fn2, ok := floatBuiltin(x.Name)
	if !ok {
		return nil, nil, fmt.Errorf("ir: line %d: unknown builtin %q", x.Pos(), x.Name)
	}
	if fn1 != nil {
		a0 := args[0]
		return nil, func(env *Env) float64 { env.Flops += flops; return fn1(a0(env)) }, nil
	}
	a0, a1 := args[0], args[1]
	return nil, func(env *Env) float64 { env.Flops += flops; return fn2(a0(env), a1(env)) }, nil
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
