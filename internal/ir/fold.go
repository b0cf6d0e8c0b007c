package ir

import "accmulti/internal/cc"

// Constant folding: the expression compiler first rewrites literal
// subtrees into literals and strips algebraic identities (x+0, x*1,
// 0*x for ints). Kernel bodies are interpreted once per iteration, so
// every folded node saves a closure call on the hot path. Folding is
// exact: integer arithmetic matches the closures' int64 semantics and
// float folding performs the identical float64 operation the closure
// would have performed.
//
// Folded operations still count toward the cost model: literals the
// C compiler would also fold (e.g. `4 * 128`) cost nothing on real
// hardware either.

// foldExpr returns e with literal subtrees collapsed.
func foldExpr(e cc.Expr) cc.Expr {
	switch x := e.(type) {
	case *cc.BinaryExpr:
		fx, fy := foldExpr(x.X), foldExpr(x.Y)
		if lit := foldBinary(x, fx, fy); lit != nil {
			return lit
		}
		if simplified := algebraicIdentity(x, fx, fy); simplified != nil {
			return simplified
		}
		if fx != x.X || fy != x.Y {
			c := *x
			c.X, c.Y = fx, fy
			return &c
		}
		return x
	case *cc.UnaryExpr:
		fx := foldExpr(x.X)
		if n, ok := fx.(*cc.NumLit); ok {
			switch x.Op {
			case "-":
				out := *n
				out.I, out.F = -n.I, -n.F
				setLitType(&out, x.Type())
				return &out
			case "!":
				v := int64(0)
				if (n.IsFloat && n.F == 0) || (!n.IsFloat && n.I == 0) {
					v = 1
				}
				return intLit(x.Pos(), v)
			case "~":
				if !n.IsFloat {
					return intLit(x.Pos(), ^n.I)
				}
			}
		}
		if fx != x.X {
			c := *x
			c.X = fx
			return &c
		}
		return x
	case *cc.CastExpr:
		fx := foldExpr(x.X)
		if n, ok := fx.(*cc.NumLit); ok {
			out := *n
			switch x.To {
			case cc.TInt:
				if n.IsFloat {
					out.I, out.IsFloat = int64(n.F), false
				}
			case cc.TFloat:
				if n.IsFloat {
					out.F = float64(float32(n.F))
				} else {
					out.F, out.IsFloat = float64(float32(float64(n.I))), true
				}
			default:
				if !n.IsFloat {
					out.F, out.IsFloat = float64(n.I), true
				}
			}
			setLitType(&out, x.Type())
			return &out
		}
		if fx != x.X {
			c := *x
			c.X = fx
			return &c
		}
		return x
	case *cc.IndexExpr:
		fi := foldExpr(x.Index)
		if fi != x.Index {
			c := *x
			c.Index = fi
			return &c
		}
		return x
	case *cc.CondExpr:
		fc, ft, fe := foldExpr(x.Cond), foldExpr(x.Then), foldExpr(x.Else)
		if n, ok := fc.(*cc.NumLit); ok {
			truthy := (n.IsFloat && n.F != 0) || (!n.IsFloat && n.I != 0)
			if truthy {
				return ft
			}
			return fe
		}
		if fc != x.Cond || ft != x.Then || fe != x.Else {
			c := *x
			c.Cond, c.Then, c.Else = fc, ft, fe
			return &c
		}
		return x
	case *cc.CallExpr:
		changed := false
		args := make([]cc.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = foldExpr(a)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			c := *x
			c.Args = args
			return &c
		}
		return x
	}
	return e
}

// foldBinary evaluates a binary operation over two literals, matching
// the compiled closures' semantics exactly; nil when not foldable.
func foldBinary(x *cc.BinaryExpr, fx, fy cc.Expr) cc.Expr {
	a, okA := fx.(*cc.NumLit)
	b, okB := fy.(*cc.NumLit)
	if !okA || !okB {
		return nil
	}
	bothInt := !a.IsFloat && !b.IsFloat
	if bothInt {
		var v int64
		switch x.Op {
		case "+":
			v = a.I + b.I
		case "-":
			v = a.I - b.I
		case "*":
			v = a.I * b.I
		case "/":
			if b.I == 0 {
				return nil // keep the runtime fault
			}
			v = a.I / b.I
		case "%":
			if b.I == 0 {
				return nil
			}
			v = a.I % b.I
		case "&":
			v = a.I & b.I
		case "|":
			v = a.I | b.I
		case "^":
			v = a.I ^ b.I
		case "<<":
			v = a.I << uint(b.I)
		case ">>":
			v = a.I >> uint(b.I)
		case "<", "<=", ">", ">=", "==", "!=":
			v = boolToInt(cmpOf[int64](x.Op)(a.I, b.I))
		case "&&":
			v = boolToInt(a.I != 0 && b.I != 0)
		case "||":
			v = boolToInt(a.I != 0 || b.I != 0)
		default:
			return nil
		}
		return intLit(x.Pos(), v)
	}
	// Mixed or float: compute in float64 like the closures do.
	af, bf := litF(a), litF(b)
	switch x.Op {
	case "+", "-", "*", "/":
		var v float64
		switch x.Op {
		case "+":
			v = af + bf
		case "-":
			v = af - bf
		case "*":
			v = af * bf
		default:
			v = af / bf
		}
		lit := &cc.NumLit{IsFloat: true, F: v}
		setLitPos(lit, x.Pos())
		setLitType(lit, x.Type())
		return lit
	case "<", "<=", ">", ">=", "==", "!=":
		return intLit(x.Pos(), boolToInt(cmpOf[float64](x.Op)(af, bf)))
	case "&&":
		return intLit(x.Pos(), boolToInt(af != 0 && bf != 0))
	case "||":
		return intLit(x.Pos(), boolToInt(af != 0 || bf != 0))
	}
	return nil
}

// algebraicIdentity strips neutral elements: x+0, 0+x, x-0, x*1, 1*x,
// x/1, and 0*x / x*0 for integers (float 0*x is kept: NaN/Inf
// semantics). The replacement must preserve the expression's analyzed
// type, so identities only apply when the surviving operand's type
// matches.
func algebraicIdentity(x *cc.BinaryExpr, fx, fy cc.Expr) cc.Expr {
	a, okA := fx.(*cc.NumLit)
	b, okB := fy.(*cc.NumLit)
	isZero := func(n *cc.NumLit) bool { return (n.IsFloat && n.F == 0) || (!n.IsFloat && n.I == 0) }
	isOne := func(n *cc.NumLit) bool { return (n.IsFloat && n.F == 1) || (!n.IsFloat && n.I == 1) }
	switch x.Op {
	case "+":
		if okB && isZero(b) && fx.Type() == x.Type() {
			return fx
		}
		if okA && isZero(a) && fy.Type() == x.Type() {
			return fy
		}
	case "-":
		if okB && isZero(b) && fx.Type() == x.Type() {
			return fx
		}
	case "*":
		if okB && isOne(b) && fx.Type() == x.Type() {
			return fx
		}
		if okA && isOne(a) && fy.Type() == x.Type() {
			return fy
		}
		if x.Type() == cc.TInt {
			if (okA && isZero(a)) || (okB && isZero(b)) {
				return intLit(x.Pos(), 0)
			}
		}
	case "/":
		if okB && isOne(b) && fx.Type() == x.Type() {
			return fx
		}
	}
	return nil
}

// setLitType and setLitPos write the promoted exprBase fields the
// folded literal must carry for downstream typing.
func setLitType(n *cc.NumLit, t cc.ElemType) { n.T = t }
func setLitPos(n *cc.NumLit, line int)       { n.Line = line }

func litF(n *cc.NumLit) float64 {
	if n.IsFloat {
		return n.F
	}
	return float64(n.I)
}

func intLit(line int, v int64) *cc.NumLit {
	lit := &cc.NumLit{I: v}
	setLitPos(lit, line)
	setLitType(lit, cc.TInt)
	return lit
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
