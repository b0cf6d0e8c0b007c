package ir

import "accmulti/internal/cc"

// Constant folding: the expression compiler first rewrites literal
// subtrees into literals and strips algebraic identities (x+0, x*1,
// 0*x for ints). Kernel bodies are interpreted once per iteration, so
// every folded node saves a closure call on the hot path. Folding is
// exact by construction: a binary, unary or cast node whose operands are
// all literals is evaluated by its own compiled closure, so the folder
// and the interpreter share one operator table. An int / or % by a literal
// zero stays unfolded, keeping its runtime fault.
//
// Folded operations still count toward the cost model: literals the
// C compiler would also fold (e.g. `4 * 128`) cost nothing on real
// hardware either.

// foldExpr returns e with literal subtrees collapsed.
func foldExpr(e cc.Expr) cc.Expr {
	switch x := e.(type) {
	case *cc.BinaryExpr:
		fx, fy := foldExpr(x.X), foldExpr(x.Y)
		c := x
		if fx != x.X || fy != x.Y {
			n := *x
			n.X, n.Y = fx, fy
			c = &n
		}
		if y, ok := fy.(*cc.NumLit); ok && (x.Op == "/" || x.Op == "%") && x.Type() == cc.TInt && y.I == 0 {
			return c // keep the runtime fault
		}
		if lit := evalLiterals(c, fx, fy); lit != nil {
			return lit
		}
		if simplified := algebraicIdentity(x, fx, fy); simplified != nil {
			return simplified
		}
		return c
	case *cc.UnaryExpr:
		fx := foldExpr(x.X)
		c := x
		if fx != x.X {
			n := *x
			n.X = fx
			c = &n
		}
		if lit := evalLiterals(c, fx); lit != nil {
			return lit
		}
		return c
	case *cc.CastExpr:
		fx := foldExpr(x.X)
		c := x
		if fx != x.X {
			n := *x
			n.X = fx
			c = &n
		}
		if lit := evalLiterals(c, fx); lit != nil {
			return lit
		}
		return c
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

// evalLiterals gives e's value as a literal of e's type when its operands
// ops are all literals, evaluating e's compiled closure on a scratch
// environment; nil otherwise.
func evalLiterals(e cc.Expr, ops ...cc.Expr) *cc.NumLit {
	for _, o := range ops {
		if _, ok := o.(*cc.NumLit); !ok {
			return nil
		}
	}
	lit := &cc.NumLit{IsFloat: e.Type() != cc.TInt}
	lit.Line, lit.T = e.Pos(), e.Type()
	var err error
	if lit.IsFloat {
		lit.F, err = evalAs[float64](e)
	} else {
		lit.I, err = evalAs[int64](e)
	}
	if err != nil {
		return nil
	}
	return lit
}

func evalAs[S Num](e cc.Expr) (S, error) {
	f, err := compileExpr[S](e)
	if err != nil {
		return 0, err
	}
	return f(&Env{}), nil
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

func intLit(line int, v int64) *cc.NumLit {
	lit := &cc.NumLit{I: v}
	lit.Line, lit.T = line, cc.TInt
	return lit
}
