package cc

import "slices"

// Linear is Σ kᵥ·v + Off over scalar variables with integer literal
// coefficients: the one reading of an expression as a linear form, for
// subscripts (translator.ClassOf), loop bounds and array sizes alike. No
// term has a zero coefficient, so two forms denote the same function
// exactly when their difference (Minus) is zero.
type Linear struct {
	Terms []Term
	Off   int64
}

// Term is one kᵥ·v of a Linear.
type Term struct {
	Var *VarDecl
	K   int64
}

// LinearOf reads an expression built from integer literals, scalars,
// unary minus, + and −, and products with one constant side.
func LinearOf(e Expr) (Linear, bool) {
	switch x := e.(type) {
	case *NumLit:
		return Linear{Off: x.I}, !x.IsFloat
	case *Ident:
		return Linear{Terms: []Term{{x.Decl, 1}}}, x.Decl != nil && !x.Decl.IsArray
	case *UnaryExpr:
		a, ok := LinearOf(x.X)
		return Linear{}.plus(a, -1), ok && x.Op == "-"
	case *BinaryExpr:
		a, okA := LinearOf(x.X)
		b, okB := LinearOf(x.Y)
		switch {
		case !okA || !okB:
		case x.Op == "+":
			return a.plus(b, 1), true
		case x.Op == "-":
			return a.plus(b, -1), true
		case x.Op == "*" && len(a.Terms) == 0:
			return Linear{}.plus(b, a.Off), true
		case x.Op == "*" && len(b.Terms) == 0:
			return Linear{}.plus(a, b.Off), true
		}
	}
	return Linear{}, false
}

// plus is l + k·o.
func (l Linear) plus(o Linear, k int64) Linear {
	out := Linear{Terms: slices.Clone(l.Terms), Off: l.Off + k*o.Off}
	for _, t := range o.Terms {
		i := slices.IndexFunc(out.Terms, func(x Term) bool { return x.Var == t.Var })
		if i < 0 {
			i = len(out.Terms)
			out.Terms = append(out.Terms, Term{Var: t.Var})
		}
		out.Terms[i].K += k * t.K
	}
	out.Terms = slices.DeleteFunc(out.Terms, func(x Term) bool { return x.K == 0 })
	return out
}

// Minus is the constant l − o when the two differ by a constant only.
func (l Linear) Minus(o Linear) (d int64, ok bool) {
	diff := l.plus(o, -1)
	return diff.Off, len(diff.Terms) == 0
}
