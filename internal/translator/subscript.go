package translator

// The subscript algebra. A kernel subscript the analyses can reason about
// is c·i + o in the induction variable i (a Class, read off the index
// expression's cc.Linear form); a localaccess stride clause with literal
// arguments is a Window of such subscripts. Every
// static question about them — does the window contain the access, what
// halo do these accesses need, can two accesses hit one element on
// different iterations — is answered here once, for the lowering's
// write-miss elision (ir.ArrayUse.WritesWithinLocal) and for every accvet
// check (internal/analysis) alike, so the analyzer's verdict and the
// runtime's configuration cannot disagree.

import "accmulti/internal/cc"

// Class is the subscript Coef·i + Off of iteration i, and the congruence
// class of elements it names as i ranges over the integers.
type Class struct{ Coef, Off int64 }

// ClassOf reads an expression as the subscript c·v + o in the variable v;
// it fails when the expression is not linear or names another scalar.
func ClassOf(e cc.Expr, v *cc.VarDecl) (Class, bool) {
	switch l, ok := cc.LinearOf(e); {
	case ok && len(l.Terms) == 0:
		return Class{Off: l.Off}, true
	case ok && len(l.Terms) == 1 && l.Terms[0].Var == v:
		return Class{Coef: l.Terms[0].K, Off: l.Off}, true
	}
	return Class{}, false
}

// Meet reports whether two classes share an element, whatever the
// iterations naming it (the iteration domains are ignored: conservative).
func Meet(a, b Class) bool {
	g := a.Coef
	for y := b.Coef; y != 0; {
		g, y = y, g%y
	}
	if g == 0 {
		return a.Off == b.Off
	}
	return (a.Off-b.Off)%g == 0
}

// Collide reports whether subscript a on one iteration and subscript b on
// a different one can name one element. A class with a nonzero coefficient
// never collides with itself: each iteration owns its element.
func Collide(a, b Class) bool {
	return Meet(a, b) && (a != b || a.Coef == 0)
}

// Window is a localaccess stride clause with literal arguments: iteration
// i may touch [S·i − L, S·(i+1) − 1 + R] (paper §IV-B).
type Window struct{ S, L, R int64 }

// WindowOf reads the window off a stride clause; it fails on a missing
// clause, the bounds form and symbolic arguments.
func WindowOf(spec *cc.LocalSpec) (w Window, ok bool) {
	if spec == nil || !spec.HasStride {
		return w, false
	}
	var okS, okL, okR bool
	w.S, okS = LiteralInt(spec.Stride)
	w.L, okL = LiteralInt(spec.Left)
	w.R, okR = LiteralInt(spec.Right)
	return w, okS && okL && okR
}

// Contains reports that the access provably stays inside the window on
// every iteration: the paper's condition for eliding the miss check of a
// store (§IV-D2), and accvet's for a declared footprint being wide enough.
func (w Window) Contains(f IndexForm) bool {
	return f.Literal && f.Coef == w.S && f.Off >= -w.L && f.Off <= w.S-1+w.R
}

// Need is the least halo (l, r) with which a window of stride w.S contains
// every one of the accesses, all of which have the coefficient w.S.
func (w Window) Need(forms []IndexForm) (l, r int64) {
	for _, f := range forms {
		l = max(l, -f.Off)
		r = max(r, f.Off-(w.S-1))
	}
	return l, r
}

// CommonCoef is the one coefficient of a set of literal subscripts; it
// fails on an empty set, a non-literal subscript or two coefficients.
func CommonCoef(forms []IndexForm) (coef int64, ok bool) {
	for i, f := range forms {
		if !f.Literal || (i > 0 && f.Coef != coef) {
			return 0, false
		}
		coef = f.Coef
	}
	return coef, len(forms) > 0
}
