package ir

import (
	"math"
	"testing"
	"testing/quick"

	"accmulti/internal/cc"
)

// foldOf parses a standalone expression in a scope with int a,b and
// float p and returns the folded tree.
func foldOf(t *testing.T, expr string) cc.Expr {
	t.Helper()
	prog, err := cc.ParseProgram("int a, b;\nfloat p;\nvoid main() { a = 0; }")
	if err != nil {
		t.Fatal(err)
	}
	e, err := cc.ParseExprString(expr, 1, prog.Scope)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return foldExpr(e)
}

func TestFoldLiterals(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(10 - 4) / 3", 2},
		{"7 % 3", 1},
		{"1 << 4 | 3", 19},
		{"~0 & 255", 255},
		{"5 ^ 3", 6},
		{"3 < 4", 1},
		{"3 >= 4", 0},
		{"1 && 0", 0},
		{"1 || 0", 1},
		{"!(2 > 1)", 0},
		{"-(3 + 4)", -7},
		{"2 > 1 ? 10 : 20", 10},
		{"0 != 0 ? 10 : 20", 20},
		{"(int)(3.9)", 3},
		{"(int)(2.0 * 2.5)", 5},
		{"1000 >> 3", 125},
	}
	for _, tc := range cases {
		got := foldOf(t, tc.expr)
		lit, ok := got.(*cc.NumLit)
		if !ok {
			t.Errorf("fold(%q) = %T, want literal", tc.expr, got)
			continue
		}
		if lit.IsFloat || lit.I != tc.want {
			t.Errorf("fold(%q) = %+v, want %d", tc.expr, lit, tc.want)
		}
	}
}

func TestFoldFloatLiterals(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"1.5 + 2.5", 4.0},
		{"10.0 / 4.0", 2.5},
		{"2 * 0.5", 1.0},
		{"1.0 - 3", -2.0},
	}
	for _, tc := range cases {
		lit, ok := foldOf(t, tc.expr).(*cc.NumLit)
		if !ok || !lit.IsFloat || lit.F != tc.want {
			t.Errorf("fold(%q) = %+v, want %g", tc.expr, lit, tc.want)
		}
	}
}

func TestFoldIdentities(t *testing.T) {
	// x+0, x*1 etc. collapse to the bare identifier.
	for _, expr := range []string{"a + 0", "0 + a", "a - 0", "a * 1", "1 * a", "a / 1"} {
		if _, ok := foldOf(t, expr).(*cc.Ident); !ok {
			t.Errorf("fold(%q) should collapse to the identifier", expr)
		}
	}
	// 0 * int-expr collapses to 0.
	if lit, ok := foldOf(t, "0 * (a + b)").(*cc.NumLit); !ok || lit.I != 0 {
		t.Error("0 * intexpr should fold to 0")
	}
	// Float 0*x is NOT folded (NaN/Inf semantics).
	if _, ok := foldOf(t, "0.0 * p").(*cc.NumLit); ok {
		t.Error("0.0 * p must not fold")
	}
	// int + 0.0 must not collapse to the int (type changes).
	if _, ok := foldOf(t, "a + 0.0").(*cc.Ident); ok {
		t.Error("a + 0.0 must not collapse to a bare int identifier")
	}
}

func TestFoldKeepsRuntimeFaults(t *testing.T) {
	// Division by a literal zero stays a runtime operation.
	if _, ok := foldOf(t, "1 / 0").(*cc.NumLit); ok {
		t.Error("1/0 must not fold")
	}
	if _, ok := foldOf(t, "1 % 0").(*cc.NumLit); ok {
		t.Error("1%0 must not fold")
	}
}

func TestFoldInsideIndexAndCalls(t *testing.T) {
	prog, err := cc.ParseProgram("int n;\nfloat x[n];\nvoid main() { n = 0; }")
	if err != nil {
		t.Fatal(err)
	}
	e, err := cc.ParseExprString("x[2 * 3 + n] + min(1 + 1, 4)", 1, prog.Scope)
	if err != nil {
		t.Fatal(err)
	}
	folded := foldExpr(e)
	bin := folded.(*cc.BinaryExpr)
	idx := bin.X.(*cc.IndexExpr)
	inner := idx.Index.(*cc.BinaryExpr)
	if lit, ok := inner.X.(*cc.NumLit); !ok || lit.I != 6 {
		t.Errorf("index subtree not folded: %+v", inner.X)
	}
	call := bin.Y.(*cc.CallExpr)
	if lit, ok := call.Args[0].(*cc.NumLit); !ok || lit.I != 2 {
		t.Errorf("call arg not folded: %+v", call.Args[0])
	}
}

// Property: folding never changes the value of a compiled expression.
func TestFoldEquivalenceProperty(t *testing.T) {
	prog, err := cc.ParseProgram("int a, b;\nvoid main() { a = 0; }")
	if err != nil {
		t.Fatal(err)
	}
	exprs := []string{
		"a * 2 + b * 3 - (1 + 2)",
		"(a + 0) * (1 * b) + 4 / 2",
		"a / (b | 1) + 7 % 3",
		"(a < b) * 10 + (2 > 1 ? a : b)",
		"-(a - 0) + ~(b ^ 0)",
		"max(a, 1 + 1) + min(b, 0 + 5)",
	}
	f := func(a8, b8 int8, pick uint8) bool {
		text := exprs[int(pick)%len(exprs)]
		e, err := cc.ParseExprString(text, 1, prog.Scope)
		if err != nil {
			return false
		}
		// Compile twice: raw closures (bypassing fold via compileExpr
		// on the unfolded tree) vs the public entry (folds first).
		rawI, err := compileExpr[int64](e)
		if err != nil {
			return false
		}
		foldedI, err := CompileExprI(e)
		if err != nil {
			return false
		}
		env := &Env{Ints: []int64{int64(a8), int64(b8)}}
		return rawI(env) == foldedI(env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	// Literal operands of every kind, under every operator sema accepts
	// for them: ints (shift counts of 64 and more, the extremes), doubles
	// and floats (NaN, ±Inf, −0) and mixed pairs. The folded literal keeps
	// the expression's type and is the unfolded closure's value, bit for
	// bit; an int / or % by zero stays unfolded (TestFoldKeepsRuntimeFaults).
	ints := []string{"0", "1", "-1", "7", "64", "65", "-9223372036854775807 - 1", "9223372036854775807"}
	floats := []string{"0.0", "-0.0", "1.5", "-2.25", "1.0 / 0.0", "-1.0 / 0.0", "0.0 / 0.0", "1e308",
		"(float)0.1", "(float)-0.0", "(float)(1.0 / 0.0)", "(double)(float)3.3"}
	intOps := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	floatOps := []string{"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	check := func(text string) {
		t.Helper()
		e, err := cc.ParseExprString(text, 1, prog.Scope)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		lit, ok := foldExpr(e).(*cc.NumLit)
		if !ok || lit.Type() != e.Type() || lit.IsFloat != (e.Type() != cc.TInt) {
			t.Errorf("fold(%q) = %+v, want a literal of type %v", text, foldExpr(e), e.Type())
			return
		}
		if e.Type() == cc.TInt {
			if raw, _ := compileExpr[int64](e); raw(&Env{}) != lit.I {
				t.Errorf("fold(%q) = %d, the closure %d", text, lit.I, raw(&Env{}))
			}
		} else if raw, _ := compileExpr[float64](e); math.Float64bits(raw(&Env{})) != math.Float64bits(lit.F) {
			t.Errorf("fold(%q) = %v, the closure %v", text, lit.F, raw(&Env{}))
		}
	}
	for _, x := range ints {
		for _, y := range ints {
			for _, op := range intOps {
				if (op != "/" && op != "%") || y != "0" {
					check("(" + x + ") " + op + " (" + y + ")")
				}
			}
		}
	}
	all := append(append([]string(nil), ints...), floats...)
	for xi, x := range all {
		for yi, y := range all {
			for _, op := range floatOps {
				if xi >= len(ints) || yi >= len(ints) {
					check("(" + x + ") " + op + " (" + y + ")")
				}
			}
		}
		for _, un := range []string{"-", "!", "(int)", "(float)", "(double)"} {
			check(un + "(" + x + ")")
		}
		if xi < len(ints) {
			check("~(" + x + ")")
		}
	}
}
