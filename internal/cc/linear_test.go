package cc

import "testing"

func TestLinearOf(t *testing.T) {
	prog, err := ParseProgram("int n, m, i; float f; float a[n];\nvoid main() { }")
	if err != nil {
		t.Fatal(err)
	}
	form := func(text string) (Linear, bool) {
		e, err := ParseExprString(text, 1, prog.Scope)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return LinearOf(e)
	}
	n, m, i := prog.Scope["n"], prog.Scope["m"], prog.Scope["i"]
	coef := func(l Linear, d *VarDecl) int64 {
		for _, t := range l.Terms {
			if t.Var == d {
				return t.K
			}
		}
		return 0
	}
	for _, tc := range []struct {
		text       string
		kn, km, ki int64
		off        int64
	}{
		{"7", 0, 0, 0, 7},
		{"-i + 5", 0, 0, -1, 5},
		{"2 * i + i * 2 + 6", 0, 0, 4, 6},
		{"3 * (n - 1) - (m + 2)", 3, -1, 0, -5},
		{"n + m - n", 0, 1, 0, 0},
		{"(i - i) * 9", 0, 0, 0, 0},
	} {
		l, ok := form(tc.text)
		if !ok || coef(l, n) != tc.kn || coef(l, m) != tc.km || coef(l, i) != tc.ki || l.Off != tc.off {
			t.Errorf("%s = %+v %v, want %d*n + %d*m + %d*i + %d", tc.text, l, ok, tc.kn, tc.km, tc.ki, tc.off)
		}
		for _, term := range l.Terms {
			if term.K == 0 {
				t.Errorf("%s keeps a zero term: %+v", tc.text, l)
			}
		}
	}
	for _, text := range []string{"n * m", "i / 2", "a[i]", "1.5", "i % 2", "!i"} {
		if l, ok := form(text); ok {
			t.Errorf("%s read as linear: %+v", text, l)
		}
	}
	a, _ := form("2 * n + m - 1")
	b, _ := form("m + n + n + 4")
	if d, ok := a.Minus(b); !ok || d != -5 {
		t.Errorf("difference %d %v, want the constant -5", d, ok)
	}
	c, _ := form("n + 4")
	if _, ok := a.Minus(c); ok {
		t.Error("forms over different variables differ by no constant")
	}
}
