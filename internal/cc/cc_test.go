package cc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const saxpySrc = `
// saxpy with a halo read, exercising most of the subset.
int n;
float a;
float x[n], y[n + 1];

void main() {
    int i;
    float err;
    err = 0.0;
    #pragma acc data copyin(x) copy(y)
    {
        #pragma acc localaccess(x) stride(1)
        #pragma acc parallel loop reduction(+:err)
        for (i = 0; i < n; i++) {
            y[i] = a * x[i] + y[i];
            err += y[i] * 0.5;
        }
        #pragma acc update host(y)
    }
}
`

func TestParseProgramSaxpy(t *testing.T) {
	prog, err := ParseProgram(saxpySrc)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	if len(prog.Globals) != 4 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	arrays := prog.ArrayDecls()
	if len(arrays) != 2 || arrays[0].Name != "x" || arrays[1].Name != "y" {
		t.Fatalf("arrays = %v", arrays)
	}
	if prog.NumArrays != 2 || prog.NumInts != 2 || prog.NumFloats != 2 {
		t.Fatalf("slot counts: arrays=%d ints=%d floats=%d", prog.NumArrays, prog.NumInts, prog.NumFloats)
	}
	// Locate the parallel loop and check attachments.
	var forStmt *ForStmt
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, sub := range st.Stmts {
				walk(sub)
			}
		case *ForStmt:
			if st.Parallel != nil {
				forStmt = st
			}
		}
	}
	walk(prog.Main.Body)
	if forStmt == nil {
		t.Fatal("no parallel loop found")
	}
	if len(forStmt.Specs) != 1 || forStmt.Specs[0].Array.Name != "x" || !forStmt.Specs[0].HasStride {
		t.Fatalf("local specs = %+v", forStmt.Specs)
	}
	reds, _ := forStmt.Parallel.Reductions()
	if len(reds) != 1 || reds[0].Var != "err" {
		t.Fatalf("reductions = %v", reds)
	}
}

func TestDataRegionAttachesToBlock(t *testing.T) {
	prog, err := ParseProgram(`
int n;
float a[n];
void main() {
    #pragma acc data copy(a)
    {
        int i;
        i = 0;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	blk, ok := prog.Main.Body.Stmts[0].(*Block)
	if !ok || blk.Data == nil {
		t.Fatalf("data region not attached: %T", prog.Main.Body.Stmts[0])
	}
}

func TestReductionToArrayAttachment(t *testing.T) {
	prog, err := ParseProgram(`
int n, k;
float feat[n], newc[k];
int member[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: newc[member[i]])
        newc[member[i]] += feat[i];
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Main.Body.Stmts[1].(*ForStmt)
	body := loop.Body.(*Block)
	as := body.Stmts[0].(*AssignStmt)
	if as.Reduce == nil || as.Reduce.Array != "newc" || as.Reduce.Op.String() != "+" {
		t.Fatalf("reduce = %+v", as.Reduce)
	}
}

func TestLocalAccessBoundsResolved(t *testing.T) {
	prog, err := ParseProgram(`
int nv, ne;
int off[nv + 1], edges[ne];
void main() {
    int i;
    #pragma acc localaccess(off) stride(1, 0, 1)
    #pragma acc localaccess(edges) bounds(off[i], off[i+1]-1)
    #pragma acc parallel loop
    for (i = 0; i < nv; i++) {
        edges[off[i]] = i;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Main.Body.Stmts[1].(*ForStmt)
	if len(loop.Specs) != 2 {
		t.Fatalf("specs = %d", len(loop.Specs))
	}
	b := loop.Specs[1]
	if b.HasStride || b.Lower == nil || b.Upper == nil {
		t.Fatalf("bounds spec = %+v", b)
	}
	if b.Lower.Type() != TInt {
		t.Error("bounds exprs must be int typed")
	}
}

func TestDesugaring(t *testing.T) {
	prog, err := ParseProgram(`
int n;
void main() {
    int i = 3;
    i++;
    i -= 2;
    for (i = 0; i < n; i++) { i += 0; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// int i = 3 desugars to a block {decl; assign}.
	blk, ok := prog.Main.Body.Stmts[0].(*Block)
	if !ok || len(blk.Stmts) != 2 {
		t.Fatalf("init desugaring: %T", prog.Main.Body.Stmts[0])
	}
	inc, ok := prog.Main.Body.Stmts[1].(*AssignStmt)
	if !ok || inc.Op != "+=" {
		t.Fatalf("i++ desugaring: %+v", prog.Main.Body.Stmts[1])
	}
}

func TestExprTyping(t *testing.T) {
	prog, err := ParseProgram(`
int n;
float x[n];
void main() {
    int i;
    float f;
    i = 3 / 2;
    f = 3.0 / 2;
    f = (float)i * 0.5;
    i = (int)(f + 0.5);
    i = i % 4;
    f = sqrt(f) + pow(f, 2.0);
    i = max(i, 2);
    f = max(f, 0.0);
    i = i < n && !(i == 0) ? i : n;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"void main() { }", ""}, // minimal program is fine
		{"int n; void main() { x = 1; }", "undeclared identifier"},
		{"int n; int n; void main() { }", "already declared"},
		{"float x; void main() { x[0] = 1.0; }", "not an array"},
		{"int n; float x[n]; void main() { x = 1.0; }", "cannot assign to array"},
		{"int n; float x[n]; void main() { n = x; }", "must be indexed"},
		{"int n; float x[n]; void main() { x[1.5] = 0.0; }", "index must be an integer"},
		{"void main() { return; }", "return is not supported"},
		{"void f() { }", "only void main"},
		{"int n; void main() { float n; }", "already declared"},
		{"void main() { int sqrt; }", "builtin"},
		{"void main() { int for; }", "expected variable name"},
		{"void main() { 1 + 2; }", "expected assignment"},
		{"void main() { foo(1); }", "expected assignment"},
		{"int n; void main() { n = bar(1); }", "unknown function"},
		{"int n; void main() { n = sqrt(1.0, 2.0); }", "expects 1 arguments"},
		{"int n; void main() { n = 1.5 % 2; }", "integer operands"},
		{"void main() { float a[10]; }", "local arrays are not supported"},
		{"float x[2.5]; void main() { }", "size must be an integer"},
		{"int n; float x[n]; void main() { int i;\n#pragma acc localaccess(x) stride(1)\nfor (i=0;i<n;i++){x[i]=0.0;} }", "require a parallel loop"},
		{"int n; float x[n]; void main() {\n#pragma acc data copy(x)\nx[0] = 1.0; }", "does not apply"},
		{"int n; void main() { if (n) { } else }", "expected expression"},
		{"void main() { for (;;) { } }", ""},
		{"int n; float x[n]; void main() { int i;\n#pragma acc parallel loop reduction(+:x)\nfor (i=0;i<n;i++){x[i]=0.0;} }", "scalar reductions need a scalar"},
	}
	for _, tc := range cases {
		_, err := ParseProgram(tc.src)
		if tc.want == "" {
			if err != nil {
				t.Errorf("ParseProgram(%q) unexpected error: %v", tc.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseProgram(%q) should fail with %q", tc.src, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseProgram(%q) error = %v, want substring %q", tc.src, err, tc.want)
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := Lex("a1 += 1.5e-3f; /* c1 */ b // c2\n#pragma acc data\nx >>= 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"a1", "+=", "1.5e-3", ";", "b", "acc data", "x", ">>=", "2", ""}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i, w := range want {
		if texts[i] != w {
			t.Errorf("token %d = %q, want %q", i, texts[i], w)
		}
	}
	if kinds[2] != TokFloat {
		t.Error("1.5e-3f should lex as float")
	}
	if kinds[5] != TokPragma {
		t.Error("#pragma line should lex as pragma token")
	}
}

func TestLexerLineNumbers(t *testing.T) {
	toks, err := Lex("a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []int{1, 2, 4, 4}
	for i, w := range wantLines {
		if toks[i].Line != w {
			t.Errorf("token %d line = %d, want %d", i, toks[i].Line, w)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		"/* unterminated",
		"#include <stdio.h>",
		"a @ b",
		"a $ b",
	} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexerIdentVsExponent(t *testing.T) {
	toks, err := Lex("12e x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "12" || toks[1].Text != "e" {
		t.Errorf("12e should split into number and ident: %v %v", toks[0], toks[1])
	}
}

func TestParseExprString(t *testing.T) {
	prog, err := ParseProgram("int n;\nint off[n+1];\nvoid main() { int i; i = 0; }")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ParseExprString("off[i+1]-1", 5, prog.Scope)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type() != TInt {
		t.Errorf("type = %v", e.Type())
	}
	if _, err := ParseExprString("off[j]", 5, prog.Scope); err == nil {
		t.Error("undeclared j should fail")
	}
	if _, err := ParseExprString("i +", 5, prog.Scope); err == nil {
		t.Error("truncated expression should fail")
	}
	if _, err := ParseExprString("i; i", 5, prog.Scope); err == nil {
		t.Error("trailing tokens should fail")
	}
}

func TestElemType(t *testing.T) {
	if TInt.Size() != 4 || TFloat.Size() != 4 || TDouble.Size() != 8 {
		t.Error("element sizes wrong")
	}
	if TInt.IsFloat() || !TFloat.IsFloat() || !TDouble.IsFloat() {
		t.Error("IsFloat wrong")
	}
	if TInt.String() != "int" || TFloat.String() != "float" || TDouble.String() != "double" {
		t.Error("String wrong")
	}
}

// Property: integer literals round-trip through the lexer.
func TestLexIntLiteralProperty(t *testing.T) {
	f := func(v uint32) bool {
		toks, err := Lex(itoa(int64(v)))
		return err == nil && len(toks) == 2 && toks[0].Kind == TokInt && toks[0].Text == itoa(int64(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestWhileAndUpdateParsing(t *testing.T) {
	prog, err := ParseProgram(`
int n, done;
float x[n];
void main() {
    int i;
    done = 0;
    while (!done) {
        done = 1;
        if (n > 0) { done = 0; n -= 1; } else { }
    }
    #pragma acc data copy(x)
    {
        #pragma acc update host(x)
        #pragma acc update device(x)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := prog.Main.Body.Stmts[2].(*WhileStmt)
	if !ok {
		t.Fatalf("want WhileStmt, got %T", prog.Main.Body.Stmts[2])
	}
	if _, ok := w.Body.(*Block); !ok {
		t.Error("while body should be a block")
	}
}

func TestUpdateSemaErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"int n;\nfloat x[n];\nvoid main() {\n#pragma acc update host(n)\n}", "not an array"},
		{"int n;\nvoid main() {\n#pragma acc update host(zz)\n}", "undeclared"},
		{"int n;\nfloat x[n];\nvoid main() {\n#pragma acc data copy(n)\n{ }\n}", "not an array"},
		{"int n;\nfloat x[n];\nvoid main() { x[0] <<= 1; }", "integer target"},
		{"float f;\nvoid main() { f %= 2.0; }", "integer target"},
	} {
		if _, err := ParseProgram(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseProgram(%q) error = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestShiftAssignParses(t *testing.T) {
	prog, err := ParseProgram("int a;\nvoid main() { a = 8; a >>= 2; a <<= 1; }")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Main.Body.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(prog.Main.Body.Stmts))
	}
}

func TestDirectiveSemaErrorPaths(t *testing.T) {
	cases := []struct{ src, want string }{
		// reductiontoarray mismatches.
		{"int n;\nfloat a[n], b[n];\nvoid main() { int i;\n#pragma acc parallel loop\nfor (i=0;i<n;i++){\n#pragma acc reductiontoarray(+: b[i])\na[i] += 1.0;\n} }", "names \"b\""},
		{"int n;\nfloat a[n];\nvoid main() { int i;\n#pragma acc parallel loop\nfor (i=0;i<n;i++){\n#pragma acc reductiontoarray(*: a[i])\na[i] += 1.0;\n} }", "requires the statement to use"},
		{"int n;\nfloat a[n];\nfloat s;\nvoid main() { int i;\n#pragma acc parallel loop\nfor (i=0;i<n;i++){\n#pragma acc reductiontoarray(+: a[i])\ns += 1.0;\n} }", "must annotate an assignment to an array element"},
		// localaccess semantic failures.
		{"int n;\nfloat s;\nfloat a[n];\nvoid main() { int i;\n#pragma acc localaccess(s) stride(1)\n#pragma acc parallel loop\nfor (i=0;i<n;i++){a[i]=0.0;} }", "not an array"},
		{"int n;\nfloat a[n];\nvoid main() { int i;\n#pragma acc localaccess(a) stride(1.5)\n#pragma acc parallel loop\nfor (i=0;i<n;i++){a[i]=0.0;} }", "must be integer typed"},
		{"int n;\nfloat a[n];\nvoid main() { int i;\n#pragma acc localaccess(a) bounds(zz, i)\n#pragma acc parallel loop\nfor (i=0;i<n;i++){a[i]=0.0;} }", "undeclared"},
		{"int n;\nfloat a[n];\nvoid main() { int i;\n#pragma acc localaccess(zz) stride(1)\n#pragma acc parallel loop\nfor (i=0;i<n;i++){a[i]=0.0;} }", "undeclared"},
	}
	for _, tc := range cases {
		_, err := ParseProgram(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseProgram error = %v, want %q", err, tc.want)
		}
	}
}

func TestExpectErrorMessage(t *testing.T) {
	_, err := ParseProgram("void main() { if (1 { } }")
	if err == nil || !strings.Contains(err.Error(), `expected ")"`) {
		t.Errorf("expect() message: %v", err)
	}
	_, err = ParseProgram("void main() { while (1 }")
	if err == nil {
		t.Error("bad while should fail")
	}
	_, err = ParseProgram("void main() { while 1 { } }")
	if err == nil || !strings.Contains(err.Error(), `expected "("`) {
		t.Errorf("while without parens: %v", err)
	}
}

// TestLexErrorWins holds the frontend to one rule for a source with a
// parse error and a lexical error after it: the lexical error wins, as
// if the text were lexed whole before parsing, so the error does not
// depend on where the parser stops. Each case's prefix alone fails with
// a parse error; with the suffix, ParseProgram and ParseExprString must
// return what Lex says of the whole text.
func TestLexErrorWins(t *testing.T) {
	for _, tc := range []struct{ prefix, suffix string }{
		{"void main() { x = ; }", "\nint @;"},
		{"void main() { if (1 { } }", "\n/* open"},
		{"int 1;", "\n#include <stdio.h>"},
		{"void main() { x = " + strings.Repeat("!", MaxNest+1) + "1; }", " $"},
		{"void main() { x = 1 + ; }", strings.Repeat(" y", MaxTokens)},
	} {
		_, perr := ParseProgram(tc.prefix)
		if perr == nil {
			t.Fatalf("ParseProgram(%.40q) succeeds; the case needs a parse error", tc.prefix)
		}
		src := tc.prefix + tc.suffix
		_, lerr := Lex(src)
		if lerr == nil || lerr.Error() == perr.Error() {
			t.Fatalf("Lex(%.40q) = %v; the case needs a lexical error unlike %q", src, lerr, perr)
		}
		if _, err := ParseProgram(src); err == nil || err.Error() != lerr.Error() {
			t.Errorf("ParseProgram(%.40q) = %v, want the lexical error %q", src, err, lerr)
		}
	}

	scope := map[string]*VarDecl{"n": {Name: "n", Type: TInt, Global: true}}
	for _, tc := range []struct{ prefix, suffix string }{
		{"n + )", " @"},   // a parse error
		{"n n", " `"},     // trailing tokens
		{"(n", " n /* x"}, // end of text inside the expression
	} {
		_, perr := ParseExprString(tc.prefix, 3, scope)
		if perr == nil {
			t.Fatalf("ParseExprString(%q) succeeds; the case needs a parse error", tc.prefix)
		}
		text := tc.prefix + tc.suffix
		_, lerr := Lex(text)
		if lerr == nil {
			t.Fatalf("Lex(%q) succeeds; the case needs a lexical error", text)
		}
		want := fmt.Sprintf("cc: line 3: in directive expression %q: %v", text, lerr)
		if _, err := ParseExprString(text, 3, scope); err == nil || err.Error() != want {
			t.Errorf("ParseExprString(%q) = %v, want %q", text, err, want)
		}
	}
}
