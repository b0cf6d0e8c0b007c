package cc

import (
	"strings"
	"testing"
)

// FuzzParseProgram checks the frontend never panics, that accepted
// programs re-parse identically (the source is stored verbatim) and that
// a source the lexer refuses gets the lexer's error, wherever the parser
// would have stopped.
// Run with `go test -fuzz=FuzzParseProgram ./internal/cc` to explore;
// the seed corpus alone runs under plain `go test`.
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		"void main() { }",
		"int n;\nfloat x[n];\nvoid main() { int i;\n#pragma acc parallel loop\nfor (i = 0; i < n; i++) { x[i] = 1.0; } }",
		"int n;\nvoid main() { while (n > 0) { n--; } }",
		"#pragma acc data copy(",
		"int a;;; void main() {}",
		"void main() { for (;;) {} }",
		"int \xff;",
		"void main() { a = 1 + ; }",
		"/* unterminated",
		"void main() { x[1[2]] = 3; }",
		"int n; void main() { n <<= 70; }",
		"float f; void main() { f = 1e999; }",
		"void main() { break; }",
		"void main() { a = 1 + ; }\n@",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if _, lerr := Lex(src); lerr != nil {
			if err == nil || err.Error() != lerr.Error() {
				t.Fatalf("Lex fails with %q, ParseProgram with %v", lerr, err)
			}
		}
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if prog.Source != src {
			t.Error("accepted program must retain its source")
		}
		// Re-parsing an accepted program must succeed.
		if _, err := ParseProgram(src); err != nil {
			t.Errorf("accepted program failed to re-parse: %v", err)
		}
	})
}

// FuzzLex checks the lexer is total: it either errors or produces a
// token stream terminated by EOF with monotone line numbers.
func FuzzLex(f *testing.F) {
	for _, s := range []string{
		"a b c", "1.5e-3f", "#pragma acc data", "/* x */ y", "a+++++b",
		"\n\n#\n", "\"string\"", "..", "0x1f",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Error("token stream must end with EOF")
		}
		line := 1
		for _, tk := range toks {
			if tk.Line < line {
				t.Errorf("line numbers must be monotone: %d after %d", tk.Line, line)
			}
			if tk.Line > 0 {
				line = tk.Line
			}
			if tk.Kind == TokIdent && tk.Text == "" {
				t.Error("empty identifier token")
			}
		}
		if strings.Count(src, "\n") > 0 && line == 0 {
			t.Error("line tracking lost")
		}
	})
}
