package cc_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
)

// TestNestingBombs feeds the parser the inputs that used to end the
// process with a stack overflow no recover catches — three million
// nested parentheses (the parser's own recursion), a sum of a quarter of
// a million terms (a left-deep tree built in a loop: the first recursive
// walker downstream overflowed), a hundred thousand pragma-nested blocks
// — and the ones that used to cost gigabytes before anything refused
// them: two million terms, three million operators. Each must come back
// as one positioned error having allocated little: the nesting budget
// cuts brackets and braces in the lexer, the token budget the drain
// after a parse error, and neither depends on how busy the machine is.
// To see the first kind fail at a commit without the budget, run this
// test in a subprocess there: the failure is the death of the process,
// not a t.Error.
func TestNestingBombs(t *testing.T) {
	wrap := func(stmt string) string { return "int n, x;\nfloat a[n];\nvoid main() {\n" + stmt + "\n}\n" }
	const parens, blocks = 3_000_000, 100_000
	tooLong := fmt.Sprintf("source longer than %d tokens", cc.MaxTokens)
	for _, tc := range []struct{ name, src, want string }{
		{"parentheses", wrap("x = " + strings.Repeat("(", parens) + "1" + strings.Repeat(")", parens) + ";"), "expression nested deeper than"},
		{"sum", wrap("x = 1" + strings.Repeat("+1", cc.MaxTokens/4) + ";"), "expression nested deeper than"},
		{"unary", wrap("x = " + strings.Repeat("!", cc.MaxTokens/2) + "1;"), "expression nested deeper than"},
		{"blocks", wrap(strings.Repeat("#pragma acc data copy(a)\n{\n", blocks) + strings.Repeat("}\n", blocks)), "statement nested deeper than"},
		{"ifs", wrap(strings.Repeat("if (x) ", blocks) + "x = 1;"), "statement nested deeper than"},
		{"long sum", wrap("x = 1" + strings.Repeat("+1", 2_000_000) + ";"), tooLong},
		{"long unary", wrap("x = " + strings.Repeat("!", parens) + "1;"), tooLong},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cc.ParseProgram(tc.src)
		runtime.ReadMemStats(&after)
		var perr *cc.Error
		if !errors.As(err, &perr) || perr.Line == 0 || perr.Col == 0 || !strings.Contains(perr.Msg, tc.want) {
			t.Errorf("%s: got %v; want one positioned error saying %q", tc.name, err, tc.want)
		}
		// The parser keeps no tokens: it pulls them one at a time, and
		// after its error drains the lexer, which the token budget stops,
		// to the end of the text. So a bomb costs the nodes built before
		// the refusal, under a megabyte each here.
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 16 {
			t.Errorf("%s: allocated %d MB", tc.name, mb)
		}
	}
	// The budget itself: a tree of exactly MaxNest levels parses, one
	// more does not.
	for _, extra := range []int{0, 1} {
		_, err := cc.ParseProgram(wrap("x = 1" + strings.Repeat("+1", cc.MaxNest+extra) + ";"))
		if (err != nil) != (extra == 1) {
			t.Errorf("sum of depth MaxNest+%d: %v", extra, err)
		}
	}
}

// TestCorpusNestsShallow compiles what the benchmark's compile_cold
// workload compiles — the six apps, the shipped examples, pipelines of up
// to 128 kernels — and holds the deepest expression and statement well
// under the budget.
func TestCorpusNestsShallow(t *testing.T) {
	corpus := map[string]string{}
	for _, app := range apps.All() {
		corpus["app "+app.Name] = app.Source
	}
	for _, dir := range []string{"testdata", "vet"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.c"))
		if err != nil || len(files) == 0 {
			t.Fatalf("examples/%s: %v (%d files)", dir, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			corpus[f] = string(src)
		}
	}
	for _, k := range []int{8, 32, 128} {
		var b strings.Builder
		b.WriteString("int n;\nfloat a0[n]")
		for i := 1; i <= k; i++ {
			fmt.Fprintf(&b, ", a%d[n]", i)
		}
		b.WriteString(";\nvoid main() {\n int i;\n #pragma acc data copy(a0)\n {\n")
		for i := 1; i <= k; i++ {
			fmt.Fprintf(&b, "  #pragma acc parallel loop\n  for (i = 0; i < n; i++) {\n   a%d[i] = a%d[i] * 1.25 + 0.5;\n  }\n", i, i-1)
		}
		b.WriteString(" }\n}\n")
		corpus[fmt.Sprintf("pipeline %d", k)] = b.String()
	}
	var peakExpr, peakStmt int
	for name, src := range corpus {
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		e, s := prog.NestPeaks()
		peakExpr, peakStmt = max(peakExpr, e), max(peakStmt, s)
	}
	t.Logf("%d sources: deepest expression %d, deepest statement %d, budget %d", len(corpus), peakExpr, peakStmt, cc.MaxNest)
	if peakExpr == 0 || peakStmt == 0 || peakExpr > cc.MaxNest/10 || peakStmt > cc.MaxNest/10 {
		t.Errorf("deepest expression %d, statement %d; want both positive and under a tenth of the budget (%d)", peakExpr, peakStmt, cc.MaxNest)
	}
}
