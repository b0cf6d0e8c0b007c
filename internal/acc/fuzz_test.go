package acc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// FuzzParseDirective holds ParseDirectiveAt to the reference below, a copy
// of the parser from before splitClauses classified bytes through a table
// and collected its clauses into one exact slice: the same directive kind,
// clauses, arguments and columns, or the same error text. A byte of a
// UTF-8 sequence classifies as the Latin-1 rune of its value in both.
func FuzzParseDirective(f *testing.F) {
	for _, s := range []string{
		"acc data copyin(a, b) copy(c) copyout(d) create(tmp)",
		"acc parallel loop gang vector reduction(+:sum) reduction(max:m) copyin(x)",
		"acc kernels loop independent collapse(2)",
		"acc update host(a) device(b, c)",
		"acc localaccess(a) stride(2, 1, 1)",
		"acc localaccess(x) bounds(idx[i], idx[i + 1] - 1)",
		"acc reductiontoarray(+: h[k[i]])",
		"acc loop",
		"acc", "", "   ", "omp parallel for", "acc(x)", "acc bogus",
		"acc parallel", "acc parallel copy(a)", "acc data copyin (a)",
		"acc data copyin(", "acc data copyin(a", "acc data copyin(a))", "acc data copyin(a]",
		"acc data copyin(f(a[i)]) x)", "acc data copyin((a)", "acc data copyin(a, (b)",
		"acc data copyin()", "acc data copyin( )", "acc data copyin(a,)", "acc data copyin(,a)",
		"acc data copyin(a,,b)", "acc data copyin(a, ,b)", "acc data copyin(, )",
		"acc data copyin(ä)", "acc data cöpyin(a)", "acc dätä copy(a)", "acc data copy(a) é",
		"acc\xc3\xa9 data", "acc data \xff", "acc data \x85copy(a)", "acc data\xa0copy(a)",
		"acc data\u00a0copy(a)", "acc data\tcopy(a)\r\n", "acc data\vcopy(a)\f",
		"acc data copy(a) 1", "acc data copy(a) #", "acc data copy(a) ; gang",
		"acc parallel loop _x y_1 z9", "acc parallel loop ª º µ",
		"acc data" + strings.Repeat(" copy(a)", 20), // past the clause buffer
	} {
		f.Add(s, 3)
	}
	f.Fuzz(func(t *testing.T, text string, col int) {
		got, gotErr := ParseDirectiveAt(text, 7, col)
		want, wantErr := refParseDirectiveAt(text, 7, col)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, want %v", text, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: directive %+v, want %+v", text, got, want)
		}
	})
}

// refParseDirectiveAt is ParseDirectiveAt as it was written before
// splitClauses classified bytes through a table: ParseDirective with the 1-based source column of
// the first character of text, so clause positions can be reported in
// real source coordinates.
func refParseDirectiveAt(text string, line, col int) (*Directive, error) {
	fields, err := refSplitClauses(text, col)
	if err != nil {
		return nil, fmt.Errorf("acc: line %d: %w", line, err)
	}
	if len(fields) == 0 || fields[0].Name != "acc" || len(fields[0].Args) != 0 {
		return nil, fmt.Errorf("acc: line %d: pragma is not an acc directive: %q", line, text)
	}
	fields = fields[1:]
	if len(fields) == 0 {
		return nil, fmt.Errorf("acc: line %d: empty acc directive", line)
	}
	d := &Directive{Line: line, Col: col, Raw: strings.TrimSpace(text)}

	head := fields[0]
	switch head.Name {
	case "data":
		d.Kind = KindData
		d.Clauses = fields[1:]
	case "parallel", "kernels":
		// Accept `parallel loop ...` and `kernels loop ...`; a bare
		// `parallel`/`kernels` region must still contain a loop
		// directive in this implementation, so require the loop word.
		if len(fields) < 2 || fields[1].Name != "loop" || len(fields[1].Args) != 0 {
			return nil, fmt.Errorf("acc: line %d: %s must be followed by loop (bare %s regions are not supported)", line, head.Name, head.Name)
		}
		d.Kind = KindParallelLoop
		d.Clauses = fields[2:]
	case "loop":
		// A nested `#pragma acc loop` on an inner for: treated as a
		// parallel-loop directive with no clauses of its own; the
		// translator decides whether to honor nested parallelism.
		d.Kind = KindParallelLoop
		d.Clauses = fields[1:]
	case "update":
		d.Kind = KindUpdate
		d.Clauses = fields[1:]
	case "localaccess":
		d.Kind = KindLocalAccess
		d.Clauses = fields
	case "reductiontoarray":
		d.Kind = KindReductionToArray
		d.Clauses = fields
	default:
		return nil, fmt.Errorf("acc: line %d: unknown directive %q", line, head.Name)
	}
	if err := checkClauseNames(d); err != nil {
		return nil, err
	}
	return d, nil
}

// refSplitClauses is splitClauses before the byte table and the exact
// result slice: it tokenizes "acc parallel loop copyin(a, b[i]) gang" into
// clause units, keeping parenthesized argument lists intact and
// splitting their contents on top-level commas. base is the source
// column of text[0]; each clause records the column of its name.
func refSplitClauses(text string, base int) ([]Clause, error) {
	var out []Clause
	i, n := 0, len(text)
	for i < n {
		r := rune(text[i])
		switch {
		case unicode.IsSpace(r):
			i++
		case isIdentStart(r):
			start := i
			for i < n && isIdentRune(rune(text[i])) {
				i++
			}
			name := text[start:i]
			// Skip spaces between name and '('.
			j := i
			for j < n && unicode.IsSpace(rune(text[j])) {
				j++
			}
			if j < n && text[j] == '(' {
				args, next, err := scanParenArgs(text, j)
				if err != nil {
					return nil, err
				}
				out = append(out, Clause{Name: name, Args: args, Col: base + start})
				i = next
			} else {
				out = append(out, Clause{Name: name, Col: base + start})
			}
		default:
			return nil, fmt.Errorf("unexpected character %q in pragma", r)
		}
	}
	return out, nil
}
