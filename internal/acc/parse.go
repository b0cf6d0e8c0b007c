package acc

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseDirective parses the text of one `#pragma acc ...` line (the text
// after "#pragma") into a structured Directive. line is the 1-based
// source line for diagnostics. Clause columns are relative to the
// directive text; use ParseDirectiveAt when the source column of the
// text is known.
func ParseDirective(text string, line int) (*Directive, error) {
	return ParseDirectiveAt(text, line, 1)
}

// ParseDirectiveAt is ParseDirective with the 1-based source column of
// the first character of text, so clause positions can be reported in
// real source coordinates.
func ParseDirectiveAt(text string, line, col int) (*Directive, error) {
	fields, err := splitClauses(text, col)
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

var allowedClauses = map[Kind]map[string]bool{
	KindData: {
		"copy": true, "copyin": true, "copyout": true, "create": true,
		"present": true,
	},
	KindParallelLoop: {
		"copy": true, "copyin": true, "copyout": true, "create": true,
		"present": true, "gang": true, "worker": true, "vector": true,
		"num_gangs": true, "num_workers": true, "vector_length": true,
		"reduction": true, "private": true, "independent": true,
		"collapse": true,
	},
	KindUpdate: {
		"host": true, "device": true, "self": true,
	},
	KindLocalAccess: {
		"localaccess": true, "stride": true, "bounds": true,
	},
	KindReductionToArray: {
		"reductiontoarray": true,
	},
}

func checkClauseNames(d *Directive) error {
	allowed := allowedClauses[d.Kind]
	for _, c := range d.Clauses {
		if !allowed[c.Name] {
			return fmt.Errorf("acc: line %d: clause %q is not valid on %s", d.Line, c.Name, d.Kind)
		}
	}
	return nil
}

// splitClauses tokenizes "acc parallel loop copyin(a, b[i]) gang" into
// clause units, keeping parenthesized argument lists intact and
// splitting their contents on top-level commas. base is the source
// column of text[0]; each clause records the column of its name. The
// clauses collect in a buffer on the stack and leave in one exact slice.
func splitClauses(text string, base int) ([]Clause, error) {
	var buf [16]Clause
	out := buf[:0]
	i, n := 0, len(text)
	for i < n {
		switch c := byteClass[text[i]]; {
		case c&classSpace != 0:
			i++
		case c&classIdentStart != 0:
			start := i
			for i < n && byteClass[text[i]]&classIdent != 0 {
				i++
			}
			name := text[start:i]
			// Skip spaces between name and '('.
			j := i
			for j < n && byteClass[text[j]]&classSpace != 0 {
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
			return nil, fmt.Errorf("unexpected character %q in pragma", rune(text[i]))
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return append([]Clause(nil), out...), nil
}

// Byte classes of splitClauses.
const (
	classSpace      = 1 << iota // unicode.IsSpace
	classIdentStart             // isIdentStart
	classIdent                  // isIdentRune
)

// byteClass classifies each byte as the rune of the same value, so a byte
// of a UTF-8 sequence reads as the Latin-1 character of its value: 0x85
// and 0xa0 are spaces; 0xaa, 0xb5, 0xba and 0xc0–0xff but for 0xd7 and
// 0xf7 are letters.
var byteClass = func() (t [256]uint8) {
	for b := range t {
		r := rune(b)
		if unicode.IsSpace(r) {
			t[b] |= classSpace
		}
		if isIdentStart(r) {
			t[b] |= classIdentStart
		}
		if isIdentRune(r) {
			t[b] |= classIdent
		}
	}
	return t
}()

// scanParenArgs scans a balanced "(...)" starting at text[open] == '('
// and returns the top-level comma-separated arguments and the index
// after the closing paren.
func scanParenArgs(text string, open int) (args []string, next int, err error) {
	depth := 0
	start := open + 1
	for i := open; i < len(text); i++ {
		switch text[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth == 0 {
				if arg := strings.TrimSpace(text[start:i]); arg != "" {
					args = append(args, arg)
				} else if len(args) > 0 {
					return nil, 0, fmt.Errorf("empty argument in %q", text[open:i+1])
				}
				return args, i + 1, nil
			}
			if depth < 0 {
				return nil, 0, fmt.Errorf("unbalanced parentheses in pragma")
			}
		case ',':
			if depth == 1 {
				arg := strings.TrimSpace(text[start:i])
				if arg == "" {
					return nil, 0, fmt.Errorf("empty argument in clause")
				}
				args = append(args, arg)
				start = i + 1
			}
		}
	}
	return nil, 0, fmt.Errorf("unterminated parentheses in pragma")
}

// splitColon splits "op: rest" at the first top-level colon.
func splitColon(s string) (op, rest string, err error) {
	idx := strings.IndexByte(s, ':')
	if idx < 0 {
		return "", "", fmt.Errorf("expected op:target form")
	}
	op = strings.TrimSpace(s[:idx])
	rest = strings.TrimSpace(s[idx+1:])
	if op == "" || rest == "" {
		return "", "", fmt.Errorf("expected op:target form")
	}
	return op, rest, nil
}

// splitIndex splits "arr[expr]" into the array name and index text.
func splitIndex(s string) (arr, idx string, err error) {
	open := strings.IndexByte(s, '[')
	if open <= 0 || !strings.HasSuffix(s, "]") {
		return "", "", fmt.Errorf("expected array[index] form, got %q", s)
	}
	arr = strings.TrimSpace(s[:open])
	idx = strings.TrimSpace(s[open+1 : len(s)-1])
	if !isIdent(arr) || idx == "" {
		return "", "", fmt.Errorf("expected array[index] form, got %q", s)
	}
	return arr, idx, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) {
			return false
		}
		if i > 0 && !isIdentRune(r) {
			return false
		}
	}
	return true
}
