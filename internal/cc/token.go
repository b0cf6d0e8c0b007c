// Package cc is a from-scratch frontend for the C subset used by the
// OpenACC applications in Komoda et al. (ICPP 2013): global array and
// scalar declarations bound by the host, one void main() function,
// for/while/if statements, arithmetic/logical expressions, and
// `#pragma acc` directives (parsed by the acc package and attached to
// the statements they govern). It plays the role the ROSE compiler
// infrastructure plays in the paper's prototype.
package cc

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

const (
	// TokEOF ends the stream.
	TokEOF TokKind = iota
	// TokIdent is an identifier or keyword.
	TokIdent
	// TokInt is an integer literal.
	TokInt
	// TokFloat is a floating-point literal.
	TokFloat
	// TokPunct is an operator or punctuation token.
	TokPunct
	// TokPragma is a whole `#pragma ...` line; Text holds everything
	// after "#pragma".
	TokPragma
)

// Token is one lexical token with its source line and column
// (1-based). For TokPragma the column is where the directive body
// starts (after "#pragma"), so clause positions inside the directive
// can be reported precisely.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokPragma:
		return fmt.Sprintf("#pragma%s", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords of the accepted C subset.
var keywords = map[string]bool{
	"int": true, "float": true, "double": true, "void": true,
	"if": true, "else": true, "for": true, "while": true,
	"break": true, "continue": true,
	"extern": true, "return": true, "const": true,
}

// IsKeyword reports whether the name is reserved.
func IsKeyword(name string) bool { return keywords[name] }

// Error is a positioned frontend error; Col is 0 where only the line is
// known.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("cc: line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
