package cc

import (
	"fmt"
	"strings"
	"unicode"
)

// lexer converts source text into tokens, keeping `#pragma` lines whole.
type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
	toks      []Token
	// brackets and braces count the unclosed ( and [, and the unclosed {:
	// the nesting the parser would refuse (maxNest), refused before a
	// megabyte of brackets becomes a hundred megabytes of tokens.
	brackets, braces int
}

// col returns the 1-based column of byte offset pos on the current line.
func (lx *lexer) col(pos int) int { return pos - lx.lineStart + 1 }

// Lex tokenizes the source. It is exported for tests and tooling; the
// parser calls it internally.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

// maxTokens bounds the token stream of one source. A token is 40 bytes,
// and the shortest one a byte of source: without the bound the 64 MiB
// body accd accepts becomes 2.5 GB of tokens before the parser has
// refused anything. The longest source of the shipped corpus (a
// 128-kernel pipeline) is under 9000 tokens.
const maxTokens = 1 << 20

// two- and three-character punctuation, longest match first.
var punct2 = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
	"++", "--", "<<", ">>",
}

func (lx *lexer) run() error {
	for lx.pos < len(lx.src) {
		if len(lx.toks) > maxTokens {
			tok := lx.toks[maxTokens]
			return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf("source longer than %d tokens", maxTokens)}
		}
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
			lx.lineStart = lx.pos
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.peek(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.peek(1) == '*':
			if err := lx.blockComment(); err != nil {
				return err
			}
		case c == '#':
			if err := lx.pragma(); err != nil {
				return err
			}
		case isDigit(rune(c)) || (c == '.' && isDigit(rune(lx.peek(1)))):
			lx.number()
		case isIdentStart(rune(c)):
			lx.ident()
		default:
			if !lx.punct() {
				return errf(lx.line, "unexpected character %q", c)
			}
			switch c {
			case '(', '[':
				lx.brackets++
			case ')', ']':
				lx.brackets--
			case '{':
				lx.braces++
			case '}':
				lx.braces--
			}
			if tok := lx.toks[len(lx.toks)-1]; lx.brackets > maxNest {
				return tooDeep("expression", tok)
			} else if lx.braces > maxNest {
				return tooDeep("statement", tok)
			}
		}
	}
	lx.toks = append(lx.toks, Token{Kind: TokEOF, Line: lx.line, Col: lx.col(lx.pos)})
	return nil
}

func (lx *lexer) peek(ahead int) byte {
	if lx.pos+ahead < len(lx.src) {
		return lx.src[lx.pos+ahead]
	}
	return 0
}

func (lx *lexer) blockComment() error {
	start := lx.line
	lx.pos += 2
	for lx.pos < len(lx.src) {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.lineStart = lx.pos + 1
		}
		if lx.src[lx.pos] == '*' && lx.peek(1) == '/' {
			lx.pos += 2
			return nil
		}
		lx.pos++
	}
	return errf(start, "unterminated block comment")
}

func (lx *lexer) pragma() error {
	start := lx.pos
	line := lx.line
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	text := lx.src[start:lx.pos]
	rest, ok := strings.CutPrefix(text, "#")
	if !ok {
		return errf(line, "malformed preprocessor line")
	}
	off := 1 // past '#'
	trimmed := strings.TrimLeft(rest, " \t\r")
	off += len(rest) - len(trimmed)
	body, ok := strings.CutPrefix(trimmed, "pragma")
	if !ok {
		return errf(line, "unsupported preprocessor directive %q (only #pragma is accepted)", text)
	}
	off += len("pragma")
	bodyTrim := strings.TrimLeft(body, " \t\r")
	off += len(body) - len(bodyTrim)
	bodyTrim = strings.TrimRight(bodyTrim, " \t\r")
	lx.toks = append(lx.toks, Token{Kind: TokPragma, Text: bodyTrim, Line: line, Col: lx.col(start) + off})
	return nil
}

func (lx *lexer) number() {
	start := lx.pos
	kind := TokInt
	for lx.pos < len(lx.src) && isDigit(rune(lx.src[lx.pos])) {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		kind = TokFloat
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(rune(lx.src[lx.pos])) {
			lx.pos++
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos < len(lx.src) && isDigit(rune(lx.src[lx.pos])) {
			kind = TokFloat
			for lx.pos < len(lx.src) && isDigit(rune(lx.src[lx.pos])) {
				lx.pos++
			}
		} else {
			lx.pos = save // not an exponent; leave 'e' for the ident lexer
		}
	}
	text := lx.src[start:lx.pos]
	// C float suffix.
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'f' || lx.src[lx.pos] == 'F') {
		kind = TokFloat
		lx.pos++
	}
	lx.toks = append(lx.toks, Token{Kind: kind, Text: text, Line: lx.line, Col: lx.col(start)})
}

func (lx *lexer) ident() {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentRune(rune(lx.src[lx.pos])) {
		lx.pos++
	}
	lx.toks = append(lx.toks, Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Line: lx.line, Col: lx.col(start)})
}

func (lx *lexer) punct() bool {
	rest := lx.src[lx.pos:]
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			lx.toks = append(lx.toks, Token{Kind: TokPunct, Text: p, Line: lx.line, Col: lx.col(lx.pos)})
			lx.pos += len(p)
			return true
		}
	}
	switch rest[0] {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~',
		'(', ')', '[', ']', '{', '}', ';', ',', '?', ':':
		lx.toks = append(lx.toks, Token{Kind: TokPunct, Text: rest[:1], Line: lx.line, Col: lx.col(lx.pos)})
		lx.pos++
		return true
	}
	return false
}

func isDigit(r rune) bool      { return r >= '0' && r <= '9' }
func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentRune(r rune) bool  { return isIdentStart(r) || unicode.IsDigit(r) }
