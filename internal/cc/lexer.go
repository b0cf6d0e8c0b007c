package cc

import (
	"fmt"
	"strings"
	"unicode"
)

// lexer turns source text into tokens one at a time, keeping `#pragma`
// lines whole; the parser pulls them as it goes.
type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
	// brackets and braces count the unclosed ( and [, and the unclosed {:
	// the nesting the parser would refuse (maxNest) is refused here too, at
	// the bracket past the budget, so that a drain through a megabyte of
	// brackets after a parse error stops there.
	brackets, braces int
	// n counts the tokens made so far; over is the first past maxTokens.
	n    int
	over Token
	// err is the first lexical error; from then on next returns EOF.
	err error
}

// col returns the 1-based column of byte offset pos on the current line.
func (lx *lexer) col(pos int) int { return pos - lx.lineStart + 1 }

// Lex tokenizes the whole source, EOF last. It is for tests and tooling:
// the parser pulls the same tokens one at a time and keeps none.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1}
	for toks := []Token(nil); ; {
		tok := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		if toks = append(toks, tok); tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

// maxTokens bounds the tokens lexed from one source: the parser's work
// and, after a parse error, the drain's, which lexes on to the end of the
// text for a lexical error that would win. Without it the 64 MiB body
// accd accepts is lexed to its end whatever the parser has refused. Past
// it the error is "source longer than N tokens" at the first token over.
// The longest source of the shipped corpus (a 128-kernel pipeline) is
// under 9000 tokens.
const maxTokens = 1 << 20

// next returns the next token, EOF at the end of the source. After a
// lexical error, which it keeps in lx.err, it returns EOF.
func (lx *lexer) next() Token {
	if lx.err == nil {
		tok, err := lx.scan()
		if err == nil {
			if lx.n++; lx.n == maxTokens+1 {
				lx.over = tok
			}
			return tok
		}
		lx.err = err
	}
	return Token{Kind: TokEOF, Line: lx.line, Col: lx.col(lx.pos)}
}

// scan skips space and comments and lexes one token.
func (lx *lexer) scan() (Token, error) {
	for lx.pos < len(lx.src) {
		if lx.n > maxTokens {
			return Token{}, &Error{Line: lx.over.Line, Col: lx.over.Col, Msg: fmt.Sprintf("source longer than %d tokens", maxTokens)}
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
				return Token{}, err
			}
		case c == '#':
			return lx.pragma()
		case isDigit(rune(c)) || (c == '.' && isDigit(rune(lx.peek(1)))):
			return lx.number(), nil
		case isIdentStart(rune(c)):
			return lx.ident(), nil
		default:
			tok, ok := lx.punct()
			if !ok {
				return Token{}, errf(lx.line, "unexpected character %q", c)
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
			if lx.brackets > maxNest {
				return Token{}, tooDeep("expression", tok)
			} else if lx.braces > maxNest {
				return Token{}, tooDeep("statement", tok)
			}
			return tok, nil
		}
	}
	return Token{Kind: TokEOF, Line: lx.line, Col: lx.col(lx.pos)}, nil
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

func (lx *lexer) pragma() (Token, error) {
	start := lx.pos
	line := lx.line
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	text := lx.src[start:lx.pos]
	rest, ok := strings.CutPrefix(text, "#")
	if !ok {
		return Token{}, errf(line, "malformed preprocessor line")
	}
	off := 1 // past '#'
	trimmed := strings.TrimLeft(rest, " \t\r")
	off += len(rest) - len(trimmed)
	body, ok := strings.CutPrefix(trimmed, "pragma")
	if !ok {
		return Token{}, errf(line, "unsupported preprocessor directive %q (only #pragma is accepted)", text)
	}
	off += len("pragma")
	bodyTrim := strings.TrimLeft(body, " \t\r")
	off += len(body) - len(bodyTrim)
	bodyTrim = strings.TrimRight(bodyTrim, " \t\r")
	return Token{Kind: TokPragma, Text: bodyTrim, Line: line, Col: lx.col(start) + off}, nil
}

func (lx *lexer) number() Token {
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
	return Token{Kind: kind, Text: text, Line: lx.line, Col: lx.col(start)}
}

func (lx *lexer) ident() Token {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentRune(rune(lx.src[lx.pos])) {
		lx.pos++
	}
	return Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Line: lx.line, Col: lx.col(start)}
}

// punct lexes an operator or punctuation token, the longest that
// matches: a doubled << >> == ++ -- && ||, then an = after < > = ! * / %
// + - (or after << and >>), else one character.
func (lx *lexer) punct() (Token, bool) {
	rest := lx.src[lx.pos:]
	n := 1
	switch c := rest[0]; c {
	case '<', '>', '=', '+', '-', '&', '|', '!', '*', '/', '%':
		if len(rest) > 1 && rest[1] == c && strings.IndexByte("<>=+-&|", c) >= 0 {
			n = 2
		}
		if len(rest) > n && rest[n] == '=' && strings.IndexByte("<>=+-!*/%", c) >= 0 && (n == 1 || c == '<' || c == '>') {
			n++
		}
	case '^', '~', '(', ')', '[', ']', '{', '}', ';', ',', '?', ':':
	default:
		return Token{}, false
	}
	tok := Token{Kind: TokPunct, Text: rest[:n], Line: lx.line, Col: lx.col(lx.pos)}
	lx.pos += n
	return tok, true
}

func isDigit(r rune) bool      { return r >= '0' && r <= '9' }
func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentRune(r rune) bool  { return isIdentStart(r) || unicode.IsDigit(r) }
