// Package parser implements a lexer and recursive-descent parser for the
// Prolog-like surface syntax used throughout the repository:
//
//	% transitive closure
//	t(X, Y) :- e(X, W), t(W, Y).
//	t(X, Y) :- e(X, Y).
//	e(1, 2).              % a ground fact (EDB)
//	?- t(5, Y).           % a query
//	pmem(X, [X|T]) :- p(X).
//
// Identifiers starting with an upper-case letter or '_' are variables ('_'
// alone is an anonymous variable, fresh at each occurrence). Identifiers
// starting with a lower-case letter, integers, and single-quoted atoms are
// constants (or functors/predicates when followed by '(').
package parser

import (
	"fmt"
	"strings"
	"unicode"

	"factorlog/internal/ast"
)

type tokenKind int

const (
	tokEOF      tokenKind = iota
	tokAtom               // lowercase identifier, integer, or quoted atom
	tokVar                // uppercase/underscore identifier
	tokLParen             // (
	tokRParen             // )
	tokLBracket           // [
	tokRBracket           // ]
	tokComma              // ,
	tokBar                // |
	tokDot                // .
	tokImplies            // :-
	tokQuery              // ?-
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokAtom:
		return "atom"
	case tokVar:
		return "variable"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokBar:
		return "'|'"
	case tokDot:
		return "'.'"
	case tokImplies:
		return "':-'"
	case tokQuery:
		return "'?-'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

// lexer streams tokens from source text.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// SyntaxError reports a lexing or parsing failure with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			for {
				c, ok := l.peekByte()
				if !ok {
					return
				}
				l.advance()
				if c == '*' {
					if n, ok := l.peekByte(); ok && n == '/' {
						l.advance()
						break
					}
				}
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	switch {
	case c == '(':
		l.advance()
		return mk(tokLParen, ""), nil
	case c == ')':
		l.advance()
		return mk(tokRParen, ""), nil
	case c == '[':
		l.advance()
		return mk(tokLBracket, ""), nil
	case c == ']':
		l.advance()
		return mk(tokRBracket, ""), nil
	case c == ',':
		l.advance()
		return mk(tokComma, ""), nil
	case c == '|':
		l.advance()
		return mk(tokBar, ""), nil
	case c == '.':
		l.advance()
		return mk(tokDot, ""), nil
	case c == ':':
		l.advance()
		if n, ok := l.peekByte(); ok && n == '-' {
			l.advance()
			return mk(tokImplies, ""), nil
		}
		return token{}, l.errorf("expected '-' after ':'")
	case c == '?':
		l.advance()
		if n, ok := l.peekByte(); ok && n == '-' {
			l.advance()
			return mk(tokQuery, ""), nil
		}
		return token{}, l.errorf("expected '-' after '?'")
	case c == '\'':
		l.advance()
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok {
				return token{}, l.errorf("unterminated quoted atom")
			}
			l.advance()
			if c == '\'' {
				if n, ok := l.peekByte(); ok && n == '\'' { // '' escapes '
					l.advance()
					b.WriteByte('\'')
					continue
				}
				return mk(tokAtom, b.String()), nil
			}
			b.WriteByte(c)
		}
	case c == '-' || unicode.IsDigit(rune(c)):
		var b strings.Builder
		b.WriteByte(l.advance())
		for {
			c, ok := l.peekByte()
			if !ok || !unicode.IsDigit(rune(c)) {
				break
			}
			b.WriteByte(l.advance())
		}
		if b.String() == "-" {
			return token{}, l.errorf("expected digits after '-'")
		}
		return mk(tokAtom, b.String()), nil
	case c == '_' || unicode.IsUpper(rune(c)):
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok || !ast.IsIdentByte(c) {
				break
			}
			b.WriteByte(l.advance())
		}
		return mk(tokVar, b.String()), nil
	case unicode.IsLower(rune(c)):
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok || !ast.IsIdentByte(c) {
				break
			}
			b.WriteByte(l.advance())
		}
		return mk(tokAtom, b.String()), nil
	default:
		return token{}, l.errorf("unexpected character %q", string(rune(c)))
	}
}
