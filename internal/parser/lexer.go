// Package parser implements VideoQL, the textual surface syntax for the
// paper's rule-based constraint query language and its data format. A
// script mixes four statement kinds, each terminated by a period:
//
//	// object definitions (the database of Section 5.2)
//	interval gi1 {
//	    duration: (t > 0 and t < 30),
//	    entities: {o1, o2, o3, o4},
//	    subject: "murder",
//	    victim: o1,
//	    murderer: {o2, o3}
//	}.
//	object o1 { name: "David", role: "Victim" }.
//
//	// ground facts (the relations R)
//	in(o1, o4, gi1).
//
//	// rules (Definition 10); identifiers starting with an upper-case
//	// letter are variables, others are constants
//	r1: q(G) :- Interval(G), o1 in G.entities.
//	contains(G1, G2) :- Interval(G1), Interval(G2),
//	                    G2.duration => G1.duration.
//	merge(G1 + G2) :- Interval(G1), Interval(G2).
//
//	// queries (Definition 13); arbitrary conjunctive bodies allowed
//	?- q(G).
//	?- Interval(G), Object(O), O in G.entities, O.name = "David".
//
// Comments run from "//" or "%" to end of line. A "." between two
// identifier characters is attribute access (G.duration); elsewhere it
// terminates a statement.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokColon
	tokDot     // statement terminator
	tokAttrDot // attribute access dot
	tokPlus
	tokTurnstile // :-
	tokQuery     // ?-
	tokOp        // < <= = != >= >
	tokImplies   // =>
	tokEmpty     // ∅, the empty temporal value
	tokNegInf    // -inf, an unbounded span start
)

var tokenNames = map[tokenKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokNumber: "number",
	tokString: "string", tokLParen: "'('", tokRParen: "')'",
	tokLBrace: "'{'", tokRBrace: "'}'", tokLBracket: "'['", tokRBracket: "']'",
	tokComma: "','", tokColon: "':'", tokDot: "'.'", tokAttrDot: "attribute '.'",
	tokPlus: "'+'", tokTurnstile: "':-'", tokQuery: "'?-'",
	tokOp: "comparison operator", tokImplies: "'=>'", tokEmpty: "'∅'",
	tokNegInf: "'-inf'",
}

type token struct {
	kind      tokenKind
	text      string
	line, col int
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", tokenNames[t.kind], t.text)
	}
	return tokenNames[t.kind]
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src       string
	pos       int
	line, col int
	toks      []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *lexer) peekAt(off int) rune {
	p := l.pos + off
	if p >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[p:])
	return r
}

func (l *lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) emit(kind tokenKind, text string, line, col int) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: line, col: col})
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		r := l.peek()
		line, col := l.line, l.col
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '%':
			l.skipLine()
		case r == '/' && l.peekAt(1) == '/':
			l.skipLine()
		case isIdentStart(r):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.peek()) {
				l.advance()
			}
			l.emit(tokIdent, l.src[start:l.pos], line, col)
		case r == '-' && strings.HasPrefix(l.src[l.pos:], "-inf") && !isIdentPart(l.peekAt(4)):
			for range "-inf" {
				l.advance()
			}
			l.emit(tokNegInf, "", line, col)
		case unicode.IsDigit(r) || (r == '-' && unicode.IsDigit(l.peekAt(1))):
			if err := l.lexNumber(line, col); err != nil {
				return err
			}
		case r == '"':
			if err := l.lexString(line, col); err != nil {
				return err
			}
		case r == '(':
			l.advance()
			l.emit(tokLParen, "", line, col)
		case r == ')':
			l.advance()
			l.emit(tokRParen, "", line, col)
		case r == '{':
			l.advance()
			l.emit(tokLBrace, "", line, col)
		case r == '}':
			l.advance()
			l.emit(tokRBrace, "", line, col)
		case r == '[':
			l.advance()
			l.emit(tokLBracket, "", line, col)
		case r == ']':
			l.advance()
			l.emit(tokRBracket, "", line, col)
		case r == ',':
			l.advance()
			l.emit(tokComma, "", line, col)
		case r == '+':
			l.advance()
			l.emit(tokPlus, "", line, col)
		case r == '∪':
			l.advance()
			l.emit(tokPlus, "", line, col) // union separator in interval literals
		case r == '∅':
			l.advance()
			l.emit(tokEmpty, "", line, col)
		case r == ':':
			l.advance()
			if l.peek() == '-' {
				l.advance()
				l.emit(tokTurnstile, "", line, col)
			} else {
				l.emit(tokColon, "", line, col)
			}
		case r == '?':
			l.advance()
			if l.peek() != '-' {
				return l.errf("expected '-' after '?'")
			}
			l.advance()
			l.emit(tokQuery, "", line, col)
		case r == '.':
			// Attribute access when squeezed between identifier characters.
			prevIsIdent := l.pos > 0 && isIdentPart(rune(l.src[l.pos-1]))
			nextIsIdent := isIdentStart(l.peekAt(1))
			l.advance()
			if prevIsIdent && nextIsIdent {
				l.emit(tokAttrDot, "", line, col)
			} else {
				l.emit(tokDot, "", line, col)
			}
		case r == '=':
			l.advance()
			switch l.peek() {
			case '>':
				l.advance()
				l.emit(tokImplies, "", line, col)
			case '=':
				l.advance()
				l.emit(tokOp, "=", line, col)
			default:
				l.emit(tokOp, "=", line, col)
			}
		case r == '<':
			l.advance()
			switch l.peek() {
			case '=':
				l.advance()
				l.emit(tokOp, "<=", line, col)
			case '>':
				l.advance()
				l.emit(tokOp, "!=", line, col)
			default:
				l.emit(tokOp, "<", line, col)
			}
		case r == '>':
			l.advance()
			if l.peek() == '=' {
				l.advance()
				l.emit(tokOp, ">=", line, col)
			} else {
				l.emit(tokOp, ">", line, col)
			}
		case r == '!':
			l.advance()
			if l.peek() != '=' {
				return l.errf("expected '=' after '!'")
			}
			l.advance()
			l.emit(tokOp, "!=", line, col)
		default:
			return l.errf("unexpected character %q", r)
		}
	}
	l.emit(tokEOF, "", l.line, l.col)
	return nil
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

func (l *lexer) lexNumber(line, col int) error {
	start := l.pos
	if l.peek() == '-' {
		l.advance()
	}
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	// Fractional part: only when the dot is followed by a digit, so the
	// statement terminator after a number ("… [0,30].") still works.
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		l.advance()
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.pos
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !unicode.IsDigit(l.peek()) {
			l.pos = save // not an exponent; leave 'e…' for the next token
		} else {
			for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
				l.advance()
			}
		}
	}
	l.emit(tokNumber, l.src[start:l.pos], line, col)
	return nil
}

func (l *lexer) lexString(line, col int) error {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return &Error{Line: line, Col: col, Msg: "unterminated string"}
		}
		r := l.advance()
		switch r {
		case '"':
			l.emit(tokString, b.String(), line, col)
			return nil
		case '\\':
			if l.pos >= len(l.src) {
				return &Error{Line: line, Col: col, Msg: "unterminated string escape"}
			}
			esc := l.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"':
				b.WriteRune(esc)
			default:
				return l.errf("unknown string escape %q", esc)
			}
		case '\n':
			return &Error{Line: line, Col: col, Msg: "newline in string"}
		default:
			b.WriteRune(r)
		}
	}
}
