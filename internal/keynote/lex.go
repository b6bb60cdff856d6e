package keynote

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds of the assertion expression
// languages (Licensees and Conditions fields share one lexer).
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString  // quoted string literal (value already unescaped)
	tokNumber  // integer or float literal
	tokLParen  // (
	tokRParen  // )
	tokLBrace  // {
	tokRBrace  // }
	tokSemi    // ;
	tokComma   // ,
	tokArrow   // ->
	tokAndAnd  // &&
	tokOrOr    // ||
	tokNot     // !
	tokEq      // ==
	tokNe      // !=
	tokLt      // <
	tokLe      // <=
	tokGt      // >
	tokGe      // >=
	tokRegex   // ~=
	tokPlus    // +
	tokMinus   // -
	tokStar    // *
	tokSlash   // /
	tokPercent // %
	tokCaret   // ^
	tokDot     // . (string concatenation)
	tokAt      // @ (numeric coercion)
	tokDollar  // $ (attribute dereference)
	tokAssign  // = (Local-Constants only)
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	case tokArrow:
		return "'->'"
	case tokAndAnd:
		return "'&&'"
	case tokOrOr:
		return "'||'"
	case tokNot:
		return "'!'"
	case tokEq:
		return "'=='"
	case tokNe:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokRegex:
		return "'~='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokCaret:
		return "'^'"
	case tokDot:
		return "'.'"
	case tokAt:
		return "'@'"
	case tokDollar:
		return "'$'"
	case tokAssign:
		return "'='"
	}
	return "unknown token"
}

// token is a single lexical token with its source offset.
type token struct {
	kind tokKind
	text string // identifier name, unescaped string value, or number text
	off  int
}

// lexer tokenizes a field body. It is shared by the Licensees,
// Local-Constants and Conditions parsers.
type lexer struct {
	field string // field name for error messages
	src   string
	pos   int
	toks  []token
	idx   int
}

// newLexer tokenizes src fully, returning the first error encountered.
func newLexer(field, src string) (*lexer, error) {
	l := &lexer{field: field, src: src}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lexer) errf(off int, format string, args ...any) error {
	return &SyntaxError{Field: l.field, Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) run() error {
	for {
		tok, err := l.next()
		if err != nil {
			return err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) next() (token, error) {
	src := l.src
	// Skip whitespace (field continuation lines were already folded into
	// spaces by the assertion splitter, but tolerate raw newlines too).
	for l.pos < len(src) {
		switch src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.pos++
			continue
		}
		break
	}
	start := l.pos
	if l.pos >= len(src) {
		return token{kind: tokEOF, off: start}, nil
	}
	c := src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(src) && isIdentByte(src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: src[start:l.pos], off: start}, nil
	case isDigit(c):
		for l.pos < len(src) && isDigit(src[l.pos]) {
			l.pos++
		}
		if l.pos+1 < len(src) && src[l.pos] == '.' && isDigit(src[l.pos+1]) {
			l.pos++
			for l.pos < len(src) && isDigit(src[l.pos]) {
				l.pos++
			}
		}
		return token{kind: tokNumber, text: src[start:l.pos], off: start}, nil
	case c == '"':
		val, end, err := lexString(src, l.pos)
		if err != nil {
			return token{}, l.errf(start, "%v", err)
		}
		l.pos = end
		return token{kind: tokString, text: val, off: start}, nil
	}
	// Operators.
	two := ""
	if l.pos+1 < len(src) {
		two = src[l.pos : l.pos+2]
	}
	switch two {
	case "->":
		l.pos += 2
		return token{kind: tokArrow, off: start}, nil
	case "&&":
		l.pos += 2
		return token{kind: tokAndAnd, off: start}, nil
	case "||":
		l.pos += 2
		return token{kind: tokOrOr, off: start}, nil
	case "==":
		l.pos += 2
		return token{kind: tokEq, off: start}, nil
	case "!=":
		l.pos += 2
		return token{kind: tokNe, off: start}, nil
	case "<=":
		l.pos += 2
		return token{kind: tokLe, off: start}, nil
	case ">=":
		l.pos += 2
		return token{kind: tokGe, off: start}, nil
	case "~=":
		l.pos += 2
		return token{kind: tokRegex, off: start}, nil
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, off: start}, nil
	case ')':
		return token{kind: tokRParen, off: start}, nil
	case '{':
		return token{kind: tokLBrace, off: start}, nil
	case '}':
		return token{kind: tokRBrace, off: start}, nil
	case ';':
		return token{kind: tokSemi, off: start}, nil
	case ',':
		return token{kind: tokComma, off: start}, nil
	case '!':
		return token{kind: tokNot, off: start}, nil
	case '<':
		return token{kind: tokLt, off: start}, nil
	case '>':
		return token{kind: tokGt, off: start}, nil
	case '+':
		return token{kind: tokPlus, off: start}, nil
	case '-':
		return token{kind: tokMinus, off: start}, nil
	case '*':
		return token{kind: tokStar, off: start}, nil
	case '/':
		return token{kind: tokSlash, off: start}, nil
	case '%':
		return token{kind: tokPercent, off: start}, nil
	case '^':
		return token{kind: tokCaret, off: start}, nil
	case '.':
		return token{kind: tokDot, off: start}, nil
	case '@':
		return token{kind: tokAt, off: start}, nil
	case '$':
		return token{kind: tokDollar, off: start}, nil
	case '=':
		return token{kind: tokAssign, off: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

// lexString scans a quoted string starting at src[start] == '"'.
// It returns the unescaped value and the position just past the closing
// quote. Escapes: \" \\ \n \t; a backslash-newline is a line continuation
// that contributes nothing (RFC 2704 section 3).
func lexString(src string, start int) (string, int, error) {
	// Without escapes the value is a slice of src.
	if n := strings.IndexAny(src[start+1:], `"\`); n >= 0 && src[start+1+n] == '"' {
		return src[start+1 : start+1+n], start + n + 2, nil
	}
	var b strings.Builder
	i := start + 1
	for i < len(src) {
		c := src[i]
		switch c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return "", 0, fmt.Errorf("unterminated escape in string")
			}
			i++
			switch src[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\n':
				// line continuation: swallow
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c in string", src[i])
			}
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated string literal")
}

// peek returns the current token without consuming it.
func (l *lexer) peek() token { return l.toks[l.idx] }

// take consumes and returns the current token.
func (l *lexer) take() token {
	t := l.toks[l.idx]
	if l.idx < len(l.toks)-1 {
		l.idx++
	}
	return t
}

// expect consumes a token of the given kind or returns an error.
func (l *lexer) expect(k tokKind) (token, error) {
	t := l.peek()
	if t.kind != k {
		return token{}, l.errf(t.off, "expected %v, found %v", k, t.kind)
	}
	return l.take(), nil
}
