package keynote

import (
	"fmt"
	"strings"
)

// Assertion is a parsed KeyNote assertion: either local policy
// (Authorizer: "POLICY", unsigned) or a credential (signed by its
// authorizer). The original text is retained because signatures cover the
// exact bytes of the assertion.
type Assertion struct {
	// Source is the exact text the assertion was parsed from.
	Source string
	// Authorizer is the principal delegating authority.
	Authorizer Principal
	// Comment is the free-text Comment field, if any.
	Comment string
	// SignatureValue is the signature field value (e.g.
	// "sig-ed25519-hex:30…"), empty for unsigned assertions.
	SignatureValue string

	licensees  licExpr
	conditions *condProgram
	constants  map[string]string
	sigStart   int // byte offset of the Signature field within Source; -1 if unsigned
	verified   bool
}

// Licensees returns every principal mentioned in the Licensees field.
func (a *Assertion) Licensees() []Principal {
	if a.licensees == nil {
		return nil
	}
	return a.licensees.principals(nil)
}

// Signed reports whether the assertion carries a Signature field.
func (a *Assertion) Signed() bool { return a.sigStart >= 0 }

// Verified reports whether Verify has succeeded on this assertion.
func (a *Assertion) Verified() bool { return a.verified }

// field names, lowercase. Signature must be the last field (RFC 2704 §4.6.7).
const (
	fVersion    = "keynote-version"
	fAuthorizer = "authorizer"
	fLicensees  = "licensees"
	fConstants  = "local-constants"
	fConditions = "conditions"
	fComment    = "comment"
	fSignature  = "signature"
)

// rawField is one logical field with the offset of its first byte in the
// assertion source.
type rawField struct {
	name  string // lowercased
	body  string
	start int
}

// splitFields breaks assertion text into logical fields. A field begins
// with "Name:" at the start of a line; lines beginning with whitespace
// continue the previous field. Lines starting with '#' are comments.
func splitFields(src string) ([]rawField, error) {
	var fields []rawField
	off := 0
	for off < len(src) {
		end := strings.IndexByte(src[off:], '\n')
		var line string
		next := len(src)
		if end >= 0 {
			line = src[off : off+end]
			next = off + end + 1
		} else {
			line = src[off:]
		}
		switch {
		case strings.HasPrefix(line, "#"):
			// comment line
		case len(strings.TrimSpace(line)) == 0:
			// blank line: ignore (assertion splitting happens upstream)
		case line[0] == ' ' || line[0] == '\t':
			if len(fields) == 0 {
				return nil, &SyntaxError{Offset: off, Msg: "continuation line before any field"}
			}
			fields[len(fields)-1].body += "\n" + line
		default:
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				return nil, &SyntaxError{Offset: off, Msg: fmt.Sprintf("missing ':' in field line %q", line)}
			}
			name := strings.ToLower(strings.TrimSpace(line[:colon]))
			fields = append(fields, rawField{name: name, body: line[colon+1:], start: off})
		}
		off = next
	}
	return fields, nil
}

// ParseAssertion parses a single KeyNote assertion. The signature, if
// present, is parsed but not verified; call Verify or add the assertion to
// a Session to check it.
func ParseAssertion(src string) (*Assertion, error) {
	fields, err := splitFields(src)
	if err != nil {
		return nil, err
	}
	if len(fields) == 0 {
		return nil, &SyntaxError{Msg: "empty assertion"}
	}
	a := &Assertion{Source: src, sigStart: -1}
	seen := make(map[string]bool, len(fields))
	// Local-Constants must be processed before fields that reference the
	// constants, regardless of textual order.
	for _, f := range fields {
		if seen[f.name] {
			return nil, &SyntaxError{Offset: f.start, Msg: "duplicate field " + f.name}
		}
		seen[f.name] = true
		if f.name == fConstants {
			consts, err := parseConstants(f.body)
			if err != nil {
				return nil, err
			}
			a.constants = consts
		}
	}
	for i, f := range fields {
		switch f.name {
		case fVersion:
			v := strings.TrimSpace(f.body)
			v = strings.Trim(v, `"`)
			if v != "2" {
				return nil, &SyntaxError{Field: "KeyNote-Version", Offset: f.start, Msg: "unsupported version " + v}
			}
		case fAuthorizer:
			p, err := parsePrincipalField(f.body, a.constants)
			if err != nil {
				return nil, err
			}
			a.Authorizer = p
		case fLicensees:
			if strings.TrimSpace(f.body) == "" {
				break // empty licensees: delegates to no one
			}
			le, err := parseLicensees(f.body, a.constants)
			if err != nil {
				return nil, err
			}
			a.licensees = le
		case fConstants:
			// handled above
		case fConditions:
			if strings.TrimSpace(f.body) == "" {
				break // empty conditions: no restriction (_MAX_TRUST)
			}
			prog, err := parseConditions(f.body, a.constants)
			if err != nil {
				return nil, err
			}
			a.conditions = prog
		case fComment:
			a.Comment = strings.TrimSpace(f.body)
		case fSignature:
			if i != len(fields)-1 {
				return nil, &SyntaxError{Field: "Signature", Offset: f.start, Msg: "Signature must be the last field"}
			}
			sv := strings.TrimSpace(f.body)
			sv = strings.Trim(sv, `"`)
			if sv == "" {
				return nil, &SyntaxError{Field: "Signature", Offset: f.start, Msg: "empty signature"}
			}
			a.SignatureValue = sv
			a.sigStart = f.start
		default:
			return nil, &SyntaxError{Offset: f.start, Msg: "unknown field " + f.name}
		}
	}
	if a.Authorizer == "" {
		return nil, &SyntaxError{Field: "Authorizer", Msg: "missing Authorizer field"}
	}
	return a, nil
}

// ParseAssertions parses a file of assertions separated by blank lines.
func ParseAssertions(src string) ([]*Assertion, error) {
	var out []*Assertion
	for _, chunk := range splitAssertionText(src) {
		a, err := ParseAssertion(chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// splitAssertionText splits on runs of blank lines, dropping top-level
// comment lines between assertions. Each assertion is a slice of src:
// the lines from its first non-comment line to the next blank one.
func splitAssertionText(src string) []string {
	var chunks []string
	start := -1 // the current assertion's offset; -1 between assertions
	for off := 0; off < len(src); {
		next := len(src)
		if end := strings.IndexByte(src[off:], '\n'); end >= 0 {
			next = off + end + 1
		}
		line := src[off:next]
		switch {
		case strings.TrimSpace(line) == "":
			if start >= 0 {
				chunks = append(chunks, src[start:off])
				start = -1
			}
		case start < 0 && !strings.HasPrefix(line, "#"):
			start = off
		}
		off = next
	}
	if start >= 0 {
		chunks = append(chunks, src[start:])
	}
	return chunks
}

// parsePrincipalField parses an Authorizer field body: one principal,
// quoted or a bare identifier (possibly a local constant), or the special
// name POLICY.
func parsePrincipalField(body string, constants map[string]string) (Principal, error) {
	lx, err := newLexer("Authorizer", body)
	if err != nil {
		return "", err
	}
	t := lx.take()
	var text string
	switch t.kind {
	case tokString:
		text = t.text
	case tokIdent:
		text = t.text
		if constants != nil {
			if v, ok := constants[text]; ok {
				text = v
			}
		}
	default:
		return "", lx.errf(t.off, "expected a principal, found %v", t.kind)
	}
	if e := lx.peek(); e.kind != tokEOF {
		return "", lx.errf(e.off, "unexpected %v after principal", e.kind)
	}
	return canonicalPrincipal(text)
}

// parseConstants parses a Local-Constants body: IDENT = "value" pairs.
func parseConstants(body string) (map[string]string, error) {
	lx, err := newLexer("Local-Constants", body)
	if err != nil {
		return nil, err
	}
	consts := make(map[string]string)
	for {
		t := lx.peek()
		if t.kind == tokEOF {
			return consts, nil
		}
		name, err := lx.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := lx.expect(tokAssign); err != nil {
			return nil, err
		}
		val, err := lx.expect(tokString)
		if err != nil {
			return nil, err
		}
		if _, dup := consts[name.text]; dup {
			return nil, lx.errf(name.off, "duplicate constant %s", name.text)
		}
		consts[name.text] = val.text
	}
}
