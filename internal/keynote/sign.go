package keynote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Signing model: the signature covers the assertion text from its first
// byte up to (but not including) the Signature field, concatenated with
// the signature algorithm identifier (e.g. "sig-ed25519-hex:"). This
// mirrors RFC 2704, which signs "everything but the signature data", and
// is reconstructible from a parsed assertion because Assertion retains
// its exact source text.

// signedBytes returns the message a signature of this assertion covers.
func (a *Assertion) signedBytes(algName string) []byte {
	end := a.sigStart
	if end < 0 {
		end = len(a.Source)
	}
	msg := make([]byte, 0, end+len(algName))
	msg = append(msg, a.Source[:end]...)
	msg = append(msg, algName...)
	return msg
}

// splitSignatureValue separates "sig-ed25519-hex:abcd…" into the algorithm
// identifier (with trailing colon) and the decoded signature bytes.
func splitSignatureValue(v string) (algName string, sig []byte, err error) {
	colon := strings.LastIndexByte(v, ':')
	if colon < 0 {
		return "", nil, fmt.Errorf("keynote: malformed signature value %q", v)
	}
	algName = strings.ToLower(v[:colon+1])
	data := v[colon+1:]
	switch {
	case strings.HasSuffix(algName, "-hex:"):
		sig, err = hex.DecodeString(strings.ToLower(data))
	case strings.HasSuffix(algName, "-base64:"):
		sig, err = decodeKeyData("base64", data)
	default:
		return "", nil, fmt.Errorf("keynote: unknown signature encoding in %q", algName)
	}
	if err != nil {
		return "", nil, fmt.Errorf("keynote: bad signature data: %w", err)
	}
	return algName, sig, nil
}

// Verify checks the assertion's signature against its Authorizer key.
// Policy assertions (Authorizer: "POLICY") are unsigned by definition and
// verify trivially. A signed assertion whose authorizer is not a
// cryptographic key cannot be verified. An assertion already verified —
// by an earlier Verify, or because Sign made it — is not checked again.
func (a *Assertion) Verify() error {
	if a.verified {
		return nil
	}
	if a.Authorizer == PolicyPrincipal {
		a.verified = true
		return nil
	}
	if !a.Signed() {
		return ErrUnsigned
	}
	if !a.Authorizer.IsKey() {
		return fmt.Errorf("keynote: authorizer %s is not a key; cannot verify", a.Authorizer.Short())
	}
	algName, sig, err := splitSignatureValue(a.SignatureValue)
	if err != nil {
		return err
	}
	if err := verifyMessage(a.Authorizer, algName, a.signedBytes(algName), sig); err != nil {
		return err
	}
	a.verified = true
	return nil
}

// AssertionSpec describes an assertion to compose. Conditions and
// Licensees are field bodies in KeyNote syntax; helpers below build the
// common forms.
type AssertionSpec struct {
	// Authorizer is required for policy assertions (use PolicyPrincipal);
	// ignored by Sign, which uses the signing key's principal.
	Authorizer Principal
	// Licensees is the Licensees field body, e.g. `"ed25519-hex:ab…"`.
	Licensees string
	// LocalConstants, if non-empty, is the Local-Constants field body.
	LocalConstants string
	// Conditions is the Conditions field body; empty means no restriction.
	Conditions string
	// Comment is a free-text comment.
	Comment string
}

// compose renders the unsigned assertion text for the given authorizer.
func (s *AssertionSpec) compose(authorizer string) string {
	var b strings.Builder
	b.WriteString("KeyNote-Version: 2\n")
	if s.Comment != "" {
		b.WriteString("Comment: " + sanitizeFieldText(s.Comment) + "\n")
	}
	if s.LocalConstants != "" {
		b.WriteString("Local-Constants: " + sanitizeFieldText(s.LocalConstants) + "\n")
	}
	b.WriteString("Authorizer: " + authorizer + "\n")
	b.WriteString("Licensees: " + sanitizeFieldText(s.Licensees) + "\n")
	if s.Conditions != "" {
		b.WriteString("Conditions: " + sanitizeFieldText(s.Conditions) + "\n")
	}
	return b.String()
}

// sanitizeFieldText folds newlines into continuation lines so composed
// field bodies cannot terminate the field early.
func sanitizeFieldText(s string) string {
	return strings.ReplaceAll(s, "\n", "\n\t")
}

// NewPolicy composes an unsigned local policy assertion.
func NewPolicy(spec AssertionSpec) (*Assertion, error) {
	text := spec.compose(`"POLICY"`)
	a, err := ParseAssertion(text)
	if err != nil {
		return nil, err
	}
	if a.Authorizer != PolicyPrincipal {
		return nil, ErrNotPolicy
	}
	a.verified = true
	return a, nil
}

// Sign composes a credential assertion from spec, signs it with key, and
// returns the parsed, verified credential. The Authorizer field is the
// signing key's principal.
//
// The signature is good by construction, so it is not checked: what
// could go wrong is the parse, and the parsed assertion must read back
// the message that was signed, under that signature, from the signing
// key's principal — the inputs Verify would check the signature over.
func Sign(key *KeyPair, spec AssertionSpec) (*Assertion, error) {
	body := spec.compose(quotePrincipal(key.Principal))
	algName := key.signatureAlgName()
	msg := append([]byte(body), algName...)
	rawSig, err := key.signMessage(msg)
	if err != nil {
		return nil, err
	}
	sigValue := algName + hex.EncodeToString(rawSig)
	a, err := ParseAssertion(body + "Signature: \"" + sigValue + "\"\n")
	if err != nil {
		return nil, fmt.Errorf("keynote: composed credential does not reparse: %w", err)
	}
	if a.Authorizer != key.Principal || a.SignatureValue != sigValue || !bytes.Equal(a.signedBytes(algName), msg) {
		return nil, errors.New("keynote: composed credential does not reparse to what was signed")
	}
	a.verified = true
	return a, nil
}

// principalQuoter escapes a principal for a quoted string token.
var principalQuoter = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// quotePrincipal renders a principal as a quoted string token.
func quotePrincipal(p Principal) string {
	return `"` + principalQuoter.Replace(string(p)) + `"`
}

// LicenseesOr renders a Licensees field body authorizing any one of the
// given principals.
func LicenseesOr(ps ...Principal) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = quotePrincipal(p)
	}
	return strings.Join(parts, " || ")
}

// LicenseesAnd renders a Licensees field body requiring all given
// principals jointly.
func LicenseesAnd(ps ...Principal) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = quotePrincipal(p)
	}
	return strings.Join(parts, " && ")
}

// LicenseesThreshold renders a k-of(...) Licensees field body.
func LicenseesThreshold(k int, ps ...Principal) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = quotePrincipal(p)
	}
	return fmt.Sprintf("%d-of(%s)", k, strings.Join(parts, ", "))
}
