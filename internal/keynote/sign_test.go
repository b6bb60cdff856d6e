package keynote

import (
	"encoding/base64"
	"encoding/hex"
	"strings"
	"testing"
)

// TestSignatureBase64Encoding: signatures may arrive base64-encoded
// ("sig-ed25519-base64:") when signed under that identifier; and because
// the identifier is covered by the signature, *transcoding* an existing
// hex signature to base64 must NOT verify (algorithm-substitution
// resistance).
func TestSignatureBase64Encoding(t *testing.T) {
	key := DeterministicKey("b64-signer")
	spec := AssertionSpec{
		Licensees:  LicenseesOr(DeterministicKey("b64-holder").Principal),
		Conditions: `HANDLE == "9" -> "R";`,
	}
	// Sign natively under the base64 identifier.
	body := spec.compose(quotePrincipal(key.Principal))
	const algName = "sig-ed25519-base64:"
	msg := append([]byte(body), algName...)
	rawSig, err := key.signMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	full := body + "Signature: \"" + algName + base64.StdEncoding.EncodeToString(rawSig) + "\"\n"
	a, err := ParseAssertion(full)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := a.Verify(); err != nil {
		t.Errorf("native base64 signature rejected: %v", err)
	}

	// Transcoding a hex signature to base64 changes the covered
	// identifier and must fail.
	cred := mustSign(t, key, spec)
	hexAlg, sig, err := splitSignatureValue(cred.SignatureValue)
	if err != nil || hexAlg != "sig-ed25519-hex:" {
		t.Fatalf("alg = %q, %v", hexAlg, err)
	}
	transcoded := strings.Replace(cred.Source, cred.SignatureValue,
		algName+base64.StdEncoding.EncodeToString(sig), 1)
	ta, err := ParseAssertion(transcoded)
	if err != nil {
		t.Fatalf("parse transcoded: %v", err)
	}
	if err := ta.Verify(); err == nil {
		t.Error("algorithm-substituted signature verified")
	}
}

// TestSplitSignatureValueErrors pins the malformed-signature paths.
func TestSplitSignatureValueErrors(t *testing.T) {
	bad := []string{
		"no-colon-here",
		"sig-ed25519-hex:zz",     // bad hex
		"sig-ed25519-base64:!!!", // bad base64
		"sig-ed25519-rot13:abcd", // unknown encoding
	}
	for _, v := range bad {
		if _, _, err := splitSignatureValue(v); err == nil {
			t.Errorf("splitSignatureValue(%q) succeeded", v)
		}
	}
	// Uppercase hex is normalized.
	key := DeterministicKey("case-signer")
	cred := mustSign(t, key, AssertionSpec{Licensees: `"x"`})
	upper := strings.Replace(cred.Source, cred.SignatureValue,
		strings.ToUpper(cred.SignatureValue), 1)
	// The algorithm prefix must stay intact for signedBytes; only the
	// data part may vary in case — replace carefully.
	algName, sig, _ := splitSignatureValue(cred.SignatureValue)
	upper = strings.Replace(cred.Source,
		cred.SignatureValue, algName+strings.ToUpper(hex.EncodeToString(sig)), 1)
	a, err := ParseAssertion(upper)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := a.Verify(); err != nil {
		t.Errorf("uppercase hex signature rejected: %v", err)
	}
}

// TestSanitizeFieldText: embedded newlines in composed fields fold into
// continuation lines rather than terminating the field.
func TestSanitizeFieldText(t *testing.T) {
	key := DeterministicKey("nl-signer")
	cred, err := Sign(key, AssertionSpec{
		Licensees:  LicenseesOr("holder"),
		Conditions: "HANDLE == \"1\"\n-> \"R\";",
		Comment:    "line one\nline two",
	})
	if err != nil {
		t.Fatalf("Sign with newlines: %v", err)
	}
	re, err := ParseAssertion(cred.Source)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if err := re.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	// A malicious comment cannot inject a field.
	evil, err := Sign(key, AssertionSpec{
		Licensees: LicenseesOr("holder"),
		Comment:   "x\nLicensees: \"attacker\"",
	})
	if err != nil {
		t.Fatalf("Sign evil: %v", err)
	}
	lics := evil.Licensees()
	if len(lics) != 1 || lics[0] != "holder" {
		t.Errorf("comment injected a field: licensees = %v", lics)
	}
}

// TestSignedCredentialChecksNoSignature: Sign returns a credential
// already verified without checking the signature it just made, and a
// session installs it without checking it either — the path a server
// takes to issue a credential. A parsed copy of the same text is still
// checked, once, and a copy whose text was altered fails.
func TestSignedCredentialChecksNoSignature(t *testing.T) {
	key := DeterministicKey("issuer")
	spec := AssertionSpec{
		Licensees:  LicenseesOr(DeterministicKey("holder").Principal),
		Conditions: `HANDLE == "9" -> "R";`,
	}
	s, err := NewSession(discfsValues)
	if err != nil {
		t.Fatal(err)
	}
	before := sigChecks.Load()
	a, err := Sign(key, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verified() {
		t.Error("Sign returned an assertion not marked verified")
	}
	if n := sigChecks.Load() - before; n != 0 {
		t.Errorf("Sign checked %d signatures, want 0", n)
	}
	if err := s.AddCredential(a); err != nil {
		t.Fatal(err)
	}
	if n := sigChecks.Load() - before; n != 0 {
		t.Errorf("Sign and AddCredential checked %d signatures, want 0", n)
	}

	parsed, err := ParseAssertion(a.Source)
	if err != nil {
		t.Fatal(err)
	}
	before = sigChecks.Load()
	for range 2 {
		if err := parsed.Verify(); err != nil {
			t.Fatalf("Verify of the signed text: %v", err)
		}
	}
	if n := sigChecks.Load() - before; n != 1 {
		t.Errorf("verifying a parsed credential twice checked %d signatures, want 1", n)
	}
	forged, err := ParseAssertion(strings.Replace(a.Source, `-> "R"`, `-> "W"`, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := forged.Verify(); err == nil {
		t.Error("an altered copy of a signed credential verified")
	}
}
