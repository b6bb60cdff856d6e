package keynote

import (
	"encoding/base64"
	"encoding/hex"
	"strings"
	"testing"
)

func TestGenerateKeyProducesCanonicalPrincipal(t *testing.T) {
	k, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	if !strings.HasPrefix(string(k.Principal), "ed25519-hex:") {
		t.Errorf("principal %q lacks ed25519-hex prefix", k.Principal)
	}
	if !k.Principal.IsKey() {
		t.Errorf("generated principal not recognized as key")
	}
	if k.Principal.Algorithm() != AlgEd25519 {
		t.Errorf("algorithm = %v, want ed25519", k.Principal.Algorithm())
	}
}

func TestDeterministicKeyIsStable(t *testing.T) {
	a := DeterministicKey("alice")
	b := DeterministicKey("alice")
	c := DeterministicKey("bob")
	if a.Principal != b.Principal {
		t.Errorf("same seed produced different principals")
	}
	if a.Principal == c.Principal {
		t.Errorf("different seeds produced the same principal")
	}
}

func TestCanonicalPrincipalHexBase64Equivalence(t *testing.T) {
	k := DeterministicKey("canon")
	_, raw, err := splitKey(string(k.Principal))
	if err != nil {
		t.Fatalf("splitKey: %v", err)
	}
	b64 := "ed25519-base64:" + base64.StdEncoding.EncodeToString(raw)
	upperHex := "ED25519-HEX:" + strings.ToUpper(hex.EncodeToString(raw))

	c1, err := canonicalPrincipal(b64)
	if err != nil {
		t.Fatalf("canonical(base64): %v", err)
	}
	c2, err := canonicalPrincipal(upperHex)
	if err != nil {
		t.Fatalf("canonical(upper hex): %v", err)
	}
	if c1 != k.Principal || c2 != k.Principal {
		t.Errorf("canonicalization mismatch: %q, %q, want %q", c1, c2, k.Principal)
	}
}

// TestCanonicalKeyPassesThrough: a key already in canonical form comes
// back as it is, with no allocation; any other spelling is rewritten or
// refused as before.
func TestCanonicalKeyPassesThrough(t *testing.T) {
	k := string(DeterministicKey("canon").Principal)
	if n := testing.AllocsPerRun(100, func() {
		if p, err := canonicalPrincipal(k); err != nil || string(p) != k {
			t.Fatalf("canonical(%q) = %q, %v", k, p, err)
		}
	}); n > 0 {
		t.Errorf("canonicalizing a canonical key allocates %.1f objects", n)
	}
	if p, err := canonicalPrincipal(k[:len(k)-1] + "F"); err != nil || string(p) != k[:len(k)-1]+"f" {
		t.Errorf("canonical(upper last digit) = %q, %v", p, err)
	}
	for _, bad := range []string{k[:len(k)-1], k[:len(k)-1] + "g"} {
		if _, err := canonicalPrincipal(bad); err == nil {
			t.Errorf("canonical(%q) accepted", bad)
		}
	}
}

func TestOpaquePrincipalPassesThrough(t *testing.T) {
	for _, s := range []string{"POLICY", "some-user", "mailto:alice@example.com"} {
		p, err := canonicalPrincipal(s)
		if err != nil {
			t.Fatalf("canonical(%q): %v", s, err)
		}
		if string(p) != s {
			t.Errorf("canonical(%q) = %q, want unchanged", s, p)
		}
		if p.IsKey() {
			t.Errorf("%q misidentified as a key", s)
		}
	}
}

func TestBadKeyEncodingRejected(t *testing.T) {
	if _, err := canonicalPrincipal("ed25519-hex:zzzz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := canonicalPrincipal("rsa-base64:!!!"); err == nil {
		t.Error("bad base64 accepted")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	k := DeterministicKey("pub")
	pub, err := k.Principal.PublicKey()
	if err != nil {
		t.Fatalf("PublicKey: %v", err)
	}
	if pub == nil {
		t.Fatal("nil public key")
	}
	// Wrong length must be rejected.
	if _, err := Principal("ed25519-hex:abcd").PublicKey(); err == nil {
		t.Error("short ed25519 key accepted")
	}
	if _, err := Principal("POLICY").PublicKey(); err == nil {
		t.Error("opaque principal produced a public key")
	}
}

func TestRSAKeySignVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA keygen is slow")
	}
	k, err := GenerateRSAKey(2048)
	if err != nil {
		t.Fatalf("GenerateRSAKey: %v", err)
	}
	if k.Principal.Algorithm() != AlgRSA {
		t.Fatalf("algorithm = %v, want rsa", k.Principal.Algorithm())
	}
	msg := []byte("the quick brown fox")
	sig, err := k.signMessage(msg)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if err := verifyMessage(k.Principal, "sig-rsa-sha256-hex:", msg, sig); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := verifyMessage(k.Principal, "sig-rsa-sha256-hex:", append(msg, 'x'), sig); err == nil {
		t.Error("tampered message verified")
	}
}

func TestShortFormsAreShort(t *testing.T) {
	k := DeterministicKey("short")
	s := k.Principal.Short()
	if len(s) > 24 {
		t.Errorf("Short() = %q too long", s)
	}
	long := Principal("an-extremely-long-opaque-principal-name")
	if got := long.Short(); len(got) > 20 {
		t.Errorf("opaque Short() = %q too long", got)
	}
}

func TestVerifyMessageAlgorithmMismatch(t *testing.T) {
	k := DeterministicKey("mismatch")
	msg := []byte("m")
	sig, err := k.signMessage(msg)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if err := verifyMessage(k.Principal, "sig-rsa-sha256-hex:", msg, sig); err == nil {
		t.Error("rsa verify against ed25519 key succeeded")
	}
	if err := verifyMessage(k.Principal, "sig-unknown-hex:", msg, sig); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
