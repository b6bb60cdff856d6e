package keynote

import (
	"strings"
	"sync"
	"testing"
)

func newTestSession(t *testing.T) (*Session, *KeyPair, *KeyPair, *KeyPair) {
	t.Helper()
	s, err := NewSession(discfsValues)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	admin := DeterministicKey("admin")
	bob := DeterministicKey("bob")
	alice := DeterministicKey("alice")
	pol := mustPolicy(t, AssertionSpec{
		Licensees:  LicenseesOr(admin.Principal),
		Conditions: `app_domain == "DisCFS" -> "RWX";`,
	})
	if err := s.AddPolicy(pol); err != nil {
		t.Fatalf("AddPolicy: %v", err)
	}
	return s, admin, bob, alice
}

func TestSessionDelegationFlow(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	adminToBob := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "RW";`,
	})
	bobToAlice := mustSign(t, bob, AssertionSpec{
		Licensees:  LicenseesOr(alice.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "R";`,
	})
	if err := s.AddCredential(adminToBob); err != nil {
		t.Fatalf("AddCredential: %v", err)
	}
	if err := s.AddCredential(bobToAlice); err != nil {
		t.Fatalf("AddCredential: %v", err)
	}
	attrs := map[string]string{"app_domain": "DisCFS", "HANDLE": "5"}
	res, err := s.Query(attrs, alice.Principal)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Value != "R" {
		t.Errorf("alice = %q, want R", res.Value)
	}
	res, err = s.Query(attrs, bob.Principal)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Value != "RW" {
		t.Errorf("bob = %q, want RW", res.Value)
	}
}

func TestSessionAddCredentialText(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "R";`,
	})
	added, err := s.AddCredentialText(cred.Source)
	if err != nil {
		t.Fatalf("AddCredentialText: %v", err)
	}
	if len(added) != 1 {
		t.Fatalf("added %d, want 1", len(added))
	}
	// Idempotent resubmission.
	added, err = s.AddCredentialText(cred.Source)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if len(added) != 0 {
		t.Errorf("resubmit added %d, want 0", len(added))
	}
	if n := len(s.Credentials()); n != 1 {
		t.Errorf("session holds %d credentials, want 1", n)
	}
}

func TestSessionRejectsTamperedText(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `HANDLE == "5" -> "R";`,
	})
	tampered := strings.Replace(cred.Source, `"R";`, `"RWX";`, 1)
	if _, err := s.AddCredentialText(tampered); err == nil {
		t.Error("tampered credential accepted")
	}
	if n := len(s.Credentials()); n != 0 {
		t.Errorf("session holds %d credentials, want 0", n)
	}
}

func TestSessionRejectsUnsignedCredential(t *testing.T) {
	s, _, bob, _ := newTestSession(t)
	text := "Authorizer: " + quotePrincipal(bob.Principal) + "\nLicensees: \"x\"\n"
	if _, err := s.AddCredentialText(text); err == nil {
		t.Error("unsigned credential accepted")
	}
}

func TestSessionPolicyText(t *testing.T) {
	s, err := NewSession([]string{"false", "true"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	admin := DeterministicKey("admin")
	err = s.AddPolicyText("# root policy\nAuthorizer: \"POLICY\"\nLicensees: " +
		quotePrincipal(admin.Principal) + "\n")
	if err != nil {
		t.Fatalf("AddPolicyText: %v", err)
	}
	if len(s.Policies()) != 1 {
		t.Errorf("policies = %d, want 1", len(s.Policies()))
	}
	// Non-POLICY assertions must be rejected as policy.
	bad := "Authorizer: " + quotePrincipal(admin.Principal) + "\nLicensees: \"x\"\n"
	if err := s.AddPolicyText(bad); err == nil {
		t.Error("non-POLICY assertion accepted as policy")
	}
}

func TestSessionRevocationBySignature(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RWX";`,
	})
	if err := s.AddCredential(cred); err != nil {
		t.Fatalf("AddCredential: %v", err)
	}
	attrs := map[string]string{"app_domain": "DisCFS"}
	res, _ := s.Query(attrs, bob.Principal)
	if res.Value != "RWX" {
		t.Fatalf("pre-revocation = %q, want RWX", res.Value)
	}
	if !s.RevokeCredential(cred.SignatureValue) {
		t.Fatal("RevokeCredential found nothing")
	}
	if s.RevokeCredential(cred.SignatureValue) {
		t.Error("double revocation reported success")
	}
	// The identical credential cannot come back, as text or assertion.
	if _, err := s.AddCredentialText(cred.Source); err == nil {
		t.Error("revoked credential accepted again as text")
	}
	if err := s.AddCredential(cred); err == nil {
		t.Error("revoked credential accepted again as an assertion")
	}
	res, _ = s.Query(attrs, bob.Principal)
	if res.Value != "false" {
		t.Errorf("post-revocation = %q, want false", res.Value)
	}
}

func TestSessionRevocationByKey(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	adminToBob := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RWX";`,
	})
	bobToAlice := mustSign(t, bob, AssertionSpec{
		Licensees:  LicenseesOr(alice.Principal),
		Conditions: `app_domain == "DisCFS" -> "R";`,
	})
	if err := s.AddCredential(adminToBob); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCredential(bobToAlice); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"app_domain": "DisCFS"}

	// Revoking Bob's key cuts off both Bob and Alice (her chain runs
	// through his credential).
	removed := s.RevokeKey(bob.Principal)
	if removed != 1 {
		t.Errorf("removed %d credentials, want 1 (bob's issuance)", removed)
	}
	if !s.Revoked(bob.Principal) {
		t.Error("bob not marked revoked")
	}
	res, _ := s.Query(attrs, bob.Principal)
	if res.Value != "false" {
		t.Errorf("revoked bob = %q, want false", res.Value)
	}
	res, _ = s.Query(attrs, alice.Principal)
	if res.Value != "false" {
		t.Errorf("alice after bob revoked = %q, want false", res.Value)
	}
	// Bob cannot resubmit, alone or in the chain, as text or assertion.
	if _, err := s.AddCredentialText(bobToAlice.Source); err == nil {
		t.Error("revoked key's credential accepted")
	}
	if _, err := s.AddCredentialText(adminToBob.Source + "\n" + bobToAlice.Source); err == nil {
		t.Error("revoked key's credential accepted in a chain")
	}
	if err := s.AddCredential(bobToAlice); err == nil {
		t.Error("revoked key's credential accepted as an assertion")
	}
}

func TestSessionGenerationBumps(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	g0 := s.Generation()
	cred := mustSign(t, admin, AssertionSpec{Licensees: LicenseesOr(bob.Principal)})
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	if g1 == g0 {
		t.Error("generation unchanged after AddCredential")
	}
	s.RevokeCredential(cred.SignatureValue)
	if s.Generation() == g1 {
		t.Error("generation unchanged after revocation")
	}
}

func TestSessionConcurrentUse(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "R";`,
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, _ = s.AddCredentialText(cred.Source)
				_, _ = s.Query(map[string]string{"app_domain": "DisCFS"}, bob.Principal)
				_ = s.Generation()
				_ = s.Credentials()
			}
		}()
	}
	wg.Wait()
	if n := len(s.Credentials()); n != 1 {
		t.Errorf("after concurrent adds, %d credentials, want 1", n)
	}
}

func TestSessionValuesCopied(t *testing.T) {
	vals := []string{"false", "true"}
	s, err := NewSession(vals)
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = "mutated"
	got := s.Values()
	if got[0] != "false" {
		t.Error("session values aliased caller slice")
	}
	got[1] = "mutated"
	if s.Values()[1] != "true" {
		t.Error("Values() exposes internal slice")
	}
}

func TestNewSessionValidatesValues(t *testing.T) {
	if _, err := NewSession(nil); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := NewSession([]string{"a", "a"}); err == nil {
		t.Error("duplicate values accepted")
	}
}
