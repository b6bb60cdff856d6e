package keynote

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// Tests of credential enrolment: what an add and a revocation cost as
// the session grows, the byte-identical resubmission shortcut, and what
// is never installed.

// installUnverified puts n parsed, unsigned-by-anyone bystander
// credentials from authorizer, the i-th licensing licensee(i), straight
// into the session's snapshot, to give it size without paying n
// signatures; queries ignore them (not verified).
func installUnverified(t testing.TB, s *Session, authorizer *KeyPair, licensee func(i int) string, n int) {
	t.Helper()
	first := s.Snapshot().NumCredentials() // signature values stay distinct
	bys := make([]*Assertion, n)
	for i := range bys {
		a, err := ParseAssertion(fmt.Sprintf("KeyNote-Version: 2\nAuthorizer: %s\nLicensees: %q\nSignature: \"sig-ed25519-hex:%064x\"\n",
			quotePrincipal(authorizer.Principal), licensee(i), first+i))
		if err != nil {
			t.Fatal(err)
		}
		bys[i] = a
	}
	s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		next := cur.derive()
		for _, a := range bys {
			next.addCredential(a, nil)
		}
		return next, nil
	})
}

// TestAddCredentialAllocsFlat: one AddCredential publishes the change
// without copying the session, so it allocates about as much at 6,000
// installed credentials as at 200.
func TestAddCredentialAllocsFlat(t *testing.T) {
	allocsAt := func(installed int) float64 {
		s, admin, _, _ := newTestSession(t)
		installUnverified(t, s, admin, func(i int) string { return fmt.Sprintf("bystander-%d", i) }, installed)
		const runs = 20
		fresh := make([]*Assertion, runs+1)
		for i := range fresh {
			fresh[i] = mustSign(t, admin, AssertionSpec{
				Licensees:  LicenseesOr(DeterministicKey(fmt.Sprintf("fresh-%d-%d", installed, i)).Principal),
				Conditions: `app_domain == "DisCFS" -> "R";`,
			})
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := s.AddCredential(fresh[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := allocsAt(200), allocsAt(6000)
	if large > 2*small {
		t.Errorf("AddCredential allocates %.0f objects at 6,000 credentials, %.0f at 200: more than twice", large, small)
	}
}

// TestRevokeAllocsFlat: the revocation sets are tries, so one RevokeKey
// allocates about as many bytes with 10,000 keys already revoked as with
// 100. A set copied on every revocation makes R revocations cost O(R²).
func TestRevokeAllocsFlat(t *testing.T) {
	const runs = 1024
	bytesAt := func(revoked int) float64 {
		s, _, _, _ := newTestSession(t)
		for i := 0; i < revoked; i++ {
			s.RevokeKey(Principal(fmt.Sprintf("old-%d", i)))
		}
		keys := make([]Principal, runs)
		for i := range keys {
			keys[i] = Principal(fmt.Sprintf("new-%d", i))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, k := range keys {
			s.RevokeKey(k)
		}
		runtime.ReadMemStats(&m1)
		if got := s.RevocationSeq(); got != uint64(revoked+runs) {
			t.Fatalf("RevocationSeq = %d, want %d", got, revoked+runs)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	small, large := bytesAt(100), bytesAt(10000)
	t.Logf("RevokeKey allocates %.0f bytes at 100 revoked keys, %.0f at 10,000", small, large)
	if large > 2*small {
		t.Errorf("RevokeKey allocates %.0f bytes at 10,000 revoked keys, %.0f at 100: more than twice", large, small)
	}
}

// TestResubmissionWithAlteredBytesIsRefused: text that carries an
// installed credential's Signature value but differs in any signed byte
// is not taken for the installed one; it is verified, and refused.
func TestResubmissionWithAlteredBytesIsRefused(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "R";`,
		Comment:    "shared",
	})
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	for i := 0; i < cred.sigStart; i++ {
		forged := []byte(cred.Source)
		forged[i] ^= 1
		if _, err := s.AddCredentialText(string(forged)); err == nil {
			t.Fatalf("byte %d altered: accepted as text", i)
		}
		if a, err := ParseAssertion(string(forged)); err == nil && a.SignatureValue == cred.SignatureValue {
			if err := s.AddCredential(a); err == nil {
				t.Fatalf("byte %d altered: accepted as an assertion", i)
			}
		}
	}
	if s.Snapshot() != before {
		t.Error("refused submissions published a snapshot")
	}
}

// TestNoOpMutationsPublishNothing: a mutation that changes nothing
// leaves the published snapshot — pointer and generation — as it was.
func TestNoOpMutationsPublishNothing(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	adminToBob := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RW";`,
	})
	if err := s.AddCredential(adminToBob); err != nil {
		t.Fatal(err)
	}
	s.RevokeKey(alice.Principal)
	s.RevokeCredential("sig-ed25519-hex:00")
	reparsed, err := ParseAssertion(adminToBob.Source)
	if err != nil {
		t.Fatal(err)
	}
	before, gen := s.Snapshot(), s.Generation()
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"identical text", func() error { _, err := s.AddCredentialText(adminToBob.Source); return err }},
		{"identical assertion", func() error { return s.AddCredential(adminToBob) }},
		{"identical reparsed assertion", func() error { return s.AddCredential(reparsed) }},
		{"empty policy text", func() error { return s.AddPolicyText("") }},
		{"repeat key revocation", func() error { s.RevokeKey(alice.Principal); return nil }},
		{"repeat signature revocation", func() error { s.RevokeCredential("sig-ed25519-hex:00"); return nil }},
	} {
		if err := op.do(); err != nil {
			t.Errorf("%s: %v", op.name, err)
		}
		if s.Snapshot() != before || s.Generation() != gen {
			t.Errorf("%s published a snapshot (generation %d -> %d)", op.name, gen, s.Generation())
		}
	}
}

// TestRevokeKeyFiltersEachLicenseeOnce: revoking a key drops its
// credentials from the licensee index, and filters each licensee's list
// once however many of its entries go — revoking 3,000 credentials that
// all license one principal allocates no more than revoking 3,000 that
// license 3,000 principals, one entry each.
func TestRevokeKeyFiltersEachLicenseeOnce(t *testing.T) {
	const n, kept = 3000, 10
	revoke := func(licensee func(i int) string) uint64 {
		s, admin, _, _ := newTestSession(t)
		mallory := DeterministicKey("mallory")
		installUnverified(t, s, admin, licensee, kept)
		installUnverified(t, s, mallory, licensee, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		removed := s.RevokeKey(mallory.Principal)
		runtime.ReadMemStats(&m1)
		if removed != n {
			t.Fatalf("RevokeKey removed %d credentials, want %d", removed, n)
		}
		checkLicenseeIndex(t, s.Snapshot(), licensee, n, kept)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	one := revoke(func(int) string { return "shared" })
	spread := revoke(func(i int) string { return fmt.Sprintf("own-%d", i) })
	if one > spread {
		t.Errorf("revoking %d credentials allocates %d bytes when they license one principal, %d when they license %d", n, one, spread, n)
	}
}

// checkLicenseeIndex compares the snapshot's licensee index at
// licensee(0..n-1) with the lists its credentials make; kept credentials
// are left.
func checkLicenseeIndex(t *testing.T, sn *Snapshot, licensee func(i int) string, n, kept int) {
	t.Helper()
	if len(sn.creds) != kept {
		t.Fatalf("%d credentials left, want %d", len(sn.creds), kept)
	}
	want := make(map[Principal][]*Assertion)
	for _, a := range sn.creds {
		for _, p := range a.Licensees() {
			want[p] = append(want[p], a)
		}
	}
	for i := 0; i < n; i++ {
		p := Principal(licensee(i))
		got, _ := sn.byLicensee.get(string(p))
		if i < kept && len(want[p]) == 0 {
			t.Fatalf("licensee %s names no kept credential", p)
		}
		if !slices.Equal(got, want[p]) {
			t.Fatalf("licensee %s: index holds %d credentials, the session %d", p, len(got), len(want[p]))
		}
	}
}

// TestPolicyIsNotACredential: an assertion whose authorizer is POLICY
// verifies without a signature, so it is refused as a credential —
// installed, it would grant what it says as if the server had
// configured it.
func TestPolicyIsNotACredential(t *testing.T) {
	s, _, bob, _ := newTestSession(t)
	pol := mustPolicy(t, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RWX";`,
	})
	if _, err := s.AddCredentialText(pol.Source); !errors.Is(err, ErrPolicyAsCredential) {
		t.Errorf("AddCredentialText(policy) = %v, want ErrPolicyAsCredential", err)
	}
	if err := s.AddCredential(pol); !errors.Is(err, ErrPolicyAsCredential) {
		t.Errorf("AddCredential(policy) = %v, want ErrPolicyAsCredential", err)
	}
	if _, err := s.AddCredentialText(pol.Source + "Signature: \"sig-ed25519-hex:00\"\n"); err == nil {
		t.Error("a signed-looking policy was accepted as a credential")
	}
	res, err := s.Query(map[string]string{"app_domain": "DisCFS"}, bob.Principal)
	if err != nil || res.Index != 0 {
		t.Errorf("bob's query = %v, %v; want the lowest value", res, err)
	}
}
