package keynote

import (
	"sync"
	"sync/atomic"
)

// Session is a persistent collection of policy and verified credential
// assertions, mirroring the "persistent KeyNote session" the DisCFS
// daemon keeps per attached client. Sessions are safe for concurrent
// use and read-mostly: the assertion set lives in an immutable Snapshot
// published through an atomic pointer, so Query takes no lock at all;
// mutations (credential submission, revocation) publish a new snapshot
// that shares structure with the old one, under a writer mutex, and
// bump the generation counter. A mutation that changes nothing publishes
// nothing.
type Session struct {
	mu   sync.Mutex // serializes mutations; readers never take it
	snap atomic.Pointer[Snapshot]
	// volatileAttrs are action-attribute names whose values change
	// between queries without a session mutation (e.g. the time of day).
	// Snapshots record whether any assertion depends on one, so decision
	// caches can bound reuse. Written only under mu.
	volatileAttrs map[string]bool
}

// NewSession creates a session with the given ordered compliance values
// (least trust first).
func NewSession(values []string) (*Session, error) {
	if _, err := newValueOrder(values); err != nil {
		return nil, err
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s := &Session{}
	s.snap.Store(&Snapshot{values: vals})
	return s, nil
}

// Snapshot returns the current immutable view of the session. Callers
// that make several reads that must agree with each other (a query plus
// the generation it was computed under) should take one snapshot and
// use it for all of them.
func (s *Session) Snapshot() *Snapshot { return s.snap.Load() }

// SetVolatileAttributes declares action-attribute names whose values
// change between queries with no session mutation — for DisCFS, the
// time attributes (hour, minute, weekday, now). Snapshots report (via
// Volatile) whether any installed assertion references one, which lets
// decision caches clamp entry lifetimes. Call before assertions are
// installed; existing assertions are rescanned.
func (s *Session) SetVolatileAttributes(names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.volatileAttrs = make(map[string]bool, len(names))
	for _, n := range names {
		s.volatileAttrs[n] = true
	}
	next := s.snap.Load().derive()
	next.recomputeVolatile(s.volatileAttrs)
	s.snap.Store(next)
}

// Values returns the session's ordered compliance value set.
func (s *Session) Values() []string { return s.Snapshot().Values() }

// Generation returns a counter that changes whenever the session's
// assertion set changes; policy-decision caches key their validity on it.
func (s *Session) Generation() uint64 { return s.Snapshot().gen }

// mutate runs fn on the current snapshot under the writer lock. fn
// returns the snapshot to publish — derived from cur, with its changes —
// or nil when nothing changed; the published one gets the next
// generation.
func (s *Session) mutate(fn func(cur *Snapshot) (*Snapshot, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := fn(s.snap.Load())
	if next != nil {
		next.gen++
		s.snap.Store(next)
	}
	return err
}

// AddPolicyText parses and installs unsigned local policy assertions
// (Authorizer: "POLICY"). Multiple assertions may be separated by blank
// lines.
func (s *Session) AddPolicyText(text string) error {
	as, err := ParseAssertions(text)
	if err != nil {
		return err
	}
	for _, a := range as {
		if a.Authorizer != PolicyPrincipal {
			return ErrNotPolicy
		}
		a.verified = true
	}
	return s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		if len(as) == 0 {
			return nil, nil
		}
		next := cur.derive()
		for _, a := range as {
			next.addPolicy(a, s.volatileAttrs)
		}
		return next, nil
	})
}

// AddPolicy installs an already-composed policy assertion.
func (s *Session) AddPolicy(a *Assertion) error {
	if a.Authorizer != PolicyPrincipal {
		return ErrNotPolicy
	}
	a.verified = true
	return s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		next := cur.derive()
		next.addPolicy(a, s.volatileAttrs)
		return next, nil
	})
}

// AddCredentialText parses, verifies, and installs credential assertions.
// Policy, unsigned assertions and bad signatures are rejected; credentials from
// revoked keys are rejected. See addCredentials for what is verified.
func (s *Session) AddCredentialText(text string) ([]*Assertion, error) {
	as, err := ParseAssertions(text)
	if err != nil {
		return nil, err
	}
	return s.addCredentials(as)
}

// AddCredential verifies and installs one credential assertion.
func (s *Session) AddCredential(a *Assertion) error {
	_, err := s.addCredentials([]*Assertion{a})
	return err
}

// addCredentials verifies the credentials, then installs them in order
// and returns the ones it installed; the first refusal stops it, and
// what it installed before stays. Verification runs before the writer
// lock is taken, so concurrent submissions verify in parallel. A
// credential byte-identical to one the session holds is not verified
// again — the copy it holds was verified when it was installed — and
// installs nothing; if that copy is gone by the time the writer lock is
// held, the credential is verified then, under the lock.
func (s *Session) addCredentials(as []*Assertion) ([]*Assertion, error) {
	held := s.Snapshot()
	verified := make([]bool, len(as))
	for i, a := range as {
		if a.Authorizer == PolicyPrincipal {
			// Verify passes policy unsigned; as a credential it would
			// stand in for the server's own policy.
			return nil, ErrPolicyAsCredential
		}
		if held.holds(a) {
			continue
		}
		if err := a.Verify(); err != nil {
			return nil, err
		}
		verified[i] = true
	}
	var added []*Assertion
	err := s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		var next *Snapshot
		for i, a := range as {
			view := cur
			if next != nil {
				view = next
			}
			if err := view.admit(a); err != nil {
				return next, err
			}
			if _, dup := view.bySig.get(a.SignatureValue); dup {
				continue // idempotent re-submission
			}
			if !verified[i] {
				if err := a.Verify(); err != nil {
					return next, err
				}
			}
			if next == nil {
				next = cur.derive()
			}
			next.addCredential(a, s.volatileAttrs)
			added = append(added, a)
		}
		return next, nil
	})
	return added, err
}

// RevokeCredential withdraws the credential with the given signature
// value and reports whether a credential was removed. The signature is
// recorded permanently (and logged in the revocation log) the first
// time, whether or not the credential is currently installed, so a
// later resubmission — or a replicated copy arriving on another server
// — is refused rather than silently reinstated.
func (s *Session) RevokeCredential(signatureValue string) bool {
	removed := false
	s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		a, held := cur.bySig.get(signatureValue)
		known := cur.revokedSigs.has(signatureValue)
		if known && !held {
			return nil, nil
		}
		next := cur.derive()
		if !known {
			next.revokedSigs = cur.revokedSigs.set(signatureValue, struct{}{})
			next.appendRevocation(RevokedCredential, signatureValue)
		}
		if held {
			next.removeCredentials(func(b *Assertion) bool { return b == a }, s.volatileAttrs)
			removed = true
		}
		return next, nil
	})
	return removed
}

// RevokeKey marks a principal as bad: all its existing credentials are
// dropped, future submissions are refused, and a revocation log entry
// is appended. It returns the number of credentials removed. Revoking
// an already-revoked principal is a no-op (no generation bump, no new
// log entry), which keeps replicated re-application convergent.
func (s *Session) RevokeKey(p Principal) int {
	c := CanonicalPrincipal(p)
	removed := 0
	s.mutate(func(cur *Snapshot) (*Snapshot, error) {
		if cur.revoked.has(string(c)) {
			return nil, nil
		}
		next := cur.derive()
		next.revoked = cur.revoked.set(string(c), struct{}{})
		next.appendRevocation(RevokedKey, string(c))
		removed = next.removeCredentials(func(a *Assertion) bool { return a.Authorizer == c }, s.volatileAttrs)
		return next, nil
	})
	return removed
}

// Revoked reports whether a principal has been revoked.
func (s *Session) Revoked(p Principal) bool { return s.Snapshot().Revoked(p) }

// Credentials returns the verified credentials currently in the session.
func (s *Session) Credentials() []*Assertion { return s.Snapshot().Credentials() }

// Policies returns the installed policy assertions.
func (s *Session) Policies() []*Assertion { return s.Snapshot().Policies() }

// Query runs a compliance check with the session's assertions and value
// order. Requesters that have been revoked fail closed to _MIN_TRUST.
// The check runs lock-free against the current snapshot and evaluates
// only the requesting principals' delegation graph.
func (s *Session) Query(attributes map[string]string, requesters ...Principal) (Result, error) {
	return s.Snapshot().Query(attributes, requesters...)
}
