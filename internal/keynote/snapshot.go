package keynote

import (
	"fmt"
	"slices"
)

// Snapshot is an immutable view of a Session's assertion set. Queries
// run against a snapshot without taking any lock: the session publishes
// a new snapshot on every mutation, and a snapshot once obtained never
// changes, so a decision and the generation it was computed under are
// consistent by construction.
//
// Snapshots share structure. A mutation copies the snapshot header and
// replaces only what it changes: the indexes are persistent tries whose
// updates copy one path; the assertion lists only grow between
// removals, and a new snapshot appends past the end of its parent's
// slice, where no published snapshot reads; the revocation sets are
// tries like the indexes. Adding a credential therefore costs O(log n)
// in the size of the session, and a revocation O(log n) in the number
// of revocations plus a rebuild of the credential list.
type Snapshot struct {
	values   []string
	policies []*Assertion
	creds    []*Assertion
	bySig    hamt[*Assertion]
	// byLicensee indexes every assertion (policy and credential) by each
	// principal its Licensees field mentions. Query walks this index from
	// the requester toward POLICY instead of scanning the whole session:
	// an assertion that licenses none of the principals reachable from
	// the requester can only ever contribute _MIN_TRUST, so skipping it
	// never changes the result. Its lists grow like creds.
	byLicensee hamt[[]*Assertion]
	// revoked holds every revoked principal, in canonical form.
	revoked hamt[struct{}]
	// revokedSigs records every credential signature ever revoked.
	// Unlike bySig removal, this set is permanent: a revoked credential
	// stays refused on resubmission, so a replication layer can apply a
	// signature revocation before (or after) the credential itself
	// arrives and the outcome is the same.
	revokedSigs hamt[struct{}]
	// revlog is the append-only revocation log: one entry per RevokeKey
	// or (first) RevokeCredential, in application order. Seq is 1-based
	// and monotonic, so replication cursors are just log positions.
	revlog []Revocation
	gen    uint64
	// volatile records whether any assertion's conditions reference one
	// of the session's volatile attributes (e.g. time of day). Decision
	// caches use it to bound how long a result may be reused.
	volatile bool
}

// Generation returns the mutation counter the snapshot was published at.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Volatile reports whether any assertion references a volatile action
// attribute (see Session.SetVolatileAttributes).
func (sn *Snapshot) Volatile() bool { return sn.volatile }

// Values returns the snapshot's ordered compliance value set.
func (sn *Snapshot) Values() []string {
	out := make([]string, len(sn.values))
	copy(out, sn.values)
	return out
}

// Credentials returns the verified credentials in the snapshot.
func (sn *Snapshot) Credentials() []*Assertion {
	out := make([]*Assertion, len(sn.creds))
	copy(out, sn.creds)
	return out
}

// Policies returns the policy assertions in the snapshot.
func (sn *Snapshot) Policies() []*Assertion {
	out := make([]*Assertion, len(sn.policies))
	copy(out, sn.policies)
	return out
}

// NumCredentials returns the credential count without copying.
func (sn *Snapshot) NumCredentials() int { return len(sn.creds) }

// Revoked reports whether a principal has been revoked in this snapshot.
func (sn *Snapshot) Revoked(p Principal) bool {
	return sn.revoked.has(string(CanonicalPrincipal(p)))
}

// RevokedCredential reports whether a credential signature has been
// revoked in this snapshot. Signature revocations are permanent: the
// credential is refused on resubmission even after removal.
func (sn *Snapshot) RevokedCredential(sig string) bool { return sn.revokedSigs.has(sig) }

// Revocations returns a copy of the log entries with Seq > since (pass
// 0 for the whole log). Entries are ordered and Seq is dense, so a
// replication cursor is simply the last Seq it has consumed.
func (sn *Snapshot) Revocations(since uint64) []Revocation {
	if since >= uint64(len(sn.revlog)) {
		return nil
	}
	return append([]Revocation(nil), sn.revlog[since:]...)
}

// RevocationSeq returns the sequence number of the newest revocation
// log entry (0 when nothing has been revoked).
func (sn *Snapshot) RevocationSeq() uint64 { return uint64(len(sn.revlog)) }

// relevant collects the assertions on delegation paths from the
// requesters toward POLICY: breadth-first over the licensee index,
// following each collected assertion's authorizer upward. Principals a
// requester cannot reach hold _MIN_TRUST in the evaluation fixpoint, so
// assertions licensing only such principals are sound to omit.
func (sn *Snapshot) relevant(requesters []Principal) (pols, creds []*Assertion) {
	reached := make(map[Principal]bool, len(requesters)+8)
	queue := make([]Principal, 0, len(requesters)+8)
	for _, r := range requesters {
		if !reached[r] {
			reached[r] = true
			queue = append(queue, r)
		}
	}
	picked := make(map[*Assertion]bool, 8)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		licensed, _ := sn.byLicensee.get(string(p))
		for _, a := range licensed {
			if picked[a] {
				continue
			}
			picked[a] = true
			if a.Authorizer == PolicyPrincipal {
				pols = append(pols, a)
				continue
			}
			creds = append(creds, a)
			if !reached[a.Authorizer] {
				reached[a.Authorizer] = true
				queue = append(queue, a.Authorizer)
			}
		}
	}
	return pols, creds
}

// Query runs a compliance check against the snapshot. It takes no lock
// and evaluates only the requesting principals' delegation graph.
// Requesters that have been revoked fail closed to _MIN_TRUST.
func (sn *Snapshot) Query(attributes map[string]string, requesters ...Principal) (Result, error) {
	canon := make([]Principal, len(requesters))
	for i, r := range requesters {
		c, err := canonicalPrincipal(string(r))
		if err != nil {
			return Result{}, err
		}
		if sn.revoked.has(string(c)) {
			return Result{Value: sn.values[0], Index: 0}, nil
		}
		canon[i] = c
	}
	pols, creds := sn.relevant(canon)
	return Evaluate(pols, creds, Query{
		Values:     sn.values,
		Attributes: attributes,
		Requesters: canon,
	})
}

// holds reports whether the snapshot holds a credential byte-identical
// to a, which was verified when it was installed.
func (sn *Snapshot) holds(a *Assertion) bool {
	b, ok := sn.bySig.get(a.SignatureValue)
	return ok && b.Source == a.Source
}

// admit returns why a credential may not be installed: its authorizer
// or its signature has been revoked.
func (sn *Snapshot) admit(a *Assertion) error {
	if sn.revoked.has(string(a.Authorizer)) {
		return fmt.Errorf("keynote: credential authorizer %s is revoked", a.Authorizer.Short())
	}
	if sn.revokedSigs.has(a.SignatureValue) {
		return fmt.Errorf("keynote: credential signature is revoked")
	}
	return nil
}

// ---- construction (called by Session under its writer lock) ----

// derive returns a copy of the snapshot header for one mutation to
// change. The containers stay shared with sn: the methods below replace
// a container they change, append past the end of a list, or set into
// a trie, and never write where sn reads.
func (sn *Snapshot) derive() *Snapshot {
	next := *sn
	return &next
}

// addPolicy installs a policy assertion.
func (sn *Snapshot) addPolicy(a *Assertion, volatileAttrs map[string]bool) {
	sn.policies = append(sn.policies, a)
	sn.index(a, volatileAttrs)
}

// addCredential installs a verified credential.
func (sn *Snapshot) addCredential(a *Assertion, volatileAttrs map[string]bool) {
	sn.creds = append(sn.creds, a)
	sn.bySig = sn.bySig.set(a.SignatureValue, a)
	sn.index(a, volatileAttrs)
}

// index adds one assertion to the licensee index and the volatile flag.
func (sn *Snapshot) index(a *Assertion, volatileAttrs map[string]bool) {
	for _, p := range a.Licensees() {
		licensed, _ := sn.byLicensee.get(string(p))
		sn.byLicensee = sn.byLicensee.set(string(p), append(licensed, a))
	}
	sn.volatile = sn.volatile || a.referencesAny(volatileAttrs)
}

// removeCredentials drops the credentials gone selects and returns how
// many it dropped. The credential list is rebuilt, O(n); the indexes
// lose only the removed entries, and each licensee list they touch is
// filtered once, however many of its entries go.
func (sn *Snapshot) removeCredentials(gone func(*Assertion) bool, volatileAttrs map[string]bool) int {
	kept := make([]*Assertion, 0, len(sn.creds))
	dropped := make(map[*Assertion]bool)
	touched := make(map[Principal]bool)
	rescan := false
	for _, a := range sn.creds {
		if !gone(a) {
			kept = append(kept, a)
			continue
		}
		dropped[a] = true
		sn.bySig = sn.bySig.delete(a.SignatureValue)
		for _, p := range a.Licensees() {
			touched[p] = true
		}
		rescan = rescan || a.referencesAny(volatileAttrs)
	}
	for p := range touched {
		licensed, _ := sn.byLicensee.get(string(p))
		// A filtered copy: older snapshots still read licensed.
		licensed = slices.DeleteFunc(slices.Clone(licensed), func(b *Assertion) bool { return dropped[b] })
		if len(licensed) == 0 {
			sn.byLicensee = sn.byLicensee.delete(string(p))
		} else {
			sn.byLicensee = sn.byLicensee.set(string(p), licensed)
		}
	}
	removed := len(dropped)
	sn.creds = kept
	if rescan {
		sn.recomputeVolatile(volatileAttrs)
	}
	return removed
}

// recomputeVolatile rescans every assertion (after removals).
func (sn *Snapshot) recomputeVolatile(attrs map[string]bool) {
	sn.volatile = false
	for _, a := range sn.policies {
		if a.referencesAny(attrs) {
			sn.volatile = true
			return
		}
	}
	for _, a := range sn.creds {
		if a.referencesAny(attrs) {
			sn.volatile = true
			return
		}
	}
}

// referencesAny reports whether the assertion's Conditions mention any
// of the named action attributes.
func (a *Assertion) referencesAny(names map[string]bool) bool {
	if len(names) == 0 || a.conditions == nil {
		return false
	}
	return a.conditions.referencesAny(names)
}
