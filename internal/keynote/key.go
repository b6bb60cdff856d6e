package keynote

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// Algorithm identifies the public-key algorithm of a principal.
type Algorithm string

// Supported key algorithms. The paper's prototype used DSA; DSA is
// deprecated in modern Go, so Ed25519 takes its place as the default
// signature scheme and RSA is kept for interoperability breadth.
const (
	AlgNone    Algorithm = ""        // opaque principal (not a key)
	AlgEd25519 Algorithm = "ed25519" // Ed25519 (default)
	AlgRSA     Algorithm = "rsa"     // RSA with SHA-256
)

// Principal is a KeyNote principal: either a public key in canonical text
// encoding (e.g. "ed25519-hex:3081de…") or an opaque name (e.g. "POLICY").
// Principals compare by their canonical string form.
type Principal string

// PolicyPrincipal is the distinguished authorizer of local policy
// assertions, which are unconditionally trusted and need no signature.
const PolicyPrincipal Principal = "POLICY"

// IsKey reports whether the principal is a cryptographic key (as opposed
// to an opaque name such as "POLICY").
func (p Principal) IsKey() bool {
	alg, _, err := splitKey(string(p))
	return err == nil && alg != AlgNone
}

// Algorithm returns the principal's key algorithm, or AlgNone for opaque
// principals.
func (p Principal) Algorithm() Algorithm {
	alg, _, err := splitKey(string(p))
	if err != nil {
		return AlgNone
	}
	return alg
}

// Short returns an abbreviated form of the principal for logs: the
// algorithm prefix and the first eight hex digits of the key material.
func (p Principal) Short() string {
	alg, raw, err := splitKey(string(p))
	if err != nil || alg == AlgNone {
		s := string(p)
		if len(s) > 16 {
			return s[:16] + "…"
		}
		return s
	}
	h := hex.EncodeToString(raw)
	if len(h) > 8 {
		h = h[:8]
	}
	return string(alg) + ":" + h
}

// splitKey parses a principal string of the form "<alg>-<enc>:<data>".
// It returns AlgNone with no error for strings that do not look like keys.
func splitKey(s string) (Algorithm, []byte, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return AlgNone, nil, nil
	}
	prefix := strings.ToLower(s[:colon])
	data := s[colon+1:]
	var alg Algorithm
	var enc string
	switch {
	case strings.HasPrefix(prefix, "ed25519-"):
		alg, enc = AlgEd25519, prefix[len("ed25519-"):]
	case strings.HasPrefix(prefix, "rsa-"):
		alg, enc = AlgRSA, prefix[len("rsa-"):]
	default:
		return AlgNone, nil, nil // opaque principal containing a colon
	}
	raw, err := decodeKeyData(enc, data)
	if err != nil {
		return AlgNone, nil, fmt.Errorf("keynote: bad %s key encoding: %w", alg, err)
	}
	return alg, raw, nil
}

func decodeKeyData(enc, data string) ([]byte, error) {
	switch enc {
	case "hex":
		return hex.DecodeString(strings.ToLower(data))
	case "base64":
		return base64.StdEncoding.DecodeString(data)
	default:
		return nil, fmt.Errorf("unknown encoding %q", enc)
	}
}

// canonicalPrincipal normalizes a principal string: cryptographic keys are
// rewritten to lowercase "<alg>-hex:" form so that the same key in hex and
// base64 encodings compares equal; opaque names are returned unchanged.
func canonicalPrincipal(s string) (Principal, error) {
	if isCanonicalKey(s) {
		return Principal(s), nil
	}
	alg, raw, err := splitKey(s)
	if err != nil {
		return "", err
	}
	if alg == AlgNone {
		return Principal(s), nil
	}
	return Principal(string(alg) + "-hex:" + hex.EncodeToString(raw)), nil
}

// isCanonicalKey reports whether s is already in the form
// canonicalPrincipal rewrites keys to: a lowercase "<alg>-hex:" prefix
// and an even number of lowercase hex digits.
func isCanonicalKey(s string) bool {
	var data string
	switch {
	case strings.HasPrefix(s, "ed25519-hex:"):
		data = s[len("ed25519-hex:"):]
	case strings.HasPrefix(s, "rsa-hex:"):
		data = s[len("rsa-hex:"):]
	default:
		return false
	}
	if len(data)%2 != 0 {
		return false
	}
	for i := 0; i < len(data); i++ {
		if c := data[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// PublicKey reconstructs the crypto public key of a key principal.
func (p Principal) PublicKey() (crypto.PublicKey, error) {
	alg, raw, err := splitKey(string(p))
	if err != nil {
		return nil, err
	}
	switch alg {
	case AlgEd25519:
		if len(raw) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("keynote: ed25519 key has %d bytes, want %d", len(raw), ed25519.PublicKeySize)
		}
		return ed25519.PublicKey(raw), nil
	case AlgRSA:
		pub, err := x509.ParsePKIXPublicKey(raw)
		if err != nil {
			return nil, fmt.Errorf("keynote: parsing rsa key: %w", err)
		}
		rpub, ok := pub.(*rsa.PublicKey)
		if !ok {
			return nil, fmt.Errorf("keynote: key is %T, not RSA", pub)
		}
		return rpub, nil
	default:
		return nil, fmt.Errorf("keynote: principal %s is not a key", p.Short())
	}
}

// KeyPair is a principal together with its private key, able to sign
// credentials and requests.
type KeyPair struct {
	Principal Principal
	priv      crypto.Signer
	alg       Algorithm
}

// GenerateKey creates a new Ed25519 key pair.
func GenerateKey() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("keynote: generating key: %w", err)
	}
	p := Principal("ed25519-hex:" + hex.EncodeToString(pub))
	return &KeyPair{Principal: p, priv: priv, alg: AlgEd25519}, nil
}

// GenerateRSAKey creates a new RSA key pair of the given size in bits.
func GenerateRSAKey(bits int) (*KeyPair, error) {
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("keynote: generating rsa key: %w", err)
	}
	der, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("keynote: encoding rsa key: %w", err)
	}
	p := Principal("rsa-hex:" + hex.EncodeToString(der))
	return &KeyPair{Principal: p, priv: priv, alg: AlgRSA}, nil
}

// KeyFromSeed reconstructs an Ed25519 key pair from its 32-byte seed
// (the persistence format of key files).
func KeyFromSeed(seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("keynote: seed is %d bytes, want %d", len(seed), ed25519.SeedSize)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	p := Principal("ed25519-hex:" + hex.EncodeToString(pub))
	return &KeyPair{Principal: p, priv: priv, alg: AlgEd25519}, nil
}

// Seed returns the Ed25519 seed for persistence, or nil for non-Ed25519
// keys.
func (k *KeyPair) Seed() []byte {
	if priv, ok := k.priv.(ed25519.PrivateKey); ok {
		return priv.Seed()
	}
	return nil
}

// DeterministicKey derives an Ed25519 key pair from a seed string. It is
// intended for tests and examples that need stable principals; real
// deployments must use GenerateKey.
func DeterministicKey(seed string) *KeyPair {
	sum := sha256.Sum256([]byte("keynote-deterministic:" + seed))
	priv := ed25519.NewKeyFromSeed(sum[:])
	pub := priv.Public().(ed25519.PublicKey)
	p := Principal("ed25519-hex:" + hex.EncodeToString(pub))
	return &KeyPair{Principal: p, priv: priv, alg: AlgEd25519}
}

// Algorithm returns the key pair's algorithm.
func (k *KeyPair) Algorithm() Algorithm { return k.alg }

// Signer exposes the underlying private key, for use by transport layers
// (the secure channel signs its handshake with the same identity key).
func (k *KeyPair) Signer() crypto.Signer { return k.priv }

// signatureAlgName returns the identifier embedded in Signature fields,
// e.g. "sig-ed25519-hex:".
func (k *KeyPair) signatureAlgName() string {
	switch k.alg {
	case AlgEd25519:
		return "sig-ed25519-hex:"
	case AlgRSA:
		return "sig-rsa-sha256-hex:"
	default:
		return "sig-unknown-hex:"
	}
}

// signMessage signs msg with the key pair's algorithm and returns the raw
// signature bytes.
func (k *KeyPair) signMessage(msg []byte) ([]byte, error) {
	switch k.alg {
	case AlgEd25519:
		return k.priv.Sign(rand.Reader, msg, crypto.Hash(0))
	case AlgRSA:
		sum := sha256.Sum256(msg)
		return k.priv.Sign(rand.Reader, sum[:], crypto.SHA256)
	default:
		return nil, fmt.Errorf("keynote: cannot sign with algorithm %q", k.alg)
	}
}

// sigChecks counts the signatures verifyMessage has checked, so tests
// can pin how many a path costs.
var sigChecks atomic.Uint64

// verifyMessage checks a raw signature by principal p over msg, where
// algName is the signature algorithm identifier from the credential.
func verifyMessage(p Principal, algName string, msg, sig []byte) error {
	sigChecks.Add(1)
	pub, err := p.PublicKey()
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(algName, "sig-ed25519-"):
		epub, ok := pub.(ed25519.PublicKey)
		if !ok {
			return fmt.Errorf("keynote: %s signature but %s key", algName, p.Algorithm())
		}
		if !ed25519.Verify(epub, msg, sig) {
			return ErrBadSignature
		}
		return nil
	case strings.HasPrefix(algName, "sig-rsa-sha256-"):
		rpub, ok := pub.(*rsa.PublicKey)
		if !ok {
			return fmt.Errorf("keynote: %s signature but %s key", algName, p.Algorithm())
		}
		sum := sha256.Sum256(msg)
		if err := rsa.VerifyPKCS1v15(rpub, crypto.SHA256, sum[:], sig); err != nil {
			return ErrBadSignature
		}
		return nil
	default:
		return fmt.Errorf("keynote: unknown signature algorithm %q", algName)
	}
}
