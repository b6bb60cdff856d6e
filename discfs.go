// Package discfs is the public API of the Distributed Credential
// Filesystem (DisCFS), a reproduction of "Secure and Flexible Global File
// Sharing" (Miltchev, Prevelakis, Ioannidis, Keromytis, Smith; UPenn
// MS-CIS-01-23 / USENIX 2003).
//
// DisCFS replaces accounts, groups and access-control lists with signed
// KeyNote credentials: a credential identifies the file (by handle), the
// user (by public key), and the conditions of access, and users share
// files simply by issuing new credentials — no administrator involvement.
//
// Every client operation takes a context.Context that bounds the RPC
// (cancellation and deadlines propagate to the wire), constructors take
// functional options, and failures wrap the typed error taxonomy
// (ErrAccessDenied, ErrNoCredentials, ErrStale, ErrNotAdmin, ErrRevoked)
// for errors.Is classification. A minimal exchange:
//
//	ctx := context.Background()
//
//	// Server side: a DisCFS server over an in-memory store.
//	adminKey, _ := discfs.GenerateKey()
//	store, _ := discfs.NewMemStore()
//	srv, _ := discfs.NewServer(adminKey, discfs.WithBacking(store))
//	addr, _ := srv.Start()
//
//	// The administrator delegates the tree to Bob (1st certificate).
//	bobKey, _ := discfs.GenerateKey()
//	srv.IssueCredential(bobKey.Principal, store.Root().Ino, "RWX", "bob")
//
//	// Bob attaches, streams a file in, and delegates read access to
//	// Alice (2nd certificate) — e.g. mailing her the credential text.
//	bob, _ := discfs.Dial(ctx, addr, bobKey)
//	f, _ := bob.Open(ctx, "/paper.txt", os.O_CREATE|os.O_WRONLY)
//	io.Copy(f, manuscript)
//	f.Close()
//	cred, _ := bob.Delegate(ctx, alice.Principal, f.Handle().Ino, "R", "")
//
//	// Alice attaches, submits the credential chain, and reads.
//	alice, _ := discfs.Dial(ctx, addr, aliceKey)
//	alice.SubmitCredentials(ctx, cred)
//	data, _ := alice.ReadFile(ctx, "/paper.txt")
//
// The package re-exports the building blocks for advanced use: the
// KeyNote engine (credential composition, compliance queries), the FFS
// and CFS storage substrates (any other store plugs in via WithBacking),
// and the NFSv2 client.
package discfs

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"

	"discfs/internal/audit"
	"discfs/internal/cfs"
	"discfs/internal/core"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// Re-exported core types. See the respective internal packages for full
// documentation.
type (
	// KeyPair is a principal with its signing key.
	KeyPair = keynote.KeyPair
	// Principal is a KeyNote principal (a public key or opaque name).
	Principal = keynote.Principal
	// Credential is a parsed KeyNote assertion.
	Credential = keynote.Assertion
	// CredentialSpec describes a credential to compose and sign.
	CredentialSpec = keynote.AssertionSpec
	// Session is a persistent KeyNote session.
	Session = keynote.Session

	// Handle identifies a file (inode + generation).
	Handle = vfs.Handle
	// Attr holds file attributes.
	Attr = vfs.Attr
	// FS is the filesystem interface of the storage substrates.
	FS = vfs.FS

	// Server is a DisCFS server.
	Server = core.Server
	// Client is an attached DisCFS client.
	Client = core.Client
	// File is a streaming handle on a remote file, returned by
	// Client.Open; it implements io.Reader, io.Writer, io.Seeker,
	// io.ReaderAt, io.WriterAt and io.Closer.
	File = core.File
	// Stats summarizes the server's policy-engine work.
	Stats = core.Stats

	// AuditLog records access decisions.
	AuditLog = audit.Log
	// AuditRecord is one decision.
	AuditRecord = audit.Record

	// NFSClient is the raw NFSv2 client, reachable via Client.NFS.
	NFSClient = nfs.Client
	// DirEntry is a directory listing entry.
	DirEntry = nfs.DirEntry
)

// Values is the ordered compliance value set of DisCFS; the index of a
// value equals its rwx permission bitmask.
var Values = core.Values

// Permission bits.
const (
	PermX = core.PermX
	PermW = core.PermW
	PermR = core.PermR
)

// GenerateKey creates a new Ed25519 key pair.
func GenerateKey() (*KeyPair, error) { return keynote.GenerateKey() }

// DeterministicKey derives a stable key pair from a seed string — for
// tests and examples only.
func DeterministicKey(seed string) *KeyPair { return keynote.DeterministicKey(seed) }

// Dial attaches to a DisCFS server, authenticating as identity. The
// attach succeeds without credentials; operations are denied until
// credentials are submitted. ctx bounds the connection establishment
// and handshake. A revoked identity is refused with an error
// matching ErrRevoked.
//
// Options configure the client-side data cache (readahead +
// write-behind with close-to-open consistency; see WithNoDataCache) and
// federation. With no options the cache is enabled. A server without
// the protocol extensions the client depends on is refused with an
// error matching ErrUnsupportedServer.
func Dial(ctx context.Context, addr string, identity *KeyPair, opts ...ClientOption) (*Client, error) {
	return core.Dial(ctx, addr, identity, opts...)
}

// DialWithCredentials attaches and immediately submits the given
// credentials (the wallet pattern).
func DialWithCredentials(ctx context.Context, addr string, identity *KeyPair, creds ...*Credential) (*Client, error) {
	return core.DialWithCredentials(ctx, addr, identity, creds...)
}

// NewAuditLog creates an audit log keeping the most recent capacity
// records, optionally mirrored as text to w (nil for none). Any
// io.Writer works: a file, a network sink, a test buffer. Mirror lines
// are written asynchronously by a background goroutine so the server's
// check path never blocks on log I/O; call the log's Flush or Close to
// drain (the server's Close does this for its own log). When the
// background writer falls behind by more than its queue (4096 lines),
// further mirror lines are dropped and counted (AuditLog.Dropped;
// Stats.AuditDropped) instead of stalling the data path.
func NewAuditLog(capacity int, w io.Writer) *AuditLog {
	if f, ok := w.(*os.File); ok && f == nil {
		w = nil // a typed-nil *os.File is not a usable writer
	}
	return audit.New(capacity, w)
}

// SubtreeConditions builds a KeyNote Conditions body granting value on
// the object with inode ino and, when subtree is true, everything
// beneath it. extra, if non-empty, is ANDed in.
func SubtreeConditions(ino uint64, value string, subtree bool, extra string) string {
	return core.SubtreeConditions(ino, value, subtree, extra)
}

// SignCredential composes and signs a credential.
func SignCredential(key *KeyPair, spec CredentialSpec) (*Credential, error) {
	return keynote.Sign(key, spec)
}

// ParseCredentials parses one or more assertions from text (without
// verifying signatures; submission verifies).
func ParseCredentials(text string) ([]*Credential, error) {
	return keynote.ParseAssertions(text)
}

// LicenseesOr renders a Licensees field authorizing any of the given
// principals; see also keynote.LicenseesAnd and LicenseesThreshold.
func LicenseesOr(ps ...Principal) string { return keynote.LicenseesOr(ps...) }

// ---- storage substrates ----

// StoreConfig parameterizes the built-in storage backends. Construct it
// through StoreOption values.
type StoreConfig struct {
	// BlockSize is the FFS block size (default 8192).
	BlockSize int
	// NumBlocks is the device capacity in blocks (default 1<<18).
	NumBlocks uint32
	// Encrypt stacks CFS content/name encryption over the store using
	// Passphrase. When false the CFS-NE layer is still stacked (the
	// paper's configuration) so the code path matches the prototype.
	Encrypt bool
	// Passphrase keys the CFS layer when Encrypt is true.
	Passphrase string
}

// NewMemStore builds the paper's storage stack: an FFS-style inode
// filesystem on a RAM-backed block device, wrapped in a CFS layer
// (encrypting when WithEncryption is given, CFS-NE otherwise).
func NewMemStore(opts ...StoreOption) (FS, error) {
	return OpenBackend(DefaultBackend, opts...)
}

// ---- key persistence ----

// SaveKey writes an Ed25519 key pair to path as a hex seed with a
// principal comment, mode 0600.
func SaveKey(path string, k *KeyPair) error {
	seed := k.Seed()
	if seed == nil {
		return fmt.Errorf("discfs: only Ed25519 keys can be saved")
	}
	data := "# DisCFS identity: " + string(k.Principal) + "\n" +
		hex.EncodeToString(seed) + "\n"
	return os.WriteFile(path, []byte(data), 0o600)
}

// LoadKey reads a key pair saved by SaveKey.
func LoadKey(path string) (*KeyPair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := hex.DecodeString(line)
		if err != nil {
			return nil, fmt.Errorf("discfs: bad key file %s: %w", path, err)
		}
		return keynote.KeyFromSeed(seed)
	}
	return nil, fmt.Errorf("discfs: no key material in %s", path)
}

// LoadOrCreateKey loads the key at path, generating and saving a new one
// if the file does not exist.
func LoadOrCreateKey(path string) (*KeyPair, error) {
	if _, err := os.Stat(path); err == nil {
		return LoadKey(path)
	}
	k, err := GenerateKey()
	if err != nil {
		return nil, err
	}
	if err := SaveKey(path, k); err != nil {
		return nil, err
	}
	return k, nil
}

// ---- store persistence ----

// LoadStore restores a filesystem image written by SaveStore and stacks
// the CFS layer per opts (BlockSize/NumBlocks are taken from the image).
func LoadStore(path string, opts ...StoreOption) (FS, error) {
	cfg := storeConfig(opts)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	under, err := ffs.Load(f, nil)
	if err != nil {
		return nil, err
	}
	return cfs.New(under, cfg.Passphrase, cfg.Encrypt)
}

// SaveStore writes the FFS image underlying a store built by NewMemStore
// or LoadStore to path (atomically, via a temporary file).
func SaveStore(path string, fs FS) error {
	c, ok := fs.(*cfs.CFS)
	if !ok {
		return fmt.Errorf("discfs: store is %T, not a CFS-stacked FFS", fs)
	}
	under, ok := c.Under().(*ffs.FFS)
	if !ok {
		return fmt.Errorf("discfs: backing store is %T, not FFS", c.Under())
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := under.Dump(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
