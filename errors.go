package discfs

import "discfs/internal/core"

// The DisCFS error taxonomy. Client operations wrap these sentinels so
// callers classify failures with errors.Is across the RPC boundary:
//
//	if _, err := c.ReadFile(ctx, "/secret"); errors.Is(err, discfs.ErrAccessDenied) {
//		// ask the owner for a credential
//	}
//
// The sentinels compose: a denial on a connection that never submitted
// credentials matches both ErrAccessDenied and ErrNoCredentials.
var (
	// ErrAccessDenied reports a policy denial: the submitted credentials
	// do not grant the permission the operation needs.
	ErrAccessDenied = core.ErrAccessDenied
	// ErrNoCredentials qualifies a denial observed before this client
	// submitted any credentials — the paper's freshly-attached mode-000
	// state. It always accompanies ErrAccessDenied.
	ErrNoCredentials = core.ErrNoCredentials
	// ErrStale reports a file handle that no longer names a live file.
	ErrStale = core.ErrStale
	// ErrNotAdmin is returned by administrative procedures (revocation,
	// credential listing) when the caller is not an administrator.
	ErrNotAdmin = core.ErrNotAdmin
	// ErrRevoked reports an attach attempt with a revoked key, refused
	// during the secure-channel handshake.
	ErrRevoked = core.ErrRevoked
	// ErrNotExist reports a missing file or directory.
	ErrNotExist = core.ErrNotExist
	// ErrCredentialRejected reports a submitted credential the server's
	// KeyNote session refused.
	ErrCredentialRejected = core.ErrCredentialRejected
	// ErrThrottled reports server backpressure: admission control
	// rejected the request, or the server was saturated or draining.
	// The operation did not run; back off and retry.
	ErrThrottled = core.ErrThrottled
	// ErrXDev reports an operation spanning two federation shards that
	// must stay on one server: renaming across shards fails with it
	// (the EXDEV contract at a mount boundary) and callers fall back to
	// copy-and-delete.
	ErrXDev = core.ErrXDev
	// ErrPartialFence reports a revocation fan-out that could not
	// confirm on every shard: the reachable shards applied it (and the
	// server-to-server revocation feed converges the rest), but the
	// shards named in the PartialFenceError did not confirm. Match with
	// errors.Is; errors.As a *PartialFenceError for per-shard detail.
	ErrPartialFence = core.ErrPartialFence
	// ErrUnsupportedServer reports an attach to a server that does not
	// implement the protocol extensions the client depends on (no
	// well-formed attach welcome in its handshake). Dial fails with it.
	ErrUnsupportedServer = core.ErrUnsupportedServer
)

// PartialFenceError carries per-shard fence status for a RevokeKey or
// RevokeCredential that could not confirm on every shard: the addresses
// that applied the revocation, the addresses that did not, and the
// per-shard errors.
type PartialFenceError = core.PartialFenceError
