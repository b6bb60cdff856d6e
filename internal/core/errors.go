package core

import (
	"errors"
	"fmt"

	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
)

// The DisCFS error taxonomy. Every error surfaced by Client operations
// wraps one of these sentinels where applicable, so callers classify
// failures with errors.Is across the RPC boundary instead of matching
// NFS status codes or message text.
var (
	// ErrAccessDenied reports a policy denial: the caller's credentials
	// do not grant the permission the operation needs.
	ErrAccessDenied = errors.New("discfs: access denied")
	// ErrNoCredentials qualifies an access denial observed before this
	// client submitted any credentials on the connection — the paper's
	// freshly-attached mode-000 state. It always accompanies
	// ErrAccessDenied, never replaces it.
	ErrNoCredentials = errors.New("discfs: no credentials submitted")
	// ErrStale reports a file handle that no longer names a live file
	// (removed, or its generation rolled).
	ErrStale = errors.New("discfs: stale file handle")
	// ErrNotAdmin is returned by administrative procedures when the
	// caller's key is not an administrator of the server.
	ErrNotAdmin = errors.New("discfs: not an administrator")
	// ErrRevoked reports a connection attempt with a revoked key,
	// rejected during the secure-channel handshake.
	ErrRevoked = errors.New("discfs: key revoked")
	// ErrNotExist reports a missing file or directory.
	ErrNotExist = errors.New("discfs: file does not exist")
	// ErrCredentialRejected reports a submitted credential the server's
	// KeyNote session refused (bad signature, unparsable assertion).
	ErrCredentialRejected = errors.New("discfs: credential rejected")
	// ErrThrottled reports server backpressure: per-principal admission
	// control rejected the request (NFS-level TRYLATER) or the RPC
	// transport refused it while saturated or draining (ServerBusy).
	// The operation did not run; back off and retry.
	ErrThrottled = errors.New("discfs: request throttled by server")
	// ErrXDev reports an operation spanning two federation shards that
	// must stay on one server — the EXDEV contract at a mount boundary.
	// Rename across shards fails with it; callers fall back to
	// copy-and-delete.
	ErrXDev = errors.New("discfs: cross-shard operation")
	// ErrPartialFence reports an administrative revocation that did not
	// reach every shard directly: the reachable shards applied it (and
	// their revocation feed will converge the rest), but the named
	// shards could not confirm. Match with errors.Is; errors.As a
	// *PartialFenceError for the per-shard detail.
	ErrPartialFence = errors.New("discfs: revocation did not reach every shard")
	// ErrUnsupportedServer reports an attach to a server that does not
	// implement the protocol extensions this client depends on: its
	// handshake's accept record carried no well-formed attach welcome.
	// The attach fails before any RPC; no connection is left open.
	ErrUnsupportedServer = errors.New("discfs: server lacks the DisCFS protocol extensions")
)

// PartialFenceError carries per-shard fence status for a RevokeKey or
// RevokeCredential fan-out that could not confirm on every shard:
// which shard addresses applied the revocation, which did not, and the
// per-shard errors (each wrapped with its shard address). The client
// fan-out is a hint — servers configured with feed peers replicate the
// entry to the unfenced shards — but until convergence is confirmed the
// admin must treat the named shards as open.
type PartialFenceError struct {
	Fenced   []string // shard addresses that applied the revocation
	Unfenced []string // shard addresses that did not confirm
	Errs     []error  // one per unfenced shard, wrapped with its address
}

func (e *PartialFenceError) Error() string {
	return fmt.Sprintf("%v: unfenced shards %v: %v", ErrPartialFence, e.Unfenced, errors.Join(e.Errs...))
}

// Is matches the ErrPartialFence sentinel.
func (e *PartialFenceError) Is(target error) bool { return target == ErrPartialFence }

// Unwrap exposes the per-shard errors to errors.Is/errors.As.
func (e *PartialFenceError) Unwrap() []error { return e.Errs }

// wireError translates an error observed through the RPC boundary into
// the taxonomy, preserving the original error in the chain so transport
// detail (e.g. the NFS status) stays reachable via errors.As.
func (c *Client) wireError(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrRevoked) {
		// Already classified — a poisoned shard link surfaces the
		// ErrRevoked-wrapped connect failure on every call.
		return err
	}
	if errors.Is(err, secchan.ErrKeyRevoked) {
		return fmt.Errorf("%w: %w", ErrRevoked, err)
	}
	if errors.Is(err, sunrpc.ErrServerBusy) {
		return fmt.Errorf("%w: %w", ErrThrottled, err)
	}
	switch nfs.StatOf(err) {
	case nfs.ErrAcces, nfs.ErrPerm:
		if !c.credsPresented.Load() {
			return fmt.Errorf("%w: %w: %w", ErrAccessDenied, ErrNoCredentials, err)
		}
		return fmt.Errorf("%w: %w", ErrAccessDenied, err)
	case nfs.ErrStale:
		return fmt.Errorf("%w: %w", ErrStale, err)
	case nfs.ErrNoEnt:
		return fmt.Errorf("%w: %w", ErrNotExist, err)
	case nfs.ErrTryLater:
		return fmt.Errorf("%w: %w", ErrThrottled, err)
	case nfs.ErrXDev:
		return fmt.Errorf("%w: %w", ErrXDev, err)
	}
	return err
}
