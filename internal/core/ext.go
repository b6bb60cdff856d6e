package core

import (
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// The DisCFS extension RPC program. The paper (§5): "We wrote a utility
// which allows a user to submit credential assertions to the DisCFS
// daemon over RPC" and "we had to add our own procedures that upon
// successful creation of a file/directory return a credential with full
// access to the creator". This program is those procedures, plus
// administrative revocation (§4.1) and introspection.
const (
	// ExtProg is the extension program number ("DisCFS" has no assigned
	// number; this one lives in the user-defined range).
	ExtProg = 395647
	// ExtVers is version 1.
	ExtVers = 1
)

// Extension procedures.
const (
	ExtNull       = 0
	ExtSubmitCred = 1  // submit credential assertions to the session
	ExtCreateCred = 2  // CREATE returning the creator's credential
	ExtMkdirCred  = 3  // MKDIR returning the creator's credential
	ExtWhoAmI     = 4  // echo the authenticated principal
	ExtRevokeKey  = 5  // admin: revoke a principal
	ExtRevokeCred = 6  // admin: revoke one credential by signature
	ExtListCreds  = 7  // admin: list session credentials
	ExtStats      = 8  // policy-engine statistics
	ExtRevPush    = 9  // peer server: deliver revocation feed entries
	ExtRevPull    = 10 // peer server: fetch the revocation log (anti-entropy)
)

// Extension status codes.
const (
	extOK       = 0
	extErr      = 1
	extNotAdmin = 2
)

// maxCredText bounds submitted credential text.
const maxCredText = 1 << 18

// registerExt installs the extension program.
func (s *Server) registerExt(rpc *sunrpc.Server) {
	rpc.Register(ExtProg, ExtVers, s.dispatchExt)
}

func (s *Server) dispatchExt(ctx *sunrpc.Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, error) {
	peer := keynote.Principal(ctx.Peer)
	if ctx.Peer == "" {
		peer = anonymousPrincipal
	}
	switch proc {
	case ExtNull:
		return sunrpc.Success, nil

	case ExtSubmitCred:
		text := args.String(maxCredText)
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		added, err := s.session.AddCredentialText(text)
		if err != nil {
			res.Uint32(extErr)
			res.Uint32(uint32(len(added)))
			res.String(err.Error())
			return sunrpc.Success, nil
		}
		res.Uint32(extOK)
		res.Uint32(uint32(len(added)))
		res.String("")
		return sunrpc.Success, nil

	case ExtCreateCred, ExtMkdirCred:
		raw := args.OpaqueFixed(nfs.FHSize)
		name := args.String(nfs.MaxName + 1)
		sa := nfs.DecodeSAttr(args)
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		dir, err := nfs.DecodeFH(raw)
		if err != nil {
			res.Uint32(uint32(nfs.ErrStale))
			return sunrpc.Success, nil
		}
		mode := sa.Mode
		if mode == 0xffffffff {
			if proc == ExtMkdirCred {
				mode = 0o755
			} else {
				mode = 0o644
			}
		}
		vw := &view{s: s, peer: peer}
		var attr vfs.Attr
		var cred *keynote.Assertion
		if proc == ExtCreateCred {
			attr, cred, err = vw.createWithCred(dir, name, mode&0o7777)
		} else {
			attr, cred, err = vw.mkdirWithCred(dir, name, mode&0o7777)
		}
		if err != nil {
			res.Uint32(uint32(nfs.MapError(err)))
			return sunrpc.Success, nil
		}
		res.Uint32(uint32(nfs.OK))
		fh := nfs.EncodeFH(attr.Handle)
		res.OpaqueFixed(fh[:])
		fa := nfs.FAttrFromVFS(attr, nfs.MaxData)
		fa.Encode(res)
		res.String(cred.Source)
		return sunrpc.Success, nil

	case ExtWhoAmI:
		res.String(string(peer))
		return sunrpc.Success, nil

	case ExtRevokeKey:
		target := args.String(4096)
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		if !s.admins[peer] {
			res.Uint32(extNotAdmin)
			res.Uint32(0)
			return sunrpc.Success, nil
		}
		removed := s.session.RevokeKey(keynote.Principal(target))
		s.cache.Purge()
		// Cut the revoked principal's live sessions on this server now,
		// and hand the entry to the feed so every peer converges too.
		s.fencePeerConns(keynote.Principal(target))
		s.feed.noteLocal()
		res.Uint32(extOK)
		res.Uint32(uint32(removed))
		return sunrpc.Success, nil

	case ExtRevokeCred:
		sig := args.String(maxCredText)
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		if !s.admins[peer] {
			res.Uint32(extNotAdmin)
			res.Bool(false)
			return sunrpc.Success, nil
		}
		found := s.session.RevokeCredential(sig)
		s.cache.Purge()
		s.feed.noteLocal()
		res.Uint32(extOK)
		res.Bool(found)
		return sunrpc.Success, nil

	case ExtListCreds:
		if !s.admins[peer] {
			res.Uint32(extNotAdmin)
			res.Uint32(0)
			return sunrpc.Success, nil
		}
		creds := s.session.Credentials()
		res.Uint32(extOK)
		res.Uint32(uint32(len(creds)))
		for _, c := range creds {
			res.String(c.Source)
		}
		return sunrpc.Success, nil

	case ExtRevPush:
		// A peer server delivering feed entries. Peers authenticate with
		// their server key, which must be an admin here (federations
		// share the admin key, or cross-register keys via -admins).
		_ = args.Uint64() // sender's feed epoch (observability)
		entries, ok := decodeFeedEntries(args)
		if args.Err() != nil || !ok {
			return sunrpc.GarbageArgs, nil
		}
		if !s.admins[peer] {
			res.Uint32(extNotAdmin)
			res.Uint32(0)
			return sunrpc.Success, nil
		}
		applied := s.feed.absorb(entries)
		res.Uint32(extOK)
		res.Uint32(uint32(applied))
		return sunrpc.Success, nil

	case ExtRevPull:
		// A peer server running anti-entropy on (re)connect.
		since := args.Uint64()
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		if !s.admins[peer] {
			res.Uint32(extNotAdmin)
			res.Uint64(0)
			res.Uint32(0)
			return sunrpc.Success, nil
		}
		epoch, entries := s.feed.snapshotLog(since)
		res.Uint32(extOK)
		res.Uint64(epoch)
		encodeFeedEntries(res, entries)
		return sunrpc.Success, nil

	case ExtStats:
		st := s.Stats()
		res.Uint32(extOK)
		res.Uint64(st.Queries)
		res.Uint64(st.CacheHits)
		res.Uint64(st.CacheMisses)
		res.Uint32(uint32(st.Credentials))
		res.Uint64(st.Decisions)
		res.Uint64(st.Denials)
		res.Uint64(st.Commits)
		return sunrpc.Success, nil
	}
	return sunrpc.ProcUnavail, nil
}
