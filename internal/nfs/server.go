package nfs

import (
	"time"

	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Exporter supplies the filesystem view served to a given peer. DisCFS
// returns a per-principal policy-enforcing view; plain exports ignore the
// peer.
type Exporter interface {
	// View returns the filesystem to serve to peer (the transport's
	// authenticated identity; empty over plain TCP).
	View(peer string) (vfs.FS, error)
}

// StaticExport serves one filesystem to every peer.
type StaticExport struct{ FS vfs.FS }

// View implements Exporter.
func (s StaticExport) View(string) (vfs.FS, error) { return s.FS, nil }

// AccessChecker is an optional FS capability: report the access bits
// (AccessRead | AccessWrite | AccessExec) the calling principal holds
// on h. The DisCFS policy view implements it from the credential
// decision; plain exports without it are treated as granting
// everything. The server consults it to re-authorize resumed READDIR
// walks (whose pages read from a snapshot, not the filesystem) and to
// fill the access word of LOOKUPPLUS replies.
type AccessChecker interface {
	Access(h vfs.Handle) (uint32, error)
}

// Committer is an optional FS capability: the COMMIT durability
// barrier with the server's boot verifier. Commit makes every write
// acknowledged for h stable and returns the verifier with the file's
// post-commit attributes; a client that sees the verifier move between
// two COMMITs replays the writes it has not seen committed (the NFSv3
// writeverf3 mechanism). The DisCFS policy view implements it.
type Committer interface {
	Commit(h vfs.Handle) (uint64, vfs.Attr, error)
}

// CommitFS commits h on fs: through its Committer capability when
// present, and as a plain sync-plus-getattr barrier otherwise, with the
// stable zero verifier (a plain export draws none).
func CommitFS(fs vfs.FS, h vfs.Handle) (uint64, vfs.Attr, error) {
	if c, ok := fs.(Committer); ok {
		return c.Commit(h)
	}
	if err := fs.Sync(); err != nil {
		return 0, vfs.Attr{}, err
	}
	a, err := fs.GetAttr(h)
	return 0, a, err
}

// Server dispatches the NFS and MOUNT programs into an Exporter.
type Server struct {
	exp Exporter
	// cursors is the bounded LRU of directory-listing snapshots backing
	// READDIR/READDIRPLUS paging (see dircursor.go).
	cursors *dirCursors
	// admit, when set, gates every data-plane procedure (everything but
	// NULL and FSINFO) per authenticated peer. A non-nil error rejects
	// the call with ErrTryLater; otherwise the returned release runs
	// when the procedure finishes.
	admit func(peer string, proc uint32) (func(), error)
	// observe, when set, receives every completed data-plane call with
	// its procedure, resulting status and latency.
	observe func(proc uint32, st Stat, d time.Duration)
}

// SetAdmit installs the per-peer admission hook (the server-side
// limiter). Call before serving.
func (s *Server) SetAdmit(fn func(peer string, proc uint32) (func(), error)) { s.admit = fn }

// SetObserver installs the per-call completion observer (the metrics
// seam). Call before serving.
func (s *Server) SetObserver(fn func(proc uint32, st Stat, d time.Duration)) { s.observe = fn }

// NewServer creates an NFS server over exp. It grants negotiated
// transfers up to DefaultMaxTransfer, which is also the largest
// READ/WRITE payload it moves in one call.
func NewServer(exp Exporter) *Server {
	return &Server{exp: exp, cursors: newDirCursors()}
}

// DirCursorCount reports live directory cursors (for metrics).
func (s *Server) DirCursorCount() int { return s.cursors.count() }

// RegisterAll installs the NFS and MOUNT programs on rpc.
func (s *Server) RegisterAll(rpc *sunrpc.Server) {
	rpc.Register(Prog, Vers, s.dispatch)
	rpc.Register(MountProg, MountVers, s.dispatchMount)
}

// dispatchMount handles the MOUNT program: MNT returns the root handle of
// the peer's view. DisCFS semantics: the mount itself always succeeds —
// access control happens per-operation once credentials arrive.
func (s *Server) dispatchMount(ctx *sunrpc.Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, error) {
	switch proc {
	case MountProcNull:
		return sunrpc.Success, nil
	case MountProcMnt:
		_ = args.String(MaxPath) // dirpath; a single export is served
		if args.Err() != nil {
			return sunrpc.GarbageArgs, nil
		}
		fs, err := s.exp.View(ctx.Peer)
		if err != nil {
			res.Uint32(uint32(ErrAcces))
			return sunrpc.Success, nil
		}
		fh := EncodeFH(fs.Root())
		res.Uint32(uint32(OK))
		res.OpaqueFixed(fh[:])
		return sunrpc.Success, nil
	case MountProcUmnt:
		_ = args.String(MaxPath)
		return sunrpc.Success, nil
	}
	return sunrpc.ProcUnavail, nil
}

// dispatch handles the NFS program, wrapping the procedure bodies in
// the observation seam (latency + resulting status per proc).
func (s *Server) dispatch(ctx *sunrpc.Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, error) {
	if proc == ProcNull {
		return sunrpc.Success, nil
	}
	if proc == ProcFSInfo {
		return s.fsinfo(args, res)
	}
	var start time.Time
	if s.observe != nil {
		start = time.Now()
	}
	astat, st, err := s.serve(ctx, proc, args, res)
	if s.observe != nil {
		if astat != sunrpc.Success && st == OK {
			st = ErrIO // garbage args / unknown proc: count as an error
		}
		s.observe(proc, st, time.Since(start))
	}
	return astat, err
}

// serve runs one data-plane procedure and reports its NFS status
// alongside the RPC accept status.
func (s *Server) serve(ctx *sunrpc.Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, Stat, error) {
	if s.admit != nil {
		release, err := s.admit(ctx.Peer, proc)
		if err != nil {
			res.Uint32(uint32(ErrTryLater))
			return sunrpc.Success, ErrTryLater, nil
		}
		defer release()
	}
	fs, err := s.exp.View(ctx.Peer)
	if err != nil {
		res.Uint32(uint32(ErrAcces))
		return sunrpc.Success, ErrAcces, nil
	}
	h := &procHandler{fs: fs, args: args, res: res, peer: ctx.Peer, cursors: s.cursors}
	var fn func()
	switch proc {
	case ProcGetattr:
		fn = h.getattr
	case ProcSetattr:
		fn = h.setattr
	case ProcLookup:
		fn = h.lookup
	case ProcReadlink:
		fn = h.readlink
	case ProcRead:
		fn = h.read
	case ProcWrite:
		fn = h.write
	case ProcCreate:
		fn = h.create
	case ProcRemove:
		fn = h.remove
	case ProcRename:
		fn = h.rename
	case ProcLink:
		fn = h.link
	case ProcSymlink:
		fn = h.symlink
	case ProcMkdir:
		fn = h.mkdir
	case ProcRmdir:
		fn = h.rmdir
	case ProcReaddir:
		fn = h.readdir
	case ProcStatfs:
		fn = h.statfs
	case ProcCommit:
		fn = h.commit
	case ProcReaddirPlus:
		fn = h.readdirplus
	case ProcLookupPlus:
		fn = h.lookupplus
	case ProcRoot, ProcWritecache:
		return sunrpc.Success, OK, nil // obsolete no-ops per RFC 1094
	default:
		return sunrpc.ProcUnavail, OK, nil
	}
	fn()
	if h.garbage || args.Err() != nil {
		return sunrpc.GarbageArgs, OK, nil
	}
	return sunrpc.Success, h.stat, nil
}

// fsinfo answers the transfer-size negotiation: the grant is the
// client's proposal clamped to DefaultMaxTransfer. Stateless — the
// server accepts anything up to that bound regardless of what a
// connection negotiated, so the grant is purely the client's license.
func (s *Server) fsinfo(args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, error) {
	proposed := args.Uint32()
	if args.Err() != nil {
		return sunrpc.GarbageArgs, nil
	}
	granted := ClampTransfer(int(proposed))
	if granted > DefaultMaxTransfer {
		granted = DefaultMaxTransfer
	}
	res.Uint32(uint32(OK))
	res.Uint32(granted)
	res.Uint32(DefaultMaxTransfer) // the server's own bound, for diagnostics
	return sunrpc.Success, nil
}

// procHandler carries per-call state for the procedure bodies.
type procHandler struct {
	fs   vfs.FS
	args *xdr.Decoder
	res  *xdr.Encoder
	// peer is the transport's authenticated identity; directory cursors
	// are scoped to it so one peer's walk can never resume another's.
	peer    string
	cursors *dirCursors
	garbage bool
	// stat is the NFS status the procedure encoded (OK until an error
	// path runs); the dispatch observer reads it for error counting.
	stat Stat
}

// fail encodes an error status result, recording it for the observer.
func (h *procHandler) fail(err error) {
	h.stat = MapError(err)
	h.res.Uint32(uint32(h.stat))
}

// fh decodes a file handle argument.
func (h *procHandler) fh() (vfs.Handle, bool) {
	raw := h.args.OpaqueFixed(FHSize)
	if h.args.Err() != nil {
		h.garbage = true
		return vfs.Handle{}, false
	}
	vh, err := DecodeFH(raw)
	if err != nil {
		// A well-formed but foreign handle is a STALE error, not garbage.
		h.stat = ErrStale
		h.res.Uint32(uint32(ErrStale))
		return vfs.Handle{}, false
	}
	return vh, true
}

// name decodes a filename argument.
func (h *procHandler) name() (string, bool) {
	n := h.args.String(MaxName + 1)
	if h.args.Err() != nil {
		h.garbage = true
		return "", false
	}
	return n, true
}

// blockSize fetches the backend block size for fattr, defaulting sanely.
func (h *procHandler) blockSize() uint32 {
	if st, err := h.fs.StatFS(); err == nil && st.BlockSize > 0 {
		return st.BlockSize
	}
	return MaxData
}

// attrstat encodes the common (status, fattr) result.
func (h *procHandler) attrstat(a vfs.Attr, err error) {
	if err != nil {
		h.fail(err)
		return
	}
	h.res.Uint32(uint32(OK))
	fa := FAttrFromVFS(a, h.blockSize())
	fa.Encode(h.res)
}

// diropres encodes the common (status, fhandle, fattr) result.
func (h *procHandler) diropres(a vfs.Attr, err error) {
	if err != nil {
		h.fail(err)
		return
	}
	h.res.Uint32(uint32(OK))
	fh := EncodeFH(a.Handle)
	h.res.OpaqueFixed(fh[:])
	fa := FAttrFromVFS(a, h.blockSize())
	fa.Encode(h.res)
}

// status encodes a bare status result.
func (h *procHandler) status(err error) {
	h.fail(err)
}

func (h *procHandler) getattr() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	h.attrstat(h.fs.GetAttr(vh))
}

func (h *procHandler) setattr() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	sa := DecodeSAttr(h.args)
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	h.attrstat(h.fs.SetAttr(vh, sa.ToVFS()))
}

func (h *procHandler) lookup() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	h.diropres(h.fs.Lookup(vh, name))
}

func (h *procHandler) readlink() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	target, err := h.fs.Readlink(vh)
	if err != nil {
		h.fail(err)
		return
	}
	h.res.Uint32(uint32(OK))
	h.res.String(target)
}

func (h *procHandler) read() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	offset := h.args.Uint32()
	count := h.args.Uint32()
	_ = h.args.Uint32() // totalcount, unused per RFC
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	if count > DefaultMaxTransfer {
		count = DefaultMaxTransfer
	}
	// Zero-copy read: size the payload from the attributes, reserve its
	// opaque window in the reply record, and let the store fill it
	// directly (ReadInto reaches through the policy view, the dedup
	// store and the CFS layer down to the device).
	attr, err := h.fs.GetAttr(vh)
	if err != nil {
		h.fail(err)
		return
	}
	n := uint64(count)
	switch {
	case uint64(offset) >= attr.Size:
		n = 0
	case uint64(offset)+n > attr.Size:
		n = attr.Size - uint64(offset)
	}
	mark := h.res.Len()
	h.res.Uint32(uint32(OK))
	fa := FAttrFromVFS(attr, h.blockSize())
	fa.Encode(h.res)
	lenPos := h.res.Len()
	window := h.res.OpaqueInto(int(n))
	nr, _, err := h.fs.ReadInto(vh, uint64(offset), window)
	if err != nil {
		h.res.Truncate(mark)
		h.fail(err)
		return
	}
	if nr != int(n) {
		// The file shrank between the attribute snapshot and the read
		// (concurrent truncate): shorten the opaque in place.
		h.res.PatchUint32(lenPos, uint32(nr))
		h.res.Truncate(lenPos + 4 + nr)
		h.res.Reserve((4 - nr%4) % 4) // restore the zero padding
	}
}

func (h *procHandler) write() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	_ = h.args.Uint32() // beginoffset, unused
	offset := h.args.Uint32()
	_ = h.args.Uint32() // totalcount, unused
	data := h.args.Opaque(DefaultMaxTransfer)
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	h.attrstat(h.fs.Write(vh, uint64(offset), data))
}

func (h *procHandler) create() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	sa := DecodeSAttr(h.args)
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	mode := sa.Mode
	if mode == noVal {
		mode = 0o644
	}
	attr, err := h.fs.Create(vh, name, mode&0o7777)
	if err == nil && sa.Size != noVal {
		sz := uint64(sa.Size)
		attr, err = h.fs.SetAttr(attr.Handle, vfs.SetAttr{Size: &sz})
	}
	h.diropres(attr, err)
}

func (h *procHandler) remove() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	h.status(h.fs.Remove(vh, name))
}

func (h *procHandler) rename() {
	fromH, ok := h.fh()
	if !ok {
		return
	}
	fromName, ok := h.name()
	if !ok {
		return
	}
	toH, ok := h.fh()
	if !ok {
		return
	}
	toName, ok := h.name()
	if !ok {
		return
	}
	h.status(h.fs.Rename(fromH, fromName, toH, toName))
}

func (h *procHandler) link() {
	target, ok := h.fh()
	if !ok {
		return
	}
	dirH, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	_, err := h.fs.Link(dirH, name, target)
	h.status(err)
}

func (h *procHandler) symlink() {
	dirH, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	target := h.args.String(MaxPath)
	sa := DecodeSAttr(h.args)
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	mode := sa.Mode
	if mode == noVal {
		mode = 0o777
	}
	_, err := h.fs.Symlink(dirH, name, target, mode&0o7777)
	h.status(err)
}

func (h *procHandler) mkdir() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	sa := DecodeSAttr(h.args)
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	mode := sa.Mode
	if mode == noVal {
		mode = 0o755
	}
	h.diropres(h.fs.Mkdir(vh, name, mode&0o7777))
}

func (h *procHandler) rmdir() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	h.status(h.fs.Rmdir(vh, name))
}

// Legacy READDIR cookie layout: the low 24 bits carry the resume index
// into the walk's snapshot (cookie = index of the next entry + 0 — i.e.
// entry i carries cookie i+1), the high 8 bits carry a check byte of
// the snapshot's verifier so a resume against the wrong snapshot is
// detected rather than silently misread.
const (
	legacyIdxMask     = 1<<24 - 1
	legacyMaxEntries  = 1<<24 - 1
	fattrEncodedSize  = 11*4 + 3*8 // 11 words + 3 (sec, usec) time pairs
	readdirTrailerLen = 8          // no-more-entries word + eof word
)

// pad4 is the XDR padding a string or opaque of length n carries.
func pad4(n int) int { return (4 - n%4) % 4 }

// pageBudget is the reply-byte allowance for one page's entry list: the
// client's count, capped at the transfer bound, with the trailing
// false+eof words reserved up front so a maximal page never overshoots.
func pageBudget(count uint32) int {
	if count > DefaultMaxTransfer {
		count = DefaultMaxTransfer
	}
	return int(count) - readdirTrailerLen
}

// resume admits a resumed page of a directory walk — READDIR's and
// READDIRPLUS's alike, so neither can lack a check the other has. snap
// is what the cookie named (nil when the cursor was evicted or replaced
// mid-walk) and idx the entry to continue from. A cursor that is gone,
// belongs to another peer or directory, or is shorter than idx answers
// gone, the procedure's stale-cookie status: resuming by index against
// a fresh listing is exactly the concurrent-mutation corruption cursors
// exist to prevent, so the client restarts the listing from scratch.
// Resumed pages read from the snapshot, not the filesystem, so the read
// gate the initial ReadDir ran is run again: a revocation mid-walk
// takes effect on the next page.
func (h *procHandler) resume(snap *dirSnapshot, vh vfs.Handle, idx uint64, gone Stat) bool {
	if snap == nil || snap.dir != vh || snap.peer != h.peer || idx > uint64(len(snap.ents)) {
		h.stat = gone
		h.res.Uint32(uint32(gone))
		return false
	}
	if ac, ok := h.fs.(AccessChecker); ok {
		bits, err := ac.Access(vh)
		if err != nil {
			h.fail(err)
			return false
		}
		if bits&AccessRead == 0 {
			h.fail(vfs.ErrPerm)
			return false
		}
	}
	return true
}

func (h *procHandler) readdir() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	cookie := h.args.Uint32()
	count := h.args.Uint32()
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	var snap *dirSnapshot
	idx := 0
	if cookie == 0 {
		ents, err := h.fs.ReadDir(vh)
		if err != nil {
			h.fail(err)
			return
		}
		if len(ents) > legacyMaxEntries {
			// The 24-bit legacy cookie cannot page past this; refuse the
			// walk rather than silently truncate it (READDIRPLUS's 64-bit
			// cookie has no such cap).
			h.fail(vfs.ErrFBig)
			return
		}
		snap = h.cursors.create(h.peer, vh, ents)
	} else {
		snap = h.cursors.byLegacy(h.peer, vh, uint8(cookie>>24))
		idx = int(cookie & legacyIdxMask)
		if !h.resume(snap, vh, uint64(idx), ErrStale) {
			return
		}
	}
	h.res.Uint32(uint32(OK))
	budget := pageBudget(count)
	check := (snap.verf >> 24) & 0xff
	i := idx
	for ; i < len(snap.ents); i++ {
		e := snap.ents[i]
		// XDR size of one entry: more + fileid + (len, bytes, padding) +
		// cookie.
		need := 4 + 4 + 4 + len(e.Name) + pad4(len(e.Name)) + 4
		if budget < need {
			break
		}
		budget -= need
		h.res.Bool(true) // another entry follows
		h.res.Uint32(uint32(e.Handle.Ino))
		h.res.String(e.Name)
		h.res.Uint32(uint32(check)<<24 | uint32(i+1))
	}
	h.res.Bool(false)               // end of entry list
	h.res.Bool(i >= len(snap.ents)) // eof
}

// readdirplus handles ProcReaddirPlus: (fh, cookieverf, cookie, count)
// → (status, dir fattr, cookieverf, entry*, eof). Each entry carries
// name, fileid, a 64-bit cookie, and — when the object still exists —
// its file handle and attributes, fetched at page time through the
// policy view so every batched entry is authorized and masked with
// current policy, not snapshot-time policy.
func (h *procHandler) readdirplus() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	verf := h.args.Uint64()
	cookie := h.args.Uint64()
	count := h.args.Uint32()
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	var snap *dirSnapshot
	idx := 0
	if cookie == 0 {
		ents, err := h.fs.ReadDir(vh) // the policy-checked listing
		if err != nil {
			h.fail(err)
			return
		}
		snap = h.cursors.create(h.peer, vh, ents)
	} else {
		snap = h.cursors.byVerifier(verf)
		if !h.resume(snap, vh, cookie, ErrBadCookie) {
			return
		}
		idx = int(cookie)
	}
	dirAttr, err := h.fs.GetAttr(vh)
	if err != nil {
		h.fail(err)
		return
	}
	bs := h.blockSize()
	h.res.Uint32(uint32(OK))
	dfa := FAttrFromVFS(dirAttr, bs)
	dfa.Encode(h.res)
	h.res.Uint64(snap.verf)
	budget := pageBudget(count)
	i := idx
	for ; i < len(snap.ents); i++ {
		e := snap.ents[i]
		// Worst-case XDR size of one plus entry: more + fileid + name +
		// cookie + has_fh + fh + has_attr + fattr.
		need := 4 + 4 + 4 + len(e.Name) + pad4(len(e.Name)) + 8 +
			4 + FHSize + 4 + fattrEncodedSize
		if budget < need {
			break
		}
		budget -= need
		h.res.Bool(true)
		h.res.Uint32(uint32(e.Handle.Ino))
		h.res.String(e.Name)
		h.res.Uint64(uint64(i + 1))
		if a, aerr := h.fs.GetAttr(e.Handle); aerr == nil {
			fh := EncodeFH(a.Handle)
			h.res.Bool(true)
			h.res.OpaqueFixed(fh[:])
			h.res.Bool(true)
			efa := FAttrFromVFS(a, bs)
			efa.Encode(h.res)
		} else {
			// Removed (or unreadable) since the snapshot: a name-only
			// entry; the client falls back to LOOKUP or skips it.
			h.res.Bool(false)
			h.res.Bool(false)
		}
	}
	h.res.Bool(false)
	h.res.Bool(i >= len(snap.ents))
}

// lookupplus handles ProcLookupPlus, the compound
// LOOKUP+GETATTR+ACCESS: (dir fh, name) → on OK (dir fattr, child fh,
// child fattr, access bits); on ErrNoEnt the reply still carries the
// directory's attributes so the client can scope a negative name-cache
// entry to this version of the directory.
func (h *procHandler) lookupplus() {
	dirH, ok := h.fh()
	if !ok {
		return
	}
	name, ok := h.name()
	if !ok {
		return
	}
	bs := h.blockSize()
	a, err := h.fs.Lookup(dirH, name)
	if err != nil {
		if MapError(err) != ErrNoEnt {
			h.fail(err)
			return
		}
		dirAttr, derr := h.fs.GetAttr(dirH)
		if derr != nil {
			h.fail(derr)
			return
		}
		h.stat = ErrNoEnt
		h.res.Uint32(uint32(ErrNoEnt))
		dfa := FAttrFromVFS(dirAttr, bs)
		dfa.Encode(h.res)
		return
	}
	dirAttr, err := h.fs.GetAttr(dirH)
	if err != nil {
		h.fail(err)
		return
	}
	access := AccessRead | AccessWrite | AccessExec
	if ac, ok := h.fs.(AccessChecker); ok {
		bits, aerr := ac.Access(a.Handle)
		if aerr != nil {
			h.fail(aerr)
			return
		}
		access = bits
	}
	h.res.Uint32(uint32(OK))
	dfa := FAttrFromVFS(dirAttr, bs)
	dfa.Encode(h.res)
	fh := EncodeFH(a.Handle)
	h.res.OpaqueFixed(fh[:])
	cfa := FAttrFromVFS(a, bs)
	cfa.Encode(h.res)
	h.res.Uint32(access)
}

// commit handles ProcCommit: (fhandle, offset, count) → (status, fattr,
// verifier). offset/count are accepted for NFSv3 fidelity but the whole
// file is committed, as real servers do.
func (h *procHandler) commit() {
	vh, ok := h.fh()
	if !ok {
		return
	}
	_ = h.args.Uint32() // offset
	_ = h.args.Uint32() // count
	if h.args.Err() != nil {
		h.garbage = true
		return
	}
	ver, attr, err := CommitFS(h.fs, vh)
	if err != nil {
		h.fail(err)
		return
	}
	h.res.Uint32(uint32(OK))
	fa := FAttrFromVFS(attr, h.blockSize())
	fa.Encode(h.res)
	h.res.Uint64(ver)
}

func (h *procHandler) statfs() {
	_, ok := h.fh()
	if !ok {
		return
	}
	st, err := h.fs.StatFS()
	if err != nil {
		h.fail(err)
		return
	}
	h.res.Uint32(uint32(OK))
	h.res.Uint32(DefaultMaxTransfer) // tsize: optimal transfer size
	h.res.Uint32(st.BlockSize)
	h.res.Uint32(uint32(st.TotalBlocks))
	h.res.Uint32(uint32(st.FreeBlocks))
	h.res.Uint32(uint32(st.AvailBlocks))
}
