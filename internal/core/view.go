package core

import (
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// view is the per-principal filesystem the NFS layer serves: every
// operation consults the KeyNote session before reaching the backing
// store. It implements vfs.FS.
//
// Permission model (paper §5): the compliance value for (peer, handle)
// translates to rwx bits. Reads need R, mutations need W, directory
// search (lookup) needs X — the standard Unix interpretation, enforced
// by credentials instead of file ownership.
type view struct {
	s    *Server
	peer keynote.Principal
}

var _ vfs.FS = (*view)(nil)

// maskAttr rewrites the mode to show exactly the permissions the peer
// holds, as the paper's prototype does: an attached directory shows 000
// until credentials arrive, then "the permissions … are changed
// accordingly". Ownership is the attach-time identity and has no local
// significance; we surface it unchanged from the backing store.
func (v *view) maskAttr(a vfs.Attr) vfs.Attr {
	perm, _ := v.s.decide(v.peer, a.Handle)
	p := uint32(perm)
	a.Mode = p<<6 | p<<3 | p
	return a
}

// Root implements vfs.FS. The root handle is always visible (the attach
// succeeds; access control happens per-operation).
func (v *view) Root() vfs.Handle { return v.s.backing.Root() }

// GetAttr implements vfs.FS: allowed for everyone, but the mode reflects
// granted permissions (000 with no credentials).
func (v *view) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	a, err := v.s.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	return v.maskAttr(a), nil
}

// SetAttr implements vfs.FS; requires W. (The paper notes setattr is
// "superfluous" for permission bits — those live in credentials — but
// truncation and timestamps still flow through it.)
func (v *view) SetAttr(h vfs.Handle, sa vfs.SetAttr) (vfs.Attr, error) {
	if err := v.s.check(v.peer, h, PermW, "setattr", ""); err != nil {
		return vfs.Attr{}, err
	}
	// Mode changes are meaningless under credential control; strip them
	// rather than confuse the backing store's notion of permissions.
	sa.Mode = nil
	a, err := v.s.backing.SetAttr(h, sa)
	if err != nil {
		return vfs.Attr{}, err
	}
	return v.maskAttr(a), nil
}

// Lookup implements vfs.FS; requires X (search) on the directory.
func (v *view) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	if err := v.s.check(v.peer, dir, PermX, "lookup", name); err != nil {
		return vfs.Attr{}, err
	}
	a, err := v.s.backing.Lookup(dir, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	if name != "." && name != ".." {
		v.s.noteParent(a.Handle, dir)
	}
	return v.maskAttr(a), nil
}

// Read implements vfs.FS.
func (v *view) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(v, h, off, count)
}

// ReadInto implements vfs.FS; requires R. The policy check runs
// here and the read lands directly in the caller's buffer (the NFS
// reply record), keeping the zero-copy path through the credential
// filter.
func (v *view) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	if err := v.s.check(v.peer, h, PermR, "read", ""); err != nil {
		return 0, false, err
	}
	return v.s.backing.ReadInto(h, off, dst)
}

// Write implements vfs.FS; requires W.
func (v *view) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	if err := v.s.check(v.peer, h, PermW, "write", ""); err != nil {
		return vfs.Attr{}, err
	}
	a, err := v.s.backing.Write(h, off, data)
	if err != nil {
		return vfs.Attr{}, err
	}
	return v.maskAttr(a), nil
}

// Create implements vfs.FS; requires W on the directory. The server
// issues the creator a credential for the new file (the paper's added
// procedure); callers using the extension program receive its text.
func (v *view) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	a, _, err := v.createWithCred(dir, name, mode)
	return a, err
}

func (v *view) createWithCred(dir vfs.Handle, name string, mode uint32) (vfs.Attr, *keynote.Assertion, error) {
	if err := v.s.check(v.peer, dir, PermW, "create", name); err != nil {
		return vfs.Attr{}, nil, err
	}
	a, err := v.s.backing.Create(dir, name, mode)
	if err != nil {
		return vfs.Attr{}, nil, err
	}
	v.s.noteParent(a.Handle, dir)
	cred, err := v.s.IssueCredential(v.peer, a.Handle.Ino, "RWX", "creator of "+name)
	if err != nil {
		return vfs.Attr{}, nil, err
	}
	return v.maskAttr(a), cred, nil
}

// Remove implements vfs.FS; requires W on the directory.
func (v *view) Remove(dir vfs.Handle, name string) error {
	if err := v.s.check(v.peer, dir, PermW, "remove", name); err != nil {
		return err
	}
	if a, err := v.s.backing.Lookup(dir, name); err == nil {
		defer v.s.dropParent(a.Handle)
	}
	return v.s.backing.Remove(dir, name)
}

// Rename implements vfs.FS; requires W on both directories.
func (v *view) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	if err := v.s.check(v.peer, fromDir, PermW, "rename-from", fromName); err != nil {
		return err
	}
	if fromDir != toDir {
		if err := v.s.check(v.peer, toDir, PermW, "rename-to", toName); err != nil {
			return err
		}
	}
	if err := v.s.backing.Rename(fromDir, fromName, toDir, toName); err != nil {
		return err
	}
	// The moved object's path — and, for a directory, every descendant
	// path — changed: invalidate cached paths and the decisions computed
	// from them (a subtree-scoped grant must not survive the move).
	v.s.invalidatePaths()
	if a, err := v.s.backing.Lookup(toDir, toName); err == nil {
		v.s.noteParent(a.Handle, toDir)
	}
	return nil
}

// Mkdir implements vfs.FS; requires W on the parent; issues a credential
// like Create.
func (v *view) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	a, _, err := v.mkdirWithCred(dir, name, mode)
	return a, err
}

func (v *view) mkdirWithCred(dir vfs.Handle, name string, mode uint32) (vfs.Attr, *keynote.Assertion, error) {
	if err := v.s.check(v.peer, dir, PermW, "mkdir", name); err != nil {
		return vfs.Attr{}, nil, err
	}
	a, err := v.s.backing.Mkdir(dir, name, mode)
	if err != nil {
		return vfs.Attr{}, nil, err
	}
	v.s.noteParent(a.Handle, dir)
	cred, err := v.s.IssueCredential(v.peer, a.Handle.Ino, "RWX", "creator of "+name+"/")
	if err != nil {
		return vfs.Attr{}, nil, err
	}
	return v.maskAttr(a), cred, nil
}

// Rmdir implements vfs.FS; requires W on the parent.
func (v *view) Rmdir(dir vfs.Handle, name string) error {
	if err := v.s.check(v.peer, dir, PermW, "rmdir", name); err != nil {
		return err
	}
	if a, err := v.s.backing.Lookup(dir, name); err == nil {
		defer v.s.dropParent(a.Handle)
		// A directory's disappearance invalidates any path cached
		// through it (defense in depth: the backing store requires the
		// directory to be empty, so normally nothing runs through it).
		defer v.s.invalidatePaths()
	}
	return v.s.backing.Rmdir(dir, name)
}

// ReadDir implements vfs.FS; requires R on the directory.
func (v *view) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	if err := v.s.check(v.peer, dir, PermR, "readdir", ""); err != nil {
		return nil, err
	}
	ents, err := v.s.backing.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		v.s.noteParent(e.Handle, dir)
	}
	return ents, nil
}

// Symlink implements vfs.FS; requires W on the directory.
func (v *view) Symlink(dir vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	if err := v.s.check(v.peer, dir, PermW, "symlink", name); err != nil {
		return vfs.Attr{}, err
	}
	a, err := v.s.backing.Symlink(dir, name, target, mode)
	if err != nil {
		return vfs.Attr{}, err
	}
	v.s.noteParent(a.Handle, dir)
	if _, err := v.s.IssueCredential(v.peer, a.Handle.Ino, "RWX", "creator of symlink "+name); err != nil {
		return vfs.Attr{}, err
	}
	return v.maskAttr(a), nil
}

// Readlink implements vfs.FS; requires R on the link.
func (v *view) Readlink(h vfs.Handle) (string, error) {
	if err := v.s.check(v.peer, h, PermR, "readlink", ""); err != nil {
		return "", err
	}
	return v.s.backing.Readlink(h)
}

// Link implements vfs.FS; requires W on the directory and W on the
// target (creating a new name for an object is a modification of both).
func (v *view) Link(dir vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	if err := v.s.check(v.peer, dir, PermW, "link", name); err != nil {
		return vfs.Attr{}, err
	}
	if err := v.s.check(v.peer, target, PermW, "link-target", name); err != nil {
		return vfs.Attr{}, err
	}
	a, err := v.s.backing.Link(dir, name, target)
	if err != nil {
		return vfs.Attr{}, err
	}
	return v.maskAttr(a), nil
}

// StatFS implements vfs.FS; capacity information is not confidential.
func (v *view) StatFS() (vfs.StatFS, error) { return v.s.backing.StatFS() }

// Sync implements vfs.FS. No NFS procedure reaches it: COMMIT goes
// through Commit, which checks W.
func (v *view) Sync() error { return v.s.backing.Sync() }

// Access implements the nfs.AccessChecker capability: it reports the
// rwx bits the compliance checker grants this peer on h, without
// performing an operation. The NFS layer uses it to re-run the policy
// gate when a READDIR or READDIRPLUS walk resumes from a cursor
// (revocation between pages must stop the walk).
func (v *view) Access(h vfs.Handle) (uint32, error) {
	perm, _ := v.s.decide(v.peer, h)
	return uint32(perm), nil
}

// Commit implements the nfs.Committer capability: the durability
// barrier for unstable writes requires W, like the writes it commits.
// It syncs the store and returns the server's boot verifier.
func (v *view) Commit(h vfs.Handle) (uint64, vfs.Attr, error) {
	if err := v.s.check(v.peer, h, PermW, "commit", ""); err != nil {
		return 0, vfs.Attr{}, err
	}
	v.s.commits.Add(1)
	ver := v.s.verifier.Load()
	_, a, err := nfs.CommitFS(v.s.backing, h)
	if err != nil {
		return ver, vfs.Attr{}, err
	}
	return ver, v.maskAttr(a), nil
}
