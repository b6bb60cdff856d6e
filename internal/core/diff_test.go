package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"

	"discfs/internal/cfs"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
)

// Differential testing: the same pseudo-random operation sequence is
// applied to the local FFS and to the two remote stacks of the paper's
// evaluation — CFS-NE (the CFS layer without encryption, exported over
// plain NFS) and DisCFS (CFS-NE plus credential checks over the secure
// channel, file data through the client data cache). Every operation
// must produce the same outcome on all three: success with equal
// data/attributes, or the same error class. This checks the NFS
// protocol layer, the CFS pass-through, the policy layer (with a
// full-access user) and the data cache against the local semantics in
// one sweep.

// diffFS is the part of a filesystem the differential test drives.
type diffFS interface {
	Root() vfs.Handle
	GetAttr(h vfs.Handle) (vfs.Attr, error)
	Lookup(dir vfs.Handle, name string) (vfs.Attr, error)
	Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error)
	Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error)
	ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error)
	Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error)
	Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error)
}

// remoteFS is a diffFS over an NFS connection. With c set (the DisCFS
// stack) file data goes through core.File, and so through the client
// data cache, the way an application's reads and writes would; without
// it every read and write is one READ or WRITE RPC.
type remoteFS struct {
	nfs   *nfs.Client
	root  vfs.Handle
	c     *Client
	files map[vfs.Handle]*File
}

func (r *remoteFS) Root() vfs.Handle { return r.root }

// GetAttr reports the size including unflushed local writes, as stat
// over a kernel page cache does.
func (r *remoteFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	a, err := r.nfs.GetAttr(context.Background(), h)
	if f := r.files[h]; err == nil && f != nil && f.Size() > int64(a.Size) {
		a.Size = uint64(f.Size())
	}
	return a, err
}

func (r *remoteFS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	return r.nfs.Lookup(context.Background(), dir, name)
}

func (r *remoteFS) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return r.nfs.Create(context.Background(), dir, name, mode)
}

func (r *remoteFS) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return r.nfs.Mkdir(context.Background(), dir, name, mode)
}

func (r *remoteFS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	ents, err := r.nfs.ReadDirAll(context.Background(), dir)
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		out = append(out, vfs.DirEntry{Name: e.Name})
	}
	return out, err
}

// file returns the open File on h, opening it read-write on first use.
func (r *remoteFS) file(h vfs.Handle) (*File, error) {
	if f, ok := r.files[h]; ok {
		return f, nil
	}
	f, err := r.c.OpenHandle(context.Background(), h, os.O_RDWR)
	if err == nil {
		r.files[h] = f
	}
	return f, err
}

func (r *remoteFS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	if r.c == nil {
		data, a, err := r.nfs.Read(context.Background(), h, uint32(off), count)
		return data, err == nil && off+uint64(len(data)) >= a.Size, err
	}
	f, err := r.file(h)
	if err != nil {
		return nil, false, err
	}
	buf := make([]byte, count)
	n, err := f.ReadAt(buf, int64(off))
	if err == io.EOF {
		return buf[:n], true, nil
	}
	return buf[:n], false, err
}

func (r *remoteFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	if r.c == nil {
		return r.nfs.Write(context.Background(), h, uint32(off), data)
	}
	f, err := r.file(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	_, err = f.WriteAt(data, int64(off))
	return vfs.Attr{}, err
}

// diffStore is the backing store every stack starts from.
func diffStore(t *testing.T) *ffs.FFS {
	t.Helper()
	fs, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// diffCFSNE exports CFS-NE over plain NFS and returns a connection that
// negotiated large transfers, as a modern kernel client would.
func diffCFSNE(t *testing.T) diffFS {
	t.Helper()
	ctx := context.Background()
	ne, err := cfs.New(diffStore(t), "", false)
	if err != nil {
		t.Fatal(err)
	}
	rpcSrv := sunrpc.NewServer()
	nfs.NewServer(nfs.StaticExport{FS: ne}).RegisterAll(rpcSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpcSrv.Serve(ln)
	t.Cleanup(func() { rpcSrv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := nfs.NewClient(sunrpc.NewClient(conn))
	t.Cleanup(func() { c.RPC().Close() })
	root, err := c.Mount(ctx, "/export")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Negotiate(ctx, 0); err != nil {
		t.Fatal(err)
	}
	return &remoteFS{nfs: c, root: root}
}

// diffDisCFS serves CFS-NE through a DisCFS server with the paper's
// 128-entry decision cache and attaches a user holding RWX on the tree.
func diffDisCFS(t *testing.T) diffFS {
	t.Helper()
	ne, err := cfs.New(diffStore(t), "", false)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := testServer(t, ServerConfig{Backing: ne, CacheSize: 128})
	user := keynote.DeterministicKey("diff-user")
	if _, err := srv.IssueCredential(user.Principal, ne.Root().Ino, "RWX", "differential user"); err != nil {
		t.Fatal(err)
	}
	c := dialAs(t, addr, "diff-user")
	r := &remoteFS{nfs: c.NFS(), root: c.Root(), c: c, files: make(map[vfs.Handle]*File)}
	t.Cleanup(func() {
		for _, f := range r.files {
			f.Close()
		}
	})
	return r
}

// diffOp applies one operation and returns a comparable outcome string.
type diffOp func(fs diffFS, state *diffState) string

// diffState tracks the namespace the generator knows about.
type diffState struct {
	dirs  []string // paths relative to root, "" = root
	files []string
	rng   *rand.Rand
}

// resolve walks a path, returning the handle or an error string.
func resolve(fs diffFS, path string) (vfs.Handle, string) {
	cur := fs.Root()
	for _, part := range strings.FieldsFunc(path, func(r rune) bool { return r == '/' }) {
		a, err := fs.Lookup(cur, part)
		if err != nil {
			return vfs.Handle{}, errClass(err)
		}
		cur = a.Handle
	}
	return cur, ""
}

// errClass collapses equivalent local and remote errors to one label.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	return "err:" + nfs.MapError(err).String()
}

func opCreate(name string) diffOp {
	return func(fs diffFS, st *diffState) string {
		dir := st.dirs[st.rng.Intn(len(st.dirs))]
		h, ec := resolve(fs, dir)
		if ec != "" {
			return "resolve-" + ec
		}
		_, err := fs.Create(h, name, 0o644)
		return fmt.Sprintf("create(%s/%s)=%s", dir, name, errClass(err))
	}
}

func opWrite(seed int64) diffOp {
	return func(fs diffFS, st *diffState) string {
		if len(st.files) == 0 {
			return "nofiles"
		}
		path := st.files[st.rng.Intn(len(st.files))]
		h, ec := resolve(fs, path)
		if ec != "" {
			return "resolve-" + ec
		}
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, r.Intn(20000))
		r.Read(data)
		off := uint64(r.Intn(30000))
		_, err := fs.Write(h, off, data)
		return fmt.Sprintf("write(%s,%d,%d)=%s", path, off, len(data), errClass(err))
	}
}

func opReadBack(seed int64) diffOp {
	return func(fs diffFS, st *diffState) string {
		if len(st.files) == 0 {
			return "nofiles"
		}
		path := st.files[st.rng.Intn(len(st.files))]
		h, ec := resolve(fs, path)
		if ec != "" {
			return "resolve-" + ec
		}
		r := rand.New(rand.NewSource(seed))
		off := uint64(r.Intn(30000))
		n := uint32(r.Intn(20000))
		data, eof, err := fs.Read(h, off, n)
		if err != nil {
			return "read=" + errClass(err)
		}
		sum := 0
		for _, b := range data {
			sum += int(b)
		}
		return fmt.Sprintf("read(%s,%d,%d)=%d:%d:%v", path, off, n, len(data), sum, eof)
	}
}

func opMkdir(name string) diffOp {
	return func(fs diffFS, st *diffState) string {
		dir := st.dirs[st.rng.Intn(len(st.dirs))]
		h, ec := resolve(fs, dir)
		if ec != "" {
			return "resolve-" + ec
		}
		_, err := fs.Mkdir(h, name, 0o755)
		return fmt.Sprintf("mkdir(%s/%s)=%s", dir, name, errClass(err))
	}
}

func opList() diffOp {
	return func(fs diffFS, st *diffState) string {
		dir := st.dirs[st.rng.Intn(len(st.dirs))]
		h, ec := resolve(fs, dir)
		if ec != "" {
			return "resolve-" + ec
		}
		ents, err := fs.ReadDir(h)
		if err != nil {
			return "readdir=" + errClass(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name)
		}
		slices.Sort(names) // order-insensitive digest
		return fmt.Sprintf("readdir(%s)=%v", dir, names)
	}
}

func opAttr() diffOp {
	return func(fs diffFS, st *diffState) string {
		if len(st.files) == 0 {
			return "nofiles"
		}
		path := st.files[st.rng.Intn(len(st.files))]
		h, ec := resolve(fs, path)
		if ec != "" {
			return "resolve-" + ec
		}
		a, err := fs.GetAttr(h)
		if err != nil {
			return "getattr=" + errClass(err)
		}
		return fmt.Sprintf("getattr(%s)=type%d:size%d:nlink%d", path, a.Type, a.Size, a.Nlink)
	}
}

// TestDifferentialLocalVsRemote runs the generated op sequence against
// all three stacks and requires identical outcomes at every step.
func TestDifferentialLocalVsRemote(t *testing.T) {
	names := []string{"FFS", "CFS-NE", "DisCFS"}
	stacks := []diffFS{diffStore(t), diffCFSNE(t), diffDisCFS(t)}

	// Per-stack generator state; identical seeds keep them in lockstep.
	states := make([]*diffState, len(stacks))
	for i := range states {
		states[i] = &diffState{dirs: []string{""}, rng: rand.New(rand.NewSource(77))}
	}

	// Deterministic op schedule.
	sched := rand.New(rand.NewSource(42))
	nameCtr := 0
	for step := 0; step < 400; step++ {
		var op diffOp
		switch k := sched.Intn(10); {
		case k < 3:
			nameCtr++
			op = opCreate(fmt.Sprintf("f%03d", nameCtr))
		case k < 5:
			op = opWrite(sched.Int63())
		case k < 7:
			op = opReadBack(sched.Int63())
		case k == 7:
			nameCtr++
			op = opMkdir(fmt.Sprintf("d%03d", nameCtr))
		case k == 8:
			op = opList()
		default:
			op = opAttr()
		}

		var first string
		for i, fs := range stacks {
			got := op(fs, states[i])
			if i == 0 {
				first = got
				continue
			}
			if got != first {
				t.Fatalf("step %d: %s diverges from FFS:\n  FFS:    %s\n  %s: %s",
					step, names[i], first, names[i], got)
			}
		}
		// Keep the generators' namespace view in sync by replaying
		// bookkeeping on the (common) outcome.
		if path, ok := created(first, "create("); ok {
			for _, st := range states {
				st.files = append(st.files, path)
			}
		}
		if path, ok := created(first, "mkdir("); ok {
			for _, st := range states {
				st.dirs = append(st.dirs, path)
			}
		}
	}
	// Final content comparison: every tracked file byte-identical.
	for _, path := range states[0].files {
		var ref []byte
		for i, fs := range stacks {
			h, ec := resolve(fs, path)
			if ec != "" {
				t.Fatalf("final resolve %s on %s: %s", path, names[i], ec)
			}
			a, err := fs.GetAttr(h)
			if err != nil {
				t.Fatalf("final getattr %s on %s: %v", path, names[i], err)
			}
			data, _, err := fs.Read(h, 0, uint32(a.Size))
			if err != nil {
				t.Fatalf("final read %s on %s: %v", path, names[i], err)
			}
			if i == 0 {
				ref = data
			} else if !bytes.Equal(data, ref) {
				t.Fatalf("final content of %s differs on %s (%d vs %d bytes)",
					path, names[i], len(data), len(ref))
			}
		}
	}
}

// created extracts the path from a successful outcome of the given
// operation ("create(dir/name)=ok").
func created(outcome, op string) (string, bool) {
	rest, ok := strings.CutPrefix(outcome, op)
	if !ok {
		return "", false
	}
	path, ok := strings.CutSuffix(rest, ")=ok")
	return strings.TrimLeft(path, "/"), ok
}
