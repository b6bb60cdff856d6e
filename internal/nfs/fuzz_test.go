package nfs

import (
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// fuzzFS builds a tiny filesystem with a few objects so handle-bearing
// procedures have something real to hit.
func fuzzFS(tb testing.TB) *ffs.FFS {
	backing, err := ffs.New(ffs.Config{BlockSize: 512, NumBlocks: 256})
	if err != nil {
		tb.Fatalf("ffs.New: %v", err)
	}
	root := backing.Root()
	if _, err := backing.Create(root, "f", 0o644); err != nil {
		tb.Fatal(err)
	}
	if _, err := backing.Mkdir(root, "d", 0o755); err != nil {
		tb.Fatal(err)
	}
	if _, err := backing.Symlink(root, "l", "f", 0o777); err != nil {
		tb.Fatal(err)
	}
	return backing
}

// FuzzProtoDispatch feeds arbitrary argument bytes into every NFS
// procedure handler (the wire-facing decode entry points of the
// server): whatever the input, dispatch must return a status — never
// panic, never hand garbage to the store that a well-formed error
// wouldn't cover.
func FuzzProtoDispatch(f *testing.F) {
	// Seeds: valid encodes of representative calls.
	seed := func(proc uint32, enc func(*xdr.Encoder)) {
		e := xdr.NewEncoder()
		enc(e)
		f.Add(proc, append([]byte(nil), e.Bytes()...))
	}
	rootFH := EncodeFH(vfs.Handle{Ino: 1, Gen: 1})
	seed(ProcGetattr, func(e *xdr.Encoder) { e.OpaqueFixed(rootFH[:]) })
	seed(ProcLookup, func(e *xdr.Encoder) { e.OpaqueFixed(rootFH[:]); e.String("f") })
	seed(ProcRead, func(e *xdr.Encoder) {
		e.OpaqueFixed(rootFH[:])
		e.Uint32(0)
		e.Uint32(4096)
		e.Uint32(4096)
	})
	seed(ProcWrite, func(e *xdr.Encoder) {
		e.OpaqueFixed(rootFH[:])
		e.Uint32(0)
		e.Uint32(0)
		e.Uint32(5)
		e.Opaque([]byte("bytes"))
	})
	seed(ProcCreate, func(e *xdr.Encoder) {
		e.OpaqueFixed(rootFH[:])
		e.String("new")
		sa := NewSAttr()
		sa.Mode = 0o644
		sa.Encode(e)
	})
	seed(ProcReaddir, func(e *xdr.Encoder) { e.OpaqueFixed(rootFH[:]); e.Uint32(0); e.Uint32(4096) })
	seed(ProcSetattr, func(e *xdr.Encoder) {
		e.OpaqueFixed(rootFH[:])
		sa := NewSAttr()
		sa.Size = 0
		sa.Encode(e)
	})
	seed(ProcCommit, func(e *xdr.Encoder) { e.OpaqueFixed(rootFH[:]); e.Uint32(0); e.Uint32(0) })
	seed(ProcFSInfo, func(e *xdr.Encoder) { e.Uint32(DefaultMaxTransfer) })
	seed(ProcRename, func(e *xdr.Encoder) {
		e.OpaqueFixed(rootFH[:])
		e.String("f")
		e.OpaqueFixed(rootFH[:])
		e.String("g")
	})
	f.Add(uint32(99), []byte{})         // unknown proc
	f.Add(uint32(ProcWrite), []byte{0}) // truncated
	f.Add(uint32(ProcLookup), []byte{}) // empty args

	f.Fuzz(func(t *testing.T, proc uint32, args []byte) {
		srv := NewServer(StaticExport{FS: fuzzFS(t)})
		res := xdr.NewEncoder()
		ctx := &sunrpc.Context{Peer: "fuzz"}
		if _, err := srv.dispatch(ctx, proc%24, xdr.NewDecoder(args), res); err != nil {
			t.Fatalf("dispatch returned handler error: %v", err)
		}
		// Mount program too: it shares the decode helpers.
		res = xdr.NewEncoder()
		if _, err := srv.dispatchMount(ctx, proc%4, xdr.NewDecoder(args), res); err != nil {
			t.Fatalf("mount dispatch error: %v", err)
		}

		// The standalone decode entry points must be panic-free as well.
		d := xdr.NewDecoder(args)
		_ = DecodeFAttr(d)
		d = xdr.NewDecoder(args)
		_ = DecodeSAttr(d)
		if _, err := DecodeFH(args); err != nil && err != vfs.ErrStale {
			t.Fatalf("DecodeFH error %v", err)
		}
	})
}
