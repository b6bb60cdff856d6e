package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"discfs"
	"discfs/internal/cfs"
	"discfs/internal/ffs"
	"discfs/internal/nfs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
)

// Stack differencing: the same seeded inputs run for a few iterations
// against stacks with parts removed. The results are per-layer metrics,
// not end-to-end ones, on purpose: a ratio to a baseline worsens when
// the baseline improves.
//
//   nocache  DisCFS with the client data cache off (WithNoDataCache)
//   cfsne    the paper's base case: cfs without encryption over ffs,
//            exported by the plain NFS server over TCP — no credentials,
//            no secure channel, no client cache
//   ffs      direct calls into the local filesystem

// plainNFS is the CFS-NE base case.
type plainNFS struct {
	store   vfs.FS
	srv     *sunrpc.Server
	served  chan error
	addr    string
	clients []*nfs.Client
	c       *nfs.Client // the first client
	root    vfs.Handle
}

func newPlainNFS(devBlocks uint32) (*plainNFS, error) {
	under, err := ffs.New(ffs.Config{NumBlocks: devBlocks})
	if err != nil {
		return nil, err
	}
	p := &plainNFS{srv: sunrpc.NewServer(), served: make(chan error, 1)}
	if p.store, err = cfs.New(under, "", false); err != nil {
		return nil, err
	}
	nfs.NewServer(nfs.StaticExport{FS: p.store}).RegisterAll(p.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	go func() { p.served <- p.srv.Serve(ln) }()
	if p.c, err = p.dial(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// dial opens one more client connection and mounts the export.
func (p *plainNFS) dial() (*nfs.Client, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := nfs.NewClient(sunrpc.NewClient(conn))
	p.clients = append(p.clients, c)
	if p.root, err = c.Mount(ctx, "/export"); err != nil {
		return nil, err
	}
	_, err = c.Negotiate(ctx, 0) // large transfers, as DisCFS negotiates
	return c, err
}

func (p *plainNFS) close() {
	for _, c := range p.clients {
		c.RPC().Close()
	}
	p.srv.Close()
	<-p.served
}

// cfsneStream writes and reads back size-byte files through the base
// case for about budget, and returns the median MiB/s of each
// direction.
func cfsneStream(r *run, data, rbuf []byte, budget time.Duration) (writeMBps, readMBps float64, err error) {
	p, err := newPlainNFS(uint32(3*len(data)/blockSize) + 64)
	if err != nil {
		return 0, 0, err
	}
	defer p.close()
	xfer := int(p.c.MaxData())
	var ws, rs []float64
	for start, i := time.Now(), 0; i < 2 || time.Since(start) < budget; i++ {
		name := fmt.Sprintf("b%04d", i)
		t0 := time.Now()
		a, err := p.c.Create(ctx, p.root, name, 0o644)
		if err != nil {
			return 0, 0, err
		}
		for off := 0; off < len(data); off += xfer {
			if _, err := p.c.Write(ctx, a.Handle, uint32(off), data[off:min(off+xfer, len(data))]); err != nil {
				return 0, 0, err
			}
		}
		wd := time.Since(t0)
		t1 := time.Now()
		got := 0
		for got < len(data) {
			n, _, err := p.c.ReadInto(ctx, a.Handle, uint32(got), rbuf[got:min(got+xfer, len(data))])
			if err != nil {
				return 0, 0, err
			}
			if n == 0 {
				break
			}
			got += n
		}
		rd := time.Since(t1)
		r.rec.attempted++
		if !bytes.Equal(rbuf[:got], data) {
			r.fail("cfsne baseline: %s read back differs", name)
		}
		if err := p.c.Remove(ctx, p.root, name); err != nil {
			return 0, 0, err
		}
		if i > 0 { // the first file touches the device's pages for the first time
			ws, rs = append(ws, mbps(len(data), wd)), append(rs, mbps(len(data), rd))
		}
	}
	return median(ws), median(rs), nil
}

// walker is what the Fig 12 search needs of a filesystem.
type walker interface {
	ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error)
	Lookup(dir vfs.Handle, name string) (vfs.Attr, error)
	Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error)
}

// nfsWalker adapts the raw NFS client: names from READDIR, one LOOKUP
// per entry, READs of the negotiated size.
type nfsWalker struct{ c *nfs.Client }

func (w nfsWalker) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	ents, err := w.c.ReadDirAll(ctx, dir)
	out := make([]vfs.DirEntry, len(ents))
	for i, e := range ents {
		out[i].Name = e.Name
	}
	return out, err
}

func (w nfsWalker) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	return w.c.Lookup(ctx, dir, name)
}

func (w nfsWalker) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	data, attr, err := w.c.Read(ctx, h, uint32(off), count)
	return data, off+uint64(len(data)) >= attr.Size, err
}

// search walks fs from dir and wc-counts every source file.
func search(fs walker, dir vfs.Handle, tot *wcTotals) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		a, err := fs.Lookup(dir, e.Name)
		if err != nil {
			return err
		}
		switch {
		case a.Type == vfs.TypeDir:
			if err := search(fs, a.Handle, tot); err != nil {
				return err
			}
		case a.Type == vfs.TypeRegular && isSource(e.Name):
			inWord := false
			for off := uint64(0); off < a.Size; {
				data, eof, err := fs.Read(a.Handle, off, 64*kib)
				if err != nil {
					return err
				}
				inWord = tot.wc(data, inWord)
				off += uint64(len(data))
				if eof || len(data) == 0 {
					break
				}
			}
			tot.Files++
		}
	}
	return nil
}

// searchBaselines returns files/s of the Fig 12 search on local ffs and
// through the CFS-NE base case, each the median of the iterations that
// fit in budget. As in the search workload, an iteration is nproc
// walkers side by side.
func searchBaselines(r *run, sc scale, budget time.Duration) (ffsFPS, cfsneFPS float64, err error) {
	nw := runtime.GOMAXPROCS(0)
	treeBlocks := uint32(4*sc.treeDirs*sc.treePerDir*sc.treeMean/blockSize) + 1024
	timeWalks := func(walkers []walker, root vfs.Handle, want wcTotals, what string) (float64, error) {
		var fps []float64
		for start, i := time.Now(), 0; i < 2 || time.Since(start) < budget; i++ {
			got := make([]wcTotals, nw)
			errs := make([]error, nw)
			var wg sync.WaitGroup
			t0 := time.Now()
			for k, fs := range walkers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[k] = search(fs, root, &got[k])
				}()
			}
			wg.Wait()
			fps = append(fps, float64(nw*want.Files)/time.Since(t0).Seconds())
			if err := errors.Join(errs...); err != nil {
				return 0, err
			}
			for k := range got {
				r.rec.attempted++
				if got[k] != want {
					r.fail("%s baseline: wc totals %+v, populated %+v", what, got[k], want)
				}
			}
		}
		return median(fps), nil
	}
	populate := func(fs vfs.FS) (wcTotals, error) {
		return generateTree(fs, fs.Root(), newRNG(r.seed, "search-tree"), sc.treeDirs, sc.treePerDir, sc.treeMean)
	}

	local, err := ffs.New(ffs.Config{NumBlocks: treeBlocks})
	if err != nil {
		return 0, 0, err
	}
	want, err := populate(local)
	if err != nil {
		return 0, 0, err
	}
	walkers := make([]walker, nw)
	for k := range walkers {
		walkers[k] = local
	}
	if ffsFPS, err = timeWalks(walkers, local.Root(), want, "ffs"); err != nil {
		return 0, 0, err
	}

	p, err := newPlainNFS(treeBlocks)
	if err != nil {
		return 0, 0, err
	}
	defer p.close()
	if want, err = populate(p.store); err != nil {
		return 0, 0, err
	}
	walkers[0] = nfsWalker{p.c}
	for k := 1; k < nw; k++ {
		c, err := p.dial()
		if err != nil {
			return 0, 0, err
		}
		walkers[k] = nfsWalker{c}
	}
	cfsneFPS, err = timeWalks(walkers, p.root, want, "cfsne")
	return ffsFPS, cfsneFPS, err
}

// noCache measures the workload with the client data cache off.
func noCache(name string, sc scale, seed uint64, budget time.Duration) (*recorder, error) {
	w, err := newWorkload(name, sc)
	if err != nil {
		return nil, err
	}
	r := &run{seed: seed, clientOpts: []discfs.ClientOption{discfs.WithNoDataCache()}}
	if err := measure(w, r, budget); err != nil {
		return nil, fmt.Errorf("nocache baseline: %w", err)
	}
	return &r.rec, nil
}
