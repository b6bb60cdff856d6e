package main

import (
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"discfs"
	"discfs/internal/vfs"
)

// searchWL is the paper's Figure 12: walk a source tree and wc every
// .c and .h file. The tree is populated through the backing store in
// set-up (as the paper's kernel tree was already on the server's disk),
// so the session holds one user credential; 1,536 files thrash the
// 128-entry decision cache. Each iteration nproc freshly dialed clients
// (cold name, attribute and data caches) each do one full walk, side by
// side: one walker leaves a CPU idle half the time, and how fast an idle
// CPU wakes is the noisiest thing on a small VM. An op is one file
// visit: open by path (lookup) and read to EOF.
type searchWL struct {
	sc   scale
	st   *stack
	want wcTotals
	bufs [][]byte // one read buffer per walker
}

const searchWarm = 1

func (w *searchWL) iterations() int { return w.sc.searchIters }

func (w *searchWL) setup(r *run, round int) error {
	if w.bufs == nil {
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			w.bufs = append(w.bufs, make([]byte, 64*kib))
		}
	}
	treeBytes := w.sc.treeDirs * w.sc.treePerDir * w.sc.treeMean
	cfg := stackConfig{cfsNE: true, tr: r.tr, devBlocks: uint32(4*treeBytes/blockSize) + 1024}
	var err error
	if w.st, err = newStack(cfg, r.seed); err != nil {
		return err
	}
	r.lastStack, r.clients = w.st, runtime.GOMAXPROCS(0)
	w.want, err = generateTree(w.st.store, w.st.store.Root(), newRNG(r.seed, "search-tree"),
		w.sc.treeDirs, w.sc.treePerDir, w.sc.treeMean)
	if err != nil {
		return err
	}
	if r.rec.storedRatio == 0 {
		used, err := w.st.usedBytes()
		if err != nil {
			return err
		}
		r.rec.storedRatio = float64(used) / float64(w.want.Bytes)
	}
	return warmUp(w, r, searchWarm)
}

func (w *searchWL) iterate(r *run, _ int) error {
	nw := runtime.GOMAXPROCS(0)
	clients := make([]*discfs.Client, nw)
	for k := range clients {
		c, err := w.st.dial(r.clientOpts...)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[k] = c
	}
	got := make([]wcTotals, nw)
	lats := make([][]float64, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[k], errs[k] = w.walk(r, c, &w.bufs[k], &got[k])
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var lat []float64
	for _, l := range lats {
		lat = append(lat, l...)
	}
	r.sample(nw*w.want.Files, d, lat)
	if r.injectNow("corrupt") {
		got[0].Words++
	}
	for k := range got {
		if !r.warm {
			r.rec.attempted += int64(w.want.Files)
			r.rec.userBytes += got[k].Bytes
			r.rec.readBytes += got[k].Bytes
			for _, l := range lats[k] {
				r.rec.readTime += time.Duration(l * 1e3)
			}
		}
		if got[k] != w.want {
			r.fail("wc totals %+v, populated %+v", got[k], w.want)
		}
	}
	return nil
}

// walk is one client's full walk: every source file is opened by path,
// read to EOF (one op, one latency sample) and wc-counted.
func (w *searchWL) walk(r *run, c *discfs.Client, buf *[]byte, got *wcTotals) ([]float64, error) {
	lat := make([]float64, 0, w.want.Files)
	err := c.Walk(ctx, func(path string, attr vfs.Attr) error {
		if attr.Type != vfs.TypeRegular || !isSource(path) {
			return nil
		}
		end := r.tr.begin(layerClient, "visit")
		tc := time.Now()
		data, err := visit(c, path, buf)
		lat = append(lat, float64(time.Since(tc).Nanoseconds())/1e3)
		end(len(data))
		if err == nil {
			// The counting is the application's work: inside the
			// iteration's wall time, as in the paper, but outside the
			// visit's latency sample.
			got.Files++
			got.wc(data, false)
		}
		return err
	})
	return lat, err
}

// visit opens path and reads it to EOF into *buf, growing it as needed.
func visit(c *discfs.Client, path string, buf *[]byte) ([]byte, error) {
	f, err := c.Open(ctx, path, os.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	total := 0
	for {
		if total == len(*buf) {
			*buf = append(*buf, make([]byte, len(*buf))...)
		}
		n, err := f.Read((*buf)[total:])
		total += n
		if err == io.EOF {
			return (*buf)[:total], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (w *searchWL) finish(r *run) error { return w.st.close() }
