package main

import (
	"bytes"
	"io"
	"os"
	"time"

	"discfs"
)

// smallioWL is small random I/O beside a cache it does not fit: one
// client holds one file four times the per-file client cache open and
// issues 8 KiB ops, 70% ReadAt / 30% WriteAt, 80% of them in a hot
// region that fits the cache and 20% uniform over the file, with a Sync
// every 512 ops. An op is one ReadAt or WriteAt; an iteration is a
// block of smallBlock ops.
type smallioWL struct {
	sc scale

	st     *stack
	c      *discfs.Client
	f      *discfs.File
	size   int
	shadow []byte // what the file must contain
	src    []byte // bytes written come from here
	buf    []byte
	rnd    *rng
	nops   int
}

const (
	smallIO    = 8 * kib
	syncEvery  = 512
	readPct    = 70
	hotPct     = 80
	smallWarm  = 1
	fileName   = "/data.bin"
	shadowFill = mib
)

func (w *smallioWL) iterations() int { return w.sc.smallIters }

func (w *smallioWL) setup(r *run, round int) error {
	if w.shadow == nil {
		w.size = w.sc.smallFile - newRNG(r.seed, "smallio-size").intn(64*kib)
		w.shadow = make([]byte, w.size)
		w.src = make([]byte, mib)
		w.buf = make([]byte, smallIO)
		newRNG(r.seed, "smallio-src").fill(w.src)
	}
	newRNG(r.seed, "smallio-file").fill(w.shadow)
	// The op sequence restarts every round: rounds are identical.
	w.rnd, w.nops = newRNG(r.seed, "smallio-ops"), 0
	var err error
	cfg := stackConfig{writeBehind: true, tr: r.tr, devBlocks: uint32(2 * w.sc.smallFile / blockSize)}
	if w.st, err = newStack(cfg, r.seed); err != nil {
		return err
	}
	r.lastStack, r.clients = w.st, 1
	if w.c, err = w.st.dial(r.clientOpts...); err != nil {
		return err
	}
	// Populate through the client, as an application would have.
	f, err := w.c.Open(ctx, fileName, os.O_CREATE|os.O_WRONLY)
	if err != nil {
		return err
	}
	for off := 0; off < w.size; off += shadowFill {
		if _, err := f.Write(w.shadow[off:min(off+shadowFill, w.size)]); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if w.f, err = w.c.Open(ctx, fileName, os.O_RDWR); err != nil {
		return err
	}
	return warmUp(w, r, smallWarm)
}

func (w *smallioWL) iterate(r *run, _ int) error {
	lat := make([]float64, 0, w.sc.smallBlock)
	slots := w.size / smallIO
	hot := w.sc.smallHot / smallIO
	t0 := time.Now()
	for n := 0; n < w.sc.smallBlock; n++ {
		slot := w.rnd.intn(slots)
		if w.rnd.intn(100) < hotPct {
			slot = w.rnd.intn(hot)
		}
		off := int64(slot) * smallIO
		if w.rnd.intn(100) < readPct {
			end := r.tr.begin(layerClient, "readat")
			tc := time.Now()
			_, err := w.f.ReadAt(w.buf, off)
			d := time.Since(tc)
			lat = append(lat, float64(d.Nanoseconds())/1e3)
			end(smallIO)
			if err != nil && err != io.EOF {
				return err
			}
			if !r.warm {
				r.rec.attempted++
				r.rec.readBytes += smallIO
				r.rec.readTime += d
			}
			if !bytes.Equal(w.buf, w.shadow[off:off+smallIO]) {
				r.fail("ReadAt(%d) differs from the shadow file", off)
			}
		} else {
			p := w.src[w.rnd.intn(len(w.src)-smallIO):][:smallIO]
			copy(w.shadow[off:], p)
			end := r.tr.begin(layerClient, "writeat")
			tc := time.Now()
			_, err := w.f.WriteAt(p, off)
			d := time.Since(tc)
			lat = append(lat, float64(d.Nanoseconds())/1e3)
			end(smallIO)
			if err != nil {
				return err
			}
			if !r.warm {
				r.rec.writeBytes += smallIO
				r.rec.writeTime += d
			}
		}
		if w.nops++; w.nops%syncEvery == 0 {
			end := r.tr.begin(layerClient, "sync")
			err := w.f.Sync()
			end(0)
			if err != nil {
				return err
			}
		}
	}
	d := time.Since(t0)
	r.sample(w.sc.smallBlock, d, lat)
	if !r.warm {
		r.rec.userBytes += int64(w.sc.smallBlock) * smallIO
	}
	return nil
}

// finish checks the whole file, read back by a fresh client, against
// the shadow.
func (w *smallioWL) finish(r *run) error {
	if err := w.f.Close(); err != nil {
		return err
	}
	if r.rec.storedRatio == 0 {
		used, err := w.st.usedBytes()
		if err != nil {
			return err
		}
		r.rec.storedRatio = float64(used) / float64(w.size)
	}
	w.c.Close()
	c, err := w.st.dial(r.clientOpts...)
	if err != nil {
		return err
	}
	got, err := c.ReadFile(ctx, fileName)
	c.Close()
	if err != nil {
		return err
	}
	if len(got) > 0 && r.injectNow("corrupt") {
		got[len(got)/2] ^= 0x40
	}
	r.rec.attempted++
	if !bytes.Equal(got, w.shadow) {
		r.fail("%s read back (%d bytes) differs from the shadow file (%d bytes)", fileName, len(got), len(w.shadow))
	}
	return w.st.close()
}
