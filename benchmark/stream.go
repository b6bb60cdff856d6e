package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"discfs"
)

// streamWL is the bulk data plane: per iteration one client writes a
// file in 1 MiB application writes + Sync + Close, then a freshly
// dialed client (cold cache) reads it back in 1 MiB reads. An op is one
// 1 MiB Write or Read call.
//
// stream: 64 MiB files on plain ffs, unlinked after each iteration.
// stream-dedup: 32 MiB files on the dedup store, kept for the round so
// that cross-file duplicates are found deterministically; half of each
// file's 1 MiB segments come from a pool shared by the round's files.
type streamWL struct {
	sc    scale
	dedup bool

	st     *stack
	writer *discfs.Client
	size   int    // this seed's file size: nominal minus a ragged tail
	pool   []byte // stream: content source; dedup: the shared segments
	data   []byte // dedup: the current file's content
	rbuf   []byte
	round  int
	live   int64 // bytes in files currently on the server
}

const (
	appIO       = mib // application read/write size
	dedupSeg    = mib // duplicate granule: ~16 chunks at the 63 KiB average
	dedupPoolSz = 8   // shared segments a round
)

func (w *streamWL) nominal() int {
	if w.dedup {
		return w.sc.dedupFile
	}
	return w.sc.streamFile
}

// fileSize is the seed's file size. Files end in a ragged tail (real
// files are not block multiples); it also makes stored-bytes accounting
// depend on the seed.
func (w *streamWL) fileSize(seed uint64) int {
	return w.nominal() - newRNG(seed, "stream-size").intn(64*kib)
}

func (w *streamWL) iterations() int {
	if w.dedup {
		return w.sc.dedupFiles - 1 // the first file of a round is its warm-up
	}
	return w.sc.streamIters
}

func (w *streamWL) setup(r *run, round int) error {
	w.round, w.live = round, 0
	if w.rbuf == nil {
		w.size = w.fileSize(r.seed)
		w.rbuf = make([]byte, w.size)
		if w.dedup {
			w.data = make([]byte, w.size)
		} else {
			w.pool = make([]byte, w.size+mib)
			newRNG(r.seed, "stream-pool").fill(w.pool)
		}
	}
	if w.dedup {
		w.pool = make([]byte, dedupPoolSz*dedupSeg)
		newRNG(r.seed, fmt.Sprintf("dedup-pool-%d", round)).fill(w.pool)
	}
	blocks := uint32(w.nominal() / blockSize)
	cfg := stackConfig{writeBehind: true, dedup: w.dedup, tr: r.tr, devBlocks: 3 * blocks}
	if w.dedup {
		cfg.devBlocks = uint32(w.sc.dedupFiles+2) * blocks
	}
	var err error
	if w.st, err = newStack(cfg, r.seed); err != nil {
		return err
	}
	r.lastStack, r.clients = w.st, 1
	if w.writer, err = w.st.dial(r.clientOpts...); err != nil {
		return err
	}
	warm := w.sc.streamWarm
	if w.dedup {
		warm = 1
	}
	return warmUp(w, r, warm)
}

// content returns iteration i's file bytes.
func (w *streamWL) content(r *run, i int) []byte {
	if !w.dedup {
		// A different window of the pool each iteration: new content at
		// no generation cost.
		off := (i + w.sc.streamWarm) * 4104 % mib
		return w.pool[off : off+w.size]
	}
	// Exactly half of the segments (a seeded choice of positions) repeat
	// pool segments — within and across the round's files — and the rest
	// are unique.
	rnd := newRNG(r.seed, fmt.Sprintf("dedup-file-%d-%d", w.round, i))
	nseg := (w.size + dedupSeg - 1) / dedupSeg
	dup := make([]bool, nseg)
	for n := 0; n < nseg/2; {
		if k := rnd.intn(nseg); !dup[k] {
			dup[k] = true
			n++
		}
	}
	for k := 0; k < nseg; k++ {
		seg := w.data[k*dedupSeg : min((k+1)*dedupSeg, w.size)]
		if dup[k] {
			p := rnd.intn(dedupPoolSz)
			copy(seg, w.pool[p*dedupSeg:])
		} else {
			rnd.fill(seg)
		}
	}
	return w.data
}

func (w *streamWL) iterate(r *run, i int) error {
	data := w.content(r, i)
	name := fmt.Sprintf("/f%04d", i+w.sc.streamWarm)
	nops := (w.size + appIO - 1) / appIO
	lat := make([]float64, 0, 2*nops)

	// Write phase: Open, 1 MiB writes, Sync, Close.
	t0 := time.Now()
	end := r.tr.begin(layerClient, "open")
	f, err := w.writer.Open(ctx, name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	end(0)
	if err != nil {
		return err
	}
	for off := 0; off < w.size; off += appIO {
		p := data[off:min(off+appIO, w.size)]
		end := r.tr.begin(layerClient, "write")
		tc := time.Now()
		_, err := f.Write(p)
		lat = append(lat, float64(time.Since(tc).Nanoseconds())/1e3)
		end(len(p))
		if err != nil {
			return err
		}
	}
	end = r.tr.begin(layerClient, "sync")
	err = f.Sync()
	end(0)
	if err != nil {
		return err
	}
	end = r.tr.begin(layerClient, "close")
	err = f.Close()
	end(0)
	if err != nil {
		return err
	}
	wdur := time.Since(t0)
	w.live += int64(w.size)

	// Read phase: a fresh client, so nothing is cached on its side.
	reader, err := w.st.dial(r.clientOpts...)
	if err != nil {
		return err
	}
	defer reader.Close()
	t1 := time.Now()
	end = r.tr.begin(layerClient, "open")
	rf, err := reader.Open(ctx, name, os.O_RDONLY)
	end(0)
	if err != nil {
		return err
	}
	got := 0
	for got < w.size {
		p := w.rbuf[got:min(got+appIO, w.size)]
		end := r.tr.begin(layerClient, "read")
		tc := time.Now()
		n, err := io.ReadFull(rf, p)
		lat = append(lat, float64(time.Since(tc).Nanoseconds())/1e3)
		end(n)
		got += n
		if err != nil {
			break // a short file is the oracle's to report
		}
	}
	end = r.tr.begin(layerClient, "close")
	err = rf.Close()
	end(0)
	if err != nil {
		return err
	}
	rdur := time.Since(t1)
	r.sample(2*nops, wdur+rdur, lat)

	// Oracle: every 1 MiB piece read back equals what was written.
	if r.injectNow("corrupt") {
		w.rbuf[w.size/2] ^= 0x40
	}
	for off := 0; off < w.size; off += appIO {
		hi := min(off+appIO, w.size)
		if !r.warm {
			r.rec.attempted += 2
		}
		if hi > got || !bytes.Equal(w.rbuf[off:hi], data[off:hi]) {
			r.fail("%s: bytes [%d,%d) read back differ from those written", name, off, hi)
		}
	}
	if !r.warm {
		r.rec.userBytes += 2 * int64(w.size)
		r.rec.writeBytes += int64(w.size)
		r.rec.readBytes += int64(w.size)
		r.rec.writeTime += wdur
		r.rec.readTime += rdur
	}
	if w.dedup {
		return nil
	}
	if r.rec.storedRatio == 0 && !r.warm {
		used, err := w.st.usedBytes()
		if err != nil {
			return err
		}
		r.rec.storedRatio = float64(used) / float64(w.live)
	}
	w.live -= int64(w.size)
	return w.writer.NFS().Remove(ctx, w.writer.Root(), name[1:])
}

func (w *streamWL) finish(r *run) error {
	if w.dedup {
		w.st.dd.SweepNow()
		res, err := w.st.dd.Verify()
		if err != nil {
			return err
		}
		r.rec.attempted++
		if res.RefMismatch != 0 || res.MissingChunk != 0 {
			r.fail("dedup.Verify: %+v", res)
		}
		if r.rec.storedRatio == 0 {
			used, err := w.st.usedBytes()
			if err != nil {
				return err
			}
			r.rec.storedRatio = float64(used) / float64(w.live)
		}
	}
	w.writer.Close()
	return w.st.close()
}
