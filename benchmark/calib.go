package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark was defined on is a small shared VM. Within
// minutes, the same binary on the same inputs has run 30-45% slower
// (`share` 721 -> 520 sessions/s between two sets of ten runs, `search`
// 8.3k -> 5.4k files/s inside one batch) when a neighbour contends for
// the CPUs. No statistic over raw times repeats on such a host, so every
// timing is divided by the host's speed at that moment, measured by a
// fixed calibration loop run next to each timed iteration, on every CPU
// at once. The loop is a miniature of what the stack does on the CPU:
// Ed25519 sign and verify, then small AES-GCM-sealed records ping-ponged
// over a loopback TCP connection with a peer goroutine (system calls,
// wake-ups). Only the standard library is used: a change to the program
// cannot move the loop.
//
// Reported times are thus in "reference seconds": seconds of a host on
// which the loop takes calibRef. A code change moves the workload's time
// and not the loop's, so a regression shows unchanged; a slowdown of the
// host's CPUs moves both and cancels, to first order. What the loop does
// not see is memory bandwidth, which has also differed 2.5x between
// process invocations here: loops with large copies in them were tried
// and read so noisily that they added more spread to the data workloads
// than they removed. The run's raw numbers and the slowdown it saw are
// printed with -v, and a traced run reports host.slowdown.

// calibRef is the loop's duration on the defining machine when quiet.
const calibRef = 3 * time.Millisecond

type calibrator struct {
	workers []*calibWorker
	echoes  sync.WaitGroup
}

type calibWorker struct {
	src    []byte
	aead   cipher.AEAD
	sealed []byte
	key    ed25519.PrivateKey
	conn   net.Conn // to an echo goroutine: length-prefixed message out, one byte back
	sink   byte     // keeps the results live
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		w := &calibWorker{src: make([]byte, 64*kib)}
		newRNG(uint64(i), "calib").fill(w.src)
		block, err := aes.NewCipher(w.src[:32])
		if err != nil {
			return nil, err
		}
		if w.aead, err = cipher.NewGCM(block); err != nil {
			return nil, err
		}
		w.sealed = make([]byte, 4, 4+kib)
		w.key = ed25519.NewKeyFromSeed(w.src[32:64])
		var peer net.Conn
		if w.conn, peer, err = pipe(); err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.echoes.Add(1)
		go func() {
			defer c.echoes.Done()
			defer peer.Close()
			buf := make([]byte, 4+kib)
			for {
				if _, err := io.ReadFull(peer, buf[:4]); err != nil {
					return
				}
				n := binary.BigEndian.Uint32(buf)
				if _, err := io.ReadFull(peer, buf[4:4+n]); err != nil {
					return
				}
				if _, err := peer.Write(buf[:1]); err != nil {
					return
				}
			}
		}()
	}
	return c, nil
}

// close ends the echo goroutines and waits for them.
func (c *calibrator) close() {
	for _, w := range c.workers {
		w.conn.Close()
	}
	c.echoes.Wait()
}

// exchange seals plain, sends it to the echo goroutine and waits for
// the one-byte answer.
func (w *calibWorker) exchange(plain []byte) {
	msg := w.aead.Seal(w.sealed[:4], w.src[64:76], plain, nil)
	binary.BigEndian.PutUint32(msg, uint32(len(msg)-4))
	if _, err := w.conn.Write(msg); err != nil {
		return // the calibrator is being closed
	}
	io.ReadFull(w.conn, msg[:1])
	w.sink ^= msg[0]
}

func (w *calibWorker) work() {
	msg := w.src[128:384]
	for i := 0; i < 8; i++ {
		sig := ed25519.Sign(w.key, msg)
		if ed25519.Verify(w.key.Public().(ed25519.PublicKey), msg, sig) {
			w.sink ^= sig[0]
		}
		for j := 0; j < 16; j++ {
			w.exchange(w.src[j*kib : j*kib+256])
		}
	}
}

// run executes the loop on every CPU at once and returns its wall time.
func (c *calibrator) run() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.work()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// slowdown is how much slower than the reference the host is right now
// (1.0: as fast; 1.3: the loop takes 30% longer): the median of three
// loops over the reference.
func (c *calibrator) slowdown() float64 {
	var d [3]float64
	for i := range d {
		d[i] = float64(c.run())
	}
	return median(d[:]) / float64(calibRef)
}
