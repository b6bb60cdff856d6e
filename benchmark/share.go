package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"discfs"
)

// shareWL is the control plane: share sessions against one server, from
// nproc workers. In a session the owner delegates RX on the tree to a
// new key; the grantee dials, submits the two-credential chain
// (admin -> owner -> grantee), reads a 4 KiB file, and has a write
// refused. Every tenth grantee is revoked by the administrator while
// connected: a read on its live connection must fail and its re-dial
// must fail with ErrRevoked. An op is one session; its latency is the time from the
// start of the grantee's Dial to the file's bytes (time to first byte).
// An iteration is a batch of shareBatch sessions. The server's session
// gains one credential per session, so a round of fixed length grows it
// the same way every time.
type shareWL struct {
	sc scale

	st      *stack
	owners  []*discfs.Client // one per worker
	admins  []*discfs.Client
	content []byte
	rootIno uint64
	round   int
}

const (
	sharedFile  = "/shared.bin"
	revokeEvery = 10
	shareWarm   = 1
)

func (w *shareWL) iterations() int { return w.sc.shareBatches }

func (w *shareWL) setup(r *run, round int) error {
	w.round = round
	if w.content == nil {
		w.content = make([]byte, 4*kib-newRNG(r.seed, "share-size").intn(16))
		newRNG(r.seed, "share-file").fill(w.content)
	}
	var err error
	if w.st, err = newStack(stackConfig{cfsNE: true, tr: r.tr, devBlocks: 1024}, r.seed); err != nil {
		return err
	}
	r.lastStack, r.clients = w.st, runtime.GOMAXPROCS(0)
	w.owners, w.admins = nil, nil
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		owner, err := w.st.dial(r.clientOpts...)
		if err != nil {
			return err
		}
		admin, err := discfs.Dial(ctx, w.st.addr, w.st.admin)
		if err != nil {
			return err
		}
		w.owners, w.admins = append(w.owners, owner), append(w.admins, admin)
	}
	if _, _, err := w.owners[0].WriteFile(ctx, sharedFile, w.content); err != nil {
		return err
	}
	w.rootIno = w.owners[0].Root().Ino
	if r.rec.storedRatio == 0 {
		used, err := w.st.usedBytes()
		if err != nil {
			return err
		}
		r.rec.storedRatio = float64(used) / float64(len(w.content))
	}
	return warmUp(w, r, shareWarm)
}

func (w *shareWL) iterate(r *run, i int) error {
	nw := len(w.owners)
	lats := make([][]float64, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := k; j < w.sc.shareBatch; j += nw {
				ttfb, err := w.session(r, k, i, j)
				if err != nil {
					errs[k] = err
					return
				}
				lats[k] = append(lats[k], float64(ttfb.Nanoseconds())/1e3)
			}
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
	r.sample(w.sc.shareBatch, d, lat)
	if !r.warm {
		r.mu.Lock()
		r.rec.userBytes += int64(w.sc.shareBatch * len(w.content))
		r.rec.readBytes += int64(w.sc.shareBatch * len(w.content))
		r.mu.Unlock()
	}
	return nil
}

// errRefused as expect's want accepts any failure.
var errRefused = errors.New("refused")

// expect checks one operation's outcome against the oracle: want is the
// sentinel the error must match, nil for success.
func (r *run) expect(what string, err, want error) {
	if !r.warm {
		r.mu.Lock()
		r.rec.attempted++
		r.mu.Unlock()
	}
	if want != nil && r.injectNow("verdict") {
		err = nil // pretend the server allowed what it must refuse
	}
	switch {
	case want == nil && err != nil:
		r.fail("%s: wrongly refused: %v", what, err)
	case want != nil && err == nil:
		r.fail("%s: wrongly allowed, want %v", what, want)
	case want != nil && want != errRefused && !errors.Is(err, want):
		r.fail("%s: failed with %v, want %v", what, err, want)
	}
}

// session runs share session j of batch i on worker k and returns the
// grantee's time to first byte. Only failures of the harness's own side
// (the owner's delegation) are returned as errors; everything the
// grantee does is an outcome for the oracle.
func (w *shareWL) session(r *run, k, i, j int) (time.Duration, error) {
	grantee := discfs.DeterministicKey(fmt.Sprintf("grantee-%d-%d-%d-%d", r.seed, w.round, i, j))
	end := r.tr.begin(layerClient, "delegate")
	deleg, err := w.owners[k].Delegate(ctx, grantee.Principal, w.rootIno, "RX", "share session")
	end(0)
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	end = r.tr.begin(layerClient, "dial")
	g, err := discfs.Dial(ctx, w.st.addr, grantee)
	end(0)
	r.expect("grantee dial", err, nil)
	if err != nil {
		return time.Since(t0), nil
	}
	defer g.Close()
	end = r.tr.begin(layerClient, "submit")
	_, err = g.SubmitCredentials(ctx, w.st.cred, deleg)
	end(0)
	r.expect("submit chain", err, nil)
	end = r.tr.begin(layerClient, "readfile")
	data, err := g.ReadFile(ctx, sharedFile)
	end(len(data))
	ttfb := time.Since(t0)
	r.expect("grantee read", err, nil)
	if err == nil && !bytes.Equal(data, w.content) {
		r.fail("grantee read %d bytes that differ from the shared file", len(data))
	}

	end = r.tr.begin(layerClient, "writefile")
	_, _, err = g.WriteFile(ctx, sharedFile, w.content[:16])
	end(0)
	r.expect("grantee write", err, discfs.ErrAccessDenied)

	if j%revokeEvery == revokeEvery-1 {
		end = r.tr.begin(layerClient, "revoke")
		_, err = w.admins[k].RevokeKey(ctx, grantee.Principal)
		end(0)
		r.expect("admin revoke", err, nil)
		end = r.tr.begin(layerClient, "readfile")
		_, err = g.ReadFile(ctx, sharedFile)
		end(0)
		// The server cuts a revoked principal's connections; the call in
		// flight sees the cut (EOF), later ones the refused re-handshake.
		r.expect("read on revoked connection", err, errRefused)
		end = r.tr.begin(layerClient, "dial")
		g2, err := discfs.Dial(ctx, w.st.addr, grantee)
		end(0)
		r.expect("re-dial after revocation", err, discfs.ErrRevoked)
		if err == nil {
			g2.Close()
		}
	}
	return ttfb, nil
}

func (w *shareWL) finish(r *run) error {
	for i := range w.owners {
		w.owners[i].Close()
		w.admins[i].Close()
	}
	return w.st.close()
}
