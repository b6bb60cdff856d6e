package secchan

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/keynote"
)

// Tests of the listener's concurrent handshakes: each runs on its own
// goroutine, so a peer that stalls its handshake, or an Authorize call
// that waits, delays no other peer; the handshakes in flight are
// bounded; and Close cuts the ones in progress.

// listen starts a Listener on a loopback port, with a goroutine that
// accepts from it and sends each channel to the returned channel. Close
// the Listener to stop it.
func listen(t *testing.T, cfg Config) (*Listener, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := NewListener(ln, cfg)
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := sl.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	return sl, accepted
}

// silentPeer connects to addr and sends nothing.
func silentPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitHandshakes waits until n server handshakes have started since
// base (a Stats.Handshakes reading).
func waitHandshakes(t *testing.T, base uint64, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ReadStats().Handshakes-base < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d handshakes started, want %d", ReadStats().Handshakes-base, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// dialIn dials addr as the named key with a context of d.
func dialIn(addr, name string, d time.Duration) (*Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return DialContext(ctx, addr, Config{Identity: keynote.DeterministicKey(name)})
}

// TestSilentPeerDoesNotDelayDial: a TCP peer that connects and sends
// nothing holds its own handshake only; a Dial behind it completes in
// well under a second.
func TestSilentPeerDoesNotDelayDial(t *testing.T) {
	base := ReadStats().Handshakes
	sl, accepted := listen(t, Config{Identity: keynote.DeterministicKey("s")})
	defer sl.Close()
	silentPeer(t, sl.Addr().String())
	waitHandshakes(t, base, 1)

	start := time.Now()
	conn, err := dialIn(sl.Addr().String(), "c", 2*time.Second)
	if err != nil {
		t.Fatalf("Dial behind a silent peer: %v", err)
	}
	defer conn.Close()
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Dial behind a silent peer took %v", d)
	}
	(<-accepted).Close()
}

// TestGatedAuthorizeHoldsOnlyItsOwnHandshake: Authorize waits for one
// principal until released — as the federation's handshake gate holds a
// non-admin — and meanwhile another principal's Dial completes, as a
// peer server's admin feed connection must.
func TestGatedAuthorizeHoldsOnlyItsOwnHandshake(t *testing.T) {
	gated := keynote.DeterministicKey("gated").Principal
	entered, release := make(chan struct{}), make(chan struct{})
	sl, accepted := listen(t, Config{
		Identity: keynote.DeterministicKey("s"),
		Authorize: func(p keynote.Principal) ([]byte, error) {
			if p == gated {
				close(entered)
				<-release
			}
			return nil, nil
		},
	})
	defer sl.Close()
	type dialed struct {
		conn *Conn
		err  error
	}
	first := make(chan dialed, 1)
	go func() {
		conn, err := dialIn(sl.Addr().String(), "gated", 10*time.Second)
		first <- dialed{conn, err}
	}()
	<-entered

	conn, err := dialIn(sl.Addr().String(), "admin", 2*time.Second)
	if err != nil {
		close(release)
		t.Fatalf("Dial while another peer's Authorize waits: %v", err)
	}
	conn.Close()
	if sc := <-accepted; sc.(*Conn).Peer() != keynote.DeterministicKey("admin").Principal {
		t.Errorf("accepted %s first, want the ungated peer", sc.(*Conn).Peer().Short())
	}

	close(release)
	d := <-first
	if d.err != nil {
		t.Fatalf("the gated Dial after release: %v", d.err)
	}
	d.conn.Close()
	(<-accepted).Close()
}

// TestCloseCutsHandshakesInProgress: Close with handshakes waiting on
// silent peers returns the goroutine count to where it was before the
// listener started, within a second rather than the handshake timeout.
func TestCloseCutsHandshakesInProgress(t *testing.T) {
	before := runtime.NumGoroutine()
	base := ReadStats().Handshakes
	sl, _ := listen(t, Config{Identity: keynote.DeterministicKey("s")})
	const peers = 8
	for range peers {
		silentPeer(t, sl.Addr().String())
	}
	waitHandshakes(t, base, peers)
	start := time.Now()
	sl.Close()
	for runtime.NumGoroutine() > before {
		if time.Since(start) > time.Second {
			t.Fatalf("%d goroutines a second after Close, %d before the listener", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandshakeBoundQueuesThenAdmits: with maxHandshakes silent peers
// in flight the next Dial waits in the backlog; once one of them is
// cut, it completes.
func TestHandshakeBoundQueuesThenAdmits(t *testing.T) {
	base := ReadStats().Handshakes
	sl, accepted := listen(t, Config{Identity: keynote.DeterministicKey("s"),
		handshakeTimeout: time.Minute})
	defer sl.Close()
	var last net.Conn
	for range maxHandshakes {
		last = silentPeer(t, sl.Addr().String())
	}
	waitHandshakes(t, base, maxHandshakes)

	dialed := make(chan error, 1)
	go func() {
		conn, err := dialIn(sl.Addr().String(), "c", 10*time.Second)
		if err == nil {
			conn.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		t.Fatalf("Dial past the handshake bound returned %v while every slot was held", err)
	case <-time.After(200 * time.Millisecond):
	}
	last.Close() // the most recent silent peer, not the first
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("Dial once a slot was freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial did not complete after a silent peer was cut")
	}
	(<-accepted).Close()
}

// TestClientAuthHeaderTakesNoLargeBuffer: after a valid ClientHello, a
// record header claiming 1 MiB ends the handshake before any buffer
// larger than the staging buffer is taken for it.
func TestClientAuthHeaderTakesNoLargeBuffer(t *testing.T) {
	big := func() (gets int64) {
		for n := 2 * stageSize; n <= bufpool.MaxPooled; n *= 2 {
			gets += bufpool.ClassStats(n).Gets
		}
		return gets
	}
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	before := big()
	done := make(chan error, 1)
	go func() {
		_, err := Server(sRaw, Config{Identity: keynote.DeterministicKey("s")})
		sRaw.Close()
		done <- err
	}()
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, nonceLen)
	if err := writeMsg(cRaw, msgClientHello, []byte{protoVersion}, eph.PublicKey().Bytes(), nonce); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(cRaw, msgServerHello, 4); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20)
	if _, err := cRaw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	cRaw.Close()
	if err := <-done; !errors.Is(err, ErrHandshake) {
		t.Errorf("handshake with a 1 MiB ClientAuth header = %v, want ErrHandshake", err)
	}
	if got := big() - before; got != 0 {
		t.Errorf("the ClientAuth header took %d buffers larger than %d KiB", got, stageSize>>10)
	}
}
