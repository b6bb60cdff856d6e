package secchan

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"discfs/internal/keynote"
)

// pipePair runs both handshake ends over an in-memory duplex pipe.
func pipePair(t *testing.T, serverCfg, clientCfg Config) (client, server *Conn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	var wg sync.WaitGroup
	var sErr, cErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		server, sErr = Server(sRaw, serverCfg)
	}()
	go func() {
		defer wg.Done()
		client, cErr = Client(cRaw, clientCfg)
	}()
	wg.Wait()
	if sErr != nil || cErr != nil {
		t.Fatalf("handshake: server=%v client=%v", sErr, cErr)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

func TestHandshakeExchangesIdentities(t *testing.T) {
	serverKey := keynote.DeterministicKey("server")
	clientKey := keynote.DeterministicKey("client")
	client, server := pipePair(t,
		Config{Identity: serverKey}, Config{Identity: clientKey})
	if server.Peer() != clientKey.Principal {
		t.Errorf("server sees peer %s, want client", server.Peer().Short())
	}
	if client.Peer() != serverKey.Principal {
		t.Errorf("client sees peer %s, want server", client.Peer().Short())
	}
	if server.PeerID() != string(clientKey.Principal) {
		t.Error("PeerID mismatch")
	}
	if client.Welcome() != nil {
		t.Errorf("welcome %q from a server with no Authorize", client.Welcome())
	}
}

// TestWelcomeRidesTheAccept: what Authorize returns for the peer it
// accepts reaches the initiator in the ServerAccept record, and the
// channel then carries application data as usual.
func TestWelcomeRidesTheAccept(t *testing.T) {
	clientKey := keynote.DeterministicKey("client")
	var asked keynote.Principal
	client, server := pipePair(t,
		Config{Identity: keynote.DeterministicKey("server"), Authorize: func(p keynote.Principal) ([]byte, error) {
			asked = p
			return []byte("root+grant+verifier"), nil
		}},
		Config{Identity: clientKey})
	if asked != clientKey.Principal {
		t.Errorf("Authorize asked about %s, want the client", asked.Short())
	}
	if got := string(client.Welcome()); got != "root+grant+verifier" {
		t.Errorf("Welcome() = %q", got)
	}
	go client.Write([]byte("after"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "after" {
		t.Errorf("first record after the welcome: %q, %v", buf, err)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	client, server := pipePair(t,
		Config{Identity: keynote.DeterministicKey("s")},
		Config{Identity: keynote.DeterministicKey("c")})

	msg1 := []byte("hello from client")
	msg2 := []byte("hello from server")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		client.Write(msg1)
		buf := make([]byte, len(msg2))
		if _, err := io.ReadFull(client, buf); err != nil || !bytes.Equal(buf, msg2) {
			t.Errorf("client read %q, %v", buf, err)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, len(msg1))
		if _, err := io.ReadFull(server, buf); err != nil || !bytes.Equal(buf, msg1) {
			t.Errorf("server read %q, %v", buf, err)
		}
		server.Write(msg2)
	}()
	wg.Wait()
}

func TestLargeTransferFragmentsIntoRecords(t *testing.T) {
	client, server := pipePair(t,
		Config{Identity: keynote.DeterministicKey("s")},
		Config{Identity: keynote.DeterministicKey("c")})
	data := make([]byte, 3*maxRecord+777)
	for i := range data {
		data[i] = byte(i * 13)
	}
	go func() {
		client.Write(data)
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("large transfer corrupted")
	}
}

func TestAuthorizeCallbackRejects(t *testing.T) {
	serverKey := keynote.DeterministicKey("server")
	badClient := keynote.DeterministicKey("bad-client")
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	defer sRaw.Close()
	var wg sync.WaitGroup
	var sErr, cErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, sErr = Server(sRaw, Config{
			Identity: serverKey,
			Authorize: func(p keynote.Principal) ([]byte, error) {
				return []byte("never sent"), fmt.Errorf("key %s is revoked", p.Short())
			},
		})
	}()
	go func() {
		defer wg.Done()
		_, cErr = Client(cRaw, Config{Identity: badClient})
	}()
	wg.Wait()
	if !errors.Is(sErr, ErrRejected) {
		t.Errorf("server err = %v, want ErrRejected", sErr)
	}
	// The verdict record delivers the rejection to the initiator too.
	if !errors.Is(cErr, ErrRejected) {
		t.Errorf("client err = %v, want ErrRejected", cErr)
	}
	if errors.Is(cErr, ErrKeyRevoked) {
		t.Errorf("client err = %v, must not claim revocation for a generic rejection", cErr)
	}
}

func TestAuthorizeRevokedReachesClient(t *testing.T) {
	serverKey := keynote.DeterministicKey("server")
	revoked := keynote.DeterministicKey("revoked-client")
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	defer sRaw.Close()
	var wg sync.WaitGroup
	var cErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = Server(sRaw, Config{
			Identity:  serverKey,
			Authorize: func(p keynote.Principal) ([]byte, error) { return nil, ErrKeyRevoked },
		})
	}()
	go func() {
		defer wg.Done()
		_, cErr = Client(cRaw, Config{Identity: revoked})
	}()
	wg.Wait()
	if !errors.Is(cErr, ErrKeyRevoked) {
		t.Errorf("client err = %v, want ErrKeyRevoked", cErr)
	}
}

// tamperConn wraps a net.Conn and flips a byte in the nth written record
// payload, simulating an on-path attacker.
type tamperConn struct {
	net.Conn
	mu      sync.Mutex
	records int
	target  int
}

func (tc *tamperConn) Write(p []byte) (int, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Record writes arrive as header then body; count bodies by pairs.
	tc.records++
	if tc.records == tc.target && len(p) > 0 {
		q := make([]byte, len(p))
		copy(q, p)
		q[len(q)/2] ^= 0x40
		return tc.Conn.Write(q)
	}
	return tc.Conn.Write(p)
}

func TestTamperingDetected(t *testing.T) {
	cRaw, sRaw := net.Pipe()
	serverKey := keynote.DeterministicKey("s")
	clientKey := keynote.DeterministicKey("c")
	var server *Conn
	var sErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, sErr = Server(sRaw, Config{Identity: serverKey})
	}()
	// Handshake goes through untampered; tamper with the post-handshake
	// data record. Client writes: ClientHello, ClientAuth record, then
	// the data record = write #3.
	tc := &tamperConn{Conn: cRaw, target: 3}
	client, cErr := Client(tc, Config{Identity: clientKey})
	wg.Wait()
	if sErr != nil || cErr != nil {
		t.Fatalf("handshake: %v / %v", sErr, cErr)
	}
	defer client.Close()
	defer server.Close()

	go client.Write([]byte("this record will be corrupted in flight"))
	buf := make([]byte, 64)
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := server.Read(buf)
	if !errors.Is(err, ErrRecord) {
		t.Errorf("read of tampered record = %v, want ErrRecord", err)
	}
}

// TestReplayDetected replays a captured record; the strict sequence
// numbering must reject it.
func TestReplayDetected(t *testing.T) {
	// Build a raw TCP pair so we can capture bytes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverKey := keynote.DeterministicKey("s")
	clientKey := keynote.DeterministicKey("c")
	var server *Conn
	var sErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw, err := ln.Accept()
		if err != nil {
			sErr = err
			return
		}
		server, sErr = Server(raw, Config{Identity: serverKey})
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(raw, Config{Identity: clientKey})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if sErr != nil {
		t.Fatal(sErr)
	}
	defer client.Close()
	defer server.Close()

	// Send one legitimate record and read it.
	if _, err := client.Write([]byte("legitimate")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "legitimate" {
		t.Fatalf("first read: %q %v", buf[:n], err)
	}

	// Capture the ciphertext of a second record by re-encrypting… we
	// can't intercept the TCP stream post-hoc, so instead inject a
	// duplicate of a record we construct: write a record, then write the
	// very same ciphertext bytes again directly to the raw socket.
	c2 := client
	// Seal a record with the client's current sequence number manually.
	c2.wmu.Lock()
	seq := c2.wseq
	var nonceBuf [12]byte
	nonce := sealNonce(&nonceBuf, seq)
	ct := c2.waead.Seal(nil, nonce, []byte("replayable"), nonce[4:])
	c2.wseq++
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(ct)))
	raw.Write(hdr[:])
	raw.Write(ct)
	// Replay the identical bytes: the server's receive sequence has
	// advanced, so authentication must fail.
	raw.Write(hdr[:])
	raw.Write(ct)
	c2.wmu.Unlock()

	n, err = server.Read(buf)
	if err != nil || string(buf[:n]) != "replayable" {
		t.Fatalf("original record: %q %v", buf[:n], err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = server.Read(buf)
	if !errors.Is(err, ErrRecord) {
		t.Errorf("replayed record = %v, want ErrRecord", err)
	}
}

func TestServerImpersonationFails(t *testing.T) {
	// A MITM replaying the server hello with its own identity but
	// without the private key cannot produce a valid signature: here we
	// simply check that a wrong signature aborts the client.
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	defer sRaw.Close()
	go func() {
		// Fake server: reads ClientHello, replies with garbage signature.
		fields, err := readMsg(sRaw, msgClientHello, 3)
		if err != nil {
			return
		}
		_ = fields
		id := keynote.DeterministicKey("fake")
		pub := id.Signer().(ed25519.PrivateKey).Public().(ed25519.PublicKey)
		sig := make([]byte, ed25519.SignatureSize)
		eph := make([]byte, 32)
		nonce := make([]byte, nonceLen)
		writeMsg(sRaw, msgServerHello, eph, nonce, pub, sig)
	}()
	_, err := Client(cRaw, Config{Identity: keynote.DeterministicKey("c")})
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("client err = %v, want ErrHandshake", err)
	}
}

func TestHandshakeGarbageRejected(t *testing.T) {
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	go func() {
		cRaw.Write([]byte{0, 0, 0, 5, 99, 1, 2, 3, 4}) // bogus message type
	}()
	_, err := Server(sRaw, Config{Identity: keynote.DeterministicKey("s"),
		handshakeTimeout: 2 * time.Second})
	if err == nil {
		t.Error("garbage handshake accepted")
	}
	sRaw.Close()
}

func TestListenerSurvivesBadPeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := NewListener(ln, Config{Identity: keynote.DeterministicKey("s"),
		handshakeTimeout: time.Second})
	defer sl.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := sl.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	// First: a garbage peer that immediately disconnects.
	junk, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	junk.Write([]byte("not a handshake at all-------"))
	junk.Close()
	// Then a real client; the listener must still accept it.
	conn, err := Dial(ln.Addr().String(), Config{Identity: keynote.DeterministicKey("c")})
	if err != nil {
		t.Fatalf("Dial after junk peer: %v", err)
	}
	defer conn.Close()
	select {
	case sc := <-accepted:
		if sc.(*Conn).Peer() != keynote.DeterministicKey("c").Principal {
			t.Error("accepted wrong peer")
		}
		sc.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("listener did not accept the good client")
	}
}

func TestHKDFProperties(t *testing.T) {
	// Deterministic, length-exact, and sensitive to every input.
	a := hkdf([]byte("secret"), []byte("salt"), "info", 64)
	b := hkdf([]byte("secret"), []byte("salt"), "info", 64)
	if !bytes.Equal(a, b) {
		t.Error("hkdf not deterministic")
	}
	if len(a) != 64 {
		t.Errorf("len = %d", len(a))
	}
	for _, alt := range [][]byte{
		hkdf([]byte("Secret"), []byte("salt"), "info", 64),
		hkdf([]byte("secret"), []byte("Salt"), "info", 64),
		hkdf([]byte("secret"), []byte("salt"), "Info", 64),
	} {
		if bytes.Equal(a, alt) {
			t.Error("hkdf ignores an input")
		}
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	client, server := pipePair(t,
		Config{Identity: keynote.DeterministicKey("s")},
		Config{Identity: keynote.DeterministicKey("c")})
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		errc := make(chan error, 1)
		go func() {
			_, err := client.Write(payload)
			errc <- err
		}()
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(server, got); err != nil {
			return false
		}
		if err := <-errc; err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pipePairCfg is pipePair with full configs for both ends.
func pipePairCfg(t *testing.T, serverCfg, clientCfg Config) (client, server *Conn) {
	t.Helper()
	return pipePair(t, serverCfg, clientCfg)
}

// TestRekeyingTransfersAcrossSALifetimes pushes enough records through a
// channel with a tiny SA lifetime to force several key ratchets in both
// directions; data must survive and stay ordered.
func TestRekeyingTransfersAcrossSALifetimes(t *testing.T) {
	sCfg := Config{Identity: keynote.DeterministicKey("s"), saRecords: 8}
	cCfg := Config{Identity: keynote.DeterministicKey("c"), saRecords: 8}
	client, server := pipePairCfg(t, sCfg, cCfg)

	const rounds = 50 // >> 8: several ratchets
	go func() {
		for i := 0; i < rounds; i++ {
			msg := []byte{byte(i), byte(i >> 8)}
			if _, err := client.Write(msg); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 2)
	for i := 0; i < rounds; i++ {
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("record %d corrupted after rekey: %v", i, buf)
		}
	}
	// And the reverse direction.
	go func() {
		for i := 0; i < rounds; i++ {
			server.Write([]byte{byte(i)})
		}
	}()
	one := make([]byte, 1)
	for i := 0; i < rounds; i++ {
		if _, err := io.ReadFull(client, one); err != nil {
			t.Fatalf("reverse read %d: %v", i, err)
		}
		if one[0] != byte(i) {
			t.Fatalf("reverse record %d corrupted: %v", i, one)
		}
	}
}

// TestRekeyMismatchBreaksChannel: ends configured with different SA
// lifetimes must fail authentication at the first boundary — a
// misconfiguration is detected, not silently accepted.
func TestRekeyMismatchBreaksChannel(t *testing.T) {
	sCfg := Config{Identity: keynote.DeterministicKey("s"), saRecords: 4}
	cCfg := Config{Identity: keynote.DeterministicKey("c"), saRecords: 1000000}
	client, server := pipePairCfg(t, sCfg, cCfg)

	go func() {
		// Write enough records to cross the server's boundary. The
		// server's read seq starts at 1 (ClientAuth was record 0). The
		// pipe is synchronous, so this goroutine blocks once the server
		// stops reading; the test cleanup closing the conns unblocks it.
		for i := 0; i < 10; i++ {
			if _, err := client.Write([]byte("x")); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 1)
	var err error
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 10; i++ {
		if _, err = server.Read(buf); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrRecord) {
		t.Errorf("mismatched rekey config: err = %v, want ErrRecord", err)
	}
}

// TestRatchetIsOneWay: the ratcheted key differs and the old key cannot
// be recovered from the new one (we can only check difference and
// determinism here; one-wayness follows from HKDF).
func TestRatchetIsOneWay(t *testing.T) {
	k0 := []byte("0123456789abcdef0123456789abcdef")
	k1 := ratchet(k0)
	k1b := ratchet(k0)
	if !bytes.Equal(k1, k1b) {
		t.Error("ratchet not deterministic")
	}
	if bytes.Equal(k0, k1) {
		t.Error("ratchet returned the input key")
	}
	if len(k1) != 32 {
		t.Errorf("ratcheted key length %d", len(k1))
	}
	k2 := ratchet(k1)
	if bytes.Equal(k1, k2) {
		t.Error("second ratchet returned its input")
	}
}
