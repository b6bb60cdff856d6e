package secchan

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"discfs/internal/bufpool"
	"discfs/internal/keynote"
)

// sinkConn satisfies net.Conn for tests that only exercise Write.
type sinkConn struct {
	net.Conn
	w io.Writer
}

func (s sinkConn) Write(p []byte) (int, error) { return s.w.Write(p) }

// recordPair wires a writing Conn to a reading Conn through an
// in-memory buffer, sharing one traffic key — just the record layer, no
// handshake.
func recordPair(t testing.TB) (*Conn, *Conn, *bytes.Buffer) {
	t.Helper()
	key := bytes.Repeat([]byte{0x42}, 32)
	wa, err := newAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := newAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	var pipe bytes.Buffer
	wc := &Conn{raw: sinkConn{w: &pipe}, waead: wa, wkey: key}
	rc := &Conn{br: &stage{raw: &pipe}, raead: ra, rkey: key}
	return wc, rc, &pipe
}

// TestRecordLayerAllocs is the allocation guard for the data plane's
// crypto hop: sealing reuses the connection's wbuf and opening decrypts
// in place in a pooled buffer, so a steady-state record round trip must
// not allocate per-record buffers (the small constant covers the GCM
// interface call's nonce/AAD escapes and an occasional pool miss).
func TestRecordLayerAllocs(t *testing.T) {
	wc, rc, _ := recordPair(t)
	payload := make([]byte, 256<<10)
	out := make([]byte, len(payload))

	roundTrip := func() {
		if _, err := wc.Write(payload); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); {
			m, err := rc.Read(out[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += m
		}
	}
	roundTrip() // warm: sizes wbuf and rawbuf

	allocs := testing.AllocsPerRun(50, roundTrip)
	if allocs > 8 {
		t.Errorf("record round trip allocates %.1f objects/op; the seal/open buffers must be reused", allocs)
	}
}

// TestReadRecordHandsOverPooledBuffer: ReadRecord returns each record's
// plaintext whole in a buffer the caller's Put recycles, and refuses a
// connection on which Read holds part of a record.
func TestReadRecordHandsOverPooledBuffer(t *testing.T) {
	wc, rc, _ := recordPair(t)
	base := bufpool.Outstanding()
	msgs := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 300<<10), {}, bytes.Repeat([]byte{3}, 9)}
	for _, m := range msgs {
		if _, err := wc.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	wc.recycle()
	for i, w := range msgs[:2] { // an empty Write sends no record
		rec, err := rc.ReadRecord()
		if err != nil || !bytes.Equal(rec, w) {
			t.Fatalf("record %d: %d bytes, err=%v; want %d bytes", i, len(rec), err, len(w))
		}
		puts := bufpool.Stats().Puts
		bufpool.Put(rec)
		if bufpool.Stats().Puts != puts+1 {
			t.Errorf("record %d: capacity %d is not a pool size class", i, cap(rec))
		}
	}
	var head [4]byte
	if n, err := rc.Read(head[:]); err != nil || n != len(head) {
		t.Fatalf("Read: %d, %v", n, err)
	}
	if _, err := rc.ReadRecord(); err == nil {
		t.Error("ReadRecord succeeded with a partly read record pending")
	}
	rc.recycle()
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Errorf("%d pooled buffers still out", d)
	}
}

// TestRecordLayerLargeRecord: a maximal record (1 MiB class) round-trips
// through one seal/open.
func TestRecordLayerLargeRecord(t *testing.T) {
	wc, rc, _ := recordPair(t)
	payload := make([]byte, maxRecord)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err := wc.Write(payload); err != nil {
		t.Fatal(err)
	}
	if wc.wseq != 1 {
		t.Fatalf("payload of %d split into %d records, want 1", len(payload), wc.wseq)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(readerOnly{rc}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large record corrupted")
	}
}

// TestHandshakeAllocBytes: a handshake pair costs its crypto, not
// transfer-sized read buffers — the staging buffers come from the pool
// and go back to it at close.
func TestHandshakeAllocBytes(t *testing.T) {
	sCfg := Config{Identity: keynote.DeterministicKey("s")}
	cCfg := Config{Identity: keynote.DeterministicKey("c")}
	pair := func() {
		cRaw, sRaw := net.Pipe()
		done := make(chan error, 1)
		go func() {
			sc, err := Server(sRaw, sCfg)
			if err == nil {
				sc.Close()
			}
			done <- err
		}()
		cc, err := Client(cRaw, cCfg)
		if err != nil {
			t.Fatal(err)
		}
		cc.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm the pool
	const pairs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range pairs {
		pair()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / pairs; per >= 32<<10 {
		t.Errorf("a handshake pair allocates %d bytes, want under 32 KiB", per)
	}
}

// countingConn counts the read calls that reach the transport.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestOneReadCallPerSmallRecord: the read that fetches a small record's
// header brings the record in whole, and each handshake message arrives
// in one segment: the server's side of a handshake (ClientHello, then
// the ClientAuth record) takes two read calls.
func TestOneReadCallPerSmallRecord(t *testing.T) {
	cRaw, sRaw := net.Pipe()
	counted := &countingConn{Conn: sRaw}
	var server *Conn
	var sErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, sErr = Server(counted, Config{Identity: keynote.DeterministicKey("s")})
	}()
	client, err := Client(cRaw, Config{Identity: keynote.DeterministicKey("c")})
	<-done
	if err != nil || sErr != nil {
		t.Fatalf("handshake: %v / %v", err, sErr)
	}
	defer client.Close()
	defer server.Close()
	if got := counted.reads.Load(); got != 2 {
		t.Errorf("the server's side of the handshake took %d read calls, want 2", got)
	}
	const records = 40
	go func() {
		for i := 0; i < records; i++ {
			if _, err := client.Write(bytes.Repeat([]byte{byte(i)}, 100+i*200)); err != nil {
				return
			}
		}
	}()
	before := counted.reads.Load()
	for i := 0; i < records; i++ {
		rec, err := server.ReadRecord()
		if err != nil || len(rec) != 100+i*200 {
			t.Fatalf("record %d: %d bytes, %v", i, len(rec), err)
		}
		bufpool.Put(rec)
	}
	if got := counted.reads.Load() - before; got != records {
		t.Errorf("%d small records took %d read calls, want one each", records, got)
	}
}

// readerOnly adapts a Conn to io.Reader without exposing net.Conn.
type readerOnly struct{ c *Conn }

func (r readerOnly) Read(p []byte) (int, error) { return r.c.Read(p) }

func BenchmarkRecordRoundTrip(b *testing.B) {
	wc, rc, _ := recordPair(b)
	payload := make([]byte, 512<<10)
	out := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wc.Write(payload); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < len(payload); {
			m, err := rc.Read(out[n:])
			if err != nil {
				b.Fatal(err)
			}
			n += m
		}
	}
}
