package sunrpc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"discfs/internal/xdr"
)

// echoProg implements a toy program: proc 1 echoes a string, proc 2 adds
// two uint32s, proc 3 returns the transport peer identity.
const (
	echoProg = 400100
	echoVers = 1
)

func echoHandler(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
	switch proc {
	case 0:
		return Success, nil
	case 1:
		s := args.String(1 << 16)
		if args.Err() != nil {
			return GarbageArgs, nil
		}
		res.String(s)
		return Success, nil
	case 2:
		a, b := args.Uint32(), args.Uint32()
		if args.Err() != nil {
			return GarbageArgs, nil
		}
		res.Uint32(a + b)
		return Success, nil
	case 3:
		res.String(ctx.Peer)
		return Success, nil
	case 4:
		panic("deliberate handler panic")
	case 5:
		return 0, errors.New("deliberate handler error")
	}
	return ProcUnavail, nil
}

// startServer launches a server on a loopback listener and returns a
// connected client plus a cleanup function.
func startServer(t *testing.T) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	srv.Register(echoProg, echoVers, echoHandler)
	go srv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(conn)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c
}

func TestNullProcedure(t *testing.T) {
	c := startServer(t)
	d, err := c.Call(t.Context(), echoProg, echoVers, 0, nil)
	if err != nil {
		t.Fatalf("null call: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("null call returned %d bytes", d.Remaining())
	}
}

func TestEchoAndAdd(t *testing.T) {
	c := startServer(t)
	e := xdr.NewEncoder()
	e.String("hello rpc")
	d, err := c.Call(t.Context(), echoProg, echoVers, 1, e.Bytes())
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if got := d.String(1 << 16); got != "hello rpc" {
		t.Errorf("echo = %q", got)
	}

	e.Reset()
	e.Uint32(40)
	e.Uint32(2)
	d, err = c.Call(t.Context(), echoProg, echoVers, 2, e.Bytes())
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if got := d.Uint32(); got != 42 {
		t.Errorf("add = %d", got)
	}
}

func TestProgUnavail(t *testing.T) {
	c := startServer(t)
	_, err := c.Call(t.Context(), 999999, 1, 0, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != ProgUnavail {
		t.Errorf("err = %v, want ProgUnavail", err)
	}
}

func TestProgMismatch(t *testing.T) {
	c := startServer(t)
	_, err := c.Call(t.Context(), echoProg, 99, 0, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != ProgMismatch {
		t.Errorf("err = %v, want ProgMismatch", err)
	}
}

func TestProcUnavail(t *testing.T) {
	c := startServer(t)
	_, err := c.Call(t.Context(), echoProg, echoVers, 77, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != ProcUnavail {
		t.Errorf("err = %v, want ProcUnavail", err)
	}
}

func TestGarbageArgs(t *testing.T) {
	c := startServer(t)
	// proc 2 wants 8 bytes; send 1 word.
	e := xdr.NewEncoder()
	e.Uint32(1)
	_, err := c.Call(t.Context(), echoProg, echoVers, 2, e.Bytes())
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != GarbageArgs {
		t.Errorf("err = %v, want GarbageArgs", err)
	}
}

func TestHandlerPanicBecomesSystemErr(t *testing.T) {
	c := startServer(t)
	_, err := c.Call(t.Context(), echoProg, echoVers, 4, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != SystemErr {
		t.Errorf("err = %v, want SystemErr", err)
	}
	// The connection must survive the panic.
	if _, err := c.Call(t.Context(), echoProg, echoVers, 0, nil); err != nil {
		t.Errorf("connection dead after panic: %v", err)
	}
}

func TestHandlerErrorBecomesSystemErr(t *testing.T) {
	c := startServer(t)
	_, err := c.Call(t.Context(), echoProg, echoVers, 5, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Stat != SystemErr {
		t.Errorf("err = %v, want SystemErr", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n uint32) {
			defer wg.Done()
			for j := uint32(0); j < 50; j++ {
				e := xdr.NewEncoder()
				e.Uint32(n)
				e.Uint32(j)
				d, err := c.Call(t.Context(), echoProg, echoVers, 2, e.Bytes())
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if got := d.Uint32(); got != n+j {
					t.Errorf("add(%d,%d) = %d", n, j, got)
					return
				}
			}
		}(uint32(i))
	}
	wg.Wait()
}

func TestClientFailsPendingOnClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Server that accepts and immediately closes.
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(conn)
	defer c.Close()
	if _, err := c.Call(t.Context(), echoProg, echoVers, 0, nil); err == nil {
		t.Error("call on closed connection succeeded")
	}
	// Subsequent calls fail fast with the sticky error.
	if _, err := c.Call(t.Context(), echoProg, echoVers, 0, nil); err == nil {
		t.Error("second call succeeded")
	}
}

func TestRecordMarkingFragmentation(t *testing.T) {
	// A record larger than maxFragment must round-trip via multiple
	// fragments.
	var buf bytes.Buffer
	big := make([]byte, maxFragment*2+1234)
	for i := range big {
		big[i] = byte(i)
	}
	if err := writeRecord(&buf, big); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readRecord(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got[headerRoom:], big) {
		t.Error("fragmented record corrupted")
	}
}

func TestRecordSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	// Forged header: 8 MiB fragment, past maxRecordSize.
	buf.Write([]byte{0x80, 0x80, 0x00, 0x00})
	if _, err := readRecord(&buf); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := writeRecord(&buf, payload); err != nil {
			return false
		}
		got, err := readRecord(&buf)
		if err != nil {
			return false
		}
		return bytes.Equal(got[headerRoom:], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRPCVersionMismatchDenied(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	srv.Register(echoProg, echoVers, echoHandler)
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Hand-craft a call with rpcvers=3.
	e := xdr.NewEncoder()
	e.Uint32(7)           // xid
	e.Uint32(msgTypeCall) // call
	e.Uint32(3)           // bad rpc version
	e.Uint32(echoProg)
	e.Uint32(echoVers)
	e.Uint32(0)
	OpaqueAuth{}.encode(e)
	OpaqueAuth{}.encode(e)
	if err := writeRecord(conn, e.Bytes()); err != nil {
		t.Fatalf("write: %v", err)
	}
	rec, err := readRecord(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	_, err = decodeReply(rec)
	if !errors.Is(err, ErrDenied) {
		t.Errorf("err = %v, want ErrDenied", err)
	}
}

// TestServerSurvivesWireGarbage floods the server with random byte
// records and raw junk; the connection handling must never panic and the
// server must keep serving well-formed calls afterwards.
func TestServerSurvivesWireGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Register(echoProg, echoVers, echoHandler)
	go srv.Serve(ln)
	defer srv.Close()

	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0:
			// Raw junk, no record framing.
			junk := make([]byte, rng.Intn(512))
			rng.Read(junk)
			conn.Write(junk)
		case 1:
			// Valid framing, random record body.
			body := make([]byte, rng.Intn(256))
			rng.Read(body)
			writeRecord(conn, body)
		case 2:
			// Valid call header, truncated args.
			e := xdr.NewEncoder()
			e.Uint32(uint32(trial)) // xid
			e.Uint32(msgTypeCall)
			e.Uint32(rpcVersion)
			e.Uint32(echoProg)
			e.Uint32(echoVers)
			e.Uint32(2) // proc add
			OpaqueAuth{}.encode(e)
			OpaqueAuth{}.encode(e)
			e.Uint32(7) // only half the args
			writeRecord(conn, e.Bytes())
		}
		conn.Close()
	}

	// The server still works.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	e := xdr.NewEncoder()
	e.Uint32(20)
	e.Uint32(22)
	d, err := c.Call(t.Context(), echoProg, echoVers, 2, e.Bytes())
	if err != nil {
		t.Fatalf("call after garbage flood: %v", err)
	}
	if got := d.Uint32(); got != 42 {
		t.Errorf("add = %d", got)
	}
}

// TestCallHonorsContext: a canceled context releases the caller while the
// handler is still running, and the connection remains usable.
func TestCallHonorsContext(t *testing.T) {
	block := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Register(echoProg, echoVers, func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		if proc == 9 {
			<-block
		}
		return Success, nil
	})
	go srv.Serve(ln)
	defer srv.Close()
	defer close(block)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, echoProg, echoVers, 9, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled call still blocked after 5s")
	}

	// A pre-canceled context fails before touching the wire.
	if _, err := c.Call(ctx, echoProg, echoVers, 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled call = %v", err)
	}

	// The connection is still healthy for fresh calls.
	if _, err := c.Call(context.Background(), echoProg, echoVers, 0, nil); err != nil {
		t.Errorf("call after abandoned call: %v", err)
	}
}
