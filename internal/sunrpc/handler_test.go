package sunrpc

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/xdr"
)

// Tests of the per-connection handler goroutines: records are served by
// parked handlers where one is idle, a burst's extra handlers exit once
// it is over, and nothing outlives the connection.

const gateProg, gateVers = 400300, 1

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// serveOne starts a server with h registered as gateProg and returns it
// with one connected client; both are closed at cleanup.
func serveOne(t *testing.T, h Handler) (*Server, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	srv.Register(gateProg, gateVers, h)
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
	return srv, c
}

// waitGoroutines polls until at most want goroutines are running.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSequentialCallsReuseHandler: back-to-back calls on one connection
// are served by the handler the previous call parked, not by a new
// goroutine each.
func TestSequentialCallsReuseHandler(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]bool{}
	_, c := serveOne(t, func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		mu.Lock()
		seen[goid()] = true
		mu.Unlock()
		return Success, nil
	})
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(t.Context(), gateProg, gateVers, 0, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) > 2 {
		t.Errorf("1000 sequential calls ran on %d handler goroutines, want at most 2", len(seen))
	}
}

// TestBurstHandlersShrinkToIdleBound: a full pipeline of slow calls runs
// on maxPerConnPipeline handlers at once; once it is over, all but
// maxIdleHandlers of them exit, and closing the connection ends the rest.
func TestBurstHandlersShrinkToIdleBound(t *testing.T) {
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	in := 0
	release := make(chan struct{})
	srv, c := serveOne(t, func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		if proc == 1 {
			mu.Lock()
			if in++; in == maxPerConnPipeline {
				close(release)
			}
			mu.Unlock()
			<-release
		}
		return Success, nil
	})
	// One call first, so the baseline holds the connection's reader and
	// its first parked handler.
	if _, err := c.Call(t.Context(), gateProg, gateVers, 0, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the client's reply plumbing settle
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < maxPerConnPipeline; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(t.Context(), gateProg, gateVers, 1, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	ran := in
	mu.Unlock()
	if ran != maxPerConnPipeline {
		t.Fatalf("%d calls ran at once, want %d", ran, maxPerConnPipeline)
	}
	waitGoroutines(t, base-1+maxIdleHandlers, "after the burst")

	c.Close()
	srv.Close()
	waitGoroutines(t, before, "after close")
}

// TestDrainWaitsForInFlightHandler: Drain returns only after an
// in-flight call has delivered its reply, and refuses calls that arrive
// after its fence with ServerBusy.
func TestDrainWaitsForInFlightHandler(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, c := serveOne(t, func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		if proc == 1 {
			close(entered)
			<-release
		}
		return Success, nil
	})
	// Park a handler first, so the held call is served by a reused one.
	if _, err := c.Call(t.Context(), gateProg, gateVers, 0, nil); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := c.Call(t.Context(), gateProg, gateVers, 1, nil)
		held <- err
	}()
	<-entered
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	for {
		srv.drainMu.Lock()
		fenced := srv.draining
		srv.drainMu.Unlock()
		if fenced {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Call(t.Context(), gateProg, gateVers, 0, nil); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("call after the drain fence = %v, want ErrServerBusy", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a call in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("in-flight call: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// lateListener hands back its one connection only once Close has begun:
// the first Accept waits for the listener's Close and then returns conn.
// The listener's Close returns once Serve has dealt with that connection,
// by closing it or by asking for the next one; a second Accept blocks
// until release.
type lateListener struct {
	conn    net.Conn
	closed  chan struct{} // closed when conn is
	calls   atomic.Int32
	waiting chan struct{} // the first Accept is waiting
	closing chan struct{} // Close has begun
	again   chan struct{} // a second Accept came
	release chan struct{}
	once    sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	if l.calls.Add(1) > 1 {
		close(l.again)
		<-l.release
		return nil, net.ErrClosed
	}
	close(l.waiting)
	<-l.closing
	return l.conn, nil
}

func (l *lateListener) Close() error {
	l.once.Do(func() {
		close(l.closing)
		select {
		case <-l.closed:
		case <-l.again:
		}
	})
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// notifyConn reports its Close on a channel.
type notifyConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *notifyConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestCloseRacingAcceptClosesConn: a connection Accept returns while
// Close is under way is closed, not served, and Close waits for Serve.
// Counting it into the handler WaitGroup with no lock raced a Close
// already waiting on the group, and Serve went back to Accept.
func TestCloseRacingAcceptClosesConn(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := &notifyConn{Conn: a, closed: make(chan struct{})}
	ln := &lateListener{
		conn: conn, closed: conn.closed,
		waiting: make(chan struct{}), closing: make(chan struct{}),
		again: make(chan struct{}), release: make(chan struct{}),
	}
	defer close(ln.release)
	srv := NewServer()
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	<-ln.waiting
	srv.Close()
	select {
	case <-conn.closed:
	default:
		t.Error("Close returned with the connection accepted during it still open")
	}
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Error("Serve did not return with Close")
	}
}
