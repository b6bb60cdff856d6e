package sunrpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/xdr"
)

// slowProg parks every call briefly so concurrency is observable.
const (
	slowProg = 400200
	slowVers = 1
)

// TestMaxInFlightBoundsConcurrency floods a limit-2 server with slow
// calls from two pipelined connections and asserts no more than two
// handlers ever run at once — the worker cap that keeps a request flood
// (or a stress test) from growing a goroutine per record.
func TestMaxInFlightBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	handler := func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return Success, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	srv.sem = make(chan struct{}, 2)
	srv.Register(slowProg, slowVers, handler)
	go srv.Serve(ln)
	defer srv.Close()

	var clients []*Client
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c := NewClient(conn)
		defer c.Close()
		clients = append(clients, c)
	}

	const calls = 12
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		c := clients[i%len(clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(t.Context(), slowProg, slowVers, 0, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("call: %v", err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent handlers = %d, want <= 2", p)
	}
	if p := peak.Load(); p < 2 {
		t.Logf("peak concurrency only reached %d (timing)", p)
	}
}

// TestSaturationRefusesBusy saturates a limit-1 server: once queueWait
// runs out, the overflow call must come back as an explicit ServerBusy
// refusal (matching ErrServerBusy) rather than blocking the
// connection's read loop, and the refusal must be counted.
func TestSaturationRefusesBusy(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	handler := func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return Success, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer()
	srv.sem = make(chan struct{}, 1)
	srv.Register(slowProg, slowVers, handler)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(conn)
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Call(t.Context(), slowProg, slowVers, 0, nil)
		first <- err
	}()
	<-entered // the single slot is now held by the parked handler
	// Overflow calls while the only slot is parked on release. The
	// handler never yields it, so these cannot be ordinary slow calls:
	// an error-free return would mean the cap leaked.
	deadline := time.Now().Add(queueWait + 2*time.Second)
	busy := 0
	for busy == 0 && time.Now().Before(deadline) {
		_, err := c.Call(t.Context(), slowProg, slowVers, 0, nil)
		if err == nil {
			t.Fatal("overflow call succeeded while the slot was held")
		}
		if !errors.Is(err, ErrServerBusy) {
			t.Fatalf("overflow call = %v, want ErrServerBusy", err)
		}
		busy++
	}
	if busy == 0 {
		t.Fatal("no ServerBusy refusal within queueWait + 2s")
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("parked call: %v", err)
	}
	st := srv.Stats()
	if st.QueueFull == 0 || st.Busy == 0 {
		t.Errorf("Stats() = %+v, want QueueFull > 0 and Busy > 0", st)
	}
}
