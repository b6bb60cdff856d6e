package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"discfs/internal/cfs"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// gatedFS blocks the first Write until released, so a test can hold an
// RPC in flight across a shutdown.
type gatedFS struct {
	vfs.FS
	entered chan struct{} // closed when the gated write is in the handler
	release chan struct{}
	once    sync.Once
}

func (g *gatedFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.FS.Write(h, off, data)
}

// TestDrainCompletesInFlightWrite holds a WRITE inside the backing
// store while Shutdown runs: the drain must fence new connections yet
// let the parked call finish and deliver its reply, all inside the
// deadline.
func TestDrainCompletesInFlightWrite(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedFS{FS: backing, entered: make(chan struct{}), release: make(chan struct{})}
	srv, addr := testServer(t, ServerConfig{Backing: gated})
	c := dialAs(t, addr, "test-admin")

	attr, _, err := c.CreateWithCredential(ctx, c.Root(), "slow", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := c.NFS().Write(ctx, attr.Handle, 0, []byte("survives the drain"))
		writeErr <- err
	}()
	<-gated.entered

	shutdownErr := make(chan error, 1)
	start := time.Now()
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()
	// The fence: once draining, the listener is gone and new sessions
	// must be refused while the parked WRITE is still in flight.
	waitFence := time.Now().Add(2 * time.Second)
	for !srv.Draining() && time.Now().Before(waitFence) {
		time.Sleep(time.Millisecond)
	}
	if !srv.Draining() {
		t.Fatal("server never entered draining state")
	}
	if _, err := Dial(ctx, addr, keynote.DeterministicKey("latecomer")); err == nil {
		t.Error("new session admitted during drain")
	}

	close(gated.release)
	if err := <-writeErr; err != nil {
		t.Errorf("in-flight WRITE during drain = %v, want success", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want clean drain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v, beyond the 5s deadline", elapsed)
	}
}

// TestDrainFlushesAckedUnstableWrites: a WRITE is acknowledged before
// it is durable; COMMIT is the client's barrier. Shutdown without any
// COMMIT must still leave the acknowledged data in the backing store —
// an acked write lost in a graceful drain would be a durability lie.
func TestDrainFlushesAckedUnstableWrites(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := cfs.New(backing, "", false)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := testServer(t, ServerConfig{Backing: ne})
	c := dialAs(t, addr, "test-admin")

	payload := []byte(strings.Repeat("unstable-but-acked ", 64))
	attr, _, err := c.CreateWithCredential(ctx, c.Root(), "pending", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.NFS().Write(ctx, attr.Handle, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	// No COMMIT: drain now, with the data not yet synced.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	a, err := ne.Lookup(ne.Root(), "pending")
	if err != nil {
		t.Fatalf("backing lookup after drain: %v", err)
	}
	got, _, err := ne.Read(a.Handle, 0, uint32(len(payload)+16))
	if err != nil {
		t.Fatalf("backing read after drain: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("backing holds %d bytes, want the %d-byte acked write intact", len(got), len(payload))
	}
}

// TestThrottledOverRPC drives a rate-limited principal past its budget
// and asserts the refusal crosses the wire as ErrThrottled (the typed
// error the client taxonomy promises), with the server counting it.
func TestThrottledOverRPC(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{
		// At 2 req/s an empty bucket means a 500 ms wait, past the
		// 250 ms a request may be shaped: it is refused at once.
		Limits: Limits{RPS: 2},
	})
	c := dialAs(t, addr, "test-admin")

	throttled := 0
	for i := 0; i < 200 && throttled == 0; i++ {
		_, err := c.ResolvePath(ctx, "/")
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrThrottled) {
			t.Fatalf("over-budget resolve = %v, want ErrThrottled", err)
		}
		throttled++
	}
	if throttled == 0 {
		t.Fatal("200 rapid calls against a 2 rps budget: none throttled")
	}
	rate, _ := srv.Throttled()
	if rate == 0 {
		t.Error("server Throttled() rate count is zero")
	}
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "discfs_throttled_rate_total") {
		t.Error("registry does not expose discfs_throttled_rate_total")
	}
}
