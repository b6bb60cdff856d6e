package core

// Concurrency stress harness for the client-side data cache: many
// goroutines hammer one Client (and two Clients hammer one server) with
// mixed Read/Write/Seek/Sync/Close ops while an in-memory model tracks
// what every byte must be. Run with -race (the CI race job does).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"discfs/internal/bufpool"
	"discfs/internal/cfs"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// regionSize is deliberately not page-aligned, so adjacent workers
// share cache pages and every write exercises the read-modify-write
// path.
const regionSize = 12345

// fillPattern writes a deterministic byte pattern for (worker, version)
// into dst.
func fillPattern(dst []byte, worker, version, off int) {
	for i := range dst {
		dst[i] = byte(worker*31 + version*7 + off + i)
	}
}

// stressWorker drives one region of the shared file through its own
// File handle, checking every read against model (the region's current
// expected content, updated in place — it carries across rounds).
// Within a worker operations are sequential, and regions are disjoint,
// so the model is exact despite cross-worker concurrency.
func stressWorker(c *Client, path string, worker, ops int, seed int64, model []byte) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	base := int64(worker * regionSize)
	version := 0

	f, err := c.Open(ctx, path, os.O_RDWR)
	if err != nil {
		return fmt.Errorf("worker %d: open: %w", worker, err)
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // positioned write of a random span
			off := rng.Intn(regionSize)
			n := rng.Intn(regionSize-off)/4 + 1
			version++
			fillPattern(model[off:off+n], worker, version, off)
			if _, err := f.WriteAt(model[off:off+n], base+int64(off)); err != nil {
				return fmt.Errorf("worker %d op %d: WriteAt: %w", worker, op, err)
			}
		case k < 7: // positioned read-back of a random span
			off := rng.Intn(regionSize)
			n := rng.Intn(regionSize-off) + 1
			buf := make([]byte, n)
			m, err := f.ReadAt(buf, base+int64(off))
			if err != nil && err != io.EOF {
				return fmt.Errorf("worker %d op %d: ReadAt: %w", worker, op, err)
			}
			// Bytes past the current end-of-file read short; what did
			// arrive must match the model exactly (read-your-writes).
			if !bytes.Equal(buf[:m], model[off:off+m]) {
				d := 0
				for d < m && buf[d] == model[off+d] {
					d++
				}
				abs := int(base) + off + d
				return fmt.Errorf("worker %d op %d: ReadAt(%d,%d) mismatch at region byte %d (abs %d, page %d): got %d want %d",
					worker, op, off, n, off+d, abs, abs/8192, buf[d], model[off+d])
			}
		case k < 8: // cursor I/O: seek into the region, write then read back
			off := rng.Intn(regionSize - 64)
			if _, err := f.Seek(base+int64(off), io.SeekStart); err != nil {
				return fmt.Errorf("worker %d op %d: Seek: %w", worker, op, err)
			}
			version++
			fillPattern(model[off:off+32], worker, version, off)
			if _, err := f.Write(model[off : off+32]); err != nil {
				return fmt.Errorf("worker %d op %d: Write: %w", worker, op, err)
			}
			if _, err := f.Seek(-32, io.SeekCurrent); err != nil {
				return fmt.Errorf("worker %d op %d: Seek back: %w", worker, op, err)
			}
			buf := make([]byte, 32)
			if _, err := io.ReadFull(f, buf); err != nil {
				return fmt.Errorf("worker %d op %d: Read: %w", worker, op, err)
			}
			if !bytes.Equal(buf, model[off:off+32]) {
				return fmt.Errorf("worker %d op %d: cursor read mismatch", worker, op)
			}
		case k < 9: // barrier
			if err := f.Sync(); err != nil {
				return fmt.Errorf("worker %d op %d: Sync: %w", worker, op, err)
			}
		default: // close and reopen (close-to-open within one client)
			if err := f.Close(); err != nil {
				return fmt.Errorf("worker %d op %d: Close: %w", worker, op, err)
			}
			f, err = c.Open(ctx, path, os.O_RDWR)
			if err != nil {
				return fmt.Errorf("worker %d op %d: reopen: %w", worker, op, err)
			}
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("worker %d: final close: %w", worker, err)
	}
	f = nil
	return nil
}

// runWorkers fans stressWorker out over the regions [first, first+n).
func runWorkers(t *testing.T, c *Client, path string, first, n, ops int, seedBase int64, models [][]byte) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		w := first + i
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := stressWorker(c, path, w, ops, seedBase+int64(w), models[w]); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// verifyRegions opens the file on c and checks the regions
// [first, first+len(models)) against their models.
func verifyRegions(t *testing.T, c *Client, path string, first int, models [][]byte) {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, os.O_RDONLY)
	if err != nil {
		t.Fatalf("verify open: %v", err)
	}
	defer f.Close()
	for i, model := range models {
		w := first + i
		got := make([]byte, len(model))
		n, err := f.ReadAt(got, int64(w*regionSize))
		if err != nil && err != io.EOF {
			t.Fatalf("verify region %d: %v", w, err)
		}
		// The file may end inside the last written region; unread tail
		// bytes must then be zero in the model.
		if !bytes.Equal(got[:n], model[:n]) {
			d := 0
			for d < n && got[d] == model[d] {
				d++
			}
			t.Fatalf("region %d differs at byte %d: got %d want %d", w, d, got[d], model[d])
		}
		for _, b := range model[n:] {
			if b != 0 {
				t.Fatalf("region %d: model has data past EOF", w)
			}
		}
	}
}

// stressModes are the server configurations every stress test runs
// under: the plain store, and the content-addressed dedup store (whose
// chunker, refcounting and open-chunk tail buffer, holes included,
// must survive the same concurrent read-modify-write traffic).
var stressModes = []struct {
	name  string
	dedup bool
}{
	{"syncWrites", false},
	{"dedup", true},
}

func stressServer(t *testing.T, dedup bool) string {
	t.Helper()
	serverKey := keynote.DeterministicKey("stress-admin")
	_, addr := testServer(t, ServerConfig{ServerKey: serverKey, Dedup: dedup})
	return addr
}

// lossyDevice is a block device with a volatile write cache: a write
// lands in the cache until Sync moves it to the platter, and lose drops
// what the cache still holds, as a power cut does.
type lossyDevice struct {
	*ffs.MemDevice
	mu       sync.Mutex
	volatile map[uint32][]byte
}

func (d *lossyDevice) ReadBlock(bn uint32, buf []byte) error {
	d.mu.Lock()
	data, ok := d.volatile[bn]
	if ok {
		clear(buf[copy(buf, data):])
	}
	d.mu.Unlock()
	if ok {
		return nil
	}
	return d.MemDevice.ReadBlock(bn, buf)
}

func (d *lossyDevice) WriteBlock(bn uint32, data []byte) error {
	d.mu.Lock()
	d.volatile[bn] = append([]byte(nil), data...)
	d.mu.Unlock()
	return nil
}

func (d *lossyDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for bn, data := range d.volatile {
		if err := d.MemDevice.WriteBlock(bn, data); err != nil {
			return err
		}
	}
	clear(d.volatile)
	return nil
}

func (d *lossyDevice) lose() {
	d.mu.Lock()
	clear(d.volatile)
	d.mu.Unlock()
}

// restartableServer serves CFS-NE over ffs on a lossyDevice. restart
// stands for a server restart: whatever the device has not synced is
// lost, and the server draws a new boot verifier.
func restartableServer(t *testing.T, seed string) (srv *Server, addr string, restart func()) {
	t.Helper()
	dev := &lossyDevice{MemDevice: ffs.NewMemDevice(4096, 16384, ffs.DiskModel{}), volatile: map[uint32][]byte{}}
	backing, err := ffs.New(ffs.Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := cfs.New(backing, "", false)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr = testServer(t, ServerConfig{Backing: ne, ServerKey: keynote.DeterministicKey(seed)})
	return srv, addr, func() {
		dev.lose()
		srv.reboot()
	}
}

func newModels(n int) [][]byte {
	models := make([][]byte, n)
	for i := range models {
		models[i] = make([]byte, regionSize)
	}
	return models
}

// TestStressSingleClient hammers one cached client with concurrent
// mixed operations from eight workers sharing one file (and therefore
// one handle cache), then verifies every byte — through the writing
// client and through a second, independent client after close. It runs
// against the plain store and against the dedup store.
func TestStressSingleClient(t *testing.T) {
	for _, mode := range stressModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			addr := stressServer(t, mode.dedup)
			c := dialAs(t, addr, "stress-admin")

			const workers, ops = 8, 150
			if _, _, err := c.WriteFile(ctx, "/stress.dat", nil); err != nil {
				t.Fatal(err)
			}
			models := newModels(workers)
			runWorkers(t, c, "/stress.dat", 0, workers, ops, 1000, models)

			// Within the writing client the cache must agree...
			verifyRegions(t, c, "/stress.dat", 0, models)
			// ...and a fresh client sees the same bytes after close-to-open.
			c2 := dialAs(t, addr, "stress-admin")
			verifyRegions(t, c2, "/stress.dat", 0, models)
		})
	}
}

// TestStressTwoClientsSharedServer alternates two clients over one
// shared file in write-close / open-verify rounds: everything a client
// wrote and closed must be visible to the other client's next open
// (close-to-open across clients), with both clients running concurrent
// workers internally.
func TestStressTwoClientsSharedServer(t *testing.T) {
	for _, mode := range stressModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			addr := stressServer(t, mode.dedup)
			a := dialAs(t, addr, "stress-admin")
			b := dialAs(t, addr, "stress-admin")

			const perClient, ops, rounds = 4, 60, 3
			if _, _, err := a.WriteFile(ctx, "/shared.dat", nil); err != nil {
				t.Fatal(err)
			}
			models := newModels(2 * perClient)

			for round := 0; round < rounds; round++ {
				// Client A owns regions 0..3, client B regions 4..7. New seeds
				// each round rewrite random spans over the surviving content.
				runWorkers(t, a, "/shared.dat", 0, perClient, ops, int64(9000+100*round), models)
				runWorkers(t, b, "/shared.dat", perClient, perClient, ops, int64(9500+100*round), models)

				// Cross-client visibility after close: B checks A's half, A
				// checks B's half, and a third client checks everything.
				verifyRegions(t, b, "/shared.dat", 0, models[:perClient])
				verifyRegions(t, a, "/shared.dat", perClient, models[perClient:])
				c := dialAs(t, addr, "stress-admin")
				verifyRegions(t, c, "/shared.dat", 0, models)
			}
		})
	}
}

// TestCommitVerifierReplay exercises the NFSv3-style restart protocol:
// the server "restarts" (new boot verifier, every write the device had
// not synced lost) between a client's flushes and its COMMIT. The
// client must detect the verifier change, re-dirty its unstable pages,
// and replay them — no acknowledged Sync may lose data.
func TestCommitVerifierReplay(t *testing.T) {
	ctx := context.Background()
	srv, addr, restart := restartableServer(t, "stress-admin")
	c := dialAs(t, addr, "stress-admin")
	f, err := c.Open(ctx, "/replay.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	// A one-page write-behind window makes the client flush eagerly, so
	// pages become unstable (flushed, uncommitted) before Sync runs.
	f.dc.mu.Lock()
	f.dc.wbPages = 1
	f.dc.mu.Unlock()
	// First barrier records the server's boot verifier.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write a larger span; the 1-page window forces most of it to
	// flush (unstable) before the barrier.
	want := make([]byte, 10*8192)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Server "restart": new verifier, unsynced writes lost.
	restart()
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync with replay: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh client must read every byte back.
	c2 := dialAs(t, addr, "stress-admin")
	got, err := c2.ReadFile(ctx, "/replay.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		d := 0
		for d < len(got) && d < len(want) && got[d] == want[d] {
			d++
		}
		t.Fatalf("replayed content differs at byte %d of %d (got len %d)", d, len(want), len(got))
	}
	// The second Sync must have observed the new verifier and replayed
	// rather than silently acknowledging lost data.
	st := srv.Stats()
	if st.Commits < 2 {
		t.Errorf("commits = %d, want >= 2", st.Commits)
	}
}

// TestCommitVerifierReplayBeforeFirstCommit: a file's first COMMIT
// compares against the boot verifier its shard learned at attach, so a
// restart that loses WRITEs flushed before this client ever sent a
// COMMIT is caught and replayed, with no baseline COMMIT up front. The
// file's blocks are allocated and durable beforehand, so the rewrite
// stays in the device's volatile cache until a COMMIT.
func TestCommitVerifierReplayBeforeFirstCommit(t *testing.T) {
	ctx := context.Background()
	srv, addr, restart := restartableServer(t, "stress-admin")
	if _, _, err := dialAs(t, addr, "stress-admin").WriteFile(ctx, "/first.dat", make([]byte, 10*8192)); err != nil {
		t.Fatal(err)
	}
	c := dialAs(t, addr, "stress-admin")
	f, err := c.Open(ctx, "/first.dat", os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	f.dc.mu.Lock()
	f.dc.wbPages = 1 // flush eagerly: the pages are unstable before Close
	f.dc.mu.Unlock()
	want := make([]byte, 10*8192)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	commits := srv.Stats().Commits
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().Commits - commits; n != 0 {
		t.Fatalf("%d COMMITs before the first barrier, want 0", n)
	}
	restart()
	if err := f.Close(); err != nil {
		t.Fatalf("Close with replay: %v", err)
	}
	got, err := dialAs(t, addr, "stress-admin").ReadFile(ctx, "/first.dat")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (err %v) that differ from the %d rewritten", len(got), err, len(want))
	}
}

// TestServerDrawsBootVerifier: a server built with no options answers
// COMMIT with a nonzero boot verifier, and two servers answer different
// ones, so a client can tell any server's restart from a plain COMMIT.
func TestServerDrawsBootVerifier(t *testing.T) {
	ctx := context.Background()
	var vers [2]uint64
	for i := range vers {
		_, addr := testServer(t, ServerConfig{})
		c := dialAs(t, addr, "test-admin")
		a, _, err := c.CreateWithCredential(ctx, c.Root(), "f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, vers[i], err = c.NFS().Commit(ctx, a.Handle); err != nil {
			t.Fatal(err)
		}
	}
	if vers[0] == 0 || vers[1] == 0 || vers[0] == vers[1] {
		t.Errorf("boot verifiers %#x and %#x: want two different nonzero ones", vers[0], vers[1])
	}
}

// syncCountDev counts the durability barriers that reach the device.
type syncCountDev struct {
	*ffs.MemDevice
	syncs atomic.Int64
}

func (d *syncCountDev) Sync() error {
	d.syncs.Add(1)
	return d.MemDevice.Sync()
}

// embedFS has the shape of a wrapper that overrides one method of the
// store it wraps: it embeds the interface, so it has exactly the
// interface's methods and no others.
type embedFS struct{ vfs.FS }

// TestBarrierThroughEmbeddingWrapper: COMMIT through the policy view
// issues as many device syncs on a store behind an embedding wrapper as
// on the bare store.
func TestBarrierThroughEmbeddingWrapper(t *testing.T) {
	syncs := func(wrap bool) int64 {
		dev := &syncCountDev{MemDevice: ffs.NewMemDevice(4096, 4096, ffs.DiskModel{})}
		fs, err := ffs.New(ffs.Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		var store vfs.FS = fs
		if wrap {
			store = embedFS{fs}
		}
		srv, _ := testServer(t, ServerConfig{Backing: store})
		a, err := store.Create(store.Root(), "f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Write(a.Handle, 0, make([]byte, 200<<10)); err != nil {
			t.Fatal(err)
		}
		v := &view{s: srv, peer: srv.key.Principal}
		before := dev.syncs.Load()
		if _, _, err := v.Commit(a.Handle); err != nil {
			t.Fatal(err)
		}
		return dev.syncs.Load() - before
	}
	bare, wrapped := syncs(false), syncs(true)
	t.Logf("device syncs: %d bare, %d wrapped", bare, wrapped)
	if bare == 0 || wrapped != bare {
		t.Errorf("COMMIT issued %d device syncs behind the wrapper, %d on the bare store", wrapped, bare)
	}
}

// TestCacheModel drives one cached client through a seeded sequence of
// every File operation, with offsets and lengths chosen to straddle page
// and cluster-window boundaries, and checks each read against a shadow
// buffer. Mid-stream the server restarts (new verifier, writes the
// device had not synced lost), so replay must
// re-dirty exactly the unstable pages and re-cluster them; a second
// client writes between a close and a re-open (close-to-open); and the
// cache cap is shrunk so eviction and refetch run throughout. Sequential
// scans ramp readahead up, and it is still in flight as the following
// writes, truncates, syncs, restarts and re-opens land. At the end the
// process is back to its goroutine and pooled-buffer baseline.
func TestCacheModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		xfer int // granted transfer size; 0 is the server's own
	}{
		{"defaultWindow", 0},
		{"twoPageWindow", 2 * pageSize},
		{"onePageWindow", pageSize},
	} {
		t.Run(tc.name, func(t *testing.T) { runCacheModel(t, tc.xfer, 7) })
	}
}

func runCacheModel(t *testing.T, grant int, seed int64) {
	ctx := context.Background()
	goroutines, outstanding := runtime.NumGoroutine(), bufpool.Outstanding()
	srv, addr, restart := restartableServer(t, "model-admin")
	dial := func() *Client {
		c := dialAs(t, addr, "model-admin")
		if grant != 0 {
			runAtGrant(c, grant)
		}
		return c
	}
	a, b := dial(), dial()
	xfer := a.MaxTransfer()
	maxSize := 3*xfer + 5000
	if maxSize > 2<<20 {
		maxSize = 2<<20 + 5000
	}

	rng := rand.New(rand.NewSource(seed))
	var shadow []byte
	// near returns an offset within a few bytes of a page or window
	// boundary (or anywhere, one time in four).
	near := func() int {
		unit := pageSize
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(maxSize)
		case 1:
			unit = xfer
		}
		off := (1+rng.Intn(maxSize/unit))*unit + rng.Intn(7) - 3
		return min(max(off, 0), maxSize-1)
	}
	length := func() int {
		switch rng.Intn(4) {
		case 0:
			return 1 + rng.Intn(64)
		case 1:
			return pageSize
		case 2:
			return 1 + rng.Intn(3*pageSize)
		}
		return 1 + rng.Intn(xfer+pageSize)
	}
	write := func(f *File, op int) {
		off, n := near(), length()
		n = min(n, maxSize-off)
		p := make([]byte, n)
		rng.Read(p)
		if off+n > len(shadow) {
			shadow = append(shadow, make([]byte, off+n-len(shadow))...)
		}
		copy(shadow[off:], p)
		if _, err := f.WriteAt(p, int64(off)); err != nil {
			t.Fatalf("op %d: WriteAt(%d, %d): %v", op, off, n, err)
		}
	}
	read := func(f *File, op, off, n int) {
		buf := make([]byte, n)
		m, err := f.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			t.Fatalf("op %d: ReadAt(%d, %d): %v", op, off, n, err)
		}
		want := shadow[min(off, len(shadow)):min(off+n, len(shadow))]
		if !bytes.Equal(buf[:m], want) {
			d := 0
			for d < m && d < len(want) && buf[d] == want[d] {
				d++
			}
			t.Fatalf("op %d: ReadAt(%d, %d) = %d bytes, want %d; first difference at file offset %d (page %d)",
				op, off, n, m, len(want), off+d, (off+d)/pageSize)
		}
	}
	open := func(c *Client) *File {
		f, err := c.Open(ctx, "/model.dat", os.O_CREATE|os.O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := open(a)
	// A cache far smaller than the file: pages come and go all the time.
	f.dc.mu.Lock()
	f.dc.maxPages = 24
	f.dc.mu.Unlock()

	for op := 0; op < 600; op++ {
		if op == 300 {
			// Whatever is flushed but uncommitted right now is gone.
			restart()
		}
		switch k := rng.Intn(22); {
		case k < 8:
			write(f, op)
		case k < 15:
			read(f, op, near(), length())
		case k < 17:
			// A sequential scan: each read continues where the last one
			// ended, so readahead ramps up and is still in flight when
			// the next ops land.
			off := near()
			for i := 3 + rng.Intn(4); i > 0; i-- {
				n := length()
				read(f, op, off, n)
				off += n
			}
		case k < 18:
			size := near()
			if err := f.Truncate(int64(size)); err != nil {
				t.Fatalf("op %d: Truncate(%d): %v", op, size, err)
			}
			if size <= len(shadow) {
				shadow = shadow[:size]
			} else {
				shadow = append(shadow, make([]byte, size-len(shadow))...)
			}
		case k < 19:
			if err := f.Sync(); err != nil {
				t.Fatalf("op %d: Sync: %v", op, err)
			}
		case k < 20:
			restart()
		case k < 21:
			if err := f.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", op, err)
			}
			f = open(a)
		default:
			// The other client writes between this one's close and
			// re-open.
			if err := f.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", op, err)
			}
			g := open(b)
			write(g, op)
			if err := g.Close(); err != nil {
				t.Fatalf("op %d: second client Close: %v", op, err)
			}
			f = open(a)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c := dial()
	got, err := c.ReadFile(ctx, "/model.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		d := 0
		for d < len(got) && d < len(shadow) && got[d] == shadow[d] {
			d++
		}
		t.Fatalf("final content: %d bytes, want %d; first difference at %d (page %d)", len(got), len(shadow), d, d/pageSize)
	}
	for _, c := range []*Client{a, b, c} {
		c.Close()
	}
	srv.Close()
	waitBaseline(t, goroutines, outstanding)
}
