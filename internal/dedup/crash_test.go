package dedup

// Crash-consistency suite for the dedup layer, mirroring the PR 4
// server-write-path suite: a fault-injecting block device with a
// volatile write cache simulates a power cut at every Nth write,
// dropping the cache after applying a pseudo-random subset of it in
// shuffled order. The assertions are the layer's durability contract:
//
//   - after recovery a file's content is exactly one of the states
//     captured at a Sync attempt, and never older than the last Sync
//     that was acknowledged before the cut — manifest commits are
//     atomic (the header flip), so no torn mix of two states is ever
//     visible;
//   - remounting (a fresh Wrap) always succeeds: the strict mount scan
//     is a structural fsck of the chunk store and every manifest;
//   - a cut during chunk write or GC never leaks chunks past the next
//     sweep — after SweepNow, Verify reports zero orphans and zero
//     refcount mismatches.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

var errPowerCut = errors.New("crashdev: power is out")

type cdWrite struct {
	bn   uint32
	data []byte
}

// crashDevice is a BlockDevice whose writes land in a volatile cache
// until Sync copies them to the backing MemDevice. Arm schedules a
// power cut after the Nth subsequent write.
type crashDevice struct {
	inner *ffs.MemDevice

	mu        sync.Mutex
	volatile  []cdWrite
	armed     bool
	countdown int
	cut       bool
	rng       *rand.Rand
}

func newCrashDevice(blockSize int, numBlocks uint32, seed int64) *crashDevice {
	return &crashDevice{
		inner: ffs.NewMemDevice(blockSize, numBlocks, ffs.DiskModel{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (d *crashDevice) BlockSize() int    { return d.inner.BlockSize() }
func (d *crashDevice) NumBlocks() uint32 { return d.inner.NumBlocks() }

func (d *crashDevice) Arm(n int) {
	d.mu.Lock()
	d.armed = true
	d.countdown = n
	d.mu.Unlock()
}

func (d *crashDevice) Cut() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cut
}

// ReadBlock reads through the volatile cache (the drive serves its own
// cached writes), newest entry first.
func (d *crashDevice) ReadBlock(bn uint32, buf []byte) error {
	d.mu.Lock()
	for i := len(d.volatile) - 1; i >= 0; i-- {
		if d.volatile[i].bn == bn {
			data := d.volatile[i].data
			d.mu.Unlock()
			copy(buf, data)
			for i := len(data); i < len(buf); i++ {
				buf[i] = 0
			}
			return nil
		}
	}
	d.mu.Unlock()
	return d.inner.ReadBlock(bn, buf)
}

// WriteBlock caches the write; when the armed countdown expires, the
// power cut fires: a random subset of the cache lands on the platter in
// random order, the rest is lost.
func (d *crashDevice) WriteBlock(bn uint32, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut {
		return nil // power is out; nobody reads the status
	}
	d.volatile = append(d.volatile, cdWrite{bn: bn, data: append([]byte(nil), data...)})
	if d.armed {
		d.countdown--
		if d.countdown <= 0 {
			d.performCutLocked()
		}
	}
	return nil
}

func (d *crashDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut {
		return errPowerCut
	}
	for _, w := range d.volatile {
		if err := d.inner.WriteBlock(w.bn, w.data); err != nil {
			return err
		}
	}
	d.volatile = nil
	return nil
}

func (d *crashDevice) performCutLocked() {
	d.cut = true
	idx := d.rng.Perm(len(d.volatile))
	for _, i := range idx {
		if d.rng.Intn(2) == 0 {
			continue
		}
		w := d.volatile[i]
		_ = d.inner.WriteBlock(w.bn, w.data)
	}
	d.volatile = nil
}

func (d *crashDevice) Recover() {
	d.mu.Lock()
	d.cut = false
	d.armed = false
	d.volatile = nil
	d.mu.Unlock()
}

// ---- the suite ----

const (
	dedupCrashFiles = 3
	dedupCrashSize  = 48 << 10 // initial bytes per file
	dedupCrashOps   = 300
	dedupSyncEvery  = 4 // sync every Nth op
)

// dedupCrashIteration runs one power-cut scenario: cut after the
// cutAt-th device write of the churn phase. Reports whether the cut
// fired.
func dedupCrashIteration(t *testing.T, cutAt int) bool {
	t.Helper()
	dev := newCrashDevice(8192, 4096, int64(cutAt)*7919+1)
	backing, err := ffs.New(ffs.Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	wrapOpts := []Option{WithAvgChunkSize(4096), WithSweepInterval(0)}
	dd, err := Wrap(backing, wrapOpts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(cutAt)*104729 + 3))

	// Setup phase (durable by construction): files with random content,
	// synced before the cut is armed.
	handles := make([]vfs.Handle, dedupCrashFiles)
	content := make([][]byte, dedupCrashFiles)
	for f := range handles {
		a, err := dd.Create(dd.Root(), fmt.Sprintf("f%d", f), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		handles[f] = a.Handle
		content[f] = randBytes(int64(cutAt)*31+int64(f), dedupCrashSize)
		if _, err := dd.Write(handles[f], 0, content[f]); err != nil {
			t.Fatal(err)
		}
	}
	// A scratch file exercises truncate/rewrite/GC churn without content
	// assertions. The churn deliberately never unlinks while the cut is
	// armed: ffs's destructive namespace ops leave the mutation applied
	// in core when the metadata sync fails (see the note in ffs/dir.go),
	// which only a true remount-from-platter would reconcile — and this
	// harness reuses the in-core instance. The dedup sweeper reclaims by
	// truncation for the same reason, so GC itself stays in scope.
	scratch, err := dd.Create(dd.Root(), "scratch", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := dd.Sync(); err != nil {
		t.Fatal(err)
	}
	// snaps[f] is the file's state at each Sync attempt; ack[f] the
	// index of the last acknowledged one.
	snaps := make([][][]byte, dedupCrashFiles)
	ack := make([]int, dedupCrashFiles)
	for f := range snaps {
		snaps[f] = [][]byte{append([]byte(nil), content[f]...)}
	}

	dev.Arm(cutAt)
	for op := 0; op < dedupCrashOps && !dev.Cut(); op++ {
		f := rng.Intn(dedupCrashFiles)
		switch rng.Intn(10) {
		case 0: // truncate shrink (drops and re-chunks → decrefs)
			n := rng.Intn(len(content[f]) + 1)
			sz := uint64(n)
			if _, err := dd.SetAttr(handles[f], vfs.SetAttr{Size: &sz}); err != nil {
				continue
			}
			content[f] = content[f][:n]
		case 1: // scratch churn: truncate away and rewrite (mass decref
			// followed by fresh chunk writes — GC fodder)
			var zero uint64
			if _, err := dd.SetAttr(scratch.Handle, vfs.SetAttr{Size: &zero}); err == nil {
				dd.Write(scratch.Handle, 0, randBytes(rng.Int63(), 10_000))
			}
		case 2: // GC pressure: sweep mid-churn (syncs internally)
			for f := range snaps {
				snaps[f] = append(snaps[f], append([]byte(nil), content[f]...))
			}
			if err := dd.Sync(); err == nil && !dev.Cut() {
				for f := range ack {
					ack[f] = len(snaps[f]) - 1
				}
			}
			dd.SweepNow()
		default: // overwrite/extend with fresh bytes (always new chunks)
			off := rng.Intn(len(content[f]) + 1)
			data := randBytes(rng.Int63(), 1+rng.Intn(12_000))
			if _, err := dd.Write(handles[f], uint64(off), data); err != nil {
				continue
			}
			if off+len(data) > len(content[f]) {
				content[f] = append(content[f], make([]byte, off+len(data)-len(content[f]))...)
			}
			copy(content[f][off:], data)
		}
		if op%dedupSyncEvery == dedupSyncEvery-1 {
			for f := range snaps {
				snaps[f] = append(snaps[f], append([]byte(nil), content[f]...))
			}
			if err := dd.Sync(); err == nil && !dev.Cut() {
				for f := range ack {
					ack[f] = len(snaps[f]) - 1
				}
			}
		}
	}
	if !dev.Cut() {
		dd.Close()
		return false
	}

	// Power is gone: the layer's in-memory state must not heal the
	// damage, so abandon it without flushing.
	dd.abort()
	dev.Recover()

	// 1. The backing filesystem is structurally sound.
	if errs := backing.Check(); len(errs) != 0 {
		t.Fatalf("cut@%d: fsck after power cut: %v", cutAt, errs[0])
	}
	// 2. Remount succeeds: every manifest decodes, every referenced
	// chunk exists with the right size.
	d2, err := Wrap(backing, wrapOpts...)
	if err != nil {
		t.Fatalf("cut@%d: remount after power cut: %v", cutAt, err)
	}
	defer d2.Close()
	// 3. Per file: content equals a Sync-attempt state no older than
	// the last acknowledged sync.
	for f := 0; f < dedupCrashFiles; f++ {
		a, err := d2.Lookup(d2.Root(), fmt.Sprintf("f%d", f))
		if err != nil {
			t.Fatalf("cut@%d: f%d lost: %v", cutAt, f, err)
		}
		got := make([]byte, a.Size)
		if a.Size > 0 {
			if _, _, err := d2.ReadInto(a.Handle, 0, got); err != nil {
				t.Fatalf("cut@%d: read f%d: %v", cutAt, f, err)
			}
		}
		match := false
		for i := ack[f]; i < len(snaps[f]); i++ {
			if bytes.Equal(got, snaps[f][i]) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("cut@%d: f%d (%d bytes) matches no Sync state ≥ the acked one (acked %d of %d attempts) — committed data lost or torn",
				cutAt, f, a.Size, ack[f], len(snaps[f]))
		}
	}
	// 4. Crash debris never outlives a sweep: orphaned chunks from the
	// cut are reclaimed, and refcounts agree with the manifests.
	d2.SweepNow()
	res, err := d2.Verify()
	if err != nil {
		t.Fatalf("cut@%d: verify: %v", cutAt, err)
	}
	if res.Orphans != 0 || res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("cut@%d: chunk store leaked past sweep: %+v", cutAt, res)
	}
	return true
}

// TestDedupCrashConsistencySweep simulates a power cut at every device
// write position from 1 to 120 through the chunk-write/manifest-flush/
// GC pipeline.
func TestDedupCrashConsistencySweep(t *testing.T) {
	fired := 0
	for cut := 1; cut <= 120; cut++ {
		if dedupCrashIteration(t, cut) {
			fired++
		}
	}
	if fired < 100 {
		t.Fatalf("only %d of 120 cut points fired; workload too small", fired)
	}
	t.Logf("verified dedup commit durability across %d power-cut points", fired)
}

// flakySyncFS passes everything through to the wrapped FS but fails
// the Nth Sync call after arming with a transient error — without
// flushing, so writes issued before the failure stay in the volatile
// caches below. It models an fsync error the server survives.
type flakySyncFS struct {
	vfs.FS
	mu     sync.Mutex
	failIn int
}

var errFlakySync = errors.New("flaky: injected sync failure")

func (f *flakySyncFS) armSyncFail(n int) {
	f.mu.Lock()
	f.failIn = n
	f.mu.Unlock()
}

func (f *flakySyncFS) Sync() error {
	f.mu.Lock()
	if f.failIn > 0 {
		f.failIn--
		if f.failIn == 0 {
			f.mu.Unlock()
			return errFlakySync
		}
	}
	f.mu.Unlock()
	return f.FS.Sync()
}

// TestSyncFailureThenCrashKeepsManifestAtomic covers the failed-flush
// slot hazard: Sync #2 dies at its final device sync, after writing
// flipped manifest headers whose durability was never acknowledged.
// The next Sync's leading device sync then makes those headers durable
// — so its record writes must not target the slot the (now durable)
// flipped header governs, or a power cut mid-rewrite tears the
// manifest. The sweep cuts power at every early write position of that
// third Sync and requires each recovery to decode to exactly one of
// the three Sync-attempt states.
func TestSyncFailureThenCrashKeepsManifestAtomic(t *testing.T) {
	fired := 0
	for run := 1; run <= 120; run++ {
		// The retry Sync issues only a handful of device writes, so sweep
		// a small cut range under many randomization seeds: each seed
		// draws a different surviving subset of the torn write cache.
		cut := 1 + (run-1)%8
		dev := newCrashDevice(8192, 4096, int64(run)*977+5)
		backing, err := ffs.New(ffs.Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		flaky := &flakySyncFS{FS: backing}
		wrapOpts := []Option{WithAvgChunkSize(4096), WithSweepInterval(0)}
		dd, err := Wrap(flaky, wrapOpts...)
		if err != nil {
			t.Fatal(err)
		}
		// v1: a multi-chunk file, committed cleanly.
		v1 := randBytes(int64(run)*13+1, 48<<10)
		a, err := dd.Create(dd.Root(), "f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dd.Write(a.Handle, 0, v1); err != nil {
			t.Fatal(err)
		}
		if err := dd.Sync(); err != nil {
			t.Fatal(err)
		}
		// v2: overwrite committed chunks, then a Sync that dies at phase
		// E — its third and last device sync — leaving flipped headers
		// unacknowledged in the volatile cache.
		v2 := append([]byte(nil), v1...)
		copy(v2, randBytes(int64(run)*13+2, 6000))
		if _, err := dd.Write(a.Handle, 0, v2[:6000]); err != nil {
			t.Fatal(err)
		}
		flaky.armSyncFail(3)
		if err := dd.Sync(); !errors.Is(err, errFlakySync) {
			t.Fatalf("cut@%d: injected sync failure not surfaced: %v", cut, err)
		}
		// v3: dirty the committed records again, then cut power during
		// the retry Sync's record/header traffic.
		v3 := append([]byte(nil), v2...)
		copy(v3, randBytes(int64(run)*13+3, 5000))
		if _, err := dd.Write(a.Handle, 0, v3[:5000]); err != nil {
			t.Fatal(err)
		}
		dev.Arm(cut)
		dd.Sync() // expected to die at the cut; error irrelevant
		if !dev.Cut() {
			dd.Close()
			continue
		}
		fired++
		dd.abort()
		dev.Recover()
		if errs := backing.Check(); len(errs) != 0 {
			t.Fatalf("cut@%d: fsck after power cut: %v", cut, errs[0])
		}
		d2, err := Wrap(backing, wrapOpts...)
		if err != nil {
			t.Fatalf("cut@%d: remount after failed-flush crash: %v", cut, err)
		}
		ra, err := d2.Lookup(d2.Root(), "f")
		if err != nil {
			t.Fatalf("cut@%d: file lost: %v", cut, err)
		}
		got := make([]byte, ra.Size)
		if ra.Size > 0 {
			if _, _, err := d2.ReadInto(ra.Handle, 0, got); err != nil {
				t.Fatalf("cut@%d: read: %v", cut, err)
			}
		}
		if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) && !bytes.Equal(got, v3) {
			t.Fatalf("cut@%d: recovered content (%d bytes) matches no Sync-attempt state — manifest torn across slots", cut, ra.Size)
		}
		d2.SweepNow()
		res, err := d2.Verify()
		if err != nil {
			t.Fatalf("cut@%d: verify: %v", cut, err)
		}
		if res.Orphans != 0 || res.RefMismatch != 0 || res.MissingChunk != 0 {
			t.Fatalf("cut@%d: leaked chunks after failed-flush crash: %+v", cut, res)
		}
		d2.Close()
	}
	if fired == 0 {
		t.Fatal("no cut fired; workload too small for the sweep range")
	}
	t.Logf("verified slot atomicity across %d failed-flush power cuts", fired)
}

// TestDedupCrashDuringGC arms the cut around heavy sweep traffic
// specifically: every iteration deletes files, then sweeps repeatedly
// under write churn, so cuts land inside chunk reclamation and the
// manifest flush each GC cycle starts with.
func TestDedupCrashDuringGC(t *testing.T) {
	fired := 0
	for cut := 1; cut <= 40; cut++ {
		dev := newCrashDevice(8192, 4096, int64(cut)*131+7)
		backing, err := ffs.New(ffs.Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		dd, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		keep := randBytes(int64(cut), 30_000)
		a, err := dd.Create(dd.Root(), "keep", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dd.Write(a.Handle, 0, keep); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			v, err := dd.Create(dd.Root(), fmt.Sprintf("victim%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dd.Write(v.Handle, 0, randBytes(int64(cut)*100+int64(i), 20_000)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dd.Sync(); err != nil {
			t.Fatal(err)
		}
		// Unlink the victims while still unarmed (the harness reuses the
		// in-core ffs instance, so armed unlinks would diverge from the
		// platter by ffs's documented no-rollback choice), then arm and
		// sweep: the cut lands inside the sweeper's chunk reclamation and
		// the manifest flush that precedes it.
		for i := 0; i < 4; i++ {
			if err := dd.Remove(dd.Root(), fmt.Sprintf("victim%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		churn, err := dd.Create(dd.Root(), "churn", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		dev.Arm(cut)
		for i := 0; i < 8 && !dev.Cut(); i++ {
			dd.Write(churn.Handle, 0, randBytes(int64(cut)*1000+int64(i), 24_000))
			dd.SweepNow()
		}
		if !dev.Cut() {
			dd.Close()
			continue
		}
		fired++
		dd.abort()
		dev.Recover()
		if errs := backing.Check(); len(errs) != 0 {
			t.Fatalf("cut@%d: fsck: %v", cut, errs[0])
		}
		d2, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
		if err != nil {
			t.Fatalf("cut@%d: remount: %v", cut, err)
		}
		ka, err := d2.Lookup(d2.Root(), "keep")
		if err != nil {
			t.Fatalf("cut@%d: keep lost: %v", cut, err)
		}
		got := make([]byte, ka.Size)
		if _, _, err := d2.ReadInto(ka.Handle, 0, got); err != nil {
			t.Fatalf("cut@%d: read keep: %v", cut, err)
		}
		if !bytes.Equal(got, keep) {
			t.Fatalf("cut@%d: keep corrupted by GC of unrelated files", cut)
		}
		d2.SweepNow()
		res, err := d2.Verify()
		if err != nil {
			t.Fatalf("cut@%d: verify: %v", cut, err)
		}
		if res.Orphans != 0 || res.RefMismatch != 0 || res.MissingChunk != 0 {
			t.Fatalf("cut@%d: leaked chunks after GC crash: %+v", cut, res)
		}
		d2.Close()
	}
	if fired == 0 {
		t.Fatal("no cut fired")
	}
}

// TestDedupCrashSyncOverHeldHole: WRITE n+1 lands before n, so the tail
// holds the gap as a hole, and a Sync spills it as the zeros it reads
// as. Power is cut at every device write from WRITE n+1 on, through
// that Sync and, when n is sent at all, through WRITE n (which rewrites
// the zeros) and the Sync after it. After the cut the store remounts,
// the file is one of the Sync-attempt states no older than the last
// acknowledged one, and a sweep leaves no debris.
func TestDedupCrashSyncOverHeldHole(t *testing.T) {
	const w = 24 << 10 // one WRITE: several chunks at the 4 KiB average
	base := randBytes(41, 16<<10)
	n := randBytes(42, w)
	n1 := randBytes(43, w)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	states := [][]byte{base, join(base, make([]byte, w), n1), join(base, n, n1)}
	wrapOpts := []Option{WithAvgChunkSize(4096), WithSweepInterval(0)}
	for _, sendN := range []bool{false, true} {
		fired := 0
		for cut := 1; ; cut++ {
			dev := newCrashDevice(8192, 4096, int64(cut)*7919+17)
			backing, err := ffs.New(ffs.Config{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			dd, err := Wrap(backing, wrapOpts...)
			if err != nil {
				t.Fatal(err)
			}
			a, err := dd.Create(dd.Root(), "f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h := a.Handle
			if _, err := dd.Write(h, 0, base); err != nil {
				t.Fatal(err)
			}
			if err := dd.Sync(); err != nil {
				t.Fatal(err)
			}

			dev.Arm(cut)
			ack, tried := 0, 1
			if _, err := dd.Write(h, uint64(len(base)+w), n1); err == nil && !dev.Cut() {
				if _, holes := tailShape(t, dd, h); holes != 1 {
					t.Fatalf("cut@%d: the tail holds %d holes after a write past EOF, want 1", cut, holes)
				}
				tried = 2
				if err := dd.Sync(); err == nil && !dev.Cut() {
					ack = 1
				}
			}
			if sendN && !dev.Cut() {
				if _, err := dd.Write(h, uint64(len(base)), n); err == nil && !dev.Cut() {
					tried = 3
					if err := dd.Sync(); err == nil && !dev.Cut() {
						ack = 2
					}
				}
			}
			if !dev.Cut() {
				dd.Close()
				break // the cut point lies past the whole workload
			}
			fired++
			dd.abort()
			dev.Recover()

			if errs := backing.Check(); len(errs) != 0 {
				t.Fatalf("cut@%d: fsck after power cut: %v", cut, errs[0])
			}
			d2, err := Wrap(backing, wrapOpts...)
			if err != nil {
				t.Fatalf("cut@%d: remount after power cut: %v", cut, err)
			}
			ra, err := d2.Lookup(d2.Root(), "f")
			if err != nil {
				t.Fatalf("cut@%d: file lost: %v", cut, err)
			}
			got := make([]byte, ra.Size)
			if _, _, err := d2.ReadInto(ra.Handle, 0, got); err != nil {
				t.Fatalf("cut@%d: read: %v", cut, err)
			}
			if !slices.ContainsFunc(states[ack:tried], func(s []byte) bool { return bytes.Equal(got, s) }) {
				t.Fatalf("cut@%d: recovered %d bytes match no Sync state from the acknowledged one (%d) to the last tried (%d)",
					cut, ra.Size, ack, tried-1)
			}
			d2.SweepNow()
			res, err := d2.Verify()
			if err != nil {
				t.Fatalf("cut@%d: verify: %v", cut, err)
			}
			if res.Orphans != 0 || res.RefMismatch != 0 || res.MissingChunk != 0 {
				t.Fatalf("cut@%d: leaked chunks after the cut: %+v", cut, res)
			}
			d2.Close()
		}
		if fired < 10 {
			t.Fatalf("sendN=%v: only %d cut points fired", sendN, fired)
		}
		t.Logf("sendN=%v: Sync over a held hole durable at %d power-cut points", sendN, fired)
	}
}
