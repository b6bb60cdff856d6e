package ffs

// Deadlock regressions: adversarial rename cycles (a↔b swaps within
// and across directories, directory renames, removes and hard links
// over the same names) from 8 workers, guarded by a watchdog. These
// interleavings deadlocked an earlier store that locked each inode on
// its own and ordered the locks of multi-inode operations (e.g. a
// rename locking its target file while a remove holding the source
// directory waited on it). The filesystem has one lock, which no
// operation takes twice, and these tests keep it that way. Their only
// assertions are: they finish, and fsck passes.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"discfs/internal/vfs"
)

// TestDeadlockRenameIntoOlderSubdirVsRmdir pins a lock-order inversion
// of per-inode locking: a directory with a smaller inode number living
// UNDER a newer directory (an old dir renamed beneath a new one).
// Locking rename's two parents in inode order then took the child
// directory before its ancestor, while rmdir took ancestor-then-child —
// a cycle that wedged both operations, and then the whole filesystem,
// within seconds.
func TestDeadlockRenameIntoOlderSubdirVsRmdir(t *testing.T) {
	fs, err := New(Config{BlockSize: 1024, NumBlocks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	oldA, err := fs.Mkdir(root, "old", 0o755) // allocated first: smaller ino
	if err != nil {
		t.Fatal(err)
	}
	pA, err := fs.Mkdir(root, "p", 0o755) // allocated later: larger ino
	if err != nil {
		t.Fatal(err)
	}
	if oldA.Handle.Ino >= pA.Handle.Ino {
		t.Fatalf("test setup: ino(old)=%d not below ino(p)=%d", oldA.Handle.Ino, pA.Handle.Ino)
	}
	if err := fs.Rename(root, "old", pA.Handle, "old"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(pA.Handle, "f", 0o644); err != nil {
		t.Fatal(err)
	}
	// A keeper entry makes every Rmdir fail ErrNotEmpty — after it has
	// looked into the child directory, which is where the cycle lived.
	if _, err := fs.Create(oldA.Handle, "keep", 0o644); err != nil {
		t.Fatal(err)
	}

	const iters = 4000
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() { // renamer: bounce p/f into and out of p/old
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fs.Rename(pA.Handle, "f", oldA.Handle, "f"); err != nil && !errors.Is(err, vfs.ErrNotExist) {
					errs <- fmt.Errorf("rename down: %v", err)
					return
				}
				if err := fs.Rename(oldA.Handle, "f", pA.Handle, "f"); err != nil && !errors.Is(err, vfs.ErrNotExist) {
					errs <- fmt.Errorf("rename up: %v", err)
					return
				}
			}
		}()
		go func() { // remover: rmdir reads the parent, then the child
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fs.Rmdir(pA.Handle, "old"); !errors.Is(err, vfs.ErrNotEmpty) {
					errs <- fmt.Errorf("rmdir: %v, want ErrNotEmpty", err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock: rename-vs-rmdir wedged after 60s\n%s", buf[:n])
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if es := fs.Check(); len(es) != 0 {
		t.Fatalf("fsck after storm: %v", es[0])
	}
}

func TestDeadlockAdversarialRenameCycles(t *testing.T) {
	fs, err := New(Config{BlockSize: 1024, NumBlocks: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	// Two directories, two shared file names, a subdirectory that
	// workers rename back and forth between A and B, and a deeper
	// nesting so ancestry walks run during the storm.
	mk := func(dir vfs.Handle, name string) vfs.Handle {
		a, err := fs.Mkdir(dir, name, 0o755)
		if err != nil {
			t.Fatal(err)
		}
		return a.Handle
	}
	dirA := mk(root, "A")
	dirB := mk(root, "B")
	mk(dirA, "suba")
	mk(dirB, "deep")
	for _, spec := range []struct {
		dir  vfs.Handle
		name string
	}{{dirA, "x"}, {dirA, "y"}, {dirB, "x"}, {dirB, "y"}} {
		if _, err := fs.Create(spec.dir, spec.name, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const opsPerWorker = 1500
	benign := func(err error) bool {
		return err == nil ||
			errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrExist) ||
			errors.Is(err, vfs.ErrIsDir) || errors.Is(err, vfs.ErrNotDir) ||
			errors.Is(err, vfs.ErrNotEmpty) || errors.Is(err, vfs.ErrInval) ||
			errors.Is(err, vfs.ErrStale)
	}
	done := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(6000 + w)))
			for op := 0; op < opsPerWorker; op++ {
				var err error
				switch rng.Intn(12) {
				case 0:
					err = fs.Rename(dirA, "x", dirB, "x")
				case 1:
					err = fs.Rename(dirB, "x", dirA, "x")
				case 2:
					err = fs.Rename(dirA, "x", dirA, "y") // same-dir swap
				case 3:
					err = fs.Rename(dirB, "y", dirB, "x")
				case 4:
					err = fs.Rename(dirA, "suba", dirB, "suba") // directory rename
				case 5:
					err = fs.Rename(dirB, "suba", dirA, "suba")
				case 6: // rename a directory onto a deeper path (ancestry walk)
					err = fs.Rename(dirB, "deep", dirA, "deep")
				case 7:
					err = fs.Rename(dirA, "deep", dirB, "deep")
				case 8: // remove + recreate the contended target
					if err = fs.Remove(dirA, "y"); benign(err) {
						_, err = fs.Create(dirA, "y", 0o644)
					}
				case 9: // hard link across directories, then unlink
					if a, lerr := fs.Lookup(dirB, "x"); lerr == nil {
						if _, err = fs.Link(dirA, fmt.Sprintf("lnk%d", w), a.Handle); err == nil || benign(err) {
							err = fs.Remove(dirA, fmt.Sprintf("lnk%d", w))
						}
					}
				case 10: // reads race the namespace storm
					_, err = fs.ReadDir(dirA)
				default:
					_, err = fs.Lookup(dirB, "..")
				}
				if !benign(err) {
					errs <- fmt.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock: workers wedged after 60s\n%s", buf[:n])
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if es := fs.Check(); len(es) != 0 {
		t.Fatalf("fsck after rename storm: %v", es[0])
	}
}
