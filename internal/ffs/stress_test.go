package ffs

// Concurrency stress for the filesystem's lock: workers hammer one
// filesystem with create/write/read/rename/remove/mkdir traffic across
// a set of SHARED directories while a checker goroutine repeatedly runs
// fsck, which holds the lock exclusively. Names are worker-unique, so
// each worker tracks its own files against a byte-exact model even
// though every directory is contended. Run with -race (CI does).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"discfs/internal/vfs"
)

type stressFile struct {
	name    string
	dir     int // index into the shared dirs
	content []byte
	exists  bool
}

func stressFSWorker(t *testing.T, fs *FFS, dirs []vfs.Handle, worker, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const filesPerWorker = 4
	files := make([]stressFile, filesPerWorker)
	for j := range files {
		files[j] = stressFile{name: fmt.Sprintf("w%d-f%d", worker, j)}
	}
	resolve := func(f *stressFile) (vfs.Handle, error) {
		a, err := fs.Lookup(dirs[f.dir], f.name)
		if err != nil {
			return vfs.Handle{}, err
		}
		return a.Handle, nil
	}
	for op := 0; op < ops; op++ {
		f := &files[rng.Intn(filesPerWorker)]
		switch k := rng.Intn(10); {
		case k < 2: // create or remove
			if !f.exists {
				if _, err := fs.Create(dirs[f.dir], f.name, 0o644); err != nil {
					return fmt.Errorf("w%d op %d: create %s: %w", worker, op, f.name, err)
				}
				f.exists = true
				f.content = nil
			} else {
				if err := fs.Remove(dirs[f.dir], f.name); err != nil {
					return fmt.Errorf("w%d op %d: remove %s: %w", worker, op, f.name, err)
				}
				f.exists = false
			}
		case k < 6: // write a random span
			if !f.exists {
				continue
			}
			h, err := resolve(f)
			if err != nil {
				return fmt.Errorf("w%d op %d: lookup %s: %w", worker, op, f.name, err)
			}
			off := rng.Intn(20000)
			n := rng.Intn(9000) + 1
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(worker*31 + op*7 + i)
			}
			if _, err := fs.Write(h, uint64(off), data); err != nil {
				return fmt.Errorf("w%d op %d: write %s: %w", worker, op, f.name, err)
			}
			if need := off + n; len(f.content) < need {
				f.content = append(f.content, make([]byte, need-len(f.content))...)
			}
			copy(f.content[off:], data)
		case k < 8: // read back and verify byte-exactly
			if !f.exists {
				continue
			}
			h, err := resolve(f)
			if err != nil {
				return fmt.Errorf("w%d op %d: lookup %s: %w", worker, op, f.name, err)
			}
			got, _, err := fs.Read(h, 0, uint32(len(f.content)+1))
			if err != nil {
				return fmt.Errorf("w%d op %d: read %s: %w", worker, op, f.name, err)
			}
			if !bytes.Equal(got, f.content) {
				d := 0
				for d < len(got) && d < len(f.content) && got[d] == f.content[d] {
					d++
				}
				return fmt.Errorf("w%d op %d: %s differs at byte %d (len got=%d want=%d)",
					worker, op, f.name, d, len(got), len(f.content))
			}
		default: // rename into another shared directory (same unique name)
			if !f.exists {
				continue
			}
			to := rng.Intn(len(dirs))
			if err := fs.Rename(dirs[f.dir], f.name, dirs[to], f.name); err != nil {
				return fmt.Errorf("w%d op %d: rename %s d%d->d%d: %w", worker, op, f.name, f.dir, to, err)
			}
			f.dir = to
		}
	}
	return nil
}

func TestStressConcurrentNamespace(t *testing.T) {
	fs, err := New(Config{BlockSize: 4096, NumBlocks: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	const nDirs = 4
	dirs := make([]vfs.Handle, nDirs)
	for i := range dirs {
		a, err := fs.Mkdir(root, fmt.Sprintf("d%d", i), 0o755)
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = a.Handle
	}

	const workers, ops = 8, 300
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A checker goroutine runs fsck on the live filesystem mid-stress.
	var checkerWg sync.WaitGroup
	checkerWg.Add(1)
	go func() {
		defer checkerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if es := fs.Check(); len(es) != 0 {
				errs <- fmt.Errorf("mid-stress fsck: %v", es[0])
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := stressFSWorker(t, fs, dirs, w, ops, int64(4000+w)); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	checkerWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if es := fs.Check(); len(es) != 0 {
		t.Fatalf("final fsck: %v", es[0])
	}
}
