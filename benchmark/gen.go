package main

import (
	"encoding/binary"
	"fmt"
	"strings"

	"discfs/internal/vfs"
)

// rng is splitmix64: every input of the benchmark derives from -seed
// through it, so the same seed gives the same bytes, offsets and keys on
// every Go version (math/rand's stream is not part of its contract).
type rng struct{ x uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{x: seed}
	for _, c := range []byte(stream) {
		r.x = r.x*1099511628211 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes incompressible bytes to buf.
func (r *rng) fill(buf []byte) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.next())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(r.next())
	}
}

// ---- the Fig 12 source tree (copied from internal/bench so that later
// changes to that package cannot move this benchmark) ----

var subsystemNames = []string{
	"kern", "vm", "net", "netinet", "nfs", "ufs", "dev", "arch",
	"sys", "crypto", "ddb", "isofs", "miscfs", "msdosfs", "ntfs",
	"pci", "scsi", "stand", "uvm", "altq", "compat", "ipsec", "lib", "conf",
}

var cIdentifiers = []string{
	"softc", "mbuf", "vnode", "proc", "inode", "buf", "uio", "cred",
	"flags", "error", "unit", "addr", "len", "pool", "queue", "lock",
}

// wcTotals are the counts `wc` prints: the search oracle compares the
// totals read through the stack with those computed at populate time.
type wcTotals struct {
	Files               int
	Lines, Words, Bytes int64
}

// wc adds data's counts to t; inWord carries word state across chunks
// of one file.
func (t *wcTotals) wc(data []byte, inWord bool) bool {
	t.Bytes += int64(len(data))
	for _, c := range data {
		if c == '\n' {
			t.Lines++
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			inWord = false
		} else if !inWord {
			inWord = true
			t.Words++
		}
	}
	return inWord
}

// generateTree writes sys/<subsystem>/<files> under root: dirs
// subsystems of perDir files (3:1 .c to .h), sizes mean/2..3*mean/2 of
// pseudo-C text, and returns the wc totals of what it wrote.
func generateTree(fs vfs.FS, root vfs.Handle, r *rng, dirs, perDir, meanSize int) (wcTotals, error) {
	var tot wcTotals
	sys, err := fs.Mkdir(root, "sys", 0o755)
	if err != nil {
		return tot, fmt.Errorf("mkdir sys: %w", err)
	}
	for i := 0; i < dirs; i++ {
		name := subsystemNames[i%len(subsystemNames)]
		if i >= len(subsystemNames) {
			name = fmt.Sprintf("%s%d", name, i/len(subsystemNames))
		}
		dir, err := fs.Mkdir(sys.Handle, name, 0o755)
		if err != nil {
			return tot, fmt.Errorf("mkdir %s: %w", name, err)
		}
		for j := 0; j < perDir; j++ {
			ext := ".c"
			if j%4 == 3 {
				ext = ".h"
			}
			fname := fmt.Sprintf("%s_%03d%s", name, j, ext)
			attr, err := fs.Create(dir.Handle, fname, 0o644)
			if err != nil {
				return tot, fmt.Errorf("create %s: %w", fname, err)
			}
			content := syntheticSource(r, fname, meanSize/2+r.intn(meanSize))
			if _, err := fs.Write(attr.Handle, 0, content); err != nil {
				return tot, fmt.Errorf("write %s: %w", fname, err)
			}
			tot.Files++
			tot.wc(content, false)
		}
	}
	return tot, vfs.SyncFS(fs)
}

func syntheticSource(r *rng, name string, size int) []byte {
	var b strings.Builder
	b.Grow(size + 256)
	fmt.Fprintf(&b, "/*\t$Synth: %s,v 1.%d 2001/06/15 Exp $\t*/\n\n", name, r.intn(40)+1)
	b.WriteString("#include <sys/param.h>\n#include <sys/systm.h>\n\n")
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".c"), ".h")
	id := func() string { return cIdentifiers[r.intn(len(cIdentifiers))] }
	for fn := 1; b.Len() < size; fn++ {
		fmt.Fprintf(&b, "static int\n%s_fn%d(struct %s *%s, int %s)\n{\n", base, fn, id(), id(), id())
		for s, stmts := 0, 3+r.intn(12); s < stmts; s++ {
			fmt.Fprintf(&b, "\t%s = %s + %d;\n", id(), id(), r.intn(4096))
		}
		b.WriteString("\treturn (0);\n}\n\n")
	}
	return []byte(b.String())
}

func isSource(name string) bool {
	return strings.HasSuffix(name, ".c") || strings.HasSuffix(name, ".h")
}
