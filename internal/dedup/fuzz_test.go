package dedup

import (
	"bytes"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// FuzzCDC fuzzes the two properties the on-disk format depends on:
//
//  1. chunk geometry — every non-final chunk of the reference split
//     lies in [Min, Max], and the chunks exactly tile the input;
//  2. segmentation independence — writing the same bytes through the
//     dedup layer in fuzzer-chosen segments (including rewrites of
//     chunked bytes) always converges, once swept, to exactly the
//     reference split.
//
// Property 2 is what makes dedup work at all: two clients uploading the
// same file through different WRITE patterns must produce identical
// chunk sequences or nothing deduplicates.
func FuzzCDC(f *testing.F) {
	f.Add([]byte("hello world"), uint16(3), uint16(5))
	f.Add(bytes.Repeat([]byte{0}, 40_000), uint16(1000), uint16(7))
	f.Add(bytes.Repeat([]byte("abcdef"), 10_000), uint16(600), uint16(0))
	f.Fuzz(driveCDC)
}

// driveCDC is the fuzz body (also callable from plain tests).
func driveCDC(t *testing.T, data []byte, segSeed uint16, order uint16) {
	{
		if len(data) > 128<<10 {
			data = data[:128<<10]
		}
		p := ParamsForAvg(1024) // 256/1024/4096: multi-chunk on small inputs
		cuts := p.Split(data)
		total := 0
		for i, n := range cuts {
			if n <= 0 || n > p.Max {
				t.Fatalf("chunk %d has length %d (max %d)", i, n, p.Max)
			}
			if n < p.Min && i != len(cuts)-1 {
				t.Fatalf("non-final chunk %d has length %d (min %d)", i, n, p.Min)
			}
			total += n
		}
		if total != len(data) {
			t.Fatalf("chunks cover %d of %d bytes", total, len(data))
		}
		if len(data) == 0 {
			return
		}

		// Drive the layer with a segmentation derived from the fuzz
		// inputs and check the manifest equals the reference split.
		backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Wrap(backing, WithParams(p), WithSweepInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		a, err := d.Create(d.Root(), "f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		seg := int(segSeed)%8192 + 32
		var spans [][2]int
		for off := 0; off < len(data); off += seg {
			end := off + seg
			if end > len(data) {
				end = len(data)
			}
			spans = append(spans, [2]int{off, end})
		}
		if order%2 == 1 { // back-to-front: every write is a sparse extend
			for i, j := 0, len(spans)-1; i < j; i, j = i+1, j-1 {
				spans[i], spans[j] = spans[j], spans[i]
			}
		}
		for _, s := range spans {
			if _, err := d.Write(a.Handle, uint64(s[0]), data[s[0]:s[1]]); err != nil {
				t.Fatal(err)
			}
		}
		if order%3 == 0 { // sweep, then rewrite a middle span: overwrite convergence
			d.SweepNow()
			mid := spans[len(spans)/2]
			if _, err := d.Write(a.Handle, uint64(mid[0]), data[mid[0]:mid[1]]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, len(data))
		if _, _, err := d.ReadInto(a.Handle, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		eff := effectiveCuts(t, d, a.Handle)
		if len(eff) != len(cuts) {
			t.Fatalf("swept manifest has %d chunks, reference split %d", len(eff), len(cuts))
		}
		for i, n := range cuts {
			if eff[i] != n {
				t.Fatalf("chunk %d is %d bytes, reference %d", i, eff[i], n)
			}
		}
	}
}

// FuzzManifestHeader fuzzes the manifest parser the mount scan runs over
// every regular file: decodeHeader and readManifest over arbitrary
// header bytes, record bytes and backing file sizes (below 1 MiB, so a
// header may claim at most what such a file can hold). Neither may
// panic; a manifest they accept has non-empty records that tile at most
// its size, and its header survives an encode/decode round trip.
func FuzzManifestHeader(f *testing.F) {
	var hdr [hdrSize]byte
	encodeHeader(hdr[:], 3000, 0, manLayout{start: hdrSize, base: hdrSize, cap: 64, count: 2})
	recs := make([]byte, 2*recSize)
	encodeRec(recs, entry{n: 1000})
	encodeRec(recs[recSize:], entry{n: 1500})
	f.Add(hdr[:], recs, uint32(hdrSize+len(recs)))
	encodeHeader(hdr[:], 0, 0, emptyLayout())
	f.Add(hdr[:], []byte(nil), uint32(hdrSize))
	f.Fuzz(func(t *testing.T, hdr, recs []byte, backingSize uint32) {
		file := make([]byte, hdrSize, hdrSize+len(recs))
		copy(file, hdr)
		file = append(file, recs...)
		size := uint64(backingSize) % (1 << 20)
		d := &FS{backing: bytesFS{data: file}}
		m, l, err := d.readManifest(vfs.Attr{Size: size})
		if err != nil {
			return
		}
		if len(m.ents) != l.count || len(m.offs) != len(m.ents)+1 || m.prefix() > m.size {
			t.Fatalf("accepted %d records (count %d, %d offsets) covering %d of %d bytes",
				len(m.ents), l.count, len(m.offs), m.prefix(), m.size)
		}
		for i, e := range m.ents {
			if e.n == 0 || m.offs[i+1] != m.offs[i]+uint64(e.n) {
				t.Fatalf("record %d: %d bytes at %d, next at %d", i, e.n, m.offs[i], m.offs[i+1])
			}
		}
		var again [hdrSize]byte
		encodeHeader(again[:], m.size, m.shift, l)
		s, shift, l2, err := decodeHeader(again[:], size)
		if err != nil || s != m.size || shift != m.shift || l2 != l {
			t.Fatalf("round trip of size %d shift %d %+v gave %d %d %+v, %v", m.size, m.shift, l, s, shift, l2, err)
		}
	})
}

// bytesFS serves ReadInto from one byte slice, whatever the handle.
type bytesFS struct {
	vfs.FS
	data []byte
}

func (b bytesFS) ReadInto(_ vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	if off >= uint64(len(b.data)) {
		return 0, true, nil
	}
	n := copy(dst, b.data[off:])
	return n, off+uint64(n) == uint64(len(b.data)), nil
}
