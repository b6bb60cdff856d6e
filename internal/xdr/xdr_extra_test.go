package xdr

import (
	"bytes"
	"testing"
)

func TestOpaqueInto(t *testing.T) {
	e := NewEncoder()
	e.Uint32(7)
	w := e.OpaqueInto(5)
	copy(w, "hello")
	e.Uint32(9)

	d := NewDecoder(e.Bytes())
	if d.Uint32() != 7 {
		t.Fatal("lead word")
	}
	if got := d.Opaque(100); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("opaque = %q", got)
	}
	if d.Uint32() != 9 || d.Err() != nil {
		t.Fatalf("trail word, err=%v", d.Err())
	}
}

// TestOpaqueIntoReusedBufferNotDirty ensures the padding after the
// window is zeroed even when the encoder reuses a dirty backing array
// (the window itself is the caller's to fill).
func TestOpaqueIntoReusedBufferNotDirty(t *testing.T) {
	e := NewEncoder()
	e.OpaqueFixed(bytes.Repeat([]byte{0xFF}, 64))
	e.Reset()
	w := e.OpaqueInto(5) // 3 pad bytes follow the window
	copy(w, "abcde")
	d := NewDecoder(e.Bytes())
	got := d.Opaque(100)
	if d.Err() != nil || !bytes.Equal(got, []byte("abcde")) {
		t.Fatalf("opaque = %q, err=%v", got, d.Err())
	}
	// The padding bytes must be zero, not stale 0xFF.
	raw := e.Bytes()
	for _, b := range raw[4+5:] {
		if b != 0 {
			t.Fatalf("dirty padding: % x", raw)
		}
	}
}

func TestReservePatchTruncate(t *testing.T) {
	e := NewEncoderWith(make([]byte, 0, 16))
	off := e.Reserve(4)
	e.Uint32(42)
	body := e.Len()
	e.Uint32(99) // rolled back
	e.Truncate(body)
	e.PatchUint32(off, uint32(e.Len()-4))

	d := NewDecoder(e.Bytes())
	if n := d.Uint32(); n != 4 {
		t.Fatalf("patched length = %d", n)
	}
	if v := d.Uint32(); v != 42 {
		t.Fatalf("body = %d", v)
	}
	if d.Remaining() != 0 {
		t.Fatalf("truncate left %d bytes", d.Remaining())
	}
}

func TestPaddingStillZero(t *testing.T) {
	e := NewEncoder()
	e.Opaque([]byte{1})
	e.OpaqueFixed([]byte{2, 3})
	want := []byte{0, 0, 0, 1, 1, 0, 0, 0, 2, 3, 0, 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("got % x want % x", e.Bytes(), want)
	}
}

func BenchmarkEncodeOpaque(b *testing.B) {
	data := make([]byte, 8190) // forces 2 pad bytes
	e := NewEncoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Opaque(data)
	}
}
