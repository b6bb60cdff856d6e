// Package xdr implements the External Data Representation standard
// (RFC 4506), the wire encoding underneath ONC RPC and NFS.
//
// The Encoder is infallible (it writes to memory); the Decoder uses a
// sticky error so protocol code can decode a whole structure and check
// the error once at the end.
package xdr

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"discfs/internal/bufpool"
)

// ErrShort indicates a decode past the end of the buffer.
var ErrShort = errors.New("xdr: short buffer")

// ErrTooLong indicates a variable-length item exceeding its declared
// maximum.
var ErrTooLong = errors.New("xdr: item exceeds maximum length")

// pad returns the number of zero bytes that pad n to a 4-byte boundary.
func pad(n int) int { return (4 - n%4) % 4 }

// Encoder serializes values into an in-memory XDR stream.
type Encoder struct {
	buf    []byte
	pooled bool
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderWith returns an encoder borrowing buf's backing array
// (contents are discarded), for callers that manage encode buffers
// through the shared pool. Ownership of the array transfers to the
// encoder: when the stream outgrows it, the encoder moves to a larger
// pooled array and recycles the old one. After the stream is consumed,
// Bytes is the buffer to return to the pool.
func NewEncoderWith(buf []byte) *Encoder { return &Encoder{buf: buf[:0], pooled: true} }

// ensure grows a pooled encoder's backing array through bufpool so the
// final buffer keeps a recyclable size class. Plain encoders rely on
// append's growth (their buffers are never pooled).
func (e *Encoder) ensure(n int) {
	if !e.pooled || cap(e.buf)-len(e.buf) >= n {
		return
	}
	l := len(e.buf)
	e.buf = bufpool.Grow(e.buf, l+n)[:l]
}

// Bytes returns the encoded stream. The slice aliases the encoder's
// buffer; it is valid until the next method call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoder's contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.ensure(4)
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) Uint64(v uint64) {
	e.Uint32(uint32(v >> 32))
	e.Uint32(uint32(v))
}

// Int64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean (a 32-bit 0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// zeros backs the append-free zero padding.
var zeros [4]byte

// Opaque encodes variable-length opaque data with its length prefix.
func (e *Encoder) Opaque(b []byte) {
	e.ensure(4 + len(b) + pad(len(b)))
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	e.buf = append(e.buf, zeros[:pad(len(b))]...)
}

// OpaqueV encodes the concatenation of segs as one variable-length
// opaque item — Opaque for a payload held in pieces, still one copy.
func (e *Encoder) OpaqueV(segs [][]byte) {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	e.ensure(4 + n + pad(n))
	e.Uint32(uint32(n))
	for _, s := range segs {
		e.buf = append(e.buf, s...)
	}
	e.buf = append(e.buf, zeros[:pad(n)]...)
}

// OpaqueFixed encodes fixed-length opaque data (no length prefix).
func (e *Encoder) OpaqueFixed(b []byte) {
	e.ensure(len(b) + pad(len(b)))
	e.buf = append(e.buf, b...)
	e.buf = append(e.buf, zeros[:pad(len(b))]...)
}

// OpaqueInto encodes the header and padding of an n-byte opaque item and
// returns the payload window for the caller to fill in place — the
// append-free path for payloads produced directly into the stream (one
// copy fewer than building the payload elsewhere and calling Opaque).
// The window's contents are undefined until the caller fills it: every
// byte must be written (or the item shortened with Truncate) before the
// stream is sent. The window is valid until the next Encoder method
// call.
func (e *Encoder) OpaqueInto(n int) []byte {
	e.Uint32(uint32(n))
	off := e.extend(n + pad(n))
	clear(e.buf[off+n:])
	return e.buf[off : off+n]
}

// Reserve appends n zero bytes and returns their offset, for fields
// whose value is known only later (frame headers, patched status words).
func (e *Encoder) Reserve(n int) int {
	off := e.extend(n)
	clear(e.buf[off:])
	return off
}

// extend lengthens the stream by n bytes of undefined content and
// returns their offset.
func (e *Encoder) extend(n int) int {
	e.ensure(n)
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return off
}

// PatchUint32 overwrites the 4 bytes at off (previously Reserved or
// encoded) with v.
func (e *Encoder) PatchUint32(off int, v uint32) {
	b := e.buf[off : off+4]
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// Truncate discards everything encoded after offset n (e.g. a result
// body rolled back when its handler failed).
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// String encodes an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// OptionalFlag encodes the boolean discriminant of an XDR optional; the
// caller encodes the body if present is true.
func (e *Encoder) OptionalFlag(present bool) { e.Bool(present) }

// Decoder deserializes values from an XDR stream. The first failure
// sticks: subsequent calls return zero values and Err reports the error.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Buffer returns the decoder's entire backing buffer, for callers that
// manage its pooled lifetime. Every slice previously decoded (Opaque
// aliases) and the decoder itself are invalid once the buffer is
// recycled.
func (d *Decoder) Buffer() []byte { return d.data }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.data) {
		d.fail(ErrShort)
		return 0
	}
	b := d.data[d.off:]
	d.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes an unsigned hyper.
func (d *Decoder) Uint64() uint64 {
	hi := d.Uint32()
	lo := d.Uint32()
	return uint64(hi)<<32 | uint64(lo)
}

// Int64 decodes a hyper.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes an XDR boolean, failing on values other than 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.Uint32()
	if d.err != nil {
		return false
	}
	switch v {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(fmt.Errorf("xdr: bad bool value %d", v))
	return false
}

// Opaque decodes variable-length opaque data, enforcing maxLen (use a
// negative maxLen for "no limit"). The returned slice aliases the input.
func (d *Decoder) Opaque(maxLen int) []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if maxLen >= 0 && n > uint32(maxLen) {
		d.fail(fmt.Errorf("%w: %d > %d", ErrTooLong, n, maxLen))
		return nil
	}
	if uint32(d.Remaining()) < n {
		d.fail(ErrShort)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	p := pad(int(n))
	if d.Remaining() < p {
		d.fail(ErrShort)
		return nil
	}
	d.off += p
	return b
}

// OpaqueFixed decodes n bytes of fixed-length opaque data.
func (d *Decoder) OpaqueFixed(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n+pad(n) {
		d.fail(ErrShort)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n + pad(n)
	return b
}

// String decodes an XDR string with the given maximum length.
func (d *Decoder) String(maxLen int) string {
	return string(d.Opaque(maxLen))
}

// OptionalFlag decodes the discriminant of an XDR optional.
func (d *Decoder) OptionalFlag() bool { return d.Bool() }

// Count decodes an array length, bounding it to max to prevent
// attacker-controlled allocations.
func (d *Decoder) Count(max int) int {
	n := d.Uint32()
	if d.err != nil {
		return 0
	}
	if n > uint32(max) || n > math.MaxInt32 {
		d.fail(fmt.Errorf("%w: array of %d (max %d)", ErrTooLong, n, max))
		return 0
	}
	return int(n)
}
