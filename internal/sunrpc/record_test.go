package sunrpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"discfs/internal/bufpool"
)

// TestReadRecordManyFragments reassembles a record sent as 100
// fragments — the case the preallocate-and-grow-geometrically path
// exists for (the old append-per-fragment reassembly was quadratic).
func TestReadRecordManyFragments(t *testing.T) {
	const frags = 100
	const fragLen = 1000
	want := make([]byte, frags*fragLen)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	var hdr [4]byte
	for i := 0; i < frags; i++ {
		v := uint32(fragLen)
		if i == frags-1 {
			v |= lastFragmentBit
		}
		binary.BigEndian.PutUint32(hdr[:], v)
		buf.Write(hdr[:])
		buf.Write(want[i*fragLen : (i+1)*fragLen])
	}
	got, err := readRecord(&buf)
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	if !bytes.Equal(got[headerRoom:], want) {
		t.Fatal("100-fragment record corrupted")
	}
	bufpool.Put(got)
}

// TestReadRecordZeroLengthFragments exercises empty fragments mid-record
// and a zero-length record.
func TestReadRecordZeroLengthFragments(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0) // empty, not last
	buf.Write(hdr[:])
	binary.BigEndian.PutUint32(hdr[:], 3|lastFragmentBit)
	buf.Write(hdr[:])
	buf.Write([]byte("abc"))
	got, err := readRecord(&buf)
	if err != nil || string(got[headerRoom:]) != "abc" {
		t.Fatalf("got %q, %v", got, err)
	}

	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], lastFragmentBit)
	buf.Write(hdr[:])
	got, err = readRecord(&buf)
	if err != nil || len(got) != headerRoom {
		t.Fatalf("empty record: %q, %v", got, err)
	}
}

// TestReadRecordTruncated: EOF mid-record is a truncation error, not a
// clean EOF.
func TestReadRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100) // not last, then nothing
	buf.Write(hdr[:])
	buf.Write(make([]byte, 100))
	if _, err := readRecord(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated record: %v", err)
	}
}

// TestWriteFramed checks the in-place single-Write framing used by the
// client call path and the server reply path.
func TestWriteFramed(t *testing.T) {
	payload := []byte("some rpc record")
	msg := make([]byte, headerRoom+len(payload))
	copy(msg[headerRoom:], payload)
	var buf bytes.Buffer
	if err := writeFramed(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := readRecord(&buf)
	if err != nil || !bytes.Equal(got[headerRoom:], payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	// Oversized payloads fall back to fragmented writes.
	big := make([]byte, maxFragment+headerRoom+999)
	for i := range big {
		big[i] = byte(i)
	}
	buf.Reset()
	if err := writeFramed(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err = readRecord(&buf)
	if err != nil || !bytes.Equal(got[headerRoom:], big[headerRoom:]) {
		t.Fatalf("fragmented framed write failed: %v", err)
	}
}

// TestRecordPoolBalance: a serial write/read cycle returns every pooled
// buffer (the leak check of the record layer).
func TestRecordPoolBalance(t *testing.T) {
	payload := make([]byte, 300<<10)
	before := bufpool.Outstanding()
	for i := 0; i < 32; i++ {
		var buf bytes.Buffer
		if err := writeRecord(&buf, payload); err != nil {
			t.Fatal(err)
		}
		rec, err := readRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(rec)
	}
	if after := bufpool.Outstanding(); after != before {
		t.Errorf("record layer leaked %d pooled buffers", after-before)
	}
}

func BenchmarkReadRecordLarge(b *testing.B) {
	payload := make([]byte, 512<<10)
	var frame bytes.Buffer
	if err := writeRecord(&frame, payload); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, err := readRecord(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(rec)
	}
}

// TestUnbackedHeaderTakesNoLargeBuffer: a plain-TCP peer sends a
// fragment header claiming 4 MiB and then a few bytes — at once, or
// after an empty first fragment. The server takes a buffer of at most
// maxPrealloc for them, not one the size the header claims: no Get, and
// no fresh allocation, in any class above it.
func TestUnbackedHeaderTakesNoLargeBuffer(t *testing.T) {
	big := func() (s bufpool.PoolStats) {
		for n := 2 * maxPrealloc; n <= bufpool.MaxPooled; n *= 2 {
			c := bufpool.ClassStats(n)
			s.Gets += c.Gets
			s.Misses += c.Misses
		}
		return s
	}
	frag := func(n uint32, body int) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), make([]byte, body)...)
	}
	for name, wire := range map[string][]byte{
		"one fragment":            frag(maxRecordSize|lastFragmentBit, 4),
		"after an empty fragment": append(frag(0, 0), frag(maxRecordSize|lastFragmentBit, 8<<10)...),
	} {
		srv := NewServer()
		cli, conn := net.Pipe()
		served := make(chan struct{})
		before := big()
		go func() {
			defer close(served)
			srv.ServeConn(conn)
		}()
		if _, err := cli.Write(wire); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		<-served
		srv.Close()
		if after := big(); after != before {
			t.Errorf("%s: %d bytes on the wire took %d Gets (%d fresh) of classes above %d KiB",
				name, len(wire), after.Gets-before.Gets, after.Misses-before.Misses, maxPrealloc>>10)
		}
	}
}

// TestReadRecordGrowsToLargeRecord: a 1 MiB single-fragment record
// arrives whole through the buffer readRecord grows as it fills.
func TestReadRecordGrowsToLargeRecord(t *testing.T) {
	want := make([]byte, 1<<20)
	for i := range want {
		want[i] = byte(i * 13)
	}
	var buf bytes.Buffer
	if err := writeRecord(&buf, want); err != nil {
		t.Fatal(err)
	}
	before := bufpool.Outstanding()
	got, err := readRecord(&buf)
	if err != nil || !bytes.Equal(got[headerRoom:], want) {
		t.Fatalf("1 MiB record: %d bytes, %v", len(got), err)
	}
	bufpool.Put(got)
	if after := bufpool.Outstanding(); after != before {
		t.Errorf("growing the record leaked %d pooled buffers", after-before)
	}
}
