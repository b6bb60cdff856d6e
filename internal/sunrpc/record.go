package sunrpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"discfs/internal/bufpool"
)

// TCP record marking (RFC 5531 §11): each RPC message is sent as one or
// more fragments, each prefixed by a 4-byte header whose high bit marks
// the final fragment and whose low 31 bits carry the fragment length.

const (
	lastFragmentBit = 1 << 31
	// maxRecordSize bounds a reassembled record. The negotiated-transfer
	// data plane carries up to nfs.MaxTransferLimit (1 MiB) of READ/WRITE
	// payload per record; 4 MiB leaves room for headers, the secure
	// channel's AEAD overhead and multi-fragment peers while still
	// stopping hostile length fields from exhausting memory.
	maxRecordSize = 4 << 20
	// maxFragment is the largest fragment we emit: big enough that a
	// maximal record leaves in one fragment (one header, one Write).
	maxFragment = 1 << 20
	// maxPrealloc bounds the buffer readRecord takes on a fragment
	// header's word alone, before any of the fragment has arrived.
	maxPrealloc = 64 << 10
)

// headerRoom is the zero prefix encoders reserve so writeFramed can
// patch the record-marking header in place and issue a single Write.
const headerRoom = 4

// writeRecord sends buf as one record, fragmenting as needed. Header and
// payload go out in a single Write: on high-latency transports the extra
// segment for a separate 4-byte header measurably inflates RPC times.
func writeRecord(w io.Writer, buf []byte) error {
	if len(buf) <= maxFragment {
		msg := bufpool.Get(4 + len(buf))
		binary.BigEndian.PutUint32(msg, uint32(len(buf))|lastFragmentBit)
		copy(msg[4:], buf)
		_, err := w.Write(msg)
		bufpool.Put(msg)
		return err
	}
	return writeFragmented(w, buf)
}

// writeFramed sends msg — whose first headerRoom bytes are reserved
// header space and whose remainder is the record — patching the header
// in place so a single-fragment record costs no copy at all.
func writeFramed(w io.Writer, msg []byte) error {
	rec := msg[headerRoom:]
	if len(rec) <= maxFragment {
		binary.BigEndian.PutUint32(msg, uint32(len(rec))|lastFragmentBit)
		_, err := w.Write(msg)
		return err
	}
	return writeFragmented(w, rec)
}

// writeFragmented is the multi-fragment slow path.
func writeFragmented(w io.Writer, buf []byte) error {
	var hdr [4]byte
	for {
		n := len(buf)
		last := true
		if n > maxFragment {
			n = maxFragment
			last = false
		}
		v := uint32(n)
		if last {
			v |= lastFragmentBit
		}
		binary.BigEndian.PutUint32(hdr[:], v)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		if last {
			return nil
		}
	}
}

// readRecord reassembles one record from r. The returned buffer comes
// from bufpool and ownership passes to the caller (the server returns it
// after dispatch, the client hands it to the reply's consumer). Like the
// buffers writeFramed sends, it is headerRoom-prefixed: the message
// starts at rec[headerRoom:], so that a transport record handed over
// whole (see msgReader) and a record reassembled here look the same and
// both go back to their size class on Put.
//
// A fragment header is unauthenticated, so its length is only a claim:
// the buffer is preallocated to at most maxPrealloc from it — a small
// single-fragment record, the common case, is read straight into a
// right-sized buffer. The buffer grows as the peer fills it: up to
// maxPrealloc whatever the headers claim, and past it straight to the
// end of the fragment (at least doubling, so a peer sending many
// fragments does not cost a copy each). A peer must thus send
// maxPrealloc bytes before a header makes the server take a larger
// buffer, and a large record costs one copy of its first maxPrealloc
// bytes.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	var rec []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if rec != nil && err == io.EOF {
				err = io.ErrUnexpectedEOF // EOF mid-record is a truncation
			}
			bufpool.Put(rec)
			return nil, err
		}
		v := binary.BigEndian.Uint32(hdr[:])
		last := v&lastFragmentBit != 0
		n := int(v &^ lastFragmentBit)
		if n > maxRecordSize || len(rec)+n > maxRecordSize+headerRoom {
			bufpool.Put(rec)
			return nil, fmt.Errorf("sunrpc: record exceeds %d bytes", maxRecordSize)
		}
		if rec == nil {
			rec = bufpool.Get(min(headerRoom+n, maxPrealloc))[:headerRoom]
		}
		for end := len(rec) + n; len(rec) < end; {
			have := len(rec)
			if have == cap(rec) {
				next := end
				if have < maxPrealloc {
					next = min(end, maxPrealloc)
				}
				rec = bufpool.Grow(rec, next)
			}
			rec = rec[:min(end, cap(rec))]
			if _, err := io.ReadFull(r, rec[have:]); err != nil {
				bufpool.Put(rec)
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
		}
		if last {
			return rec, nil
		}
	}
}

// recordSource is a transport that already delivers its bytes in whole
// authenticated records (the secure channel): ReadRecord returns the
// next one in a pooled buffer the caller owns.
type recordSource interface {
	ReadRecord() ([]byte, error)
}

// msgReader reads the RPC messages arriving on one connection. Over a
// plain byte stream (TCP: the NFS and CFS-NE baselines) it reassembles
// them through a bufio.Reader. Over a recordSource the sender's single
// Write per message arrives as one transport record — record mark and
// message, exactly a headerRoom-prefixed record — and is passed on as it
// stands, never copied; anything else (several messages in a record, a
// message in fragments or spread over records) is reassembled from the
// records as from a byte stream.
type msgReader struct {
	br   *bufio.Reader // plain stream; nil over a recordSource
	src  recordSource
	pend []byte // transport record being consumed piecemeal: the unread part
	held []byte // and its pooled buffer
}

func newMsgReader(conn io.Reader) *msgReader {
	if src, ok := conn.(recordSource); ok {
		return &msgReader{src: src}
	}
	return &msgReader{br: bufio.NewReaderSize(conn, 64<<10)}
}

// next returns the next message as readRecord does.
func (m *msgReader) next() ([]byte, error) {
	if m.src == nil {
		return readRecord(m.br)
	}
	if len(m.pend) == 0 {
		if err := m.fill(); err != nil {
			return nil, err
		}
		if rec := m.pend; len(rec) >= headerRoom {
			if v := binary.BigEndian.Uint32(rec); v&lastFragmentBit != 0 && int(v&^lastFragmentBit) == len(rec)-headerRoom {
				m.held, m.pend = nil, nil
				return rec, nil
			}
		}
	}
	return readRecord(m)
}

// fill replaces the drained transport record with the next one.
func (m *msgReader) fill() error {
	m.release()
	rec, err := m.src.ReadRecord()
	m.held, m.pend = rec, rec
	return err
}

// Read drains the transport records as a byte stream, for readRecord.
func (m *msgReader) Read(p []byte) (int, error) {
	for len(m.pend) == 0 {
		if err := m.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, m.pend)
	m.pend = m.pend[n:]
	return n, nil
}

// release recycles the transport record held for piecemeal reading;
// the connection's read loop calls it on the way out.
func (m *msgReader) release() {
	bufpool.Put(m.held)
	m.held, m.pend = nil, nil
}
