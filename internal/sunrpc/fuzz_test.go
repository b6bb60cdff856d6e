package sunrpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"discfs/internal/bufpool"
)

// FuzzMsgReader reads arbitrary bytes as a stream of record-marked RPC
// messages, the way a plain-TCP connection (ServePlain: no secure
// channel, no authentication in front) is read. Every message handed
// out is headerRoom-prefixed and within maxRecordSize, and every pooled
// buffer comes back. The same bytes, cut into two transport records as a
// secure channel would deliver them, must read as the same messages and
// end the same way.
func FuzzMsgReader(f *testing.F) {
	frame := func(frags ...string) []byte {
		var b []byte
		for i, s := range frags {
			v := uint32(len(s))
			if i == len(frags)-1 {
				v |= lastFragmentBit
			}
			b = binary.BigEndian.AppendUint32(b, v)
			b = append(b, s...)
		}
		return b
	}
	f.Add(frame("call"), uint16(0))
	f.Add(append(frame("one"), frame("tw", "o")...), uint16(7))
	f.Add(frame("", "", "x"), uint16(4))
	f.Add(frame("truncated")[:8], uint16(2))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(1)) // hostile length
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0}, uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		outstanding := bufpool.Outstanding()
		plain, plainErr := readAll(t, newMsgReader(bytes.NewReader(data)))
		if n := len(bytes.Join(plain, nil)); n > len(data) {
			t.Fatalf("%d message bytes out of %d read", n, len(data))
		}
		at := int(cut) % (len(data) + 1)
		recs, recErr := readAll(t, &msgReader{src: &records{parts: [][]byte{data[:at], data[at:]}}})
		if len(plain) != len(recs) || plainErr.Error() != recErr.Error() {
			t.Fatalf("plain stream: %d messages, %v; records cut at %d: %d messages, %v", len(plain), plainErr, at, len(recs), recErr)
		}
		for i := range plain {
			if !bytes.Equal(plain[i], recs[i]) {
				t.Fatalf("message %d: plain %q, records %q", i, plain[i], recs[i])
			}
		}
		if n := bufpool.Outstanding() - outstanding; n != 0 {
			t.Fatalf("%d pooled buffers kept", n)
		}
	})
}

// readAll reads messages from m until it fails, returning copies of them
// and the error it stopped at; every buffer goes back to the pool.
func readAll(t *testing.T, m *msgReader) ([][]byte, error) {
	defer m.release()
	var msgs [][]byte
	for {
		rec, err := m.next()
		if err != nil {
			return msgs, err
		}
		if len(rec) < headerRoom || len(rec) > maxRecordSize+headerRoom {
			t.Fatalf("message buffer of %d bytes", len(rec))
		}
		msgs = append(msgs, append([]byte(nil), rec[headerRoom:]...))
		bufpool.Put(rec)
	}
}

// records is a recordSource handing out fixed transport records, each
// in a pooled buffer the reader owns; empty ones are skipped.
type records struct{ parts [][]byte }

func (r *records) ReadRecord() ([]byte, error) {
	for len(r.parts) > 0 {
		p := r.parts[0]
		r.parts = r.parts[1:]
		if len(p) > 0 {
			return append(bufpool.Get(len(p))[:0], p...), nil
		}
	}
	return nil, io.EOF
}
