package sunrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"discfs/internal/bufpool"
	"discfs/internal/keynote"
	"discfs/internal/secchan"
	"discfs/internal/xdr"
)

// Tests of the record hand-off: how RPC messages come off a connection
// that already delivers whole records (the secure channel) and off a
// plain byte stream, and that either way the buffer handed to the caller
// is one Put recycles.

// connPair returns two connected ends: plain in-memory pipes, or a
// secure channel established over them.
func connPair(t *testing.T, secure bool) (w, r net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	if !secure {
		return a, b
	}
	var wg sync.WaitGroup
	var sc, cc *secchan.Conn
	var serr, cerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc, serr = secchan.Server(b, secchan.Config{Identity: keynote.DeterministicKey("handoff-server")})
	}()
	go func() {
		defer wg.Done()
		cc, cerr = secchan.Client(a, secchan.Config{Identity: keynote.DeterministicKey("handoff-client")})
	}()
	wg.Wait()
	if serr != nil || cerr != nil {
		t.Fatalf("handshake: server=%v client=%v", serr, cerr)
	}
	t.Cleanup(func() {
		cc.Close()
		sc.Close()
	})
	return cc, sc
}

// framed returns msg as one last-fragment record: mark, then message.
func framed(msg []byte) []byte {
	out := make([]byte, headerRoom+len(msg))
	binary.BigEndian.PutUint32(out, uint32(len(msg))|lastFragmentBit)
	copy(out[headerRoom:], msg)
	return out
}

func testMsg(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11) ^ salt
	}
	return b
}

func TestRecordHandoff(t *testing.T) {
	small := [][]byte{testMsg(40, 1), testMsg(1, 2), testMsg(4000, 3)}
	big := testMsg(512<<10, 4)
	huge := testMsg(1<<20+300<<10, 5) // more than one secure-channel record

	cases := []struct {
		name   string
		writes [][]byte // each one Write on the sending side
		want   [][]byte
	}{
		{"one message per record", [][]byte{framed(small[0]), framed(big), framed(small[1])}, [][]byte{small[0], big, small[1]}},
		{"several messages in one record", [][]byte{bytes.Join([][]byte{framed(small[0]), framed(small[1]), framed(small[2])}, nil)}, small},
		{"a message in fragments", func() [][]byte {
			// Three fragments, the marks and the pieces written apart.
			var ws [][]byte
			for i, cut := range [][2]int{{0, 1000}, {1000, 3000}, {3000, 4000}} {
				mark := make([]byte, 4)
				v := uint32(cut[1] - cut[0])
				if i == 2 {
					v |= lastFragmentBit
				}
				binary.BigEndian.PutUint32(mark, v)
				ws = append(ws, mark, small[2][cut[0]:cut[1]])
			}
			return ws
		}(), [][]byte{small[2]}},
		{"a message larger than a record", [][]byte{framed(huge), framed(small[0])}, [][]byte{huge, small[0]}},
		{"a message split mid-header", [][]byte{framed(small[0])[:2], framed(small[0])[2:]}, [][]byte{small[0]}},
	}
	for _, secure := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name + " over tcp"
			if secure {
				name = tc.name + " over secchan"
			}
			t.Run(name, func(t *testing.T) {
				base := bufpool.Outstanding()
				w, r := connPair(t, secure)
				go func() {
					for _, b := range tc.writes {
						if _, err := w.Write(b); err != nil {
							return
						}
					}
				}()
				mr := newMsgReader(r)
				if _, handed := r.(recordSource); handed != secure {
					t.Fatalf("record hand-off in use: %v, want %v", handed, secure)
				}
				for i, want := range tc.want {
					rec, err := mr.next()
					if err != nil {
						t.Fatalf("message %d: %v", i, err)
					}
					if !bytes.Equal(rec[headerRoom:], want) {
						t.Fatalf("message %d: %d bytes, want %d; content differs", i, len(rec)-headerRoom, len(want))
					}
					// The caller's Put must recycle the buffer, not drop it
					// for an off-class capacity.
					puts := bufpool.Stats().Puts
					bufpool.Put(rec)
					if len(rec) <= bufpool.MaxPooled && bufpool.Stats().Puts != puts+1 {
						t.Errorf("message %d: a %d-byte record with capacity %d did not go back to its size class", i, len(rec), cap(rec))
					}
				}
				mr.release()
				w.Close()
				r.Close()
				if d := bufpool.Outstanding() - base; d != 0 {
					t.Errorf("%d pooled buffers still out after the connection closed", d)
				}
			})
		}
	}
}

// TestCallsOverSecureChannel runs whole calls over a secure channel:
// the bulk argument arrives at the handler intact, the reply at the
// caller, and the records of both directions are recycled.
func TestCallsOverSecureChannel(t *testing.T) {
	const prog, vers = 0x20000077, 1
	srv := NewServer()
	srv.Register(prog, vers, func(_ *Context, _ uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error) {
		data := args.Opaque(1 << 20)
		if args.Err() != nil {
			return GarbageArgs, nil
		}
		w := res.OpaqueInto(len(data)) // echo, reversed
		for i, b := range data {
			w[len(data)-1-i] = b
		}
		return Success, nil
	})
	base := bufpool.Outstanding()
	cc, sc := connPair(t, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(sc)
	}()
	c := NewClient(cc)
	for _, n := range []int{0, 7, 8 << 10, 504 << 10} {
		arg := testMsg(n, byte(n))
		d, err := c.CallAppend(context.Background(), prog, vers, 1, n, func(e *xdr.Encoder) { e.Opaque(arg) })
		if err != nil {
			t.Fatalf("call with %d bytes: %v", n, err)
		}
		got := d.Opaque(1 << 20)
		if d.Err() != nil || len(got) != n {
			t.Fatalf("reply to %d bytes: %d bytes, err=%v", n, len(got), d.Err())
		}
		for i := range got {
			if got[i] != arg[n-1-i] {
				t.Fatalf("reply to %d bytes differs at %d", n, i)
			}
		}
		bufpool.Put(d.Buffer())
	}
	c.Close()
	<-done
	srv.Close()
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Errorf("%d pooled buffers still out after the calls", d)
	}
}
