package secchan

import (
	"bytes"
	"crypto/ecdh"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/keynote"
)

// FuzzServerHandshake feeds arbitrary initiator bytes to the responder
// handshake over an in-memory pipe. No initiator can finish it without
// the server's fresh ephemeral key, so whatever arrives — a mangled
// ClientHello, a truncated message, a hostile length, a forged
// ClientAuth record — Server must return an error promptly, without a
// panic, and give back the pooled buffers it took.
func FuzzServerHandshake(f *testing.F) {
	eph, err := ecdh.X25519().GenerateKey(bytes.NewReader(make([]byte, 64)))
	if err != nil {
		f.Fatal(err)
	}
	var hello bytes.Buffer
	if err := writeMsg(&hello, msgClientHello, []byte{protoVersion}, eph.PublicKey().Bytes(), make([]byte, nonceLen)); err != nil {
		f.Fatal(err)
	}
	record := binary.BigEndian.AppendUint32(nil, 96)
	record = append(record, make([]byte, 96)...)
	f.Add(append(bytes.Clone(hello.Bytes()), record...)) // a forged ClientAuth
	f.Add(hello.Bytes())                                 // no ClientAuth
	f.Add(hello.Bytes()[:hello.Len()-1])                 // truncated ClientHello
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // hostile length
	f.Add([]byte{0, 0, 0, 1, msgClientAuth})

	cfg := Config{Identity: keynote.DeterministicKey("fuzz-server"), handshakeTimeout: 2 * time.Second}
	f.Fuzz(func(t *testing.T, data []byte) {
		outstanding := bufpool.Outstanding()
		cli, srv := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the initiator: its bytes, then the end of the stream
			defer wg.Done()
			defer cli.Close()
			// A ClientHello goes out on its own, so the server reads it
			// alone and answers before the rest arrives, as over TCP.
			if len(data) >= 4 {
				if n := 4 + int(binary.BigEndian.Uint32(data)); n <= len(data) {
					if _, err := cli.Write(data[:n]); err != nil {
						return
					}
					data = data[n:]
				}
			}
			cli.Write(data)
		}()
		go func() { // whatever the server sends is read and dropped
			defer wg.Done()
			io.Copy(io.Discard, cli)
		}()
		done := make(chan error, 1)
		go func() {
			conn, err := Server(srv, cfg)
			if conn != nil {
				conn.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("handshake succeeded for a forged initiator")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Server did not return")
		}
		srv.Close()
		wg.Wait()
		if n := bufpool.Outstanding() - outstanding; n != 0 {
			t.Fatalf("%d pooled buffers kept after a failed handshake", n)
		}
	})
}
