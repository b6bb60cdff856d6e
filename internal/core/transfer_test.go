package core

import (
	"bytes"
	"context"
	"os"
	"testing"

	"discfs/internal/nfs"
)

// TestTransferSizeInterop is the client size matrix: a client running at
// the v2 baseline grant (8 KiB) and one at the default (504 KiB) must
// interoperate byte-exactly through the full stack — secure channel,
// negotiation, data cache, write-behind server.
func TestTransferSizeInterop(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 2<<20+4321)
	for i := range data {
		data[i] = byte(i*37 + i>>9)
	}
	for _, tc := range []struct {
		name                     string
		writerGrant, readerGrant int
	}{
		{"large writer, v2 reader", nfs.DefaultMaxTransfer, 8192},
		{"v2 writer, large reader", 8192, nfs.DefaultMaxTransfer},
		{"large both", nfs.DefaultMaxTransfer, nfs.DefaultMaxTransfer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := testServer(t, ServerConfig{WriteBehind: true})

			w := dialAs(t, addr, "test-admin")
			runAtGrant(w, tc.writerGrant)
			if _, _, err := w.WriteFile(ctx, "/big.dat", data); err != nil {
				t.Fatal(err)
			}

			r := dialAs(t, addr, "test-admin")
			runAtGrant(r, tc.readerGrant)
			got, err := r.ReadFile(ctx, "/big.dat")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cross-size transfer corrupted")
			}
		})
	}
}

// TestUncachedWriteRPCsPerGrant pins what the negotiated transfer size
// buys the uncached path: one 4 MiB write is ⌈4 MiB / grant⌉ WRITE RPCs
// — 9 at the default 504 KiB grant, 512 at the v2 8 KiB one.
func TestUncachedWriteRPCsPerGrant(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	writes := func() uint64 { return srv.met.procLatency.With("write").Count() }
	data := make([]byte, 4<<20)
	for _, tc := range []struct {
		grant  int
		writes uint64
	}{
		{nfs.DefaultMaxTransfer, 9},
		{8192, 512},
	} {
		c := dialAsWith(t, addr, "test-admin", WithNoDataCache())
		runAtGrant(c, tc.grant)
		f, err := c.Open(ctx, "/uncached.dat", os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		before := writes()
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if n := writes() - before; n != tc.writes {
			t.Errorf("grant %d: 4 MiB uncached write cost %d WRITEs, want %d", c.MaxTransfer(), n, tc.writes)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
