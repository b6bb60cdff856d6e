package discfs_test

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"discfs"
	"discfs/internal/core"
)

// startTransferServer brings up a server and an RWX-credentialed user
// key.
func startTransferServer(t *testing.T, wb bool) (*discfs.Server, string, *discfs.KeyPair) {
	t.Helper()
	adminKey := discfs.DeterministicKey("xfer-admin")
	userKey := discfs.DeterministicKey("xfer-user")
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatal(err)
	}
	opts := []discfs.ServerOption{discfs.WithBacking(store)}
	if wb {
		opts = append(opts, discfs.WithServerWriteBehind(0, 0))
	}
	srv, err := discfs.NewServer(adminKey, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.IssueCredential(userKey.Principal, store.Root().Ino, "RWX", "xfer user"); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, userKey
}

// TestTransferSizeInterop is the end-to-end client size matrix: a
// client that proposes the v2 baseline (8 KiB) and one that proposes
// the default (504 KiB) must interoperate byte-exactly through the full
// stack — secure channel, negotiation, data cache, write-behind server —
// and each is granted what it proposed.
func TestTransferSizeInterop(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 2<<20+4321)
	for i := range data {
		data[i] = byte(i*37 + i>>9)
	}
	for _, tc := range []struct {
		name                 string
		writerMax, readerMax int
	}{
		{"large writer, v2 reader", discfs.DefaultMaxTransfer, 8192},
		{"v2 writer, large reader", 8192, discfs.DefaultMaxTransfer},
		{"large both", discfs.DefaultMaxTransfer, discfs.DefaultMaxTransfer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr, userKey := startTransferServer(t, true)

			w, err := discfs.Dial(ctx, addr, userKey, core.WithMaxTransfer(tc.writerMax))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			f, err := w.Open(ctx, "/big.dat", os.O_CREATE|os.O_WRONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := discfs.Dial(ctx, addr, userKey, core.WithMaxTransfer(tc.readerMax))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.ReadFile(ctx, "/big.dat")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cross-size transfer corrupted")
			}

			if w.MaxTransfer() != tc.writerMax || r.MaxTransfer() != tc.readerMax {
				t.Errorf("granted %d/%d, want the proposals %d/%d",
					w.MaxTransfer(), r.MaxTransfer(), tc.writerMax, tc.readerMax)
			}
		})
	}
}

// TestNegotiatedTransferDefault: a default dial against a default
// server lands on DefaultMaxTransfer.
func TestNegotiatedTransferDefault(t *testing.T) {
	ctx := context.Background()
	_, addr, userKey := startTransferServer(t, false)
	c, err := discfs.Dial(ctx, addr, userKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MaxTransfer() != discfs.DefaultMaxTransfer {
		t.Errorf("negotiated %d, want %d", c.MaxTransfer(), discfs.DefaultMaxTransfer)
	}
}

// TestUncachedWriteRPCsPerGrant pins what the negotiated transfer size
// buys the uncached path: one 4 MiB write is ⌈4 MiB / grant⌉ WRITE RPCs
// — 9 at the default 504 KiB grant, 512 at the v2 8 KiB one.
func TestUncachedWriteRPCsPerGrant(t *testing.T) {
	ctx := context.Background()
	srv, addr, userKey := startTransferServer(t, false)
	data := make([]byte, 4<<20)
	for _, tc := range []struct{ propose, writes int }{
		{discfs.DefaultMaxTransfer, 9},
		{8192, 512},
	} {
		c, err := discfs.Dial(ctx, addr, userKey, core.WithMaxTransfer(tc.propose), discfs.WithNoDataCache())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		f, err := c.Open(ctx, "/uncached.dat", os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		before := serverWrites(t, srv)
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if n := serverWrites(t, srv) - before; n != tc.writes {
			t.Errorf("grant %d: 4 MiB uncached write cost %d WRITEs, want %d", c.MaxTransfer(), n, tc.writes)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// serverWrites reads the WRITE RPCs srv has served off its metrics
// registry.
func serverWrites(t *testing.T, srv *discfs.Server) int {
	t.Helper()
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	const key = `discfs_nfs_latency_seconds_count{proc="write"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}
