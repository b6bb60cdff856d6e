package discfs_test

import (
	"context"
	"testing"

	"discfs"
)

// startTransferServer brings up a server and an RWX-credentialed user
// key.
func startTransferServer(t *testing.T) (string, *discfs.KeyPair) {
	t.Helper()
	adminKey := discfs.DeterministicKey("xfer-admin")
	userKey := discfs.DeterministicKey("xfer-user")
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(store))
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
	return addr, userKey
}

// TestNegotiatedTransferDefault: a default dial against a default
// server lands on DefaultMaxTransfer.
func TestNegotiatedTransferDefault(t *testing.T) {
	ctx := context.Background()
	addr, userKey := startTransferServer(t)
	c, err := discfs.Dial(ctx, addr, userKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MaxTransfer() != discfs.DefaultMaxTransfer {
		t.Errorf("negotiated %d, want %d", c.MaxTransfer(), discfs.DefaultMaxTransfer)
	}
}
