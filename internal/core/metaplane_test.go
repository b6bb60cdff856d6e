package core

import (
	"context"
	"testing"

	"discfs/internal/keynote"
)

// TestReadDirPlusEntriesMasked: every attribute a batched READDIRPLUS
// page piggybacks is fetched through the caller's policy view at page
// time — an R-only peer sees the R-only masked mode on each entry, not
// the owner's; and the child's attributes from LOOKUP or GETATTR are
// masked the same way.
func TestReadDirPlusEntriesMasked(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})

	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	if _, _, err := bob.WriteFile(ctx, "/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.MkdirPath(ctx, "/docs"); err != nil {
		t.Fatal(err)
	}

	readerKey := keynote.DeterministicKey("reader")
	srv.IssueCredential(readerKey.Principal, srv.backing.Root().Ino, "R", "")
	reader := dialAs(t, addr, "reader")

	_, ents, err := reader.NFS().ReadDirPlusAll(ctx, reader.Root())
	if err != nil {
		t.Fatalf("ReadDirPlusAll as reader: %v", err)
	}
	if len(ents) < 2 {
		t.Fatalf("reader listed %d entries", len(ents))
	}
	for _, e := range ents {
		if !e.HasAttr {
			t.Errorf("entry %q: no piggybacked attributes", e.Name)
			continue
		}
		if e.Attr.Mode != 0o444 {
			t.Errorf("entry %q: mode %o for the R-only peer, want 444", e.Name, e.Attr.Mode)
		}
	}

	// The child's attributes carry the grant in the masked mode: rwx
	// for bob, who looks it up; r for the reader, whose R grant allows
	// no LOOKUP in the directory, so it asks for the attributes of the
	// handle bob found.
	a, err := bob.NFS().Lookup(ctx, bob.Root(), "a.txt")
	if err != nil {
		t.Fatalf("Lookup as bob: %v", err)
	}
	if a.Mode != 0o777 {
		t.Errorf("bob's mode on a.txt %o, want 777", a.Mode)
	}
	ra, err := reader.NFS().GetAttr(ctx, a.Handle)
	if err != nil {
		t.Fatalf("GetAttr as reader: %v", err)
	}
	if ra.Mode != 0o444 {
		t.Errorf("reader's mode on a.txt %o, want 444", ra.Mode)
	}
}
