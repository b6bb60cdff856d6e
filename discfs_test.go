package discfs_test

// These tests exercise DisCFS exclusively through the public API,
// proving the facade is sufficient for the workflows the paper
// describes.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"discfs"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	adminKey := discfs.DeterministicKey("api-admin")
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatalf("NewMemStore: %v", err)
	}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(store))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	bobKey := discfs.DeterministicKey("api-bob")
	aliceKey := discfs.DeterministicKey("api-alice")
	if _, err := srv.IssueCredential(bobKey.Principal, store.Root().Ino, "RWX", "bob's grant"); err != nil {
		t.Fatalf("IssueCredential: %v", err)
	}

	bob, err := discfs.Dial(ctx, addr, bobKey)
	if err != nil {
		t.Fatalf("Dial(bob): %v", err)
	}
	defer bob.Close()
	content := []byte("shared via credentials, not accounts")
	if _, _, err := bob.WriteFile(ctx, "/doc.txt", content); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	cred, err := bob.Delegate(ctx, aliceKey.Principal, store.Root().Ino, "RX", "alice reads")
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}

	alice, err := discfs.Dial(ctx, addr, aliceKey)
	if err != nil {
		t.Fatalf("Dial(alice): %v", err)
	}
	defer alice.Close()
	if _, err := alice.SubmitCredentials(ctx, cred); err != nil {
		t.Fatalf("SubmitCredentials: %v", err)
	}
	got, err := alice.ReadFile(ctx, "/doc.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("alice read %q", got)
	}

	st := srv.Stats()
	if st.Credentials < 2 || st.Decisions == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPublicAPIEncryptedStore(t *testing.T) {
	store, err := discfs.NewMemStore(
		discfs.WithEncryption("correct horse battery staple"),
		discfs.WithBlockSize(4096),
		discfs.WithNumBlocks(2048),
	)
	if err != nil {
		t.Fatalf("NewMemStore: %v", err)
	}
	root := store.Root()
	attr, err := store.Create(root, "enc.txt", 0o600)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := store.Write(attr.Handle, 0, []byte("sealed")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, _, err := store.Read(attr.Handle, 0, 16)
	if err != nil || string(data) != "sealed" {
		t.Errorf("read = %q, %v", data, err)
	}
}

func TestBackendRegistry(t *testing.T) {
	// Exactly the two built-ins: dedup is a server option over any
	// store, and any other store plugs in through WithBacking.
	for _, name := range []string{"ffs", "mem"} {
		fs, err := discfs.OpenBackend(name, discfs.WithBlockSize(4096), discfs.WithNumBlocks(2048))
		if err != nil {
			t.Fatalf("OpenBackend(%s): %v", name, err)
		}
		if _, err := fs.Create(fs.Root(), "x", 0o644); err != nil {
			t.Fatalf("Create on %s backend: %v", name, err)
		}
	}
	if _, err := discfs.OpenBackend("no-such-backend"); err == nil {
		t.Error("unknown backend opened")
	}
}

func TestKeyPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "id.key")
	k1, err := discfs.LoadOrCreateKey(path)
	if err != nil {
		t.Fatalf("LoadOrCreateKey: %v", err)
	}
	k2, err := discfs.LoadOrCreateKey(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if k1.Principal != k2.Principal {
		t.Errorf("principal changed across reload: %s vs %s",
			k1.Principal.Short(), k2.Principal.Short())
	}
	k3, err := discfs.LoadKey(path)
	if err != nil || k3.Principal != k1.Principal {
		t.Errorf("LoadKey: %v", err)
	}
	if _, err := discfs.LoadKey(filepath.Join(dir, "missing.key")); err == nil {
		t.Error("missing key file loaded")
	}
}

func TestSignAndParseCredentials(t *testing.T) {
	signer := discfs.DeterministicKey("signer")
	holder := discfs.DeterministicKey("holder")
	cred, err := discfs.SignCredential(signer, discfs.CredentialSpec{
		Licensees:  discfs.LicenseesOr(holder.Principal),
		Conditions: discfs.SubtreeConditions(42, "RW", true, `@hour >= 9`),
		Comment:    "business hours grant",
	})
	if err != nil {
		t.Fatalf("SignCredential: %v", err)
	}
	parsed, err := discfs.ParseCredentials(cred.Source)
	if err != nil || len(parsed) != 1 {
		t.Fatalf("ParseCredentials: %v (%d)", err, len(parsed))
	}
	if err := parsed[0].Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestStorePersistence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	img := filepath.Join(dir, "store.ffs")

	store, err := discfs.NewMemStore(discfs.WithBlockSize(1024), discfs.WithNumBlocks(2048))
	if err != nil {
		t.Fatal(err)
	}
	root := store.Root()
	attr, err := store.Create(root, "persisted.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write(attr.Handle, 0, []byte("survives restarts")); err != nil {
		t.Fatal(err)
	}
	if err := discfs.SaveStore(img, store); err != nil {
		t.Fatalf("SaveStore: %v", err)
	}

	restored, err := discfs.LoadStore(img)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	a, err := restored.Lookup(restored.Root(), "persisted.txt")
	if err != nil {
		t.Fatalf("Lookup after restore: %v", err)
	}
	data, _, err := restored.Read(a.Handle, 0, 64)
	if err != nil || string(data) != "survives restarts" {
		t.Errorf("read after restore = %q, %v", data, err)
	}
	// Old handles stay valid across the dump (same ino+gen).
	if a.Handle != attr.Handle {
		t.Errorf("handle changed across persistence: %+v vs %+v", a.Handle, attr.Handle)
	}
	// A DisCFS server runs fine on the restored store.
	srv, err := discfs.NewServer(discfs.DeterministicKey("persist-admin"), discfs.WithBacking(restored))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	admin, err := discfs.Dial(ctx, addr, discfs.DeterministicKey("persist-admin"))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	got, err := admin.ReadFile(ctx, "/persisted.txt")
	if err != nil || string(got) != "survives restarts" {
		t.Errorf("served read after restore = %q, %v", got, err)
	}
}

func TestSaveStoreRejectsForeignFS(t *testing.T) {
	if err := discfs.SaveStore("/tmp/nope", nil); err == nil {
		t.Error("SaveStore(nil) succeeded")
	}
}
