package discfs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"discfs"
)

// Example_delegation walks the paper's Figure 1: the administrator
// delegates to Bob, Bob stores a file and delegates read access to
// Alice, Alice presents the credential and reads — no accounts anywhere.
func Example_delegation() {
	ctx := context.Background()
	adminKey := discfs.DeterministicKey("ex-admin")
	store, err := discfs.NewMemStore()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(store))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}

	// 1st certificate: administrator → Bob.
	bobKey := discfs.DeterministicKey("ex-bob")
	if _, err := srv.IssueCredential(bobKey.Principal, store.Root().Ino, "RWX", "bob"); err != nil {
		log.Fatal(err)
	}

	bob, err := discfs.Dial(ctx, addr, bobKey)
	if err != nil {
		log.Fatal(err)
	}
	defer bob.Close()
	if _, _, err := bob.WriteFile(ctx, "/paper.txt", []byte("shared by credential")); err != nil {
		log.Fatal(err)
	}

	// 2nd certificate: Bob → Alice (read + search on the tree).
	aliceKey := discfs.DeterministicKey("ex-alice")
	cred, err := bob.Delegate(ctx, aliceKey.Principal, store.Root().Ino, "RX", "for alice")
	if err != nil {
		log.Fatal(err)
	}

	alice, err := discfs.DialWithCredentials(ctx, addr, aliceKey, cred)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()
	data, err := alice.ReadFile(ctx, "/paper.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))

	// Alice's grant has no write bit: the denial is a typed error.
	if _, _, err := alice.WriteFile(ctx, "/paper.txt", []byte("vandalism")); errors.Is(err, discfs.ErrAccessDenied) {
		fmt.Println("write denied")
	}
	// Output:
	// shared by credential
	// write denied
}

// ExampleClient_Open streams a file through the io.Reader/io.Writer
// interfaces: writes chunk over the NFS wire as they happen, and reads
// never buffer the whole file.
func ExampleClient_Open() {
	ctx := context.Background()
	adminKey := discfs.DeterministicKey("ex-stream-admin")
	store, err := discfs.NewMemStore()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(store))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	c, err := discfs.Dial(ctx, addr, adminKey)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	w, err := c.Open(ctx, "/big.log", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w, "line one")
	fmt.Fprintln(w, "line two")
	w.Close()

	r, err := c.Open(ctx, "/big.log", os.O_RDONLY)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if _, err := io.Copy(os.Stdout, r); err != nil {
		log.Fatal(err)
	}
	// Output:
	// line one
	// line two
}

// ExampleSignCredential shows composing a conditional credential offline:
// read access to a subtree, but only outside office hours.
func ExampleSignCredential() {
	issuer := discfs.DeterministicKey("ex-issuer")
	holder := discfs.DeterministicKey("ex-holder")
	cred, err := discfs.SignCredential(issuer, discfs.CredentialSpec{
		Licensees:  discfs.LicenseesOr(holder.Principal),
		Conditions: discfs.SubtreeConditions(42, "R", true, `@hour < 9 || @hour >= 17`),
		Comment:    "off-hours read access",
	})
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := discfs.ParseCredentials(cred.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(parsed), "credential parsed")
	fmt.Println("verified:", parsed[0].Verify() == nil)
	// Output:
	// 1 credential parsed
	// verified: true
}

// ExampleWithServerDedup serves a store through the content-addressed
// layer: two files with the same content are stored once. The layer
// chunks a file once it is committed and idle; closing the server
// chunks the rest.
func ExampleWithServerDedup() {
	ctx := context.Background()
	adminKey := discfs.DeterministicKey("example-dedup-admin")
	srv, err := discfs.NewServer(adminKey, discfs.WithServerDedup())
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	admin, err := discfs.Dial(ctx, addr, adminKey)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()

	payload := bytes.Repeat([]byte("the same sixteen bytes over and over "), 2000)
	for _, name := range []string{"/copy-a", "/copy-b"} {
		if _, _, err := admin.WriteFile(ctx, name, payload); err != nil {
			log.Fatal(err)
		}
	}
	data, err := admin.ReadFile(ctx, "/copy-b")
	if err != nil {
		log.Fatal(err)
	}
	admin.Close()
	srv.Close()
	st := srv.Stats()
	fmt.Println("duplicate copy intact:", bytes.Equal(data, payload))
	fmt.Println("duplicate chunks absorbed:", st.DedupHits > 0)
	fmt.Println("stored once:", st.DedupBytesStored < st.DedupBytesLogical)
	// Output:
	// duplicate copy intact: true
	// duplicate chunks absorbed: true
	// stored once: true
}

// ExampleNewMemStore builds the paper's storage stack and uses it
// directly as a local filesystem.
func ExampleNewMemStore() {
	store, err := discfs.NewMemStore(discfs.WithBlockSize(4096), discfs.WithNumBlocks(1024))
	if err != nil {
		log.Fatal(err)
	}
	root := store.Root()
	attr, err := store.Create(root, "hello.txt", 0o644)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := store.Write(attr.Handle, 0, []byte("local use")); err != nil {
		log.Fatal(err)
	}
	data, _, err := store.Read(attr.Handle, 0, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	// Output:
	// local use
}
