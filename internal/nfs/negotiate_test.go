package nfs

import (
	"bytes"
	"context"
	"testing"
)

func TestNegotiateGrantAndClamp(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		propose uint32
		want    uint32
	}{
		{"default grant", DefaultMaxTransfer, DefaultMaxTransfer},
		{"client proposes less", 32 << 10, 32 << 10},
		{"client proposes the v2 baseline", MaxData, MaxData},
		{"zero proposal means default", 0, DefaultMaxTransfer},
		{"server clamps a proposal above its bound", 1 << 20, DefaultMaxTransfer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := startStack(t)
			got, err := c.Negotiate(ctx, tc.propose)
			if err != nil {
				t.Fatalf("Negotiate: %v", err)
			}
			if got != tc.want {
				t.Errorf("granted %d, want %d", got, tc.want)
			}
			if c.MaxData() != tc.want {
				t.Errorf("MaxData() = %d after negotiation", c.MaxData())
			}
		})
	}
}

// TestLargeTransferRoundTrip moves a multi-megabyte file through
// negotiated 512 KiB READs/WRITEs and checks byte-exactness — including
// a single Write call far beyond the old 8 KiB bound.
func TestLargeTransferRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	if _, err := c.Negotiate(ctx, DefaultMaxTransfer); err != nil {
		t.Fatal(err)
	}
	root := mountRoot(t, c)
	attr, err := c.Create(ctx, root, "big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3<<20+12345)
	for i := range data {
		data[i] = byte(i * 2654435761 >> 16)
	}
	// One oversized logical write: writeAll chunks it into 512 KiB
	// WRITEs, 7 RPCs instead of the v2 path's 385.
	if err := writeAll(ctx, c, attr.Handle, data); err != nil {
		t.Fatalf("writeAll: %v", err)
	}
	got, err := c.ReadAll(ctx, attr.Handle)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large transfer corrupted")
	}
	// A single READ larger than the file returns exactly the file.
	head, _, err := c.Read(ctx, attr.Handle, 0, DefaultMaxTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, data[:DefaultMaxTransfer]) {
		t.Fatal("single 512 KiB READ corrupted")
	}
}

// TestTransferInterop runs the client size matrix: an un-negotiated
// (v2-era 8 KiB) client and a large-transfer client, and two
// large-transfer clients, each writing and reading the other's data
// through a shared backing store.
func TestTransferInterop(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		negotiate bool
	}{
		{"v2 client, large server", false},
		{"large client, large server", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, backing := startStack(t)
			if tc.negotiate {
				if _, err := c.Negotiate(ctx, DefaultMaxTransfer); err != nil {
					t.Fatal(err)
				}
			}
			// A second connection to the same store, always large.
			c2 := serveBacking(t, backing)
			if _, err := c2.Negotiate(ctx, DefaultMaxTransfer); err != nil {
				t.Fatal(err)
			}
			root := mountRoot(t, c)
			attr, err := c.Create(ctx, root, "x", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 1<<20+777)
			for i := range data {
				data[i] = byte(i * 131)
			}
			if err := writeAll(ctx, c, attr.Handle, data); err != nil {
				t.Fatal(err)
			}
			got, err := c2.ReadAll(ctx, attr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cross-size read corrupted")
			}
			// And back the other way.
			for i := range data {
				data[i] ^= 0xFF
			}
			if err := writeAll(ctx, c2, attr.Handle, data); err != nil {
				t.Fatal(err)
			}
			got, err = c.ReadAll(ctx, attr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("reverse cross-size read corrupted")
			}
		})
	}
}
