// Package cfs implements a CFS-style cryptographic filesystem layer: a
// stacked vfs.FS that encrypts file names and contents over any backing
// store, after Blaze's Cryptographic File System — the codebase the
// DisCFS prototype was derived from.
//
// With Encrypt=false the layer is "CFS-NE", the paper's base case: the
// identical stacking and name-mapping code path with the ciphers replaced
// by identity transforms. DisCFS is CFS-NE plus the credential access
// control layer, so benchmarking CFS-NE against DisCFS isolates the cost
// of the access-control mechanism exactly as the paper does.
package cfs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base32"
	"encoding/binary"
	"fmt"
	"strings"

	"discfs/internal/vfs"
)

// nameEncoding is unpadded base32, safe for directory entry names.
var nameEncoding = base32.HexEncoding.WithPadding(base32.NoPadding)

// nameIVLen is the truncated synthetic IV prepended to encrypted names.
const nameIVLen = 8

// CFS is the encrypting layer. It implements vfs.FS.
type CFS struct {
	under   vfs.FS
	encrypt bool

	nameKey []byte // HMAC key for synthetic name IVs
	nameAES cipher.Block
	dataKey []byte // master key for per-file content keys
}

// Option configures New.
type Option func(*CFS)

// New stacks a CFS layer over under. When encrypt is false the layer is
// CFS-NE: all transforms are identity but the code path is unchanged.
// The key may be any passphrase; it is stretched with SHA-256.
func New(under vfs.FS, key string, encrypt bool) (*CFS, error) {
	c := &CFS{under: under, encrypt: encrypt}
	if encrypt {
		master := sha256.Sum256([]byte("cfs-master:" + key))
		nk := sha256.Sum256(append(master[:], []byte(":names")...))
		dk := sha256.Sum256(append(master[:], []byte(":data")...))
		c.nameKey = nk[:]
		c.dataKey = dk[:]
		blk, err := aes.NewCipher(nk[:16])
		if err != nil {
			return nil, fmt.Errorf("cfs: %w", err)
		}
		c.nameAES = blk
	}
	return c, nil
}

// Under returns the backing filesystem.
func (c *CFS) Under() vfs.FS { return c.under }

// Encrypting reports whether transforms are active (false = CFS-NE).
func (c *CFS) Encrypting() bool { return c.encrypt }

// ---- name transform ----

// encodeName maps a cleartext name to its stored form. Deterministic
// (SIV-style): the IV is a truncated HMAC of the name, prepended to the
// CTR ciphertext, so equal names map to equal stored names and lookups
// work without directory scans.
func (c *CFS) encodeName(name string) (string, error) {
	if !c.encrypt {
		return name, nil
	}
	mac := hmac.New(sha256.New, c.nameKey)
	mac.Write([]byte(name))
	iv := mac.Sum(nil)[:nameIVLen]
	ct := make([]byte, len(name))
	c.nameXOR(iv, []byte(name), ct)
	enc := nameEncoding.EncodeToString(append(append([]byte{}, iv...), ct...))
	if len(enc) > vfs.MaxNameLen {
		return "", vfs.ErrNameTooLong
	}
	return enc, nil
}

// decodeName maps a stored name back to cleartext.
func (c *CFS) decodeName(stored string) (string, error) {
	if !c.encrypt {
		return stored, nil
	}
	raw, err := nameEncoding.DecodeString(strings.ToUpper(stored))
	if err != nil || len(raw) < nameIVLen {
		return "", fmt.Errorf("%w: undecodable name %q", vfs.ErrIO, stored)
	}
	iv, ct := raw[:nameIVLen], raw[nameIVLen:]
	pt := make([]byte, len(ct))
	c.nameXOR(iv, ct, pt)
	return string(pt), nil
}

// nameXOR applies the CTR keystream for a name IV.
func (c *CFS) nameXOR(iv, src, dst []byte) {
	var full [aes.BlockSize]byte
	copy(full[:], iv)
	stream := cipher.NewCTR(c.nameAES, full[:])
	stream.XORKeyStream(dst, src)
}

// ---- content transform ----

// fileStreamXOR en/decrypts len(data) bytes of a file at byte offset off.
// AES-CTR keyed per file by the handle (ino+gen), with the counter
// derived from the block offset, gives random access without
// read-modify-write — the property the original CFS engineered with its
// precomputed pad.
func (c *CFS) fileStreamXOR(h vfs.Handle, off uint64, data []byte) ([]byte, error) {
	if !c.encrypt || len(data) == 0 {
		return data, nil
	}
	stream, err := c.fileStream(h, off)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	stream.XORKeyStream(out, data)
	return out, nil
}

// xorInPlace is fileStreamXOR transforming data in place (the buffer is
// ours, not a caller's): a no-op in the CFS-NE configuration.
func (c *CFS) xorInPlace(h vfs.Handle, off uint64, data []byte) error {
	if !c.encrypt || len(data) == 0 {
		return nil
	}
	stream, err := c.fileStream(h, off)
	if err != nil {
		return err
	}
	stream.XORKeyStream(data, data)
	return nil
}

// fileStream builds the per-file CTR key stream positioned at off.
func (c *CFS) fileStream(h vfs.Handle, off uint64) (cipher.Stream, error) {
	mac := hmac.New(sha256.New, c.dataKey)
	var hb [12]byte
	binary.BigEndian.PutUint64(hb[:8], h.Ino)
	binary.BigEndian.PutUint32(hb[8:], h.Gen)
	mac.Write(hb[:])
	fileKey := mac.Sum(nil)
	blk, err := aes.NewCipher(fileKey[:16])
	if err != nil {
		return nil, fmt.Errorf("cfs: %w", err)
	}
	// Counter = offset / 16; intra-block skip handled by discarding.
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[8:], off/aes.BlockSize)
	stream := cipher.NewCTR(blk, iv[:])
	skip := int(off % aes.BlockSize)
	if skip > 0 {
		var junk [aes.BlockSize]byte
		stream.XORKeyStream(junk[:skip], junk[:skip])
	}
	return stream, nil
}

// ---- vfs.FS ----

// Root implements vfs.FS.
func (c *CFS) Root() vfs.Handle { return c.under.Root() }

// GetAttr implements vfs.FS.
func (c *CFS) GetAttr(h vfs.Handle) (vfs.Attr, error) { return c.under.GetAttr(h) }

// SetAttr implements vfs.FS.
func (c *CFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	return c.under.SetAttr(h, s)
}

// Lookup implements vfs.FS.
func (c *CFS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	if name == "." || name == ".." {
		return c.under.Lookup(dir, name)
	}
	enc, err := c.encodeName(name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Lookup(dir, enc)
}

// Read implements vfs.FS.
func (c *CFS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(c, h, off, count)
}

// ReadInto implements vfs.FS: ciphertext lands in dst via the
// substrate's own zero-copy path and is decrypted in place, so the CFS
// layer adds no allocation or copy to the data plane (none at all in
// the paper's CFS-NE configuration).
func (c *CFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	n, eof, err := c.under.ReadInto(h, off, dst)
	if err != nil {
		return 0, false, err
	}
	if err := c.xorInPlace(h, off, dst[:n]); err != nil {
		return 0, false, err
	}
	return n, eof, nil
}

// Write implements vfs.FS.
func (c *CFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	ct, err := c.fileStreamXOR(h, off, data)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Write(h, off, ct)
}

// Create implements vfs.FS.
func (c *CFS) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	if !vfs.ValidName(name) {
		return vfs.Attr{}, vfs.ErrInval
	}
	enc, err := c.encodeName(name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Create(dir, enc, mode)
}

// Remove implements vfs.FS.
func (c *CFS) Remove(dir vfs.Handle, name string) error {
	enc, err := c.encodeName(name)
	if err != nil {
		return err
	}
	return c.under.Remove(dir, enc)
}

// Rename implements vfs.FS.
func (c *CFS) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	if !vfs.ValidName(toName) {
		return vfs.ErrInval
	}
	fromEnc, err := c.encodeName(fromName)
	if err != nil {
		return err
	}
	toEnc, err := c.encodeName(toName)
	if err != nil {
		return err
	}
	return c.under.Rename(fromDir, fromEnc, toDir, toEnc)
}

// Mkdir implements vfs.FS.
func (c *CFS) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	if !vfs.ValidName(name) {
		return vfs.Attr{}, vfs.ErrInval
	}
	enc, err := c.encodeName(name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Mkdir(dir, enc, mode)
}

// Rmdir implements vfs.FS.
func (c *CFS) Rmdir(dir vfs.Handle, name string) error {
	enc, err := c.encodeName(name)
	if err != nil {
		return err
	}
	return c.under.Rmdir(dir, enc)
}

// ReadDir implements vfs.FS, decrypting entry names.
func (c *CFS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	ents, err := c.under.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if !c.encrypt {
		return ents, nil
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		name, err := c.decodeName(e.Name)
		if err != nil {
			// Foreign entries (written without the key) stay visible
			// under their stored names, as in CFS.
			out = append(out, e)
			continue
		}
		out = append(out, vfs.DirEntry{Name: name, Handle: e.Handle})
	}
	return out, nil
}

// Symlink implements vfs.FS. Targets are encrypted like names so the
// backing store leaks nothing.
func (c *CFS) Symlink(dir vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	if !vfs.ValidName(name) {
		return vfs.Attr{}, vfs.ErrInval
	}
	encName, err := c.encodeName(name)
	if err != nil {
		return vfs.Attr{}, err
	}
	encTarget, err := c.encodeName(target)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Symlink(dir, encName, encTarget, mode)
}

// Readlink implements vfs.FS.
func (c *CFS) Readlink(h vfs.Handle) (string, error) {
	stored, err := c.under.Readlink(h)
	if err != nil {
		return "", err
	}
	return c.decodeName(stored)
}

// Link implements vfs.FS.
func (c *CFS) Link(dir vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	if !vfs.ValidName(name) {
		return vfs.Attr{}, vfs.ErrInval
	}
	enc, err := c.encodeName(name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.under.Link(dir, enc, target)
}

// StatFS implements vfs.FS.
func (c *CFS) StatFS() (vfs.StatFS, error) { return c.under.StatFS() }

// Sync implements vfs.FS by delegating to the backing store, so the
// COMMIT durability barrier reaches the device through the encryption
// layer.
func (c *CFS) Sync() error { return c.under.Sync() }
