package discfs

import (
	"fmt"

	"discfs/internal/cfs"
	"discfs/internal/ffs"
)

// DefaultBackend is the backend NewServer and NewMemStore use when none
// is named: the paper's FFS-on-RAM store wrapped in the CFS layer.
const DefaultBackend = "mem"

// OpenBackend builds a store from one of the two built-in backends:
//
//   - "mem": the paper's storage stack — an FFS-style inode filesystem
//     on a RAM-backed block device, wrapped in a CFS layer (encrypting
//     if requested, CFS-NE otherwise);
//   - "ffs": the bare FFS substrate with no CFS layer — the paper's
//     local baseline, useful when the cryptographic layer is provided
//     elsewhere.
//
// Any other store plugs in through WithBacking.
func OpenBackend(name string, opts ...StoreOption) (FS, error) {
	cfg := storeConfig(opts)
	switch name {
	case DefaultBackend:
		under, err := ffs.New(ffs.Config{BlockSize: cfg.BlockSize, NumBlocks: cfg.NumBlocks})
		if err != nil {
			return nil, err
		}
		return cfs.New(under, cfg.Passphrase, cfg.Encrypt)
	case "ffs":
		return ffs.New(ffs.Config{BlockSize: cfg.BlockSize, NumBlocks: cfg.NumBlocks})
	}
	return nil, fmt.Errorf("discfs: unknown backend %q (want mem or ffs)", name)
}
