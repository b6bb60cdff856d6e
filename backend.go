package discfs

import (
	"fmt"
	"sort"
	"sync"

	"discfs/internal/cfs"
	"discfs/internal/ffs"
)

// A BackendFactory builds a storage backend from a StoreConfig. Register
// one to plug a store other than the built-in FFS+CFS stack behind the
// server's vfs.FS seam — the role SafeBucket's storage providers and
// OmniShare's cloud stores play in related systems.
type BackendFactory func(cfg StoreConfig) (FS, error)

// DefaultBackend is the backend NewServer and NewMemStore use when none
// is named: the paper's FFS-on-RAM store wrapped in the CFS layer.
const DefaultBackend = "mem"

// ErrBackendRegistered is returned by RegisterBackend when the name is
// already taken. Registration is first-wins: a name collision is a
// wiring bug (two packages claiming the same backend), not something to
// resolve silently by load order.
var ErrBackendRegistered = fmt.Errorf("discfs: backend already registered")

var (
	backendMu sync.RWMutex
	backends  = map[string]BackendFactory{}
)

// RegisterBackend makes a storage backend available to OpenBackend
// under name. Typically called from an init function in the
// backend's package. Registering a name twice fails with
// ErrBackendRegistered (check with errors.Is); an empty name or nil
// factory is rejected outright.
func RegisterBackend(name string, f BackendFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("discfs: RegisterBackend with empty name or nil factory")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		return fmt.Errorf("%w: %q", ErrBackendRegistered, name)
	}
	backends[name] = f
	return nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OpenBackend builds a store from the named registered backend.
func OpenBackend(name string, opts ...StoreOption) (FS, error) {
	backendMu.RLock()
	f, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("discfs: unknown backend %q (registered: %v)", name, Backends())
	}
	return f(storeConfig(opts))
}

// mustRegister is the init-time form: the built-in names cannot collide
// unless the package itself is broken.
func mustRegister(name string, f BackendFactory) {
	if err := RegisterBackend(name, f); err != nil {
		panic(err)
	}
}

func init() {
	// "mem": the paper's storage stack — an FFS-style inode filesystem on
	// a RAM-backed block device, wrapped in a CFS layer (encrypting if
	// requested, CFS-NE otherwise).
	mustRegister(DefaultBackend, func(cfg StoreConfig) (FS, error) {
		under, err := ffs.New(ffs.Config{BlockSize: cfg.BlockSize, NumBlocks: cfg.NumBlocks})
		if err != nil {
			return nil, err
		}
		return cfs.New(under, cfg.Passphrase, cfg.Encrypt)
	})
	// "ffs": the bare FFS substrate with no CFS layer — the paper's local
	// baseline, useful when the cryptographic layer is provided elsewhere.
	mustRegister("ffs", func(cfg StoreConfig) (FS, error) {
		return ffs.New(ffs.Config{BlockSize: cfg.BlockSize, NumBlocks: cfg.NumBlocks})
	})
}
