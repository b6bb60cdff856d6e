package main

import (
	"context"
	"fmt"
	"net"

	"discfs"
	"discfs/internal/cfs"
	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

const blockSize = 8192

// stackConfig selects the server composition of one workload. Every
// stack is in-process: secure channel over loopback TCP, FFS on a RAM
// device with the zero DiskModel.
type stackConfig struct {
	cfsNE       bool   // stack cfs (no encryption) over ffs — the paper's server
	dedup       bool   // stack the content-addressed store over ffs
	writeBehind bool   // server write gathering (NFSv3 unstable writes)
	devBlocks   uint32 // device capacity in 8 KiB blocks
	tr          *tracer
}

// stack is one running server and the handles the harness measures it
// through.
type stack struct {
	cfg   stackConfig
	devc  devCounters // device traffic; counted in traced stacks only
	ffs   *ffs.FFS
	dd    *dedup.FS
	store vfs.FS // what the server exports; populate writes go here
	srv   *discfs.Server
	addr  string
	wire  wireCounters // counted in traced stacks only
	admin *discfs.KeyPair
	user  *discfs.KeyPair // holds RWX on the root, issued by the admin
	cred  *discfs.Credential
	done  chan error // Serve's return
}

func newStack(cfg stackConfig, seed uint64) (*stack, error) {
	s := &stack{cfg: cfg}
	mem := ffs.NewMemDevice(blockSize, cfg.devBlocks, ffs.DiskModel{})
	var dev ffs.BlockDevice = mem
	if cfg.tr != nil {
		dev = &traceDev{MemDevice: mem, t: cfg.tr, c: &s.devc}
	}
	var err error
	if s.ffs, err = ffs.New(ffs.Config{Device: dev}); err != nil {
		return nil, err
	}
	var backing vfs.FS = s.ffs
	if cfg.cfsNE {
		if backing, err = cfs.New(backing, "", false); err != nil {
			return nil, err
		}
	}
	if cfg.dedup {
		// Built here, not by ServerConfig.Dedup, so the trace seam can sit
		// under it; the chunk size is the one the server would derive.
		under := backing
		if cfg.tr != nil {
			under = &traceFS{FS: under, t: cfg.tr, l: layerDedupBacking}
		}
		s.dd, err = dedup.Wrap(under, dedup.WithAvgChunkSize(nfs.DefaultMaxTransfer/8))
		if err != nil {
			return nil, err
		}
		backing = s.dd
	}
	s.store = backing
	if cfg.tr != nil {
		backing = &traceFS{FS: backing, t: cfg.tr, l: layerStore}
	}
	s.admin = discfs.DeterministicKey(fmt.Sprintf("bench-admin-%d", seed))
	s.user = discfs.DeterministicKey(fmt.Sprintf("bench-user-%d", seed))
	opts := []discfs.ServerOption{discfs.WithBacking(backing), discfs.WithCacheSize(128)}
	if cfg.writeBehind {
		opts = append(opts, discfs.WithServerWriteBehind(0, 0))
	}
	if s.srv, err = discfs.NewServer(s.admin, opts...); err != nil {
		return nil, err
	}
	if s.cred, err = s.srv.IssueCredential(s.user.Principal, s.store.Root().Ino, "RWX", "benchmark user"); err != nil {
		s.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.done = make(chan error, 1)
	if cfg.tr != nil {
		ln = countListener{ln, &s.wire}
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// dial attaches as the benchmark user with the given options.
func (s *stack) dial(opts ...discfs.ClientOption) (*discfs.Client, error) {
	return discfs.Dial(context.Background(), s.addr, s.user, opts...)
}

// close stops the server and waits for its accept loop; a dedup layer
// the server could not see (it was wrapped for tracing) is closed here.
func (s *stack) close() error {
	err := s.srv.Close()
	<-s.done
	if s.dd != nil {
		if derr := s.dd.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// usedBytes is the space the filesystem has allocated on the device.
func (s *stack) usedBytes() (int64, error) {
	st, err := s.ffs.StatFS()
	if err != nil {
		return 0, err
	}
	return int64(st.TotalBlocks-st.FreeBlocks) * int64(st.BlockSize), nil
}
