// Command discfsd is the DisCFS server daemon: the user-level
// credential-checked file server of the paper, exporting an FFS-style
// store (optionally CFS-encrypted) over the secure channel.
//
// Usage:
//
//	discfsd -addr :20049 -key server.key [-policy policy.kn] [-encrypt -passphrase s]
//
// On startup the daemon prints its administrator principal; grant access
// by signing credentials with that key (see cmd/keynote and cmd/discfs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"discfs"
	"discfs/internal/fed"
	"discfs/internal/metrics"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:20049", "listen address")
		keyPath      = flag.String("key", "discfsd.key", "server (administrator) key file; created if missing")
		policyPath   = flag.String("policy", "", "additional KeyNote policy file")
		cacheSize    = flag.Int("cache", 128, "policy decision cache size (the paper used 128)")
		encrypt      = flag.Bool("encrypt", false, "enable CFS content/name encryption")
		passphrase   = flag.String("passphrase", "", "CFS passphrase (with -encrypt)")
		blockSize    = flag.Int("bs", 8192, "FFS block size")
		numBlocks    = flag.Uint("blocks", 1<<18, "FFS device size in blocks")
		auditFlag    = flag.Bool("audit", false, "write the audit log to stderr")
		dedupFlag    = flag.Bool("dedup", false, "content-addressed deduplicating store: chunk file data, store each unique chunk once")
		imagePath    = flag.String("image", "", "filesystem image: loaded at startup if present (else written empty, which checks the store can be dumped), saved on SIGINT/SIGTERM")
		backend      = flag.String("backend", discfs.DefaultBackend, "storage backend: mem (FFS under CFS) or ffs (bare FFS)")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty disables)")
		limitRPS     = flag.Float64("limit-rps", 0, "per-principal sustained request rate (0 = unlimited)")
		limitInfl    = flag.Int("limit-inflight", 0, "per-principal in-flight request cap (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: how long in-flight calls may finish on SIGTERM")
		fedSubtree   = flag.String("fed-subtree", "", "federation: pre-create this directory path at startup (every shard of a federated deployment must export the shard subtree; see the client's WithShardSubtree)")
		fedPeers     = flag.String("fed-peers", "", "federation: comma-separated peer server addresses for the server-to-server revocation feed (each peer must accept this server's key as an administrator; see -admins)")
		admins       = flag.String("admins", "", "comma-separated additional administrator principals (grant peer server keys admin so their revocation-feed pushes are accepted)")
	)
	flag.Parse()

	key, err := discfs.LoadOrCreateKey(*keyPath)
	if err != nil {
		log.Fatalf("discfsd: key: %v", err)
	}

	storeOpts := []discfs.StoreOption{
		discfs.WithBlockSize(*blockSize),
		discfs.WithNumBlocks(uint32(*numBlocks)),
	}
	if *encrypt {
		storeOpts = append(storeOpts, discfs.WithEncryption(*passphrase))
	}
	store, err := openStore(*backend, *imagePath, storeOpts)
	if err != nil {
		log.Fatalf("discfsd: %v", err)
	}

	if *fedSubtree != "" {
		// Every shard of a federated deployment must export the shard
		// subtree under the same path; create the chain idempotently so
		// freshly provisioned shards come up routable.
		dir := store.Root()
		for _, part := range strings.Split(*fedSubtree, "/") {
			if part == "" {
				continue
			}
			if a, lerr := store.Lookup(dir, part); lerr == nil {
				dir = a.Handle
				continue
			}
			a, merr := store.Mkdir(dir, part, 0o755)
			if merr != nil {
				log.Fatalf("discfsd: fed-subtree %s: %v", *fedSubtree, merr)
			}
			dir = a.Handle
		}
		fmt.Printf("discfsd: federation shard subtree %s ready\n", *fedSubtree)
	}

	opts := []discfs.ServerOption{
		discfs.WithBacking(store),
		discfs.WithCacheSize(*cacheSize),
	}
	if *dedupFlag {
		opts = append(opts, discfs.WithServerDedup())
	}
	if *policyPath != "" {
		text, err := os.ReadFile(*policyPath)
		if err != nil {
			log.Fatalf("discfsd: policy: %v", err)
		}
		opts = append(opts, discfs.WithPolicyText(string(text)))
	}
	if *auditFlag {
		opts = append(opts, discfs.WithAudit(discfs.NewAuditLog(4096, os.Stderr)))
	}
	if *limitRPS > 0 || *limitInfl > 0 {
		opts = append(opts, discfs.WithServerLimits(*limitRPS, *limitInfl))
	}
	if *fedPeers != "" {
		peers, err := fed.ParsePeers(*fedPeers)
		if err != nil {
			log.Fatalf("discfsd: -fed-peers: %v", err)
		}
		opts = append(opts, discfs.WithServerPeers(peers...))
	}
	if *admins != "" {
		var ps []discfs.Principal
		for _, p := range strings.Split(*admins, ",") {
			if p = strings.TrimSpace(p); p != "" {
				ps = append(ps, discfs.Principal(p))
			}
		}
		opts = append(opts, discfs.WithAdmins(ps...))
	}

	srv, err := discfs.NewServer(key, opts...)
	if err != nil {
		log.Fatalf("discfsd: %v", err)
	}
	fmt.Printf("discfsd: administrator principal:\n  %s\n", srv.Principal())
	fmt.Printf("discfsd: listening on %s\n", *addr)

	var msrv *metrics.HTTPServer
	if *metricsAddr != "" {
		msrv, err = metrics.Serve(*metricsAddr, srv.Metrics(), func() error {
			if srv.Draining() {
				return fmt.Errorf("draining")
			}
			return nil
		})
		if err != nil {
			log.Fatalf("discfsd: metrics: %v", err)
		}
		fmt.Printf("discfsd: metrics on http://%s/metrics\n", msrv.Addr())
	}

	// Graceful shutdown: drain in-flight calls (bounded), flush buffered
	// writes and the audit queue, dump the filesystem image, then exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigc
		fmt.Printf("discfsd: %v, draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("discfsd: shutdown: %v", err)
		}
		cancel()
		if msrv != nil {
			msrv.Close()
		}
		if *imagePath != "" {
			if err := discfs.SaveStore(*imagePath, store); err != nil {
				log.Printf("discfsd: saving image: %v", err)
			} else {
				fmt.Printf("discfsd: saved filesystem image %s\n", *imagePath)
			}
		}
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("discfsd: serve: %v", err)
	}
	<-done // serving stopped by the signal handler; wait for the dump
}

// openStore builds the store the daemon exports: the image at imagePath
// when one exists, a fresh store from the named backend otherwise. A
// fresh store that is to be saved at shutdown is saved once now, empty:
// a backend SaveStore cannot dump, or a path it cannot write, stops the
// daemon before it serves anything instead of losing the image at
// SIGTERM.
func openStore(backend, imagePath string, opts []discfs.StoreOption) (discfs.FS, error) {
	if imagePath != "" {
		if _, err := os.Stat(imagePath); err == nil {
			store, err := discfs.LoadStore(imagePath, opts...)
			if err != nil {
				return nil, fmt.Errorf("loading image: %w", err)
			}
			fmt.Printf("discfsd: restored filesystem image %s\n", imagePath)
			return store, nil
		}
	}
	store, err := discfs.OpenBackend(backend, opts...)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if imagePath != "" {
		if err := discfs.SaveStore(imagePath, store); err != nil {
			return nil, fmt.Errorf("-image with -backend %s: %w", backend, err)
		}
	}
	return store, nil
}
