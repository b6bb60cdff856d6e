package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"discfs"
	"discfs/internal/bufpool"
	"discfs/internal/cache"
	"discfs/internal/cfs"
	"discfs/internal/core"
	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Probes time each layer's public functions directly, alone, at the
// sizes the workloads use. Multiplied by the counts the counters give,
// they estimate a layer's share of a workload's wall time; moved by a
// change, they say which end-to-end metric should follow.

// timeIt returns the median, over batches, of the mean time of one call
// of fn. Batches last about 2 ms so that timer resolution and a stray
// preemption do not decide the result.
func timeIt(budget time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	one := max(time.Since(t0), time.Nanosecond)
	n := int(min(max(2*time.Millisecond/one, 1), 1<<20))
	batches := int(min(max(budget/(time.Duration(n)*one), 5), 25))
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(means))
}

func us(d time.Duration) float64              { return float64(d.Nanoseconds()) / 1e3 }
func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / mib / d.Seconds() }

const (
	probeBudget = 30 * time.Millisecond
	big         = 512 * kib
	small       = 8 * kib
)

// probeValues are the probe results the share estimates need.
type probeValues struct {
	handshakeUS, record8kUS, record512kUS         float64
	parseUS, verifyUS, signUS, queryChain2US      float64
	dedupUniqueMBps, dedupDupMBps                 float64
	ffsWriteMBps, ffsReadMBps, createUS, lookupUS float64
}

// runProbes emits every probe metric. creds is the size of the large
// KeyNote session (6,000 at full scale).
func runProbes(res *result, seed uint64, creds int) (probeValues, error) {
	var pv probeValues
	for _, p := range []func(*result, *probeValues, uint64, int) error{
		probeSecchan, probeSunRPC, probeSmall, probeKeynote, probeCheck, probeDedup, probeStores,
	} {
		if err := p(res, &pv, seed, creds); err != nil {
			return pv, err
		}
	}
	return pv, nil
}

// pipe is a loopback TCP connection pair.
func pipe() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.c, nil
}

// secPair establishes one secure channel over loopback TCP.
func secPair(ck, sk *keynote.KeyPair) (*secchan.Conn, *secchan.Conn, error) {
	rc, rs, err := pipe()
	if err != nil {
		return nil, nil, err
	}
	type done struct {
		c   *secchan.Conn
		err error
	}
	ch := make(chan done, 1)
	go func() {
		c, err := secchan.Server(rs, secchan.Config{Identity: sk})
		ch <- done{c, err}
	}()
	cc, err := secchan.Client(rc, secchan.Config{Identity: ck})
	d := <-ch
	if err != nil || d.err != nil {
		rc.Close()
		rs.Close()
		return nil, nil, fmt.Errorf("secchan handshake: client %v, server %v", err, d.err)
	}
	return cc, d.c, nil
}

func probeSecchan(res *result, pv *probeValues, seed uint64, _ int) error {
	ck := keynote.DeterministicKey(fmt.Sprintf("probe-client-%d", seed))
	sk := keynote.DeterministicKey(fmt.Sprintf("probe-server-%d", seed))
	var herr error
	hs := timeIt(probeBudget, func() {
		c, s, err := secPair(ck, sk)
		if err != nil {
			herr = err
			return
		}
		c.Close()
		s.Close()
	})
	if herr != nil {
		return herr
	}
	pv.handshakeUS = us(hs)
	res.set("secchan.handshake_us", pv.handshakeUS, "us")

	// One record of n bytes sealed, sent, opened, and a 1-byte record back.
	c, s, err := secPair(ck, sk)
	if err != nil {
		return err
	}
	defer c.Close()
	defer s.Close()
	echoDone := make(chan struct{})
	sizes := make(chan int)
	go func() {
		defer close(echoDone)
		buf := make([]byte, big)
		for n := range sizes {
			if _, err := io.ReadFull(s, buf[:n]); err != nil {
				return
			}
			if _, err := s.Write(buf[:1]); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, big)
	newRNG(seed, "probe-record").fill(payload)
	ack := make([]byte, 1)
	var rerr error
	record := func(n int) time.Duration {
		return timeIt(probeBudget, func() {
			sizes <- n
			if _, err := c.Write(payload[:n]); err != nil {
				rerr = err
			}
			if _, err := io.ReadFull(c, ack); err != nil {
				rerr = err
			}
		})
	}
	pv.record8kUS = us(record(small))
	pv.record512kUS = us(record(big))
	close(sizes)
	<-echoDone
	res.set("secchan.record_us_8k", pv.record8kUS, "us")
	res.set("secchan.record_us_512k", pv.record512kUS, "us")
	return rerr
}

func probeSunRPC(res *result, _ *probeValues, seed uint64, _ int) error {
	const prog, vers = 0x20000099, 1
	srv := sunrpc.NewServer()
	srv.Register(prog, vers, func(_ *sunrpc.Context, _ uint32, args *xdr.Decoder, _ *xdr.Encoder) (sunrpc.AcceptStat, error) {
		return sunrpc.Success, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c := sunrpc.NewClient(conn)
	defer c.Close()
	var cerr error
	call := func(args []byte) time.Duration {
		return timeIt(probeBudget, func() {
			d, err := c.Call(ctx, prog, vers, 1, args)
			if err != nil {
				cerr = err
				return
			}
			nfs.RecycleReply(d)
		})
	}
	res.set("sunrpc.null_call_us", us(call(nil)), "us")
	args := make([]byte, big)
	newRNG(seed, "probe-rpc").fill(args)
	res.set("sunrpc.call_us_512k", us(call(args)), "us")
	return cerr
}

// probeSmall covers the leaf utilities: xdr, the decision cache and the
// buffer pool.
func probeSmall(res *result, _ *probeValues, _ uint64, _ int) error {
	now := time.Unix(1_000_000_000, 0)
	fa := nfs.FAttrFromVFS(vfs.Attr{Handle: vfs.Handle{Ino: 42, Gen: 1}, Type: vfs.TypeRegular,
		Mode: 0o644, Nlink: 1, Size: 12345, Blocks: 2, Atime: now, Mtime: now, Ctime: now}, blockSize)
	var sink nfs.FAttr
	res.set("xdr.attr_roundtrip_ns", float64(timeIt(probeBudget, func() {
		e := xdr.NewEncoder()
		fa.Encode(e)
		sink = nfs.DecodeFAttr(xdr.NewDecoder(e.Bytes()))
	})), "ns")
	if sink.FileID != fa.FileID {
		return fmt.Errorf("xdr probe: fattr did not round-trip")
	}

	dc := cache.New(128)
	key := cache.Key{Peer: "probe", Ino: 7, Gen: 1}
	dc.Put(key, cache.Entry{Perm: 7, Gen: 1, Expires: now.Add(time.Hour)})
	hit := false
	res.set("cache.get_ns", float64(timeIt(probeBudget, func() { _, hit = dc.Get(key, 1, now) })), "ns")
	if !hit {
		return fmt.Errorf("cache probe: miss on a present key")
	}

	res.set("bufpool.getput_ns", float64(timeIt(probeBudget, func() { bufpool.Put(bufpool.Get(64 * kib)) })), "ns")
	return nil
}

// grant signs a credential from -> to granting value on the subtree of
// inode 1.
func grant(from *keynote.KeyPair, to keynote.Principal, value string) (*keynote.Assertion, error) {
	return keynote.Sign(from, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(to),
		Conditions: core.SubtreeConditions(1, value, true, ""),
		Comment:    "probe",
	})
}

func probeKeynote(res *result, pv *probeValues, seed uint64, creds int) error {
	admin := keynote.DeterministicKey(fmt.Sprintf("probe-admin-%d", seed))
	owner := keynote.DeterministicKey(fmt.Sprintf("probe-owner-%d", seed))
	grantee := keynote.DeterministicKey(fmt.Sprintf("probe-grantee-%d", seed))
	var err error
	var c1, c2 *keynote.Assertion
	pv.signUS = us(timeIt(probeBudget, func() { c2, err = grant(owner, grantee.Principal, "RX") }))
	if err != nil {
		return err
	}
	if c1, err = grant(admin, owner.Principal, "RWX"); err != nil {
		return err
	}
	pv.parseUS = us(timeIt(probeBudget, func() { _, err = keynote.ParseAssertions(c2.Source) }))
	if err != nil {
		return err
	}
	pv.verifyUS = us(timeIt(probeBudget, func() { err = c2.Verify() }))
	if err != nil {
		return err
	}
	res.set("keynote.parse_us", pv.parseUS, "us")
	res.set("keynote.verify_us", pv.verifyUS, "us")
	res.set("keynote.sign_us", pv.signUS, "us")

	// The server's session: root policy, then credentials.
	newSession := func() (*keynote.Session, error) {
		s, err := keynote.NewSession(core.Values)
		if err != nil {
			return nil, err
		}
		pol, err := keynote.NewPolicy(keynote.AssertionSpec{
			Licensees:  keynote.LicenseesOr(admin.Principal),
			Conditions: `app_domain == "` + core.AppDomain + `" -> _MAX_TRUST;`,
		})
		if err != nil {
			return nil, err
		}
		if err := s.AddPolicy(pol); err != nil {
			return nil, err
		}
		for _, c := range []*keynote.Assertion{c1, c2} {
			if err := s.AddCredential(c); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	attrs := map[string]string{"app_domain": core.AppDomain, "HANDLE": "9", "GENERATION": "1", "PATH": "/1/9/", "peer": string(grantee.Principal)}
	query := func(s *keynote.Session) (time.Duration, error) {
		var r keynote.Result
		var err error
		d := timeIt(probeBudget, func() { r, err = s.Query(attrs, grantee.Principal) })
		if err == nil && r.Value != "RX" {
			err = fmt.Errorf("keynote probe: chain of 2 evaluated to %q, want RX", r.Value)
		}
		return d, err
	}
	s, err := newSession()
	if err != nil {
		return err
	}
	d, err := query(s)
	if err != nil {
		return err
	}
	pv.queryChain2US = us(d)
	res.set("keynote.query_us_chain2", pv.queryChain2US, "us")

	// The same query and one more AddCredential against a session that
	// has accumulated creds credentials for other grantees.
	for i := 0; s.Snapshot().NumCredentials() < creds; i++ {
		other := keynote.DeterministicKey(fmt.Sprintf("probe-other-%d-%d", seed, i))
		c, err := grant(owner, other.Principal, "RX")
		if err != nil {
			return err
		}
		if err := s.AddCredential(c); err != nil {
			return err
		}
	}
	if d, err = query(s); err != nil {
		return err
	}
	res.set("keynote.query_us_at_6k", us(d), "us")
	const adds = 20
	fresh := make([]*keynote.Assertion, adds)
	for i := range fresh {
		other := keynote.DeterministicKey(fmt.Sprintf("probe-fresh-%d-%d", seed, i))
		if fresh[i], err = grant(owner, other.Principal, "RX"); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, c := range fresh {
		if err := s.AddCredential(c); err != nil {
			return err
		}
	}
	res.set("keynote.add_credential_us_at_6k", us(time.Since(t0))/adds, "us")
	return nil
}

// probeCheck times the server's whole authorization path (decision
// cache, KeyNote query on a miss, audit record) without RPC.
func probeCheck(res *result, _ *probeValues, seed uint64, _ int) error {
	st, err := newStack(stackConfig{cfsNE: true, devBlocks: 1024}, seed)
	if err != nil {
		return err
	}
	defer st.close()
	peer, root := st.user.Principal, st.store.Root()
	var cerr error
	res.set("core.server.check_cached_ns", float64(timeIt(probeBudget, func() {
		cerr = st.srv.Check(peer, root, discfs.PermR, "probe")
	})), "ns")
	if cerr != nil {
		return fmt.Errorf("check probe: %w", cerr)
	}
	// 1,024 handles cycled through 128 cache entries: every check misses
	// and runs the query (which denies: the handles are not in the tree).
	i := uint64(0)
	res.set("core.server.check_uncached_us", us(timeIt(probeBudget, func() {
		i++
		st.srv.Check(peer, vfs.Handle{Ino: 1000 + i%1024, Gen: 1}, discfs.PermR, "probe")
	})), "us")
	return nil
}

func probeDedup(res *result, pv *probeValues, seed uint64, _ int) error {
	const total = 8 * mib
	data := make([]byte, total)
	newRNG(seed, "probe-dedup").fill(data)
	p := dedup.ParamsForAvg(nfs.DefaultMaxTransfer / 8)
	res.set("dedup.split_mbps", mbps(total, timeIt(probeBudget, func() { p.Split(data) })), "MiB/s")

	under, err := ffs.New(ffs.Config{NumBlocks: 8 * total / blockSize})
	if err != nil {
		return err
	}
	dd, err := dedup.Wrap(under, dedup.WithParams(p), dedup.WithSweepInterval(0))
	if err != nil {
		return err
	}
	defer dd.Close()
	// The first file's chunks are all new; the second file repeats them.
	write := func(name string) (time.Duration, error) {
		a, err := dd.Create(dd.Root(), name, 0o644)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := writeChunks(dd, a.Handle, data); err != nil {
			return 0, err
		}
		return time.Since(t0), dd.Sync()
	}
	d, err := write("unique")
	if err != nil {
		return err
	}
	pv.dedupUniqueMBps = mbps(total, d)
	if d, err = write("dup"); err != nil {
		return err
	}
	pv.dedupDupMBps = mbps(total, d)
	res.set("dedup.write_unique_mbps", pv.dedupUniqueMBps, "MiB/s")
	res.set("dedup.write_dup_mbps", pv.dedupDupMBps, "MiB/s")
	return nil
}

// writeChunks writes data to h in 512 KiB pieces, the size a gathered
// run reaches the store at.
func writeChunks(fs vfs.FS, h vfs.Handle, data []byte) error {
	for off := 0; off < len(data); off += big {
		if _, err := fs.Write(h, uint64(off), data[off:min(off+big, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

func probeStores(res *result, pv *probeValues, seed uint64, _ int) error {
	const total = 8 * mib
	data := make([]byte, total)
	newRNG(seed, "probe-store").fill(data)
	under, err := ffs.New(ffs.Config{NumBlocks: 16 * total / blockSize})
	if err != nil {
		return err
	}
	var perr error
	// Rewrites of one file: allocation happens in the first call only.
	rewrite := func(fs vfs.FS, name string) time.Duration {
		a, err := fs.Create(fs.Root(), name, 0o644)
		if err != nil {
			perr = err
			return time.Second
		}
		return timeIt(4*probeBudget, func() {
			if err := writeChunks(fs, a.Handle, data); err != nil {
				perr = err
			}
		})
	}
	pv.ffsWriteMBps = mbps(total, rewrite(under, "ffs.bin"))
	res.set("ffs.write_mbps_512k", pv.ffsWriteMBps, "MiB/s")
	ne, err := cfs.New(under, "", false)
	if err != nil {
		return err
	}
	res.set("cfs.write_mbps_512k", mbps(total, rewrite(ne, "cfs.bin")), "MiB/s")

	a, err := under.Lookup(under.Root(), "ffs.bin")
	if err != nil {
		return err
	}
	buf := make([]byte, big)
	pv.ffsReadMBps = mbps(total, timeIt(4*probeBudget, func() {
		for off := 0; off < total; off += big {
			if _, _, err := under.ReadInto(a.Handle, uint64(off), buf); err != nil {
				perr = err
			}
		}
	}))
	res.set("ffs.read_mbps_512k", pv.ffsReadMBps, "MiB/s")

	// In a directory of the search tree's size (64 entries): create and
	// remove one file, then look one up.
	dir, err := under.Mkdir(under.Root(), "d", 0o755)
	if err != nil {
		return err
	}
	for i := 0; i < 63; i++ {
		if _, err := under.Create(dir.Handle, fmt.Sprintf("f%d", i), 0o644); err != nil {
			return err
		}
	}
	pv.createUS = us(timeIt(probeBudget, func() {
		if _, err := under.Create(dir.Handle, "probe", 0o644); err != nil {
			perr = err
		}
		if err := under.Remove(dir.Handle, "probe"); err != nil {
			perr = err
		}
	}))
	pv.lookupUS = us(timeIt(probeBudget, func() {
		if _, err := under.Lookup(dir.Handle, "f62"); err != nil {
			perr = err
		}
	}))
	res.set("ffs.create_us", pv.createUS, "us")
	res.set("ffs.lookup_us", pv.lookupUS, "us")
	return perr
}
