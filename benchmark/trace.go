package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// The tracer records spans at seams the program already has, from the
// harness's own wrappers: the public client calls (roots), the vfs.FS
// handed to the server as its backing store, the vfs.FS under the dedup
// layer, and the ffs block device. Nothing inside the program is
// instrumented, so a traced run measures the same code as an untraced
// one plus the wrappers.

type layer uint8

const (
	layerClient       layer = iota // span.client_op: one public client call
	layerStore                     // span.store: ServerConfig.Backing
	layerDedupBacking              // span.dedup_backing: the FS under dedup.Wrap
	layerDevice                    // span.device: ffs.Config.Device
	numLayers
)

var layerNames = [numLayers]string{"client_op", "store", "dedup_backing", "device"}

// span is one traced interval. Req is the root span (client op) that
// was open when the span began, 0 for work no client op was waiting on
// (background flush, committers). Parent is the innermost open span of
// the nearest layer above; with concurrent spans in one layer it is the
// most recently opened one, which is exact for the single-client
// workloads and an approximation for `share`.
type span struct {
	ID, Parent, Req uint64
	Layer           layer
	Op              string
	Start, End      int64 // ns since the tracer's epoch
	Bytes           int64
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	open  [numLayers]atomic.Uint64 // most recently opened, still open span
	mu    [numLayers]sync.Mutex
	spans [numLayers][]span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	// A streamed MiB is 256 device spans: reserve address space up front
	// so that growing the slice never copies it mid-measurement.
	t.spans[layerDevice] = make([]span, 0, 1<<21)
	return t
}

// maxSpansWritten bounds the span file (about 120 bytes a span).
const maxSpansWritten = 200_000

// begin opens a span; the returned func closes it with its byte count.
// A nil or switched-off tracer costs one branch.
func (t *tracer) begin(l layer, op string) func(bytes int) {
	if t == nil || !t.on.Load() {
		return func(int) {}
	}
	s := span{ID: t.ids.Add(1), Layer: l, Op: op, Req: t.open[layerClient].Load()}
	for up := int(l) - 1; up >= 0 && s.Parent == 0; up-- {
		s.Parent = t.open[up].Load()
	}
	if l == layerClient {
		s.Req = s.ID
	}
	t.open[l].Store(s.ID)
	s.Start = int64(time.Since(t.epoch))
	return func(bytes int) {
		s.End = int64(time.Since(t.epoch))
		s.Bytes = int64(bytes)
		t.open[l].CompareAndSwap(s.ID, 0)
		t.mu[l].Lock()
		t.spans[l] = append(t.spans[l], s)
		t.mu[l].Unlock()
	}
}

// start and stop switch recording on and off; safe on a nil tracer.
func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

// layerSpans returns a layer's spans; call it once recording has
// stopped (nothing appends to what it returns).
func (t *tracer) layerSpans(l layer) []span {
	t.mu[l].Lock()
	defer t.mu[l].Unlock()
	return t.spans[l]
}

// interval math: a layer's busy time is the length of the union of its
// spans, so concurrent spans (flush workers, committers) count wall
// time once.

type interval struct{ a, b int64 }

func union(spans []span) []interval {
	iv := make([]interval, len(spans))
	for i, s := range spans {
		iv[i] = interval{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			if x.b > out[n-1].b {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(u []interval) (n int64) {
	for _, x := range u {
		n += x.b - x.a
	}
	return n
}

// overlap is the length of the intersection of two unions.
func overlap(u, v []interval) (n int64) {
	for i, j := 0, 0; i < len(u) && j < len(v); {
		lo, hi := max(u[i].a, v[j].a), min(u[i].b, v[j].b)
		if hi > lo {
			n += hi - lo
		}
		if u[i].b < v[j].b {
			i++
		} else {
			j++
		}
	}
	return n
}

// selfTimes attributes the wall time of the traced window to layers.
// root = time inside client ops; of it, aboveStore is the part no store
// span covers (client, secchan, sunrpc, nfs, core and their waiting).
// Store time splits into dedup (store minus what the FS under it
// covers), ffs (the lowest FS seam minus device time) and device.
// background is store time outside every client op. By construction
// aboveStore + dedup + ffs + device - background == root.
type selfTimes struct {
	root, aboveStore, dedup, ffs, device, background int64
}

func (t *tracer) selfTimes() selfTimes {
	root := union(t.layerSpans(layerClient))
	store := union(t.layerSpans(layerStore))
	ddb := union(t.layerSpans(layerDedupBacking))
	dev := union(t.layerSpans(layerDevice))
	var s selfTimes
	s.root = length(root)
	inRoot := overlap(root, store)
	s.aboveStore = s.root - inRoot
	s.background = length(store) - inRoot
	lowest := store // the FS seam directly above ffs
	if len(ddb) > 0 {
		s.dedup = length(store) - overlap(store, ddb)
		lowest = ddb
	}
	s.device = overlap(lowest, dev)
	s.ffs = length(lowest) - s.device
	return s
}

// writeJSONL dumps the spans, ordered by start time, one JSON object a
// line, preceded by one provenance line. A long run is cut at
// maxSpansWritten: the file is for reading individual requests, the
// totals come from the spans in memory.
func (t *tracer) writeJSONL(path, provenance string) error {
	var all []span
	for l := layer(0); l < numLayers; l++ {
		all = append(all, t.layerSpans(l)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	total := len(all)
	all = all[:min(total, maxSpansWritten)]
	provenance = fmt.Sprintf(`{"spans_total":%d,"spans_written":%d,"provenance":%s}`, total, len(all), provenance)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(provenance)
	w.WriteByte('\n')
	var b []byte
	for _, s := range all {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendUint(b, s.ID, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.Parent, 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendUint(b, s.Req, 10)
		b = append(b, `,"layer":"`...)
		b = append(b, layerNames[s.Layer]...)
		b = append(b, `","op":"`...)
		b = append(b, s.Op...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, s.Bytes, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- seam wrappers ----

// traceFS wraps a vfs.FS seam. It always offers ReaderInto and Syncer
// and forwards them through the vfs helpers, which fall back exactly as
// the layer above would have if the inner FS lacks the capability.
type traceFS struct {
	vfs.FS
	t *tracer
	l layer
}

func (f *traceFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	defer f.t.begin(f.l, "getattr")(0)
	return f.FS.GetAttr(h)
}

func (f *traceFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	defer f.t.begin(f.l, "setattr")(0)
	return f.FS.SetAttr(h, s)
}

func (f *traceFS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	defer f.t.begin(f.l, "lookup")(0)
	return f.FS.Lookup(dir, name)
}

func (f *traceFS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	end := f.t.begin(f.l, "read")
	data, eof, err := f.FS.Read(h, off, count)
	end(len(data))
	return data, eof, err
}

func (f *traceFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	end := f.t.begin(f.l, "read")
	n, eof, err := vfs.ReadFSInto(f.FS, h, off, dst)
	end(n)
	return n, eof, err
}

func (f *traceFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	defer f.t.begin(f.l, "write")(len(data))
	return f.FS.Write(h, off, data)
}

func (f *traceFS) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	defer f.t.begin(f.l, "create")(0)
	return f.FS.Create(dir, name, mode)
}

func (f *traceFS) Remove(dir vfs.Handle, name string) error {
	defer f.t.begin(f.l, "remove")(0)
	return f.FS.Remove(dir, name)
}

func (f *traceFS) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	defer f.t.begin(f.l, "mkdir")(0)
	return f.FS.Mkdir(dir, name, mode)
}

func (f *traceFS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	defer f.t.begin(f.l, "readdir")(0)
	return f.FS.ReadDir(dir)
}

func (f *traceFS) Sync() error {
	defer f.t.begin(f.l, "sync")(0)
	return vfs.SyncFS(f.FS)
}

// devCounters count device traffic in a traced stack.
type devCounters struct {
	reads, writes, bytesWritten, syncs atomic.Int64
}

// traceDev wraps the block device handed to ffs.
type traceDev struct {
	*ffs.MemDevice
	t *tracer
	c *devCounters
}

func (d *traceDev) ReadBlock(bn uint32, buf []byte) error {
	d.c.reads.Add(1)
	defer d.t.begin(layerDevice, "read")(len(buf))
	return d.MemDevice.ReadBlock(bn, buf)
}

func (d *traceDev) WriteBlock(bn uint32, data []byte) error {
	d.c.writes.Add(1)
	d.c.bytesWritten.Add(int64(len(data)))
	defer d.t.begin(layerDevice, "write")(len(data))
	return d.MemDevice.WriteBlock(bn, data)
}

func (d *traceDev) Sync() error {
	d.c.syncs.Add(1)
	defer d.t.begin(layerDevice, "sync")(0)
	return d.MemDevice.Sync()
}

// wireCounters count what crosses the server's TCP connections (both
// directions, ciphertext and framing included).
type wireCounters struct {
	bytes, writes atomic.Int64
}

type countListener struct {
	net.Listener
	c *wireCounters
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, c: l.c}, nil
}

type countConn struct {
	net.Conn
	c *wireCounters
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}
