// Package metrics is the operations-plane instrumentation registry: a
// dependency-free Prometheus-text-format exposition of counters, gauges
// and fixed-bucket latency histograms. Every layer of the server —
// sunrpc, secchan, nfs, the policy engine, the dedup store, the
// buffer pool — reports through one Registry so operators (and the soak
// harness) read a single coherent surface instead of per-layer ad-hoc
// counters.
//
// The implementation is deliberately small: atomic counters, a
// cumulative-bucket histogram with quantile readback, and func-backed
// collectors that sample existing component counters at scrape time (so
// instrumenting a layer costs nothing on its hot path).
package metrics

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds a set of named metric families and renders them in
// Prometheus text exposition format. Constructors are idempotent: asking
// for an existing name of the same kind returns the existing metric, so
// independent layers may register against the same registry without
// coordinating.
type Registry struct {
	mu    sync.Mutex
	order []*family
	byVal map[string]*family
}

// family is one named metric family (possibly labeled).
type family struct {
	name, help, typ string
	value           any
	write           func(w *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byVal: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, kind any, write func(w *strings.Builder)) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byVal[name]; ok {
		if f.typ != typ {
			panic("metrics: " + name + " re-registered as " + typ + ", was " + f.typ)
		}
		return f.value
	}
	f := &family{name: name, help: help, typ: typ, write: write}
	f.value = kind
	r.byVal[name] = f
	r.order = append(r.order, f)
	return kind
}

// ---- Counter ----

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	return r.register(name, help, "counter", c, func(w *strings.Builder) {
		writeSample(w, name, "", float64(c.Value()))
	}).(*Counter)
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — the bridge from existing component counters (cache
// hits, audit totals, pool statistics) into the registry without
// double-counting state.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", fn, func(w *strings.Builder) {
		writeSample(w, name, "", float64(fn()))
	})
}

// ---- Gauge ----

// A Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	return r.register(name, help, "gauge", g, func(w *strings.Builder) {
		writeSample(w, name, "", float64(g.Value()))
	}).(*Gauge)
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", fn, func(w *strings.Builder) {
		writeSample(w, name, "", fn())
	})
}

// ---- Histogram ----

// DefLatencyBuckets are the default RPC latency buckets: roughly
// exponential from 50µs (an in-memory cache hit) to 10s (a pathological
// stall), matching the range the NFS data plane actually spans.
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// A Histogram counts observations into fixed buckets and keeps a sum,
// supporting approximate quantile readback. Observation is lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		o := h.sum.Load()
		n := math.Float64bits(math.Float64frombits(o) + v)
		if h.sum.CompareAndSwap(o, n) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot captures the bucket state for merging and quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.Sum()
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket; observations beyond the
// last bound report the last bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// A HistogramSnapshot is a point-in-time copy of histogram state;
// snapshots over the same buckets can be merged.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Merge accumulates o into s (buckets must match; zero-value s adopts
// o's buckets).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Bounds == nil {
		s.Bounds = o.Bounds
		s.Counts = make([]uint64, len(o.Counts))
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Quantile estimates the q-quantile of the snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				// +Inf bucket: report the last finite bound.
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Histogram registers (or returns) a histogram with the given upper
// bounds (nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	return r.register(name, help, "histogram", h, func(w *strings.Builder) {
		writeHistogram(w, name, "", h.Snapshot())
	}).(*Histogram)
}

// ---- Labeled vectors ----

// A CounterVec is a counter family partitioned by one label.
type CounterVec struct {
	label string
	mu    sync.Mutex
	m     map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[value]
	if !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// Total sums the family.
func (v *CounterVec) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t uint64
	for _, c := range v.m {
		t += c.Value()
	}
	return t
}

func (v *CounterVec) sorted() []string {
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, m: make(map[string]*Counter)}
	return r.register(name, help, "counter", v, func(w *strings.Builder) {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, k := range v.sorted() {
			writeSample(w, name, labelPair(label, k), float64(v.m[k].Value()))
		}
	}).(*CounterVec)
}

// A HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct {
	label   string
	buckets []float64
	mu      sync.Mutex
	m       map[string]*Histogram
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[value]
	if !ok {
		h = newHistogram(v.buckets)
		v.m[value] = h
	}
	return h
}

// Merged folds every label's buckets into one snapshot — the aggregate
// latency distribution across the family.
func (v *HistogramVec) Merged() HistogramSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	var s HistogramSnapshot
	for _, h := range v.m {
		s.Merge(h.Snapshot())
	}
	return s
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{label: label, buckets: buckets, m: make(map[string]*Histogram)}
	return r.register(name, help, "histogram", v, func(w *strings.Builder) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps := make([]HistogramSnapshot, len(keys))
		for i, k := range keys {
			snaps[i] = v.m[k].Snapshot()
		}
		v.mu.Unlock()
		for i, k := range keys {
			writeHistogram(w, name, labelPair(v.label, k), snaps[i])
		}
	}).(*HistogramVec)
}

// ---- Exposition ----

// WriteText renders the registry in Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func labelPair(label, value string) string {
	return label + `="` + escapeLabel(value) + `"`
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func writeSample(w *strings.Builder, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func writeHistogram(w *strings.Builder, name, labels string, s HistogramSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := labelPair("le", formatFloat(bound))
		if labels != "" {
			le = labels + "," + le
		}
		writeSample(w, name+"_bucket", le, float64(cum))
	}
	cum += s.Counts[len(s.Counts)-1]
	inf := labelPair("le", "+Inf")
	if labels != "" {
		inf = labels + "," + inf
	}
	writeSample(w, name+"_bucket", inf, float64(cum))
	writeSample(w, name+"_sum", labels, s.Sum)
	writeSample(w, name+"_count", labels, float64(cum))
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
