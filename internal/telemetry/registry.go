// Package telemetry is the runtime observability layer of the RoboADS
// monitor: a metrics registry (atomic counters, gauges, and fixed-bucket
// histograms — no locks and no allocations on the observation path), a
// structured event log built on log/slog with per-level sampling, and an
// HTTP surface exposing Prometheus text exposition, pprof, expvar, and a
// JSON state snapshot.
//
// The package is wired into the engine and the decision maker through
// the Observer hook interfaces those packages define (core.Observer,
// detect.Observer); a Telemetry (one detector) and a Counts (a fleet)
// implement both. With no observer attached the instrumented code paths
// reduce to a single nil check, so the detector pays nothing when
// monitoring is off.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// ringSize is the per-histogram capacity of the recent-sample ring used
// for snapshot quantile estimates. A power of two keeps the index math a
// mask.
const ringSize = 256

// Histogram is a lock-free fixed-bucket histogram. Bucket bounds are
// chosen at registration and never change, so Observe is a linear scan
// over ~20 float64 compares plus three atomic adds — no locks, no
// allocations. A small ring buffer of recent raw samples rides along so
// the JSON snapshot can report approximate quantiles without the
// information loss of bucket interpolation.
type Histogram struct {
	bounds  []float64 // upper bucket bounds, ascending; +Inf bucket implicit
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
	ring    [ringSize]atomic.Uint64
	ringPos atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one sample. Safe for concurrent use from any
// goroutine; never allocates.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	p := h.ringPos.Add(1) - 1
	h.ring[p&(ringSize-1)].Store(math.Float64bits(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// recent returns a sorted copy of the ring-buffer samples (at most
// ringSize, at most Count()).
func (h *Histogram) recent() []float64 {
	n := h.total.Load()
	if n > ringSize {
		n = ringSize
	}
	out := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, math.Float64frombits(h.ring[i].Load()))
	}
	sort.Float64s(out)
	return out
}

// HistogramSnapshot is the JSON form of a histogram: totals plus
// quantile estimates over the recent-sample ring.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	r := h.recent()
	if len(r) == 0 {
		return s
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(r)-1))
		return r[i]
	}
	s.P50, s.P90, s.P95, s.P99, s.Max = q(0.50), q(0.90), q(0.95), q(0.99), r[len(r)-1]
	return s
}

// LatencyBuckets returns the fixed bucket layout used for every latency
// histogram in this package: roughly logarithmic from 1µs to 10s, in
// seconds.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2e-6, 5e-6,
		1e-5, 2e-5, 5e-5,
		1e-4, 2e-4, 5e-4,
		1e-3, 2e-3, 5e-3,
		1e-2, 2e-2, 5e-2,
		1e-1, 2e-1, 5e-1,
		1, 2, 5, 10,
	}
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration (get-or-create) takes a lock;
// observation on the returned handles is lock-free, so hot paths
// register once up front and hold the pointers.
//
// Metric names follow Prometheus conventions; a name may carry a fixed
// label set inline, e.g. `roboads_dropped_readings_total{sensor="ips"}`.
// Histograms must be label-free (their exposition synthesizes the `le`
// label).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // by base name (labels stripped)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// baseName strips an inline label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	r.setHelp(name, help)
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	r.setHelp(name, help)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. The bounds of an existing
// histogram are kept.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	r.setHelp(name, help)
	return h
}

func (r *Registry) setHelp(name, help string) {
	base := baseName(name)
	if _, ok := r.help[base]; !ok && help != "" {
		r.help[base] = help
	}
}

// CounterValue returns the value of the named counter, or 0 if it was
// never registered. Intended for tests and snapshots, not hot paths.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if c, ok := r.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// GaugeValue returns the value of the named gauge, or 0 if absent.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if g, ok := r.gauges[name]; ok {
		return g.Value()
	}
	return 0
}

// HistogramCount returns the observation count of the named histogram,
// or 0 if absent.
func (r *Registry) HistogramCount(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if h, ok := r.hists[name]; ok {
		return h.Count()
	}
	return 0
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), sorted by name for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	// TYPE/HELP lines must appear once per base name, before the first
	// sample of that family; group the labeled variants.
	counterNames := sortedKeysC(r.counters)
	gaugeNames := sortedKeysG(r.gauges)
	histNames := sortedKeysH(r.hists)

	seenType := make(map[string]bool)
	header := func(base, kind string) string {
		if seenType[base] {
			return ""
		}
		seenType[base] = true
		var b strings.Builder
		if help := r.help[base]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
		return b.String()
	}

	for _, name := range counterNames {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", header(baseName(name), "counter"), name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		if _, err := fmt.Fprintf(w, "%s%s %g\n", header(baseName(name), "gauge"), name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range histNames {
		h := r.hists[name]
		if _, err := io.WriteString(w, header(name, "histogram")); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a JSON-marshalable view of every metric.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.snapshot()
	}
	return map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}

func sortedKeysC(m map[string]*Counter) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysG(m map[string]*Gauge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysH(m map[string]*Histogram) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
