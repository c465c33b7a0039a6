// Package telemetry is the serving stack's observability subsystem: a
// concurrency-safe metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with exact quantiles), request tracing with
// per-request waterfalls on an injectable clock, and pprof profiling
// helpers. It is stdlib-only and imports nothing from the rest of the repo,
// so every layer — gateway, serving, parallel, emulator, the CLIs — can
// instrument itself against it without import cycles.
//
// Metric names are hierarchical dotted paths ("gateway.admitted",
// "serving.offload.latency_ms", "parallel.arena.hits"). Snapshots are
// deterministic: instruments are emitted in sorted name order and every
// derived statistic (sum, mean, quantiles) is computed from the sorted
// sample multiset, so two runs that observed the same values — in any
// interleaving, at any GOMAXPROCS — render byte-identical expositions.
//
// The package never reads the wall clock: all timestamps and durations are
// handed in by callers, which in clock-injected packages means they come
// from the faultnet.Clock seam. The walltime analyzer enforces this.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or at least additive) integer metric. All methods
// are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float metric (queue depth, breaker state,
// arena hit count mirrored from another subsystem). Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named instruments. Lookup creates on first use, so
// instrumented code never has to pre-declare; hot paths should still resolve
// their instruments once and hold the returned handle.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
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
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
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
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil bounds pick DefaultLatencyBuckets). The
// bounds of an existing histogram are never changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
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
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Count adds delta to the named counter. Convenience path for cold code;
// hot paths should hold the *Counter.
func (r *Registry) Count(name string, delta int64) { r.Counter(name).Add(delta) }

// SetGauge stores v into the named gauge.
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// Observe records v into the named histogram (default latency buckets).
func (r *Registry) Observe(name string, v float64) { r.Histogram(name, nil).Observe(v) }

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// sorted by name within each kind. It is the exchange format: the emulator
// embeds it in run results, and Text renders the deterministic exposition
// the determinism suite compares byte for byte.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Counters and gauges are read
// atomically; histograms copy their sample sets under their own locks. The
// result is fully detached from the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	var s Snapshot
	for name, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		hs := h.Snapshot()
		hs.Name = name
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// formatFloat renders a float the same way on every platform and never loses
// precision — the exposition must be byte-identical across replays.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Text renders the snapshot as a deterministic plain-text exposition: one
// line per counter and gauge, a header plus one line per bucket for each
// histogram, everything in sorted name order.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s min=%s max=%s mean=%s p50=%s p90=%s p99=%s\n",
			h.Name, h.Count, formatFloat(h.Sum), formatFloat(h.Min), formatFloat(h.Max),
			formatFloat(h.Mean), formatFloat(h.P50), formatFloat(h.P90), formatFloat(h.P99))
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "  le=%s %d\n", bk.LE, bk.Count)
		}
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON (stable field order via the
// struct definitions, stable element order via the sorted slices).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
