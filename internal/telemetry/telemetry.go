// Package telemetry is the repo's dependency-free metrics layer: a
// registry of counters, gauges and histograms with a named snapshot API
// and Prometheus text exposition, plus a lightweight span/trace model
// (trace.go) for per-cell cross-machine timing.
//
// Design constraints, in priority order:
//
//   - Inert: nothing in this package may influence simulation results,
//     cache keys, or result-set fingerprints. Instruments only ever
//     *read* the instrumented code's state; they are never consulted by
//     it (DESIGN.md invariant 8).
//   - Hot-path safe: Counter.Add and Histogram.Observe are a handful of
//     atomic operations and zero heap allocations, so the simulator's
//     0-allocs/op steady-state quanta survive with telemetry compiled
//     in. The sim layer batches further: per-run totals accumulate in
//     plain machine-local fields and flush here once per run.
//   - Deterministic exposition: metric names sort, histogram bucket
//     bounds are fixed at registration, and floats render with %g-style
//     shortest form, so the Prometheus text output is golden-testable
//     and metric renames are deliberate (a CI-pinned golden file).
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed,
// counters end in _total). A name may carry a fixed label set inline —
// `astro_queue_cells_total{kind="sim"}` — which the expositor folds into
// one TYPE/HELP family per base name; this keeps the registry a flat
// map (one atomic word per instrument) instead of a vector type.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 (stored as bits, so Set/Value are single
// atomic words; Add is a CAS loop).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is allocation-free: a linear scan over the (short, fixed)
// bounds slice plus three atomic adds.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; not cumulative
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. NaN is dropped: it would land in the +Inf
// bucket but poison the sum (every later Sum reads NaN), so a single
// bad division upstream must not wreck a whole histogram's exposition.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	// Count first: a reader that sees this bucket increment then also
	// sees the count's, so a snapshot's bucket total never exceeds a
	// count read after it.
	h.count.Add(1)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets is the default latency bucket ladder (seconds): 1ms to 60s,
// roughly exponential. Fixed here so every latency histogram in the repo
// shares one deterministic shape.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name string // full name, possibly with an inline {label="set"}
	base string // name up to the label set
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named instruments. Registration is get-or-create and
// idempotent: asking twice for the same name returns the same instrument,
// so package-level metric variables across the repo can share one
// registry without init-order coupling. Registering an existing name as a
// different kind panics — that is a programming error, not a runtime
// condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// Default is the process-wide registry every astro subsystem registers
// into; /metrics on astro-serve and `astro-experiments -remote` exposes
// it.
var Default = NewRegistry()

// baseName strips an inline label set: `x_total{kind="sim"}` → `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, base: baseName(name), help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter).counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge).gauge
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds (nil = DefBuckets). Bounds are fixed at first
// registration; later calls return the existing instrument regardless of
// the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.lookup(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.hist == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		m.hist = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
	}
	return m.hist
}

// SnapshotMetric is one instrument's state in a Snapshot.
type SnapshotMetric struct {
	Kind  string  `json:"kind"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value,omitempty"` // counter/gauge

	Count   uint64            `json:"count,omitempty"` // histogram
	Sum     float64           `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // upper bound → cumulative count
}

// Snapshot returns every instrument's current state keyed by full metric
// name — the structured (JSON-friendly) twin of the Prometheus text
// exposition.
func (r *Registry) Snapshot() map[string]SnapshotMetric {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()

	out := make(map[string]SnapshotMetric, len(ms))
	for _, m := range ms {
		sm := SnapshotMetric{Kind: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounter:
			sm.Value = float64(m.counter.Value())
		case kindGauge:
			sm.Value = m.gauge.Value()
		case kindHistogram:
			sm.Count = m.hist.Count()
			sm.Sum = m.hist.Sum()
			sm.Buckets = map[string]uint64{}
			var cum uint64
			for i, b := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				sm.Buckets[formatFloat(b)] = cum
			}
			cum += m.hist.buckets[len(m.hist.bounds)].Load()
			sm.Buckets["+Inf"] = cum
		}
		out[m.name] = sm
	}
	return out
}

// formatFloat renders floats the way the exposition does: shortest
// round-trip form, so 0.25 stays "0.25" and 1 stays "1".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelSet returns the inline label set of a full name, without braces:
// `x{kind="sim"}` → `kind="sim"`; plain names return "".
func labelSet(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Output is deterministic: one HELP/TYPE header
// per base-name family (first registered help wins), metrics sorted by
// full name within sorted families.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].base != ms[j].base {
			return ms[i].base < ms[j].base
		}
		return ms[i].name < ms[j].name
	})

	lastBase := ""
	for _, m := range ms {
		if m.base != lastBase {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.base, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.base, m.kind)
			lastBase = m.base
		}
		labels := labelSet(m.name)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", promName(m.base, labels, ""), m.counter.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %s\n", promName(m.base, labels, ""), formatFloat(m.gauge.Value()))
		case kindHistogram:
			var cum uint64
			for i, b := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				fmt.Fprintf(w, "%s %d\n", promName(m.base+"_bucket", labels, `le="`+formatFloat(b)+`"`), cum)
			}
			cum += m.hist.buckets[len(m.hist.bounds)].Load()
			fmt.Fprintf(w, "%s %d\n", promName(m.base+"_bucket", labels, `le="+Inf"`), cum)
			fmt.Fprintf(w, "%s %s\n", promName(m.base+"_sum", labels, ""), formatFloat(m.hist.Sum()))
			fmt.Fprintf(w, "%s %d\n", promName(m.base+"_count", labels, ""), m.hist.Count())
		}
	}
}

// promName joins a metric name with its label set and an extra label.
func promName(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// Handler serves the registry as a Prometheus scrape target.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
