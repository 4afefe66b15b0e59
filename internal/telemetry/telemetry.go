// Package telemetry is ESP's unified runtime instrumentation layer: a
// process-wide named registry of atomic counters, gauges, and
// log-bucketed latency histograms, designed so the hot path pays nothing
// when extended telemetry is disabled and a handful of uncontended
// atomic operations when it is on.
//
// Design rules (see DESIGN.md §7):
//
//   - Metric handles (*Counter, *Gauge, *Histogram) are resolved by name
//     once, at wiring time; recording through a handle is an atomic add
//     with zero allocations. The registry map is never touched on the
//     hot path.
//   - Every handle method is nil-safe: a component that was never
//     instrumented records into a nil handle, which is a no-op. This
//     lets optional instrumentation be wired without branching at every
//     call site.
//   - Snapshot is safe to call from any goroutine concurrently with
//     recording; it reads each metric atomically (the snapshot is
//     point-in-time per metric, not across metrics — same contract as
//     Processor.NodeStats).
//   - The Enabled flag gates *extra* work (latency timing, lineage
//     sampling, structured log events); basic counters stay live so the
//     long-standing NodeStats / HealthStats snapshots keep
//     working without opt-in.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe no-op and allocation-free.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load reads the counter atomically. Nil counters read as 0.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Nil-safe no-op.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n. Nil-safe no-op.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load reads the gauge atomically. Nil gauges read as 0.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. Metric names are free-form dotted
// paths ("node.leg rfid r0@shelf0.tuples_in"); exposition layers
// sanitise them per format.
//
// Registration is strict: an empty name, a name with control
// characters, or a name already registered under a different metric
// kind panics — both are wiring bugs (two components colliding on a
// name would silently share or shadow state), and registration happens
// at wiring time where a panic is an immediate, debuggable failure.
type Registry struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	kinds    map[string]metricKind
	help     map[string]string
}

// metricKind discriminates the namespaces sharing one registry.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gauge-func"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// NewRegistry returns an empty registry with extended telemetry
// disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		kinds:    make(map[string]metricKind),
		help:     make(map[string]string),
	}
}

// checkNameLocked validates a registration. Caller holds r.mu.
func (r *Registry) checkNameLocked(name string, kind metricKind) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			panic(fmt.Sprintf("telemetry: metric name %q contains control characters", name))
		}
	}
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a %s, re-registered as a %s", name, have, kind))
	}
	r.kinds[name] = kind
}

// Describe attaches a one-line help string to a metric name, emitted as
// the Prometheus # HELP line (with backslashes and newlines escaped per
// the exposition format). Describing before or after registering the
// metric both work; the last description wins.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Help reports a metric's description ("" when none was given).
func (r *Registry) Help(name string) string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}

// SetEnabled flips the extended-telemetry gate (latency timing, stage
// accounting, lineage sampling). Basic counters record regardless.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports the gate. Nil registries are disabled — the check is a
// single atomic load, cheap enough for per-event call sites.
func (r *Registry) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// Counter returns the named counter, creating it on first use. Resolve
// once and keep the handle; do not call on a hot path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		r.checkNameLocked(name, kindCounter)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		r.checkNameLocked(name, kindGauge)
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge, polled at snapshot time. The
// callback must be safe to invoke from any goroutine (read atomics or
// take its own locks). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNameLocked(name, kindGaugeFunc)
	r.gaugeFns[name] = fn
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		r.checkNameLocked(name, kindHistogram)
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time view of every metric in a registry.
type Snapshot struct {
	Enabled    bool                         `json:"enabled"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every metric atomically. Safe to call concurrently
// with recording and with metric registration.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	// Copy the handle maps under the read lock, then read values outside
	// it so gauge callbacks never run while holding the registry lock.
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	s := Snapshot{
		Enabled:    r.Enabled(),
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(fns)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, fn := range fns {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String implements expvar.Var: the registry renders as its snapshot's
// JSON, so a published registry appears inline in /debug/vars.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// expvar.Publish panics on duplicate names, and tests (or successive
// processors) legitimately publish under the same name; indirect
// through a proxy that rebinds to the latest registry instead.
var (
	expvarMu        sync.Mutex
	expvarPublished = make(map[string]*expvarProxy)
)

type expvarProxy struct {
	reg atomic.Pointer[Registry]
}

func (p *expvarProxy) String() string {
	r := p.reg.Load()
	if r == nil {
		return "{}"
	}
	return r.String()
}

// PublishExpvar exposes the registry under /debug/vars as name.
// Publishing a second registry under the same name rebinds the
// existing expvar entry rather than panicking.
func PublishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	p, ok := expvarPublished[name]
	if !ok {
		p = &expvarProxy{}
		expvarPublished[name] = p
		expvar.Publish(name, p)
	}
	p.reg.Store(r)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format: counters under their conventional `_total` suffix, gauges
// bare, histograms as summaries with quantile-labelled rows plus
// _sum/_count/_max, each with its # HELP line (escaped per the format)
// when one was described. Names are emitted in sorted order so the
// output is diffable.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	s := r.Snapshot()
	var b strings.Builder
	help := func(name, promName string) {
		if h := r.Help(name); h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", promName, escapePromHelp(h))
		}
	}

	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := prefix + sanitizeProm(k) + "_total"
		help(k, n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := prefix + sanitizeProm(k)
		help(k, n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[k])
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		n := prefix + sanitizeProm(k)
		help(k, n)
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n", n, h.P50)
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %d\n", n, h.P90)
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %d\n", n, h.P99)
		fmt.Fprintf(&b, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
		fmt.Fprintf(&b, "%s_max %d\n", n, h.Max)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapePromHelp escapes a HELP string per the text exposition format:
// backslash and newline are the only characters that need escaping.
func escapePromHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sanitizeProm maps a free-form dotted metric name onto the Prometheus
// name charset [a-zA-Z0-9_:].
func sanitizeProm(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
