package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric is one monotonic counter in a Registry. Safe for concurrent use.
type Metric struct {
	name string // full series name incl. label set, e.g. `x_total{stage="cfg"}`
	help string
	val  atomic.Int64
}

// Add increments the counter.
func (m *Metric) Add(v int64) { m.val.Add(v) }

// Value returns the current count.
func (m *Metric) Value() int64 { return m.val.Load() }

// Registry is a process-wide set of monotonic counters and gauge
// callbacks, rendered in the Prometheus text exposition format by
// WritePrometheus. It is deliberately tiny and hand-rolled: no external
// client library, no histogram machinery — counters and gauges cover
// everything the disassembly service needs to alert on.
type Registry struct {
	mu           sync.Mutex
	metrics      map[string]*Metric
	counterFuncs map[string]func() int64
	gauges       map[string]func() float64
	help         map[string]string // base metric name -> HELP line
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:      map[string]*Metric{},
		counterFuncs: map[string]func() int64{},
		gauges:       map[string]func() float64{},
		help:         map[string]string{},
	}
}

// Counter returns the counter for the given base name and optional
// label pairs (label, value, label, value, ...), creating it at zero on
// first use. Label values are escaped per the exposition format.
func (r *Registry) Counter(name string, labels ...string) *Metric {
	series := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metrics[series]
	if m == nil {
		m = &Metric{name: series}
		r.metrics[series] = m
	}
	return m
}

// SetHelp attaches a HELP line to a base metric name.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// CounterFunc registers a callback sampled at scrape time but rendered
// as a counter: for monotonic totals a subsystem already tracks in its
// own atomics (where a push-style Metric would double the bookkeeping or
// drift from the source of truth).
func (r *Registry) CounterFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = f
}

// Gauge registers a callback sampled at scrape time (heap size,
// goroutine count, in-flight requests).
func (r *Registry) Gauge(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = f
}

// seriesName renders name{k="v",...} with exposition-format escaping.
func seriesName(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	s := name + "{"
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			s += ","
		}
		s += labels[i] + `="` + escapeLabel(labels[i+1]) + `"`
	}
	return s + "}"
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// baseName strips the label set from a series name.
func baseName(series string) string {
	for i := 0; i < len(series); i++ {
		if series[i] == '{' {
			return series[:i]
		}
	}
	return series
}

// WritePrometheus renders every counter and gauge in the text exposition
// format, sorted by series name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	series := make([]string, 0, len(r.metrics))
	for s := range r.metrics {
		series = append(series, s)
	}
	cfuncs := make([]string, 0, len(r.counterFuncs))
	for c := range r.counterFuncs {
		cfuncs = append(cfuncs, c)
	}
	gauges := make([]string, 0, len(r.gauges))
	for g := range r.gauges {
		gauges = append(gauges, g)
	}
	r.mu.Unlock()
	sort.Strings(series)
	sort.Strings(cfuncs)
	sort.Strings(gauges)

	seenType := map[string]bool{}
	for _, s := range series {
		r.mu.Lock()
		m := r.metrics[s]
		help := r.help[baseName(s)]
		r.mu.Unlock()
		base := baseName(s)
		if !seenType[base] {
			seenType[base] = true
			if help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s, m.Value()); err != nil {
			return err
		}
	}
	for _, c := range cfuncs {
		r.mu.Lock()
		f := r.counterFuncs[c]
		help := r.help[c]
		r.mu.Unlock()
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", c, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", c); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c, f()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		r.mu.Lock()
		f := r.gauges[g]
		help := r.help[g]
		r.mu.Unlock()
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", g, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", g); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", g, f()); err != nil {
			return err
		}
	}
	return nil
}

// FoldSpans aggregates a finished span tree into per-stage counters:
// <prefix>_stage_nanos_total{stage=Name}, _stage_calls_total and
// _stage_bytes_total. Aggregation keys on Span.Name only (a fixed set by
// contract — see Span.Name), so label cardinality stays bounded no
// matter what binaries a long-running server sees. The root span is
// folded like any other stage.
// Span counters (Span.Count) fold into
// <prefix>_stage_counters_total{stage=Name,counter=...}: this streams
// pipeline progress — settled/contested bytes, per-stage hint counts —
// into the scrape with labels only from those fixed names.
func (r *Registry) FoldSpans(prefix string, root *Span) {
	root.Walk(func(sp *Span, depth int) {
		r.Counter(prefix+"_stage_nanos_total", "stage", sp.Name).Add(int64(sp.Dur))
		r.Counter(prefix+"_stage_calls_total", "stage", sp.Name).Add(1)
		if sp.Bytes > 0 {
			r.Counter(prefix+"_stage_bytes_total", "stage", sp.Name).Add(sp.Bytes)
		}
		for _, c := range sp.Counters() {
			r.Counter(prefix+"_stage_counters_total", "stage", sp.Name, "counter", c.Name).Add(c.Value)
		}
	})
}
