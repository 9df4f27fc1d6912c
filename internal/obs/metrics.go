package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are valid
// on a nil receiver (no-ops), so call sites need no registry guard.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-receiver safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded-bucket histogram with cumulative Prometheus
// semantics. Bucket bounds are fixed at creation. Nil-receiver safe.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are non-cumulative internally; rendering accumulates.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefaultLatencyBuckets spans 100µs..10s — stage lookups range from
// microsecond memory hits to multi-second cold syntheses.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultCycleBuckets spans the simulated-latency range of the
// designs the engine synthesizes.
var DefaultCycleBuckets = []float64{
	8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536,
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type series struct {
	labels string // canonical rendered label set, "" or `k="v",k2="v2"`
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name   string
	help   string
	typ    string
	bounds []float64
	series map[string]*series
}

// Registry holds metric families keyed by name. Lookup methods create
// on first use and return the existing instance thereafter, so
// callers may re-request a metric instead of caching the pointer.
// A nil *Registry is valid: lookups return nil metrics, which are
// themselves inert.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelKey renders alternating key/value pairs into the canonical
// (key-sorted, escaped) Prometheus label string.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) lookup(name, help, typ string, bounds []float64, labels []string) *series {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{
				bounds:  f.bounds,
				buckets: make([]atomic.Int64, len(f.bounds)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for name and the given
// alternating label key/value pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge returns the gauge series for name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// Histogram returns the histogram series for name and labels. The
// bucket bounds are fixed by the first call for a given name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func bucketName(name, labels, le string) string {
	l := `le="` + le + `"`
	if labels != "" {
		l = labels + "," + l
	}
	return name + "_bucket{" + l + "}"
}

// WritePrometheus renders every family in text exposition format,
// families and series in stable sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		f := r.fams[n]
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&sb, "%s %d\n", seriesName(f.name, s.labels), s.c.Value())
			case typeGauge:
				fmt.Fprintf(&sb, "%s %s\n", seriesName(f.name, s.labels), formatFloat(s.g.Value()))
			case typeHistogram:
				var cum int64
				for i, b := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(&sb, "%s %d\n", bucketName(f.name, s.labels, formatFloat(b)), cum)
				}
				cum += s.h.buckets[len(s.h.bounds)].Load()
				fmt.Fprintf(&sb, "%s %d\n", bucketName(f.name, s.labels, "+Inf"), cum)
				fmt.Fprintf(&sb, "%s %s\n", seriesName(f.name+"_sum", s.labels), formatFloat(s.h.Sum()))
				fmt.Fprintf(&sb, "%s %d\n", seriesName(f.name+"_count", s.labels), s.h.Count())
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, sb.String())
	return err
}

// Snapshot flattens every series into a name{labels} -> value map for
// embedding in JSON reports. Histograms contribute _count and _sum.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		for _, s := range f.series {
			switch f.typ {
			case typeCounter:
				out[seriesName(f.name, s.labels)] = float64(s.c.Value())
			case typeGauge:
				out[seriesName(f.name, s.labels)] = s.g.Value()
			case typeHistogram:
				out[seriesName(f.name+"_count", s.labels)] = float64(s.h.Count())
				out[seriesName(f.name+"_sum", s.labels)] = s.h.Sum()
			}
		}
	}
	return out
}

// Metric names exported for tests and for callers that assert on the
// rendered exposition.
const (
	MetricStageLatency = "sparkgo_stage_latency_seconds"
	MetricSimCycles    = "sparkgo_sim_cycles"
	MetricSimInsns     = "sparkgo_sim_insns_total"
	MetricTierOps      = "sparkgo_cache_tier_ops_total"
	MetricJobs         = "sparkgo_jobs_total"
	MetricEvents       = "sparkgo_events_published_total"
)

// Metrics folds bus events into a Registry. The known label space
// (stages × dispositions, tiers × ops) is pre-registered at
// construction so the per-event fold is map lookups over small
// immutable maps plus atomic adds — no allocation, no registry lock.
type Metrics struct {
	reg *Registry

	stageLatency map[string]map[string]*Histogram // stage -> disposition
	tierOps      map[string]map[string]*Counter   // tier -> op
	jobs         map[string]*Counter              // lifecycle op
	simCycles    *Histogram
	simInsns     [4]*Counter // packed, boundary, wide, lane
	events       *Counter
}

// foldInsnClasses orders the compiled-simulator opcode classes the way
// Metrics.simInsns indexes them. The strings match rtlsim's Mix*
// constants; obs stays a leaf package, so they are duplicated here.
var foldInsnClasses = [4]string{"packed", "boundary", "wide", "lane"}

var (
	foldStages       = []string{"frontend", "midend", "backend", "point"}
	foldDispositions = []string{DispMem, DispDisk, DispRemote, DispComputed, DispShared}
	foldTiers        = []string{"mem", "disk", "remote"}
	foldTierOps      = []string{"hit", "miss", "error", "backfill", "put", "put_error"}
	foldJobOps       = []string{"submitted", "coalesced", "started", "done", "failed", "canceled"}
)

// NewMetrics pre-registers the engine's metric families on r and
// returns the fold.
func NewMetrics(r *Registry) *Metrics {
	if r == nil {
		r = NewRegistry()
	}
	m := &Metrics{
		reg:          r,
		stageLatency: make(map[string]map[string]*Histogram, len(foldStages)),
		tierOps:      make(map[string]map[string]*Counter, len(foldTiers)),
		jobs:         make(map[string]*Counter, len(foldJobOps)),
	}
	const (
		helpStage = "Stage cache lookup latency by stage and disposition."
		helpTier  = "Blob store operations by tier and outcome."
		helpJobs  = "Queue job lifecycle transitions."
		helpSim   = "Measured netlist latency in cycles."
		helpInsns = "Instructions of the latency programs the engine runs (the FSM control cone), by opcode class, summed over runs."
		helpEv    = "Events published to the observability bus."
	)
	for _, st := range foldStages {
		byDisp := make(map[string]*Histogram, len(foldDispositions))
		for _, d := range foldDispositions {
			byDisp[d] = r.Histogram(MetricStageLatency, helpStage, DefaultLatencyBuckets,
				"stage", st, "disposition", d)
		}
		m.stageLatency[st] = byDisp
	}
	for _, t := range foldTiers {
		byOp := make(map[string]*Counter, len(foldTierOps))
		for _, op := range foldTierOps {
			byOp[op] = r.Counter(MetricTierOps, helpTier, "tier", t, "op", op)
		}
		m.tierOps[t] = byOp
	}
	for _, op := range foldJobOps {
		m.jobs[op] = r.Counter(MetricJobs, helpJobs, "event", op)
	}
	m.simCycles = r.Histogram(MetricSimCycles, helpSim, DefaultCycleBuckets)
	for i, class := range foldInsnClasses {
		m.simInsns[i] = r.Counter(MetricSimInsns, helpInsns, "class", class)
	}
	m.events = r.Counter(MetricEvents, helpEv)
	return m
}

// Registry returns the backing registry.
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// fold updates metrics for one event. Called by Bus.Publish on the
// instrumented hot path: known label values resolve through the
// pre-built maps; unknown ones fall back to the locked registry.
func (m *Metrics) fold(ev Event) {
	m.events.Inc()
	switch ev.Type {
	case TypeStage:
		h := m.stageLatency[ev.Stage][ev.Disposition]
		if h == nil {
			h = m.reg.Histogram(MetricStageLatency, "", DefaultLatencyBuckets,
				"stage", ev.Stage, "disposition", ev.Disposition)
		}
		h.Observe(float64(ev.DurationNs) / 1e9)
	case TypeSim:
		m.simCycles.Observe(float64(ev.Cycles))
		m.simInsns[0].Add(ev.SimInsnsPacked)
		m.simInsns[1].Add(ev.SimInsnsBoundary)
		m.simInsns[2].Add(ev.SimInsnsWide)
		m.simInsns[3].Add(ev.SimInsnsLane)
	case TypeTier:
		c := m.tierOps[ev.Tier][ev.Op]
		if c == nil {
			c = m.reg.Counter(MetricTierOps, "", "tier", ev.Tier, "op", ev.Op)
		}
		c.Inc()
	case TypeJob:
		c := m.jobs[ev.Op]
		if c == nil {
			c = m.reg.Counter(MetricJobs, "", "event", ev.Op)
		}
		c.Inc()
	}
}
