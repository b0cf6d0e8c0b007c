package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metrics is a deterministic aggregate registry: named counters plus
// fixed-bucket histograms. All mutation happens on the host strand
// (span commit or explicit Inc/Observe from runtime host code), so no
// locking; the JSON dump iterates sorted names so equal registries
// serialize byte-identically.
type Metrics struct {
	counters map[string]int64
	hists    map[string]*Histogram
	// spans counts the committed spans by kind: the counters named
	// spans.<kind>, whose names Counter and WriteJSON render.
	spans [kindCount]int64
}

// Histogram counts observations into fixed buckets: Counts[i] holds
// values v with v <= Bounds[i] (first matching bound), and the last
// slot holds the overflow. Bounds are fixed by the first Observe.
type Histogram struct {
	Bounds []int64
	Counts []int64
	Sum    int64
	N      int64
}

// BytesBuckets buckets transfer sizes (1KiB..256MiB, powers of 16).
var BytesBuckets = []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 28}

// DurationBucketsUS buckets simulated durations in microseconds.
var DurationBucketsUS = []int64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]int64), hists: make(map[string]*Histogram)}
}

// Inc adds delta to the named counter.
func (m *Metrics) Inc(name string, delta int64) { m.counters[name] += delta }

// Counter returns the named counter's value (0 if never incremented).
func (m *Metrics) Counter(name string) int64 {
	n := m.counters[name]
	if k, ok := spanCounter(name); ok {
		n += m.spans[k]
	}
	return n
}

// spanCounter reports the kind a spans.<kind> counter name counts.
func spanCounter(name string) (Kind, bool) {
	if kind, ok := strings.CutPrefix(name, spanPrefix); ok {
		return KindFromString(kind)
	}
	return 0, false
}

const spanPrefix = "spans."

// Observe records v into the named histogram, creating it with the
// given bounds on first use (later calls keep the original bounds).
func (m *Metrics) Observe(name string, bounds []int64, v int64) {
	h := m.hists[name]
	if h == nil {
		h = &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
		m.hists[name] = h
	}
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// WriteJSON dumps the registry as deterministic (sorted-key, fixed
// layout) JSON: {"counters":{...},"histograms":{name:{"bounds":[...],
// "counts":[...],"sum":S,"n":N}}}.
func (m *Metrics) WriteJSON(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("{\n  \"counters\": {")
	names := make([]string, 0, len(m.counters)+len(m.spans))
	for k := range m.counters {
		names = append(names, k)
	}
	for k, n := range m.spans {
		if name := spanPrefix + Kind(k).String(); n != 0 {
			if _, ok := m.counters[name]; !ok {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    %s: %d", quote(k), m.Counter(k))
	}
	if len(names) > 0 {
		bw.printf("\n  ")
	}
	bw.printf("},\n  \"histograms\": {")
	names = names[:0]
	for k := range m.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, k := range names {
		h := m.hists[k]
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    %s: {\"bounds\": %s, \"counts\": %s, \"sum\": %d, \"n\": %d}",
			quote(k), intList(h.Bounds), intList(h.Counts), h.Sum, h.N)
	}
	if len(names) > 0 {
		bw.printf("\n  ")
	}
	bw.printf("}\n}\n")
	return bw.err
}

func intList(vs []int64) string {
	s := "["
	for i, v := range vs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + "]"
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
