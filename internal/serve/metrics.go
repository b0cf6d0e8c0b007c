package serve

import (
	"io"
	"sync"

	"accmulti/internal/trace"
)

// serviceMetrics guards a PR-5 metrics registry (internal/trace) with
// a mutex. The registry itself is host-strand-only by contract — fine
// inside one Runtime — but the daemon increments counters from many
// request goroutines at once, so the service-level registry (cache
// hits, queue verdicts, run outcomes) takes a lock per update.
// Per-run tracers are still per-request and unlocked.
type serviceMetrics struct {
	mu sync.Mutex
	m  *trace.Metrics
}

func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{m: trace.NewMetrics()}
}

// Inc adds delta to the named counter.
func (s *serviceMetrics) Inc(name string, delta int64) {
	s.mu.Lock()
	s.m.Inc(name, delta)
	s.mu.Unlock()
}

// Counter reads the named counter.
func (s *serviceMetrics) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Counter(name)
}

// Observe records v into the named histogram.
func (s *serviceMetrics) Observe(name string, bounds []int64, v int64) {
	s.mu.Lock()
	s.m.Observe(name, bounds, v)
	s.mu.Unlock()
}

// WriteJSON dumps the registry deterministically (sorted keys).
func (s *serviceMetrics) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.WriteJSON(w)
}
