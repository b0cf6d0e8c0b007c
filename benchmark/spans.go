package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer's public function as the benchmark saw
// it from outside: host wall clock, nanoseconds since the traced pass
// began. Spans of one op share Op; Parent is the enclosing span's ID,
// -1 at the top.
type span struct {
	Name   string `json:"name"`
	Row    string `json:"row,omitempty"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Synthetic marks a span whose extent the benchmark did not observe
	// but was told: rt.phase_b is the runtime's own accumulated Phase B
	// clock (PhaseBWall), laid at the start of its rt.run parent.
	Synthetic bool `json:"synthetic,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps the traced pass's spans in memory until the run ends.
// A nil log records nothing, so the untraced pass shares code paths
// with the traced one at the cost of a nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span. A top-level span (parent < 0) starts a new op.
func (l *spanLog) begin(name, row string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	op := l.ops
	if parent >= 0 {
		op = l.spans[parent].Op
	} else {
		l.ops++
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Row: row, Op: op, ID: id, Parent: parent,
		Start: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// synthetic adds a closed child span of the given length at the start
// of its parent.
func (l *spanLog) synthetic(name, row string, parent int, d time.Duration) {
	id := l.begin(name, row, parent)
	l.mu.Lock()
	s := &l.spans[id]
	s.Start = l.spans[parent].Start
	s.End = s.Start + int64(d)
	s.Synthetic = true
	l.mu.Unlock()
}

// selfTimes returns each span's duration minus the part its children
// cover.
func (l *spanLog) selfTimes() []time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// perOp sums, op by op, the duration (or self time) of the spans with
// the given name and row; row "" matches every row. Ops without such a
// span are left out.
func (l *spanLog) perOp(name, row string, self bool) []float64 {
	var selfT []time.Duration
	if self {
		selfT = l.selfTimes()
	}
	sums := map[int]time.Duration{}
	for i, s := range l.spans {
		if s.Name != name || (row != "" && s.Row != row) {
			continue
		}
		if self {
			sums[s.Op] += selfT[i]
		} else {
			sums[s.Op] += s.dur()
		}
	}
	out := make([]float64, 0, len(sums))
	for _, d := range sums {
		out = append(out, ms(d))
	}
	sort.Float64s(out)
	return out
}

// medianMS is the median over ops of perOp, in milliseconds.
func (l *spanLog) medianMS(name, row string, self bool) float64 {
	return medianF(l.perOp(name, row, self))
}

// coveragePct is how much of the top-level spans their children
// account for: 100 × (1 − Σ top-level self ÷ Σ top-level duration).
// Spans that are themselves the op (no children by design) count as
// fully covered.
func (l *spanLog) coveragePct() float64 {
	self := l.selfTimes()
	hasChild := make([]bool, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var total, uncovered time.Duration
	for i, s := range l.spans {
		if s.Parent >= 0 {
			continue
		}
		total += s.dur()
		if hasChild[i] {
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * (1 - float64(uncovered)/float64(total))
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
