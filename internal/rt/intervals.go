package rt

import (
	"sort"
	"time"
)

// This file exports the hazard-interval representation. The async
// scheduler (sched.go) tracks every array access as a bounded covering
// list of [Lo, Hi] element ranges with settle times, and the dependence
// cross-check tests compare the scheduler's recorded runtime hazards
// against the dependences accvet derives statically
// (analysis.Result.Deps) through Runtime.HazardIntervals.

// defaultIntervalCap bounds each IntervalSet; beyond it the set
// compacts to one conservative covering interval. Correctness never
// depends on the list staying precise, only on it staying covering.
const defaultIntervalCap = 24

// Interval is one settled access range: logical elements [Lo, Hi]
// complete at End.
type Interval struct {
	Lo, Hi int64
	End    time.Duration
}

// IntervalSet is a bounded covering list of intervals, the hazard
// representation of the pipelined scheduler. The zero value is an empty
// set.
type IntervalSet struct {
	ivls []Interval
}

// Add records an access; over defaultIntervalCap the list compacts to a
// single conservative covering interval.
func (s *IntervalSet) Add(lo, hi int64, end time.Duration) {
	s.ivls = append(s.ivls, Interval{Lo: lo, Hi: hi, End: end})
	if len(s.ivls) <= defaultIntervalCap {
		return
	}
	cover := s.ivls[0]
	for _, iv := range s.ivls[1:] {
		if iv.Lo < cover.Lo {
			cover.Lo = iv.Lo
		}
		if iv.Hi > cover.Hi {
			cover.Hi = iv.Hi
		}
		if iv.End > cover.End {
			cover.End = iv.End
		}
	}
	s.ivls = append(s.ivls[:0], cover)
}

// Settled returns when every recorded access overlapping [lo, hi] has
// completed (zero when none overlaps).
func (s *IntervalSet) Settled(lo, hi int64) time.Duration {
	var t time.Duration
	for _, iv := range s.ivls {
		if iv.Lo <= hi && iv.Hi >= lo && iv.End > t {
			t = iv.End
		}
	}
	return t
}

// Overlaps reports whether any recorded interval intersects [lo, hi].
func (s *IntervalSet) Overlaps(lo, hi int64) bool {
	for _, iv := range s.ivls {
		if iv.Lo <= hi && iv.Hi >= lo {
			return true
		}
	}
	return false
}

// Len returns how many intervals the set currently holds.
func (s *IntervalSet) Len() int { return len(s.ivls) }

// Intervals returns the recorded intervals in insertion order. The
// returned slice aliases the set; callers must not mutate it.
func (s *IntervalSet) Intervals() []Interval { return s.ivls }

// HazardRecord is the recorded hazard state of one array at one
// location after an asynchronous run: every read and write interval the
// scheduler ordered the schedule around.
type HazardRecord struct {
	// Array is the array's label (its source name).
	Array string
	// GPU is the device copy's index, or -1 for the host mirror.
	GPU int
	// Reads and Writes are the settled access intervals, in the order
	// the scheduler recorded them (compacted lists stay covering).
	Reads, Writes []Interval
}

// HazardIntervals exports the pipelined scheduler's hazard state:
// one record per (array, location) that recorded at least one access,
// sorted by array name then location (host mirror first). It returns
// nil when the run did not use the async scheduler.
func (r *Runtime) HazardIntervals() []HazardRecord {
	if r.sched == nil {
		return nil
	}
	names := make([]string, 0, len(r.sched.hazards))
	for name := range r.sched.hazards {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []HazardRecord
	for _, name := range names {
		h := r.sched.hazards[name]
		if rec := hazardRecord(name, -1, &h.host); rec != nil {
			out = append(out, *rec)
		}
		for g := range h.dev {
			if rec := hazardRecord(name, g, &h.dev[g]); rec != nil {
				out = append(out, *rec)
			}
		}
	}
	return out
}

func hazardRecord(name string, gpu int, c *hazClock) *HazardRecord {
	if c.reads.Len() == 0 && c.writes.Len() == 0 {
		return nil
	}
	return &HazardRecord{
		Array:  name,
		GPU:    gpu,
		Reads:  append([]Interval(nil), c.reads.Intervals()...),
		Writes: append([]Interval(nil), c.writes.Intervals()...),
	}
}
