package rt

import (
	"testing"
	"time"
)

func TestIntervalSetBasics(t *testing.T) {
	var s IntervalSet // zero value usable
	if s.Len() != 0 || len(s.Intervals()) != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	if s.Overlaps(0, 100) {
		t.Fatal("empty set overlaps")
	}
	if s.Settled(0, 100) != 0 {
		t.Fatal("empty set has a nonzero settle time")
	}

	s.Add(0, 9, 10*time.Microsecond)
	s.Add(20, 29, 30*time.Microsecond)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Overlaps(5, 7) || !s.Overlaps(9, 20) || s.Overlaps(10, 19) {
		t.Fatalf("overlap queries wrong: %+v", s.Intervals())
	}
	if got := s.Settled(0, 9); got != 10*time.Microsecond {
		t.Fatalf("Settled(0,9) = %v", got)
	}
	if got := s.Settled(0, 100); got != 30*time.Microsecond {
		t.Fatalf("Settled(0,100) = %v", got)
	}
	if got := s.Settled(10, 19); got != 0 {
		t.Fatalf("Settled over a gap = %v, want 0", got)
	}
}

// TestIntervalSetCompaction checks the bounded-cap behaviour: past
// defaultIntervalCap the set collapses to one covering interval, and
// queries stay conservative (never lose an access, may over-approximate
// gaps).
func TestIntervalSetCompaction(t *testing.T) {
	var s IntervalSet
	for i := int64(0); i < defaultIntervalCap; i++ {
		s.Add(10*i, 10*i+4, time.Duration(i+1)*time.Microsecond)
	}
	if s.Len() != defaultIntervalCap {
		t.Fatalf("Len = %d before overflow", s.Len())
	}
	// A gap is still visible while the list is precise.
	if s.Overlaps(5, 9) {
		t.Fatal("precise set overlaps a gap")
	}
	s.Add(1000, 1004, 99*time.Microsecond)
	if s.Len() != 1 {
		t.Fatalf("overflowed set Len = %d, want 1 covering interval", s.Len())
	}
	if cover := s.Intervals()[0]; cover.Lo != 0 || cover.Hi != 1004 || cover.End != 99*time.Microsecond {
		t.Fatalf("compacted cover = %+v", cover)
	}
	// After compaction the former gap conservatively overlaps.
	if !s.Overlaps(5, 9) {
		t.Fatal("compacted set must stay covering")
	}
	if got := s.Settled(5, 9); got != 99*time.Microsecond {
		t.Fatalf("compacted Settled = %v", got)
	}
}

// TestHazardIntervalsNilWithoutAsync pins the exported hazard state to
// the scheduler that produces it: a bulk-synchronous run has none.
func TestHazardIntervalsNilWithoutAsync(t *testing.T) {
	r := New(nil, Options{})
	if h := r.HazardIntervals(); h != nil {
		t.Fatalf("no-async runtime exported hazards: %+v", h)
	}
}

// TestStepsMatchDivision holds the graded write's stepped quotients to
// the divisions they replace: x·j/d for j = 1..d.
func TestStepsMatchDivision(t *testing.T) {
	for _, x := range []int64{1, 2, 7, 8, 9, 1023, 4096, 1<<40 + 12345} {
		for _, d := range []int64{1, 2, 3, 7, 8} {
			s := newSteps(x, d)
			for j := int64(1); j <= d; j++ {
				if got, want := s.next(), x*j/d; got != want {
					t.Fatalf("x=%d d=%d: step %d is %d, want %d", x, d, j, got, want)
				}
			}
		}
	}
}
