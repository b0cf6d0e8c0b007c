package rt

import (
	"encoding/binary"

	"accmulti/internal/sim"
)

// Word-parallel dirty-bit scanning (host-side performance layer). The
// two-level dirty scheme stores one byte per element (a unit-step store
// the launch marks in bulk records a span instead, see
// gpuCopy.spans); the communication
// manager previously walked those bytes one at a time, once per
// destination replica. The helpers here extract the maximal runs of
// dirty elements once per source with eight-bytes-per-step word scans,
// so each run then applies to every destination with a single bulk
// copy. None of this touches virtual-time accounting: the priced
// transfer list is derived from the chunk bits exactly as before.

// allDirtyWord is eight dirty-bit bytes that are all set: the kernel
// instrumentation writes exactly 1 per dirtied element.
const allDirtyWord = 0x0101010101010101

// appendNonzeroRuns appends the maximal runs of nonzero bytes within
// d[lo:hi) to runs, as half-open [lo,hi) spans of physical element
// indices. Zero and fully-dirty words are handled eight bytes per
// step; only mixed words and the unaligned tail fall back to bytes.
func appendNonzeroRuns(runs []span, d []uint8, lo, hi int64) []span {
	i := lo
	start := int64(-1) // open run start, -1 when no run is open
	for i < hi {
		if i+8 <= hi {
			w := binary.LittleEndian.Uint64(d[i : i+8])
			if w == 0 {
				if start >= 0 {
					runs = append(runs, span{lo: start, hi: i})
					start = -1
				}
				i += 8
				continue
			}
			if w == allDirtyWord {
				if start < 0 {
					start = i
				}
				i += 8
				continue
			}
		}
		end := i + 8
		if end > hi {
			end = hi
		}
		for ; i < end; i++ {
			if d[i] != 0 {
				if start < 0 {
					start = i
				}
			} else if start >= 0 {
				runs = append(runs, span{lo: start, hi: i})
				start = -1
			}
		}
	}
	if start >= 0 {
		runs = append(runs, span{lo: start, hi: hi})
	}
	return runs
}

// srcDiff is one source replica's contribution to a replicated-array
// sync: its dirty runs (physical, half-open spans) and the priced
// transfers those runs cost, in the exact order the serial scheme
// emitted them. Instances live in Runtime.diffs and are reused across
// launches.
type srcDiff struct {
	runs      []span
	transfers []sim.Transfer
	bytes     []span // chunkRuns' scratch: one chunk's byte runs
}

// runsDisjoint reports whether the per-source run lists are pairwise
// non-overlapping. Each list is already sorted and internally disjoint
// (runs are maximal), so one k-way merge scan suffices. idx is caller
// scratch of len(lists), reused across calls.
func runsDisjoint(lists [][]span, idx []int) bool {
	for i := range idx {
		idx[i] = 0
	}
	last := int64(-1)
	for {
		best := -1
		var bestLo int64
		for s := range lists {
			if idx[s] < len(lists[s]) {
				if r := lists[s][idx[s]]; best < 0 || r.lo < bestLo {
					best, bestLo = s, r.lo
				}
			}
		}
		if best < 0 {
			return true
		}
		r := lists[best][idx[best]]
		idx[best]++
		if r.lo < last {
			return false
		}
		if r.hi > last {
			last = r.hi
		}
	}
}

// copyRun bulk-copies the physical storage range [lo,hi) from src to
// dst. Replicas of one array share element type and layout (including
// the 2-D transform, which permutes physical offsets identically on
// every copy), so the typed slices align element for element — the
// bulk copy computes exactly what the element-wise storeF(loadF) loop
// it replaces did (the float32→float64→float32 and int32→float64→int32
// round trips are exact).
// Write-epoch bumps happen in the caller after the (possibly
// concurrent) apply stage: several sources may target one destination
// copy, and a non-atomic counter bump here would race even though the
// element ranges are disjoint.
func copyRun(dst, src *gpuCopy, lo, hi int64) {
	switch {
	case src.f32 != nil:
		copy(dst.f32[lo:hi], src.f32[lo:hi])
	case src.f64 != nil:
		copy(dst.f64[lo:hi], src.f64[lo:hi])
	default:
		copy(dst.i32[lo:hi], src.i32[lo:hi])
	}
}
