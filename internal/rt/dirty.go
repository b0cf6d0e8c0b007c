package rt

import (
	"encoding/binary"
	"math"
	"sort"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// Word-parallel dirty-bit scanning (host-side performance layer). The
// two-level dirty scheme stores one byte per element (a unit-step store
// the launch marks in bulk records a span instead, see
// gpuCopy.spans); the communication
// manager previously walked those bytes one at a time, once per
// destination replica. The helpers here extract the maximal runs of
// dirty elements once per source with eight-bytes-per-step word scans,
// so each run becomes one relay on every destination, and a catch-up
// moves it with a single bulk copy where a reader needs it. None of
// this touches virtual-time accounting: the priced transfer list is
// derived from the chunk bits exactly as before.

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

// relay is one pending catch-up of a replica (gpuCopy.relays): the
// physical range [lo,hi) of the copy is stale, and copy src of the same
// array holds its current value.
type relay struct {
	lo, hi int64
	src    int
}

// appendRelay appends x to the sorted, disjoint list rs, extending the
// last relay when x continues it from the same source.
func appendRelay(rs []relay, x relay) []relay {
	if n := len(rs); n > 0 && rs[n-1].hi == x.lo && rs[n-1].src == x.src {
		rs[n-1].hi = x.hi
		return rs
	}
	return append(rs, x)
}

// overlay appends to dst the relays of under with those of over laid on
// top: where over covers an element, its relay replaces under's, except
// that one naming self (the copy the list belongs to, which then holds
// the value) leaves none. Both lists are sorted and disjoint, and so is
// the result; under's entries may be trimmed in place.
func overlay(dst, under, over []relay, self int) []relay {
	i := 0
	for _, o := range over {
		for ; i < len(under) && under[i].lo < o.lo; i++ {
			u := under[i]
			if u.hi > o.lo {
				dst = appendRelay(dst, relay{u.lo, o.lo, u.src})
				under[i].lo = o.lo
				break
			}
			dst = appendRelay(dst, u)
		}
		if o.src != self {
			dst = appendRelay(dst, o)
		}
		for ; i < len(under) && under[i].hi <= o.hi; i++ {
		}
		if i < len(under) && under[i].lo < o.hi {
			under[i].lo = o.hi
		}
	}
	for _, u := range under[i:] {
		dst = appendRelay(dst, u)
	}
	return dst
}

// catchUp copies the copy's relays that meet the physical range [lo,hi)
// from their sources, as far as they meet it, and drops what it copied:
// the range then holds current values. It writes only c's storage and
// relay lists and reads the sources only where they hold current values,
// which no catch-up writes, so the copies of one array catch up
// concurrently. Anything copied bumps the write epoch.
func (c *gpuCopy) catchUp(lo, hi int64) {
	rs, out := c.relays, c.relayBuf[:0]
	moved := int64(0)
	for _, x := range rs {
		a, b := max(x.lo, lo), min(x.hi, hi)
		if a >= b {
			out = append(out, x)
			continue
		}
		ir.CopyRange(&c.data, a, &c.st.copies[x.src].data, a, b-a)
		moved += b - a
		if x.lo < a {
			out = append(out, relay{x.lo, a, x.src})
		}
		if b < x.hi {
			out = append(out, relay{b, x.hi, x.src})
		}
	}
	c.relays, c.relayBuf = out, rs
	if moved > 0 {
		c.caughtUp += moved
		c.wepoch++
	}
}

// settle catches every copy of the array up on all of its relays, so the
// replicas are byte-identical again: what a consumer that reads or
// overwrites copies outside a launch's read envelope calls first.
func (st *arrayState) settle() {
	for _, c := range st.copies {
		if len(c.relays) > 0 {
			c.catchUp(0, c.localLen())
		}
	}
}

// dropRelays forgets every copy's relays: the host mirror has become the
// canonical content, so every copy is reloaded before it is read again.
func (st *arrayState) dropRelays() {
	for _, c := range st.copies {
		c.relays = c.relays[:0]
	}
}

// relayReader reads one copy's elements through its relays: src names
// the copy that holds the current value of physical element p, the copy
// itself or a relay's source. It keeps the run of elements it resolved
// last (a relay, or the gap between two), so a read inside that run
// costs two comparisons.
type relayReader struct {
	c      *gpuCopy
	lo, hi int64    // the run last resolved, half-open...
	from   *gpuCopy // ...and the copy that holds it
}

func (r *relayReader) src(p int64) *gpuCopy {
	if p < r.lo || p >= r.hi {
		r.resolve(p)
	}
	return r.from
}

func (r *relayReader) resolve(p int64) {
	rs := r.c.relays
	i := sort.Search(len(rs), func(i int) bool { return rs[i].hi > p })
	if i < len(rs) && rs[i].lo <= p {
		r.lo, r.hi, r.from = rs[i].lo, rs[i].hi, r.c.st.copies[rs[i].src]
		return
	}
	r.lo, r.hi, r.from = 0, math.MaxInt64, r.c
	if i > 0 {
		r.lo = rs[i-1].hi
	}
	if i < len(rs) {
		r.hi = rs[i].lo
	}
}
