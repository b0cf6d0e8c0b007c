package rt

import (
	"time"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// This file is the asynchronous pipelined scheduler (ROADMAP: "JACC
// direction"). The runtime's functional execution stays exactly the
// bulk-synchronous BSP cycle — every load, kernel, diff, halo push and
// gather still *happens* in program order on the host strand, so the
// computed arrays, the fault-oracle consumption order, the events and
// the phase buckets are bit-identical to a -no-async run by
// construction. What changes is *when the simulated clock says each
// step ran*: every runtime step becomes a node with read/write
// footprints derived from the translator's array configuration
// information (the product of translator.AnalyzeProgram: localaccess
// footprints, literal-affine write envelopes, reduction roles), edges
// are added only on proven interference, and independent nodes issue
// concurrently — kernels on their GPU's engine timeline, transfers on
// the bus timeline priced by the existing sim.BusSpec batch model.
// Report.AsyncTime is the resulting makespan, and Report.Total()
// returns it when the scheduler is armed, which is how the overlap
// shows up in reported simulated time.
//
// Interference rules (DESIGN.md §12 documents the model):
//
//   - Every transfer derives a (reads, writes) footprint over
//     locations (array × host-mirror) and (array × GPU g) from its
//     sim.Transfer metadata: H2D reads host and writes the destination
//     copy's range; gathers read the source copy and write the host
//     mirror; dirty/halo/miss/reduce traffic reads the source copy and
//     writes the destination copy (halo pushes write the overlap minus
//     the receiver's core, exactly what commSync stores).
//   - A kernel node on GPU g reads its resident ranges and writes its
//     write envelope: the exact core for distributed arrays whose
//     envelope is uniform literal-affine, the replica-wide clamp of
//     the envelope for replicated arrays, the whole range otherwise.
//   - Writes with a proven ascending literal-affine order (WriteCoef >
//     0) complete *gradually*: the envelope is split into writeGrades
//     slices whose completion times interpolate the kernel span, so a
//     halo push of the first boundary elements may depart long before
//     the kernel retires. This is what pipelines the halo exchange.
//   - Host code between launches is invisible to the scheduler, so
//     every device-to-host delivery raises a conservative host
//     barrier; host-to-device loads and kernel launches (which read
//     host scalars) never start before it.
//
// Scheduling is deterministic: it runs on the host strand only, in
// program order, with no map iteration, so the async span stream and
// AsyncTime are as goldenable as the synchronous ones.

// Async tuning constants.
const (
	// writeGrades is how many linear completion slices a proven-order
	// affine kernel write envelope is split into.
	writeGrades = 8
	// hazFullLo/hazFullHi is the conservative "whole array" range used
	// when a transfer's logical range is unknown (miss records,
	// reductions, scalars).
	hazFullLo = int64(-1) << 62
	hazFullHi = int64(1)<<62 - 1
)

// hazClock tracks reads and writes of one array at one location as
// bounded covering interval lists (intervals.go).
type hazClock struct {
	writes, reads IntervalSet
}

// readReady is the earliest time a read of [lo, hi] may issue (RAW).
func (h *hazClock) readReady(lo, hi int64) time.Duration {
	return h.writes.Settled(lo, hi)
}

// writeReady is the earliest time a write of [lo, hi] may issue
// (WAW and WAR).
func (h *hazClock) writeReady(lo, hi int64) time.Duration {
	t := h.writes.Settled(lo, hi)
	if rt := h.reads.Settled(lo, hi); rt > t {
		t = rt
	}
	return t
}

// arrHazard is the hazard state of one array: the host mirror plus one
// clock per GPU copy, and each copy's current core range (needed to
// subtract the receiver's core from a halo push's write footprint,
// mirroring what syncOverlaps actually stores).
type arrHazard struct {
	host hazClock
	dev  []hazClock
	core [][2]int64
}

// asyncSched is the virtual-time overlay scheduler. All state advances
// on the host strand in program order.
type asyncSched struct {
	r *Runtime
	// gpuFree is each GPU compute engine's next free time.
	gpuFree []time.Duration
	// busFree is the transfer engine's next free time. Sub-batches
	// serialize on it so concurrent-transfer pricing stays exactly the
	// aggregate-bandwidth batch model of sim.BusSpec.TransferTime.
	// Used on single-node machines only (nodeFree == nil).
	busFree time.Duration
	// nodeFree is each node's transfer fabric (its PCIe complex plus
	// its NIC port) next-free time; allocated only on multi-node
	// machines, where it replaces busFree: a sub-batch serializes on
	// the fabrics of every node it touches plus — for cross-node
	// members — the shared network, so NIC pushes between one node
	// pair can overlap intra-node traffic elsewhere, matching the
	// cluster cost model's per-node overlap.
	nodeFree []time.Duration
	// netFree is the shared inter-node network's next-free time.
	netFree time.Duration
	// hostBarrier rises to the completion of every device-to-host
	// delivery: host code may read it, so later H2D loads and kernel
	// launches (host scalars) conservatively wait for it.
	hostBarrier time.Duration
	hazards     map[string]*arrHazard

	// Scratch, reused across batches and launches.
	pendIdx   []int
	pendReady []time.Duration
	subBatch  []sim.Transfer
	subIdx    []int
	// What derive works out once per batch: transfer i's hazard state
	// xhaz[i] (nil for a scalar delivery), its footprints
	// fp[fpAt[i]:fpAt[i+1]] and its conflict row conf[i*words:(i+1)*words],
	// bit j set when the earlier transfer j must precede it. issued is
	// the same-width set of transfers the batch has scheduled so far.
	xhaz   []*arrHazard
	fp     []hazFootprint
	fpAt   []int
	conf   []uint64
	issued []uint64
}

func newAsyncSched(r *Runtime) *asyncSched {
	s := &asyncSched{
		r:       r,
		gpuFree: make([]time.Duration, r.mach.NumGPUs()),
		hazards: map[string]*arrHazard{},
	}
	if n := r.mach.Spec.NodeCount(); n > 1 {
		s.nodeFree = make([]time.Duration, n)
	}
	return s
}

// bump advances the makespan.
func (s *asyncSched) bump(t time.Duration) {
	if t > s.r.rep.AsyncTime {
		s.r.rep.AsyncTime = t
	}
}

// penalize occupies the transfer resources with fault-retry time
// (failed attempts and backoff windows priced by account's retry
// loop). On multi-node machines the retry loop's serialization is
// conservative: every fabric and the network wait it out.
func (s *asyncSched) penalize(d time.Duration) {
	if d <= 0 {
		return
	}
	s.busFree += d
	s.bump(s.busFree)
	if s.nodeFree != nil {
		for n := range s.nodeFree {
			s.nodeFree[n] += d
			s.bump(s.nodeFree[n])
		}
		s.netFree += d
	}
}

// resFree is the earliest time the transfer's resources are all free:
// both endpoints' node fabrics, plus the shared network for cross-node
// traffic. Multi-node machines only.
func (s *asyncSched) resFree(t sim.Transfer) time.Duration {
	spec := &s.r.mach.Spec
	free := s.nodeFree[spec.NodeOf(t.Src)]
	if f := s.nodeFree[spec.NodeOf(t.Dst)]; f > free {
		free = f
	}
	if spec.CrossNode(t.Src, t.Dst) && s.netFree > free {
		free = s.netFree
	}
	return free
}

func (s *asyncSched) haz(label string) *arrHazard {
	h, ok := s.hazards[label]
	if !ok {
		n := s.r.mach.NumGPUs()
		h = &arrHazard{dev: make([]hazClock, n), core: make([][2]int64, n)}
		for g := range h.core {
			h.core[g] = [2]int64{0, -1}
		}
		s.hazards[label] = h
	}
	return h
}

// hazRange normalizes a transfer's logical range: an unknown range
// (Hi < Lo) conservatively covers the whole array.
func hazRange(t sim.Transfer) (int64, int64) {
	if t.Hi < t.Lo {
		return hazFullLo, hazFullHi
	}
	return t.Lo, t.Hi
}

// hazFootprint is one location-range a transfer touches.
type hazFootprint struct {
	host   bool
	g      int
	lo, hi int64
	write  bool
}

// appendFootprints appends the read/write footprint of one transfer,
// derived from its metadata; h is the hazard state of the array it
// moves. The scalar-reduction delivery carries no array range; its
// ordering constraint (after the producing kernel) is handled in
// xferReady directly.
func appendFootprints(buf []hazFootprint, t sim.Transfer, h *arrHazard) []hazFootprint {
	lo, hi := hazRange(t)
	switch t.Kind {
	case sim.HostToDevice:
		buf = append(buf,
			hazFootprint{host: true, lo: lo, hi: hi},
			hazFootprint{g: t.Dst, lo: lo, hi: hi, write: true})
	case sim.DeviceToHost:
		buf = append(buf,
			hazFootprint{g: t.Src, lo: lo, hi: hi},
			hazFootprint{host: true, lo: lo, hi: hi, write: true})
	default: // PeerToPeer
		buf = append(buf, hazFootprint{g: t.Src, lo: lo, hi: hi})
		if t.Tag == sim.TagHalo {
			core := h.core[t.Dst]
			segs, n := subtractRange(lo, hi, core[0], core[1])
			for _, seg := range segs[:n] {
				buf = append(buf, hazFootprint{g: t.Dst, lo: seg[0], hi: seg[1], write: true})
			}
		} else {
			buf = append(buf, hazFootprint{g: t.Dst, lo: lo, hi: hi, write: true})
		}
	}
	return buf
}

// derive works out, once for a whole batch, what every round of the
// batch needs: each transfer's hazard state and footprints (valid for
// the whole batch: arrHazard.core changes only in kernels) and the
// conflict relation between its transfers, which depends on footprints
// alone, never on how far the hazard clocks have advanced. It returns
// the width of a conflict row in words.
func (s *asyncSched) derive(transfers []sim.Transfer) int {
	n := len(transfers)
	s.xhaz, s.fp, s.fpAt = s.xhaz[:0], s.fp[:0], append(s.fpAt[:0], 0)
	for _, t := range transfers {
		var h *arrHazard
		if t.Kind != sim.DeviceToHost || t.Tag != sim.TagScalar {
			h = s.haz(t.Label)
			s.fp = appendFootprints(s.fp, t, h)
		}
		s.xhaz = append(s.xhaz, h)
		s.fpAt = append(s.fpAt, len(s.fp))
	}
	// append(x[:0], make(…)...) zero-extends in place once x is large enough.
	words := (n + 63) / 64
	s.conf = append(s.conf[:0], make([]uint64, n*words)...)
	s.issued = append(s.issued[:0], make([]uint64, words)...)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if s.conflict(transfers, j, i) {
				s.conf[i*words+j/64] |= 1 << (j % 64)
			}
		}
	}
	return words
}

// conflict reports whether transfer i must wait for the earlier
// transfer j of the same batch. Only same-array flows can couple inside
// one batch (no host code runs mid-batch), and one array has one hazard
// state.
func (s *asyncSched) conflict(transfers []sim.Transfer, j, i int) bool {
	if s.xhaz[j] != s.xhaz[i] || s.xhaz[i] == nil {
		return false
	}
	if transfers[j].Kind == sim.DeviceToHost && transfers[i].Kind == sim.DeviceToHost {
		// Concurrent gathers of one array read distinct GPU copies, and
		// where their host-write ranges overlap (resident halos) the
		// copies are coherent — the communication step of the superstep
		// that produced them has completed — so either write order
		// stores the same bytes. Not a hazard.
		return false
	}
	for _, x := range s.fp[s.fpAt[j]:s.fpAt[j+1]] {
		for _, y := range s.fp[s.fpAt[i]:s.fpAt[i+1]] {
			if !x.write && !y.write {
				continue
			}
			if x.host != y.host || (!x.host && x.g != y.g) {
				continue
			}
			if x.lo <= y.hi && x.hi >= y.lo {
				return true
			}
		}
	}
	return false
}

// blocked reports whether a transfer with conflict row row still waits
// for an unissued earlier transfer of its batch.
func (s *asyncSched) blocked(row []uint64) bool {
	for w, bits := range row {
		if bits&^s.issued[w] != 0 {
			return true
		}
	}
	return false
}

// xferReady is the earliest time transfer i of the derived batch may
// issue given the current hazard state (bus availability is applied by
// the caller).
func (s *asyncSched) xferReady(t sim.Transfer, i int) time.Duration {
	h := s.xhaz[i]
	if h == nil {
		// The scalar partial rides the kernel-completion path of its
		// producing GPU.
		return s.gpuFree[t.Src]
	}
	var ready time.Duration
	if t.Kind == sim.HostToDevice {
		// Host content may have been produced by invisible host code.
		ready = s.hostBarrier
	}
	for _, fp := range s.fp[s.fpAt[i]:s.fpAt[i+1]] {
		clock := &h.host
		if !fp.host {
			clock = &h.dev[fp.g]
		}
		var at time.Duration
		if fp.write {
			at = clock.writeReady(fp.lo, fp.hi)
		} else {
			at = clock.readReady(fp.lo, fp.hi)
		}
		if at > ready {
			ready = at
		}
	}
	return ready
}

// xferApply records the accesses of transfer i of the derived batch,
// scheduled to end at end.
func (s *asyncSched) xferApply(t sim.Transfer, i int, end time.Duration) {
	if t.Kind == sim.DeviceToHost && end > s.hostBarrier {
		// Host code may read anything a D2H delivered (gathered
		// arrays, miss records landing on the mirror, scalar results).
		s.hostBarrier = end
	}
	h := s.xhaz[i]
	if h == nil {
		return
	}
	for _, fp := range s.fp[s.fpAt[i]:s.fpAt[i+1]] {
		clock := &h.host
		if !fp.host {
			clock = &h.dev[fp.g]
		}
		if fp.write {
			clock.writes.Add(fp.lo, fp.hi, end)
		} else {
			clock.reads.Add(fp.lo, fp.hi, end)
		}
	}
}

// batch schedules one priced transfer batch. The batch splits into
// ready-time sub-batches: transfers whose hazards have settled issue
// together (priced as one concurrent batch by the machine's
// aggregate-bandwidth model — never cheaper than the synchronous
// pricing of the same set), later-ready transfers wait for the bus to
// free and form the next sub-batch. Intra-batch dependencies (a gather
// feeding a reload of the same array) defer the dependent transfer to
// a later sub-batch. penalty is the bus time the fault-retry loop
// already priced for this batch.
func (s *asyncSched) batch(transfers []sim.Transfer, penalty time.Duration) {
	s.penalize(penalty)
	if len(transfers) == 0 {
		return
	}
	tr := s.r.opts.Tracer
	if tr != nil {
		tr.Metrics().Inc("sched.batches", 1)
	}
	spec := &s.r.mach.Spec
	words := s.derive(transfers)

	pend := s.pendIdx[:0]
	ready := s.pendReady[:0]
	for i := range transfers {
		pend = append(pend, i)
		ready = append(ready, 0)
	}
	const never = time.Duration(1<<63 - 1)

	for len(pend) > 0 {
		// Compute readiness; a transfer conflicting with an earlier
		// still-pending one is deferred, whatever its hazards say.
		minReady := never
		for pi, i := range pend {
			rdy := never
			if !s.blocked(s.conf[i*words : (i+1)*words]) {
				rdy = s.xferReady(transfers[i], i)
			}
			ready[pi] = rdy
			if rdy < minReady {
				minReady = rdy
			}
		}
		var t0 time.Duration
		if s.nodeFree == nil {
			t0 = s.busFree
			if minReady > t0 {
				t0 = minReady
			}
		} else {
			// Multi-node: the sub-batch starts when its members' hazards
			// AND their transfer resources (node fabrics, the network for
			// cross-node members) have settled. Lifting t0 can admit more
			// members, whose resources can lift it further — iterate to
			// the fixpoint (monotone, bounded by the busiest resource).
			t0 = minReady
			for {
				lift := t0
				for pi, i := range pend {
					if ready[pi] <= t0 {
						if f := s.resFree(transfers[i]); f > lift {
							lift = f
						}
					}
				}
				if lift == t0 {
					break
				}
				t0 = lift
			}
		}
		// Everything ready by the issue time shares the sub-batch.
		sub, subIdx := s.subBatch[:0], s.subIdx[:0]
		n := 0
		for pi, i := range pend {
			if ready[pi] <= t0 {
				sub, subIdx = append(sub, transfers[i]), append(subIdx, i)
			} else {
				pend[n] = i
				ready[n] = ready[pi]
				n++
			}
		}
		rest := pend[:n]

		// Absorb stragglers whose wait costs less than the bus time their
		// joining saves: the machine prices a concurrent batch with an
		// aggregate-bandwidth discount, so splitting a gather because one
		// source kernel retired a few microseconds later can make the
		// overlapped schedule *slower* than the synchronous one. Waiting
		// is worth it exactly when the straggler's lateness is below the
		// discount; halo pushes staggered by graded kernel writes stay
		// split (their lateness is a kernel fraction, far above it).
		// subTime is the price of sub while priced holds.
		var subTime time.Duration
		priced := false
		for len(rest) > 0 {
			best := -1
			for k := range rest {
				if ready[k] == never {
					continue
				}
				if best < 0 || ready[k] < ready[best] {
					best = k
				}
			}
			if best < 0 {
				break
			}
			i := rest[best]
			if r := ready[best]; r > t0 {
				if !priced {
					subTime, priced = spec.TransferTime(sub), true
				}
				joinedTime := spec.TransferTime(append(sub, transfers[i]))
				if saved := subTime + spec.TransferTime(transfers[i:i+1]) - joinedTime; r-t0 > saved {
					break
				}
				t0, subTime = r, joinedTime
			} else {
				priced = false
			}
			if s.nodeFree != nil {
				// The joining straggler's resources must be free too.
				if f := s.resFree(transfers[i]); f > t0 {
					t0 = f
				}
			}
			sub, subIdx = append(sub, transfers[i]), append(subIdx, i)
			copy(rest[best:], rest[best+1:])
			copy(ready[best:], ready[best+1:])
			rest = rest[:len(rest)-1]
		}
		if !priced {
			subTime = spec.TransferTime(sub)
		}
		end := t0 + subTime
		for k, t := range sub {
			s.xferApply(t, subIdx[k], end)
			s.issued[subIdx[k]/64] |= 1 << (subIdx[k] % 64)
		}
		if tr != nil {
			tr.Metrics().Inc("sched.sub_batches", 1)
			s.r.emitTransferSpans(sub, t0, end, true)
		}
		s.subBatch, s.subIdx = sub, subIdx
		if s.nodeFree == nil {
			s.busFree = end
		} else {
			for _, t := range sub {
				s.nodeFree[spec.NodeOf(t.Src)] = end
				s.nodeFree[spec.NodeOf(t.Dst)] = end
				if spec.CrossNode(t.Src, t.Dst) {
					s.netFree = end
				}
			}
		}
		s.bump(end)
		pend = rest
	}
	s.pendIdx = pend[:0]
	s.pendReady = ready[:0]
}

// kernels schedules one launch's per-GPU kernel nodes. The kernels of
// one launch are mutually independent under the BSP contract (each GPU
// writes only its own core or its own replica's envelope), so all
// readiness is computed against the pre-launch hazard state and all
// updates apply afterwards — exactly the concurrency the synchronous
// runtime grants them. Called on the host strand after the Phase B
// barrier, when the per-GPU costs are merged and error-free; begins[g]
// receives the time GPU g's kernel starts.
func (s *asyncSched) kernels(k *ir.Kernel, parts []span, needs [][]need, begins []time.Duration) {
	r := s.r
	ngpus := len(begins)
	for g := 0; g < ngpus; g++ {
		if parts[g].count() == 0 {
			continue
		}
		// Kernel launches read host scalars host code may have derived
		// from gathered results.
		rdy := s.gpuFree[g]
		if s.hostBarrier > rdy {
			rdy = s.hostBarrier
		}
		for ui, use := range k.Arrays {
			nd := needs[g][ui]
			if nd.hi < nd.lo {
				continue
			}
			h := s.haz(use.Decl.Name)
			if use.Read || use.Reduced {
				if at := h.dev[g].readReady(nd.lo, nd.hi); at > rdy {
					rdy = at
				}
			}
			if nd.wHi >= nd.wLo {
				if at := h.dev[g].writeReady(nd.wLo, nd.wHi); at > rdy {
					rdy = at
				}
			}
		}
		begins[g] = rdy
	}
	for g := 0; g < ngpus; g++ {
		if parts[g].count() == 0 {
			continue
		}
		begin := begins[g]
		cost := r.gpuCost[g]
		end := begin + cost
		s.gpuFree[g] = end
		s.bump(end)
		for ui, use := range k.Arrays {
			nd := needs[g][ui]
			if nd.hi < nd.lo {
				continue
			}
			h := s.haz(use.Decl.Name)
			if use.Read || use.Reduced {
				// Write-only arrays record no read: their halo regions
				// are untouched by this kernel, and a false read there
				// would stall inbound halo pushes on the kernel's end.
				h.dev[g].reads.Add(nd.lo, nd.hi, end)
			}
			if nd.wHi >= nd.wLo {
				if nd.wGraded && cost > 0 {
					// Proven ascending write order: slice the envelope
					// into linear completion grades so dependents on
					// early elements start before the kernel retires.
					width := nd.wHi - nd.wLo + 1
					grades := int64(writeGrades)
					if width < grades {
						grades = width
					}
					for j := int64(0); j < grades; j++ {
						lo := nd.wLo + width*j/grades
						hi := nd.wLo + width*(j+1)/grades - 1
						at := begin + time.Duration(int64(cost)*(j+1)/grades)
						h.dev[g].writes.Add(lo, hi, at)
					}
				} else {
					h.dev[g].writes.Add(nd.wLo, nd.wHi, end)
				}
			}
			h.core[g] = [2]int64{nd.coreLo, nd.coreHi}
		}
	}
}

// allocLane routes allocation instants: synchronously they sit on the
// owning GPU's lane, but under the async scheduler the GPU lanes carry
// overlapped kernel spans that may end after the host-clock stamp of a
// later allocation, so the instants (stamped with the monotone
// frontier) move to the host lane to keep every lane well-formed.
func (r *Runtime) allocLane(g int) int {
	if r.sched != nil {
		return trace.LaneHost
	}
	return g
}
