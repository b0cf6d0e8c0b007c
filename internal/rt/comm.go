package rt

import (
	"fmt"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// This file is the inter-GPU communication manager (paper §IV-D),
// called after the kernels of every launch: it propagates writes to
// replicated arrays with the two-level dirty-bit scheme, delivers
// buffered remote writes on distributed arrays, and completes the
// hierarchical (intra- then inter-GPU) reductions.

func (r *Runtime) commSync(k *ir.Kernel, env *ir.Env, gpus []*sim.Device, partials [][]float64) error {
	p2p := r.p2pScratch[:0]

	for _, use := range k.Arrays {
		st := r.state(use.Decl)
		switch {
		case use.Reduced:
			p2p = r.mergeReduction(p2p, st, use, gpus)
		case use.Written:
			if r.distributed(use) {
				p2p = r.deliverMisses(p2p, st, gpus)
				h0 := len(p2p)
				p2p = r.syncOverlaps(p2p, st, gpus)
				if halo := p2p[h0:]; len(halo) > 0 {
					var bytes int64
					inter := 0
					for _, t := range halo {
						bytes += t.Bytes
						if r.mach.Spec.CrossNode(t.Src, t.Dst) {
							inter++
						}
					}
					if r.mach.Spec.NodeCount() > 1 {
						r.addEvent("halo-exchange", fmt.Sprintf(
							"kernel %s: array %s, %d transfer(s) (%d inter-node), %d bytes", k.Name, use.Decl.Name, len(halo), inter, bytes))
					} else {
						r.addEvent("halo-exchange", fmt.Sprintf(
							"kernel %s: array %s, %d transfer(s), %d bytes", k.Name, use.Decl.Name, len(halo), bytes))
					}
				}
			} else {
				p2p = append(p2p, r.syncReplicated(st, gpus)...)
			}
			st.deviceNewer = true
		}
	}
	r.p2pScratch = p2p
	if err := r.account(p2p, &r.rep.GPUGPUTime); err != nil {
		return err
	}

	// Scalar reductions: per-GPU partials travel over the bus (tiny
	// device-to-host copies) and merge with the original host value,
	// the final level of the paper's hierarchical reduction.
	if len(k.ScalarReds) > 0 {
		tiny := r.tinyScratch[:0]
		for ri, red := range k.ScalarReds {
			acc := getRedSlot(env, red)
			for g := range gpus {
				acc = mergeRed(red, acc, partials[g][ri])
				tiny = append(tiny, sim.Transfer{Kind: sim.DeviceToHost, Bytes: 8, Src: g, Dst: -1,
					Label: red.Decl.Name, Lo: 0, Hi: -1, Tag: sim.TagScalar})
			}
			setRedSlot(env, red, acc)
		}
		r.tinyScratch = tiny
		if err := r.account(tiny, &r.rep.CPUGPUTime); err != nil {
			return err
		}
	}
	r.sampleMemory()
	return nil
}

// syncReplicated propagates writes between full replicas. With the
// two-level scheme only chunks whose second-level bit is set travel;
// the single-level ablation ships the whole replica plus its dirty-bit
// array as soon as anything is dirty (paper §IV-D1).
//
// The implementation is staged for host wall-clock (virtual time is
// untouched — the priced transfer list is derived from the chunk bits
// exactly as the serial scheme derived it, in the same order):
//
//  1. scan — each source extracts its dirty runs with uint64 word
//     scans, once, instead of re-walking the byte array per
//     destination. Sources scan concurrently: each reads only its own
//     dirty bits and writes only its own diff slot.
//  2. apply — each run lands on every other replica as one bulk copy.
//     Under the BSP contract each element is written by one GPU per
//     superstep, so the per-source run lists are disjoint and sources
//     apply concurrently (disjoint writes; checked, not assumed — see
//     below). If the check fails (a racy program writing the same
//     element from several GPUs), the apply falls back to serial
//     source order, which reproduces the serial scheme's last-writer
//     and value-forwarding behaviour exactly, because values are read
//     at apply time.
//  3. clear — a new BSP superstep starts clean; per-copy clears are
//     disjoint and run concurrently, each sized to the chunks the copy
//     dirtied (gpuCopy.clearDirty).
func (r *Runtime) syncReplicated(st *arrayState, gpus []*sim.Device) []sim.Transfer {
	if len(gpus) == 1 {
		st.copies[0].clearDirty()
		return nil
	}

	// Stage 1 — scan.
	diffs := r.diffScratchFor(len(gpus))
	sim.FanOut(len(gpus), func(g int) {
		r.scanDirty(st, gpus, g, &diffs[g])
	})

	// Stage 2 — apply. The disjointness assertion the concurrency
	// rests on: one k-way merge over the (sorted, maximal) run lists.
	lists := r.diffLists[:0]
	idx := r.diffIdx[:0]
	withRuns := 0
	for g := range diffs {
		lists = append(lists, diffs[g].runs)
		idx = append(idx, 0)
		if len(diffs[g].runs) > 0 {
			withRuns++
		}
	}
	r.diffLists, r.diffIdx = lists, idx
	apply := func(g int) {
		src := st.copies[g]
		for _, run := range diffs[g].runs {
			for g2 := range gpus {
				if g2 != g {
					copyRun(st.copies[g2], src, run.lo, run.hi)
				}
			}
		}
	}
	if withRuns <= 1 || runsDisjoint(lists, idx) {
		sim.FanOut(len(gpus), apply)
	} else {
		for g := range gpus {
			apply(g)
		}
	}
	// Serial write-epoch bumps for every copy that received content
	// (deferred out of copyRun: with >= 3 GPUs several concurrent
	// appliers target the same destination copy).
	if withRuns > 0 {
		for g2 := range gpus {
			for g := range diffs {
				if g != g2 && len(diffs[g].runs) > 0 {
					st.copies[g2].wepoch++
				}
			}
		}
	}

	// Stage 3 — clear.
	sim.FanOut(len(gpus), func(g int) { st.copies[g].clearDirty() })

	// Concatenate per-source transfers in source order — the exact
	// sequence the serial scheme emitted.
	merged := r.replScratch[:0]
	for g := range diffs {
		merged = append(merged, diffs[g].transfers...)
	}
	r.replScratch = merged
	return merged
}

// scanDirty extracts source g's dirty runs and priced transfers into
// its diff slot. A chunk marked only by spans takes its runs from the
// spans; dirty bytes are scanned word-parallel (they are 0 or 1, so zero
// and all-ones words resolve eight elements per step) only in chunks
// marked chunkBytes. The transfer list mirrors the serial scheme byte
// for byte: one transfer per (dirty chunk, destination) under the
// two-level scheme, or one whole-replica payload (data + dirty bits) per
// destination under the single-level ablation.
func (r *Runtime) scanDirty(st *arrayState, gpus []*sim.Device, g int, d *srcDiff) {
	src := st.copies[g]
	if src.dirty == nil || !src.valid {
		return
	}
	if r.opts.Sabotage != nil && r.opts.Sabotage.DropDirtyChunks {
		return // test hook: lose this replica's dirty chunks
	}
	single, dirty := r.opts.DisableTwoLevelDirty, false
	next := 0 // the first span that may reach the current chunk
	for ch, b := range src.chunkDirty {
		if b == 0 {
			continue
		}
		lo := int64(ch) * src.chunkElems
		hi := min(lo+src.chunkElems, src.localLen())
		// The chunk ships to every other replica; receivers apply the
		// elements the first-level marks cover.
		next = src.chunkRuns(d, b, lo, hi, next)
		dirty = true
		if !single {
			bytes := (hi - lo) * st.elemSize
			d.transfers = r.chunkFanOut(d.transfers, st, len(gpus), g, bytes, src.lo+lo, src.lo+hi-1)
		}
	}
	if single && dirty {
		payload := src.localLen()*st.elemSize + src.localLen() // data + dirty bits
		d.transfers = r.chunkFanOut(d.transfers, st, len(gpus), g, payload, src.lo, src.hi)
	}
}

// chunkRuns appends to d.runs the dirty runs of chunk [lo,hi), whose
// second-level byte is b: the pieces of the spans, the runs of the dirty
// bytes, or both merged by start. next is the first span not wholly
// below lo; it returns the one for the next chunk.
func (c *gpuCopy) chunkRuns(d *srcDiff, b uint8, lo, hi int64, next int) int {
	if b&chunkSpan == 0 {
		d.runs = appendNonzeroRuns(d.runs, c.dirty, lo, hi)
		return next
	}
	for next < len(c.spans) && c.spans[next].hi <= lo {
		next++
	}
	var bytes []span
	if b&chunkBytes != 0 {
		d.bytes = appendNonzeroRuns(d.bytes[:0], c.dirty, lo, hi)
		bytes = d.bytes
	}
	spans := c.spans[next:]
	for {
		var s span
		switch in := len(spans) > 0 && spans[0].lo < hi; {
		case in && (len(bytes) == 0 || spans[0].lo <= bytes[0].lo):
			s, spans = span{max(spans[0].lo, lo), min(spans[0].hi, hi)}, spans[1:]
		case len(bytes) > 0:
			s, bytes = bytes[0], bytes[1:]
		default:
			return next
		}
		// A run that overlaps or touches the last one extends it.
		if n := len(d.runs); n > 0 && s.lo <= d.runs[n-1].hi {
			d.runs[n-1].hi = max(d.runs[n-1].hi, s.hi)
		} else {
			d.runs = append(d.runs, s)
		}
	}
}

// chunkFanOut appends the priced transfers that ship one source chunk
// (or whole-replica payload under the single-level ablation) to every
// other active replica, choosing paths by topology. On a single-node
// machine every destination receives directly from the source — the
// exact transfer list the pre-topology runtime emitted. On a
// multi-node machine the fan-out goes two-level: same-node replicas
// receive directly over the intra-node bus, and each remote node
// receives one NIC shipment to its leader (the node's first active
// GPU), which relays to the node's remaining replicas locally — so a
// chunk crosses the network once per node, not once per GPU. The
// functional apply stage is unaffected: only the priced routes change.
func (r *Runtime) chunkFanOut(dst []sim.Transfer, st *arrayState, ngpus, g int, bytes, lo, hi int64) []sim.Transfer {
	spec := &r.mach.Spec
	push := func(src, g2 int) {
		dst = append(dst, sim.Transfer{Kind: sim.PeerToPeer, Bytes: bytes, Src: src, Dst: g2,
			Label: st.decl.Name, Lo: lo, Hi: hi, Tag: sim.TagDirty})
	}
	if spec.NodeCount() <= 1 {
		for g2 := 0; g2 < ngpus; g2++ {
			if g2 != g {
				push(g, g2)
			}
		}
		return dst
	}
	gpn := spec.GPUsPerNode()
	srcNode := spec.NodeOf(g)
	for base := 0; base < ngpus; base += gpn {
		end := base + gpn
		if end > ngpus {
			end = ngpus
		}
		if spec.NodeOf(base) == srcNode {
			for g2 := base; g2 < end; g2++ {
				if g2 != g {
					push(g, g2)
				}
			}
			continue
		}
		push(g, base) // across the NIC to the remote node's leader
		for g2 := base + 1; g2 < end; g2++ {
			push(base, g2) // intra-node relay
		}
	}
	return dst
}

// deliverMisses routes buffered remote writes on distributed arrays to
// the GPUs whose partitions hold the destination (paper §IV-D2). A
// write nobody holds lands on the host mirror.
func (r *Runtime) deliverMisses(transfers []sim.Transfer, st *arrayState, gpus []*sim.Device) []sim.Transfer {
	isInt := st.decl.Type == cc.TInt
	for g := range gpus {
		src := st.copies[g]
		if src.miss == nil {
			continue
		}
		if r.opts.Sabotage != nil && r.opts.Sabotage.DropMissDelivery {
			// Test hook: drain the buffers without delivering.
			for w := range src.miss {
				src.miss[w] = src.miss[w][:0]
			}
			continue
		}
		// bytesTo tallies record payloads per destination GPU.
		if cap(r.missBytes) < len(gpus) {
			r.missBytes = make([]int64, len(gpus))
		}
		bytesTo := r.missBytes[:len(gpus)]
		clear(bytesTo)
		var hostBytes int64
		for _, lane := range src.miss {
			for _, rec := range lane {
				delivered := false
				for g2 := range gpus {
					if g2 == g {
						continue
					}
					dst := st.copies[g2]
					if !dst.valid || rec.idx < dst.lo || rec.idx > dst.hi {
						continue
					}
					if isInt {
						dst.storeI(dst.phys(rec.idx), rec.i)
					} else {
						dst.storeF(dst.phys(rec.idx), rec.f)
					}
					bytesTo[g2] += missRecordBytes
					delivered = true
				}
				if !delivered {
					if isInt {
						st.host.I32[rec.idx] = int32(rec.i)
					} else {
						hostStoreF(st.host, rec.idx, rec.f)
					}
					hostBytes += missRecordBytes
				}
			}
		}
		for g2, b := range bytesTo {
			if b > 0 {
				transfers = append(transfers, sim.Transfer{Kind: sim.PeerToPeer, Bytes: b, Src: g, Dst: g2,
					Label: st.decl.Name, Lo: 0, Hi: -1, Tag: sim.TagMiss})
			}
		}
		if hostBytes > 0 {
			transfers = append(transfers, sim.Transfer{Kind: sim.DeviceToHost, Bytes: hostBytes, Src: g, Dst: -1,
				Label: st.decl.Name, Lo: 0, Hi: -1, Tag: sim.TagMiss})
		}
		// Drain the system buffers for the next superstep.
		for w := range src.miss {
			src.miss[w] = src.miss[w][:0]
		}
	}
	return transfers
}

// syncOverlaps pushes each GPU's owned (core) writes of a distributed
// array into the overlapping halo regions of other GPUs' partitions, so
// halo reads in the next superstep see fresh values (the stencil halo
// exchange, expressed through the paper's distributed-array machinery).
// Elements inside the receiver's own core are never overwritten: under
// the dependence-free loop contract the receiver's writes are at least
// as fresh.
func (r *Runtime) syncOverlaps(transfers []sim.Transfer, st *arrayState, gpus []*sim.Device) []sim.Transfer {
	if len(gpus) == 1 {
		return transfers
	}
	if r.opts.Sabotage != nil && r.opts.Sabotage.DropOverlapSync {
		return transfers // test hook: skip the halo exchange entirely
	}
	for g := range gpus {
		src := st.copies[g]
		if !src.valid || src.coreHi < src.coreLo {
			continue
		}
		for g2 := range gpus {
			if g2 == g {
				continue
			}
			dst := st.copies[g2]
			if !dst.valid {
				continue
			}
			lo := max(src.coreLo, dst.lo)
			hi := min(src.coreHi, dst.hi)
			if hi < lo {
				continue
			}
			// Subtract the receiver's own core, leaving up to two
			// halo segments.
			var bytes int64
			segs, nseg := subtractRange(lo, hi, dst.coreLo, dst.coreHi)
			for _, seg := range segs[:nseg] {
				for i := seg[0]; i <= seg[1]; i++ {
					dst.storeF(dst.phys(i), src.loadF(src.phys(i)))
				}
				bytes += (seg[1] - seg[0] + 1) * st.elemSize
			}
			if bytes > 0 {
				transfers = append(transfers, sim.Transfer{Kind: sim.PeerToPeer, Bytes: bytes, Src: g, Dst: g2,
					Label: st.decl.Name, Lo: lo, Hi: hi, Tag: sim.TagHalo})
			}
		}
	}
	return transfers
}

// subtractRange removes [subLo, subHi] from [lo, hi], returning the
// remaining inclusive segments: the first n entries of segs.
func subtractRange(lo, hi, subLo, subHi int64) (segs [2][2]int64, n int) {
	if subHi < subLo || subHi < lo || subLo > hi {
		return [2][2]int64{{lo, hi}}, 1
	}
	if subLo > lo {
		segs[n] = [2]int64{lo, subLo - 1}
		n++
	}
	if subHi < hi {
		segs[n] = [2]int64{subHi + 1, hi}
		n++
	}
	return segs, n
}

// mergeReduction completes a reductiontoarray: worker lanes fold into a
// per-GPU delta (the shared-memory and intra-GPU levels), the deltas
// merge across GPUs (a reduce + broadcast tree over the bus), and the
// combined delta lands on every replica.
func (r *Runtime) mergeReduction(transfers []sim.Transfer, st *arrayState, use *ir.ArrayUse, gpus []*sim.Device) []sim.Transfer {
	n := st.n
	op := use.ReduceOp
	isInt := st.decl.Type == cc.TInt

	if isInt {
		total := newLaneI(n, op)
		for g := range gpus {
			c := st.copies[g]
			if c.lanesI == nil {
				continue
			}
			for _, lane := range c.lanesI {
				for i := int64(0); i < n; i++ {
					total[i] = op.ApplyI(total[i], lane[i])
				}
			}
			c.lanesI = nil
		}
		id := int64(op.Identity())
		for g := range gpus {
			c := st.copies[g]
			for i := int64(0); i < n; i++ {
				if total[i] != id {
					c.storeI(c.phys(i), op.ApplyI(c.loadI(c.phys(i)), total[i]))
				}
			}
		}
	} else {
		total := newLaneF(n, op)
		for g := range gpus {
			c := st.copies[g]
			if c.lanesF == nil {
				continue
			}
			for _, lane := range c.lanesF {
				for i := int64(0); i < n; i++ {
					total[i] = op.Apply(total[i], lane[i])
				}
			}
			c.lanesF = nil
		}
		id := op.Identity()
		for g := range gpus {
			c := st.copies[g]
			for i := int64(0); i < n; i++ {
				if total[i] != id {
					c.storeF(c.phys(i), op.Apply(c.loadF(c.phys(i)), total[i]))
				}
			}
		}
	}
	st.deviceNewer = true

	// Bus cost: a reduce tree then a broadcast of the delta array.
	laneBytes := n * st.elemSize
	for g := 1; g < len(gpus); g++ {
		transfers = append(transfers,
			sim.Transfer{Kind: sim.PeerToPeer, Bytes: laneBytes, Src: g, Dst: 0,
				Label: st.decl.Name, Lo: 0, Hi: n - 1, Tag: sim.TagReduce},
			sim.Transfer{Kind: sim.PeerToPeer, Bytes: laneBytes, Src: 0, Dst: g,
				Label: st.decl.Name, Lo: 0, Hi: n - 1, Tag: sim.TagReduce},
		)
	}
	return transfers
}
