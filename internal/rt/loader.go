package rt

import (
	"fmt"
	"time"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// This file is the data loader (paper §IV-C): it guarantees OpenACC
// data semantics across the multiple GPU memories, chooses between the
// replica-based and the distribution-based placement policies, and
// skips reloads when a kernel's read pattern matches what is already
// resident.

// EnterData begins a structured data region: the named arrays become
// device-resident for the region's extent. Transfers are deferred to
// the kernel launches, where the footprints are known — this is what
// lets distribution-based arrays load only their partitions.
func (r *Runtime) EnterData(reg *ir.DataRegion, _ *ir.Env) error {
	if err := r.Poll(); err != nil {
		return err
	}
	r.regionDepth++
	if r.opts.Mode == ModeCPU {
		return nil
	}
	for _, arg := range reg.Args {
		st := r.state(arg.Decl)
		if arg.Class == acc.ClassPresent {
			// present(...) asserts residency from an enclosing region
			// and changes nothing about the array's lifetime.
			if !st.present {
				return fmt.Errorf("rt: line %d: present(%s): array is not resident on the devices", reg.Line, arg.Decl.Name)
			}
			continue
		}
		st.present = true
		st.class = arg.Class
		// Region entry makes the host copy canonical for inbound
		// classes; create/copyout content starts as zeroed storage.
		r.bumpHost(st)
		st.deviceNewer = false
	}
	if r.auditing() {
		return r.opts.Auditor.AfterEnterData(reg, nil, r.rep.Total())
	}
	return nil
}

// ExitData ends a data region: outbound arrays are gathered to the
// host and all device storage of the region's arrays is released.
func (r *Runtime) ExitData(reg *ir.DataRegion, _ *ir.Env) error {
	r.regionDepth--
	if r.opts.Mode == ModeCPU {
		return nil
	}
	var transfers []sim.Transfer
	for _, arg := range reg.Args {
		st := r.state(arg.Decl)
		if arg.Class == acc.ClassPresent {
			continue // owned by an enclosing region
		}
		if arg.Class == acc.ClassCopy || arg.Class == acc.ClassCopyOut {
			tr, err := r.gatherToHost(st)
			if err != nil {
				return err
			}
			transfers = append(transfers, tr...)
		}
		if err := st.release(); err != nil {
			return err
		}
		st.present = false
	}
	if err := r.account(transfers, &r.rep.CPUGPUTime); err != nil {
		return err
	}
	if r.auditing() {
		return r.opts.Auditor.AfterExitData(reg, nil, r.rep.Total())
	}
	return nil
}

// Update implements the update directive: update host gathers device
// content now; update device re-establishes the host copy as canonical
// (the loader re-ships it before the next kernel that needs it).
func (r *Runtime) Update(u *ir.UpdateOp, _ *ir.Env) error {
	if err := r.Poll(); err != nil {
		return err
	}
	if r.opts.Mode == ModeCPU {
		return nil
	}
	var transfers []sim.Transfer
	for _, d := range u.ToHost {
		st := r.state(d)
		tr, err := r.gatherToHost(st)
		if err != nil {
			return err
		}
		transfers = append(transfers, tr...)
	}
	for _, d := range u.ToDevice {
		st := r.state(d)
		r.bumpHost(st)
		st.deviceNewer = false
	}
	if err := r.account(transfers, &r.rep.CPUGPUTime); err != nil {
		return err
	}
	if r.auditing() {
		return r.opts.Auditor.AfterUpdate(u, nil, r.rep.Total())
	}
	return nil
}

// TransferError reports a bus transfer that kept failing past the
// bounded retry budget (fault injection with an uncapped failure run,
// or retries disabled).
type TransferError struct {
	Kind     sim.TransferKind
	Bytes    int64
	Src, Dst int
	Attempts int
}

func (e *TransferError) Error() string {
	return fmt.Sprintf("rt: %s transfer of %d bytes (src %d, dst %d) failed after %d attempt(s)",
		e.Kind, e.Bytes, e.Src, e.Dst, e.Attempts)
}

// account prices a transfer batch into the given phase bucket and
// tallies volumes. When a fault plan is armed, every transfer first
// passes the transient-failure oracle: a failed attempt is priced (the
// bus time was spent), a doubling virtual-time backoff is added, and
// the transfer retries up to maxTransferAttempts before becoming a
// hard TransferError. With DisableDegradation the first injected
// failure is fatal.
func (r *Runtime) account(transfers []sim.Transfer, bucket *time.Duration) error {
	if len(transfers) == 0 {
		return nil
	}
	var penalty time.Duration
	for _, t := range transfers {
		attempt := 1
		for r.mach.TransferAttemptFails() {
			// The failed attempt occupied the bus; the retry then
			// waits out its backoff window.
			d := r.mach.Spec.TransferTime([]sim.Transfer{t}) + transferBackoffBase<<(attempt-1)
			*bucket += d
			penalty += d
			if r.opts.DisableDegradation || attempt >= maxTransferAttempts {
				if r.sched != nil {
					r.sched.penalize(penalty)
				}
				r.addEvent("transfer-giveup", fmt.Sprintf("%s %dB src=%d dst=%d after %d attempt(s)",
					t.Kind, t.Bytes, t.Src, t.Dst, attempt))
				return &TransferError{Kind: t.Kind, Bytes: t.Bytes, Src: t.Src, Dst: t.Dst, Attempts: attempt}
			}
			r.rep.TransferRetries++
			r.addEvent("transfer-retry", fmt.Sprintf("%s %dB src=%d dst=%d attempt %d",
				t.Kind, t.Bytes, t.Src, t.Dst, attempt))
			attempt++
		}
	}
	begin := r.rep.Total()
	*bucket += r.mach.Spec.TransferTime(transfers)
	for _, t := range transfers {
		switch t.Kind {
		case sim.HostToDevice:
			r.rep.BytesH2D += t.Bytes
		case sim.DeviceToHost:
			r.rep.BytesD2H += t.Bytes
		case sim.PeerToPeer:
			r.rep.BytesP2P += t.Bytes
		}
	}
	if r.sched != nil {
		// The async scheduler owns the batch's timing: it splits the
		// batch into ready-time sub-batches on the bus timeline and has
		// each one's spans emitted over its own window. The bucket
		// increment above is untouched — buckets keep their synchronous
		// values under async.
		r.sched.batch(transfers, penalty)
	} else {
		r.emitTransferSpans(transfers, begin, r.rep.Total(), false)
	}
	return nil
}

// Fixed metric-key tables: indexing by enum instead of concatenating
// strings keeps the traced hot path free of per-transfer allocations.
var (
	bytesKindKeys = [...]string{
		sim.HostToDevice: "bytes.h2d",
		sim.DeviceToHost: "bytes.d2h",
		sim.PeerToPeer:   "bytes.p2p",
	}
	bytesPolicyKeys = [...]string{
		sim.TagData:   "bytes.policy.data",
		sim.TagDirty:  "bytes.policy.dirty",
		sim.TagHalo:   "bytes.policy.halo",
		sim.TagMiss:   "bytes.policy.miss",
		sim.TagReduce: "bytes.policy.reduce",
		sim.TagScalar: "bytes.policy.scalar",
	}
)

// emitTransferSpans states one priced batch (a sub-batch, under the async
// schedule) on the tracer: every transfer in it becomes one span over the
// window [begin, end] the schedule gave the batch, of kind h2d, gather,
// halo-exchange or d2d (by tag). GPU-GPU traffic sits on the comms lane.
// Host transfers sit on their GPU's lane (H2D the destination's, gathers
// the source's) unless overlapped: under the async schedule transfers run
// alongside kernels, so they move to the comms lane too, whose bus
// timeline is monotone, and trace.CheckWellFormed's per-lane nesting keeps
// holding. On a multi-node machine the comms lane is the destination
// node's NIC lane — well-formed because a sub-batch serializes on that
// node's fabric — and Detail marks the path: "nic" for traffic crossing
// nodes, "p2p" for intra-node peers.
func (r *Runtime) emitTransferSpans(transfers []sim.Transfer, begin, end time.Duration, overlapped bool) {
	tr := r.opts.Tracer
	if tr == nil {
		return
	}
	m := tr.Metrics()
	spec := &r.mach.Spec
	multi := spec.NodeCount() > 1
	for _, t := range transfers {
		s := trace.Span{Begin: begin, End: end, Lane: trace.LaneComms, Name: t.Label,
			Bytes: t.Bytes, Lo: t.Lo, Hi: t.Hi, Src: t.Src, Dst: t.Dst}
		if multi {
			s.Lane = trace.LaneNIC(spec.NodeOf(t.Dst))
			if spec.CrossNode(t.Src, t.Dst) {
				s.Detail = "nic"
			} else if t.Kind == sim.PeerToPeer {
				s.Detail = "p2p"
			}
		}
		switch {
		case t.Kind == sim.HostToDevice:
			s.Kind = trace.KindH2D
			if !overlapped {
				s.Lane = t.Dst
			}
		case t.Kind == sim.DeviceToHost:
			s.Kind = trace.KindGather
			if !overlapped {
				s.Lane = t.Src
			}
		case t.Tag == sim.TagHalo:
			s.Kind = trace.KindHalo
		default:
			s.Kind = trace.KindD2D
		}
		tr.Emit(s)
		m.Inc(bytesKindKeys[t.Kind], t.Bytes)
		m.Inc(bytesPolicyKeys[t.Tag], t.Bytes)
	}
}

// gatherToHost copies the canonical device content back to the host
// mirror. Replicated arrays are consistent after every communication
// step, so one GPU's copy suffices; distributed arrays are gathered
// partition by partition.
func (r *Runtime) gatherToHost(st *arrayState) ([]sim.Transfer, error) {
	anyValid := false
	for _, c := range st.copies {
		if c.valid {
			anyValid = true
			break
		}
	}
	if !anyValid || !st.deviceNewer {
		return nil, nil
	}
	var transfers []sim.Transfer
	for _, c := range st.copies {
		if !c.valid {
			continue
		}
		if !c.transformed {
			// Untransformed copies are host-layout slices of matching
			// element type: gather with one memmove per copy.
			n := c.hi - c.lo + 1
			switch {
			case c.f32 != nil:
				copy(st.host.F32[c.lo:c.hi+1], c.f32[:n])
			case c.f64 != nil:
				copy(st.host.F64[c.lo:c.hi+1], c.f64[:n])
			default:
				copy(st.host.I32[c.lo:c.hi+1], c.i32[:n])
			}
		} else {
			for i := c.lo; i <= c.hi; i++ {
				hostStoreF(st.host, i, c.loadF(c.phys(i)))
			}
		}
		transfers = append(transfers, sim.Transfer{
			Kind: sim.DeviceToHost, Bytes: c.localLen() * st.elemSize, Src: c.g, Dst: -1,
			Label: st.decl.Name, Lo: c.lo, Hi: c.hi, Tag: sim.TagData,
		})
		if r.isReplicated(c) {
			break // replicas are consistent; one gather is enough
		}
	}
	st.deviceNewer = false
	// The host mirror now matches the devices: advance the lineage so
	// resident copies stay valid without a reload.
	r.bumpHost(st)
	for _, c := range st.copies {
		if c.valid {
			c.version = st.hostVersion
		}
	}
	return transfers, nil
}

func (r *Runtime) isReplicated(c *gpuCopy) bool {
	return c.lo == 0 && c.hi == c.st.n-1
}

// need describes what one GPU requires of one array for one launch.
type need struct {
	lo, hi    int64 // inclusive logical range; empty when hi < lo
	transform bool
	width     int64
	wantDirty bool
	wantMiss  bool
	wantLanes bool
	laneOp    ir.ReduceOp
	contentIn bool // device must receive host/base content
	// coreLo..coreHi is the element range this GPU's iterations own
	// for writing (the footprint minus halo); after the kernel the
	// communication manager pushes owned elements into neighbors'
	// overlapping (halo) regions. Empty when the array is not a
	// written distributed array.
	coreLo, coreHi int64
	// wLo..wHi is the kernel's write envelope on this GPU's copy
	// (empty when hi < lo), consumed by the async scheduler's hazard
	// tracking. wGraded marks envelopes with a proven ascending
	// literal-affine write order, whose completion the scheduler may
	// interpolate across the kernel span.
	wLo, wHi int64
	wGraded  bool
}

// distributed reports whether this array use places as partitions (vs
// full replicas) under the current options, launch mode and the
// degradation ladder's current rung. The loader and the communication
// manager must agree on this, so both call here.
func (r *Runtime) distributed(use *ir.ArrayUse) bool {
	return use.Local != nil && !r.opts.DisableDistribution && !r.forceReplicate && r.opts.Mode != ModeBaseline
}

// computeNeed derives a GPU's requirement from the array configuration
// information and the iteration partition. ngpus is the launch's active
// device count (the degradation ladder may use fewer than the machine
// has).
func (r *Runtime) computeNeed(k *ir.Kernel, use *ir.ArrayUse, host *ir.Env, p span, st *arrayState, ngpus int) need {
	nd := need{lo: 0, hi: st.n - 1}
	distributed := r.distributed(use)
	if distributed {
		nd.lo, nd.hi = use.Local.Range(host, k.LoopVar.Slot, p.lo, p.hi, st.n)
	}
	if use.Reduced {
		// Reduction targets stay replicated (the merged delta is
		// applied to every copy) and carry lanes.
		nd.lo, nd.hi = 0, st.n-1
		nd.wantLanes = true
		nd.laneOp = use.ReduceOp
	}
	nd.coreLo, nd.coreHi = 0, -1
	if use.Written && !use.Reduced {
		if distributed {
			nd.wantMiss = !use.WritesWithinLocal
			// The owned (core) range: exact when the write envelope
			// is a uniform literal-affine pattern matching the
			// stride, else the whole footprint (conservative; such
			// overlaps then resolve in GPU order).
			nd.coreLo, nd.coreHi = nd.lo, nd.hi
			if use.Local.HasStride && use.WriteCoef > 0 && p.count() > 0 {
				if s := use.Local.Stride(host); s == use.WriteCoef {
					nd.coreLo = s*p.lo + use.WriteOffLo
					nd.coreHi = s*(p.hi-1) + use.WriteOffHi
					if nd.coreLo < nd.lo {
						nd.coreLo = nd.lo
					}
					if nd.coreHi > nd.hi {
						nd.coreHi = nd.hi
					}
				}
			}
		} else {
			nd.wantDirty = ngpus > 1
		}
	}
	// The write envelope feeds the async scheduler's hazard tracking:
	// the exact core when the write pattern matches the stride, the
	// literal-affine envelope of the partition for replicated writes,
	// the whole resident range otherwise. Reductions conservatively
	// write the whole array (the merged delta lands on every copy).
	nd.wLo, nd.wHi = 0, -1
	switch {
	case use.Reduced:
		nd.wLo, nd.wHi = 0, st.n-1
	case use.Written && distributed:
		nd.wLo, nd.wHi = nd.lo, nd.hi
		if use.Local.HasStride && use.WriteCoef > 0 && p.count() > 0 {
			if s := use.Local.Stride(host); s == use.WriteCoef {
				// The exact-core branch above proved the ascending
				// affine order; the scheduler may grade completion.
				nd.wLo, nd.wHi = nd.coreLo, nd.coreHi
				nd.wGraded = true
			}
		}
	case use.Written:
		nd.wLo, nd.wHi = nd.lo, nd.hi
		if use.WriteCoef > 0 && p.count() > 0 {
			nd.wLo = use.WriteCoef*p.lo + use.WriteOffLo
			nd.wHi = use.WriteCoef*(p.hi-1) + use.WriteOffHi
			if nd.wLo < nd.lo {
				nd.wLo = nd.lo
			}
			if nd.wHi > nd.hi {
				nd.wHi = nd.hi
			}
			nd.wGraded = true
		}
	}
	// Content must flow in when the kernel reads the array, or when a
	// partial write means unwritten elements must survive the copyout.
	nd.contentIn = use.Read || use.Reduced || (use.Written && !writeCoversAll(use))
	if r.transformActive(use) {
		w := use.Width(host)
		if w > 0 && nd.lo%w == 0 && (nd.hi-nd.lo+1)%w == 0 {
			nd.transform = true
			nd.width = w
		}
	}
	return nd
}

// writeCoversAll is a conservative test for "the kernel overwrites the
// whole resident range": only write-only arrays with a statically
// in-range affine write pattern qualify, which is exactly the class
// where skipping the inbound copy is safe.
func writeCoversAll(use *ir.ArrayUse) bool {
	return !use.Read && use.WritesWithinLocal
}

func (r *Runtime) transformActive(use *ir.ArrayUse) bool {
	return use.Transform2D && !r.opts.DisableLayoutTransform && r.opts.Mode != ModeBaseline
}

// prepareLoad reconciles one GPU copy with a need. This is where the
// reload-skip optimization lives: a valid copy of the right lineage
// covering the needed range costs nothing. It is the serial half of the
// load: every decision and every side effect whose *order* is observable — device
// allocations (the deterministic OOM fault oracle counts them per
// device), host gathers, transfer records (the transient-failure
// oracle consumes a seeded stream per priced transfer) and version
// bookkeeping — happens here, on the host strand, in the exact
// sequence the serial loader used. Only the bulk content movement is
// deferred: the returned copyJob (zero when no content flows) writes
// the copy's private storage from the host mirror and is safe to run
// concurrently with other GPUs' jobs.
//
// Transfers are appended to the passed batch (reused across launches).
// On an auxiliary-allocation failure the copy is released, so the
// would-be job is dropped rather than returned: the serial code copied
// content and then discarded it with the release, which is
// state-identical to never copying.
func (r *Runtime) prepareLoad(st *arrayState, c *gpuCopy, nd need, transfers []sim.Transfer) ([]sim.Transfer, copyJob, error) {
	var job copyJob
	if nd.hi < nd.lo {
		// This GPU needs nothing (empty partition); keep whatever is
		// resident but relinquish any write ownership.
		c.coreLo, c.coreHi = 0, -1
		return transfers, job, nil
	}
	covered := c.valid && c.lo <= nd.lo && c.hi >= nd.hi &&
		c.transformed == nd.transform && (!nd.transform || c.width == nd.width)
	fresh := covered && c.version == st.hostVersion
	reload := !fresh
	if fresh && r.opts.DisableReloadSkip && !st.deviceNewer {
		// Ablation: re-ship content even though the resident copy is
		// already identical.
		reload = true
	}

	if reload && st.deviceNewer {
		if covered {
			// The device holds newer content than the host; never
			// overwrite it (the gather path refreshes the host first
			// when directives ask for it).
			reload = false
		} else {
			// The copy must change shape but carries content the host
			// lacks: gather first so the reload reads fresh data. This
			// clears deviceNewer, so an array gathers at most once per
			// launch — and always before any of its copy jobs is
			// queued, which is what makes deferring the jobs safe.
			tr, err := r.gatherToHost(st)
			if err != nil {
				return transfers, job, err
			}
			transfers = append(transfers, tr...)
		}
	}
	if tr := r.opts.Tracer; tr != nil {
		if reload {
			tr.Metrics().Inc("loader.reloads", 1)
		} else if fresh {
			tr.Metrics().Inc("loader.reload_skips", 1)
		}
	}
	if reload {
		if err := c.realloc(nd); err != nil {
			return transfers, job, err
		}
		if tr := r.opts.Tracer; tr != nil {
			now := r.rep.Total()
			tr.Emit(trace.Span{Kind: trace.KindAlloc, Lane: r.allocLane(c.g), Begin: now, End: now,
				Name: st.decl.Name, Bytes: (nd.hi - nd.lo + 1) * st.elemSize, Lo: nd.lo, Hi: nd.hi})
		}
		if nd.contentIn {
			job = copyJob{st: st, c: c, lo: nd.lo, hi: nd.hi}
			transfers = append(transfers, sim.Transfer{
				Kind: sim.HostToDevice, Bytes: (nd.hi - nd.lo + 1) * st.elemSize, Src: -1, Dst: c.g,
				Label: st.decl.Name, Lo: nd.lo, Hi: nd.hi, Tag: sim.TagData,
			})
		}
		c.valid = true
		c.version = st.hostVersion
	}

	c.coreLo, c.coreHi = nd.coreLo, nd.coreHi
	if err := r.ensureAuxiliaries(st, c, nd); err != nil {
		// The copy cannot serve the launch without its auxiliaries;
		// free everything it holds so the error path leaks nothing and
		// a degraded retry starts from a clean slate.
		if relErr := c.release(); relErr != nil {
			return transfers, copyJob{}, relErr
		}
		return transfers, copyJob{}, err
	}
	return transfers, job, nil
}

// realloc (re)allocates the copy's storage for a range/layout change.
func (c *gpuCopy) realloc(nd need) error {
	st := c.st
	n := nd.hi - nd.lo + 1
	if c.buf != nil {
		if err := c.dev.Free(c.buf); err != nil {
			return err
		}
		c.buf = nil
		c.f32, c.f64, c.i32 = nil, nil, nil
	}
	name := fmt.Sprintf("%s[gpu%d]", st.decl.Name, c.g)
	var err error
	switch st.decl.Type {
	case cc.TFloat:
		c.buf, c.f32, err = c.dev.AllocFloat32(name, sim.MemUser, int(n))
	case cc.TDouble:
		c.buf, c.f64, err = c.dev.AllocFloat64(name, sim.MemUser, int(n))
	default:
		c.buf, c.i32, err = c.dev.AllocInt32(name, sim.MemUser, int(n))
	}
	if err != nil {
		// The old storage is already gone and no new storage arrived:
		// the copy holds no content. Mark it invalid and drop its
		// auxiliary buffers too, so the failed copy pins zero device
		// bytes and a later access cannot read freed storage.
		if relErr := c.release(); relErr != nil {
			return relErr
		}
		return err
	}
	c.lo, c.hi = nd.lo, nd.hi
	c.wepoch++ // fresh storage: cached value scans no longer apply
	c.transformed = nd.transform
	if nd.transform {
		c.width = nd.width
		c.rows = n / nd.width
	}
	return nil
}

// emitSysAlloc records a system-buffer allocation span (dirty bits,
// miss buffers, reduction lanes). Only runs when the structure is
// actually (re)allocated, so the string concatenation is off the
// steady-state path.
func (r *Runtime) emitSysAlloc(name, class string, g int, bytes int64) {
	if tr := r.opts.Tracer; tr != nil {
		now := r.rep.Total()
		tr.Emit(trace.Span{Kind: trace.KindAlloc, Lane: r.allocLane(g), Begin: now, End: now,
			Name: name + "." + class, Bytes: bytes, Lo: 0, Hi: -1})
	}
}

// ensureAuxiliaries allocates the runtime-system structures the launch
// needs: dirty-bit arrays, miss buffers, reduction lanes. These charge
// MemSystem, feeding the paper's Figure 9 System bars.
func (r *Runtime) ensureAuxiliaries(st *arrayState, c *gpuCopy, nd need) error {
	local := c.localLen()
	if nd.wantDirty {
		chunkElems := r.opts.ChunkBytes / st.elemSize
		if chunkElems < 1 {
			chunkElems = 1
		}
		nChunks := (local + chunkElems - 1) / chunkElems
		if c.dirty == nil || int64(len(c.dirty)) != local || c.chunkElems != chunkElems {
			if c.dirtyBuf != nil {
				if err := c.dev.Free(c.dirtyBuf); err != nil {
					return err
				}
				c.dirtyBuf = nil
			}
			var data []byte
			var err error
			c.dirtyBuf, data, err = c.dev.AllocBytesSlice(
				fmt.Sprintf("%s.dirty[gpu%d]", st.decl.Name, c.g), sim.MemSystem, int(local+nChunks))
			if err != nil {
				return err
			}
			c.dirty = data[:local]
			c.chunkDirty = data[local:]
			c.chunkElems = chunkElems
			c.chunkLanes, c.spans = nil, nil
			r.emitSysAlloc(st.decl.Name, "dirty", c.g, local+nChunks)
		}
		if len(c.chunkLanes) != c.dev.Spec.Workers {
			c.chunkLanes = make([][]uint8, c.dev.Spec.Workers)
			for w := range c.chunkLanes {
				c.chunkLanes[w] = make([]uint8, nChunks)
			}
		}
	}
	if nd.wantMiss && c.missBuf == nil {
		// Reserve system buffers for remote-write records, sized like
		// the paper's fixed buffers: an eighth of the partition.
		records := local / 8
		if records < 4096 {
			records = 4096
		}
		var err error
		c.missBuf, _, err = c.dev.AllocBytesSlice(
			fmt.Sprintf("%s.missbuf[gpu%d]", st.decl.Name, c.g), sim.MemSystem, int(records*missRecordBytes))
		if err != nil {
			return err
		}
		r.emitSysAlloc(st.decl.Name, "missbuf", c.g, records*missRecordBytes)
	}
	if nd.wantMiss {
		c.miss = make([][]missRec, c.dev.Spec.Workers)
	}
	if nd.wantLanes {
		if c.lanesBuf == nil {
			var err error
			c.lanesBuf, _, err = c.dev.AllocBytesSlice(
				fmt.Sprintf("%s.lanes[gpu%d]", st.decl.Name, c.g), sim.MemSystem, int(st.n*8))
			if err != nil {
				return err
			}
			r.emitSysAlloc(st.decl.Name, "lanes", c.g, st.n*8)
		}
		workers := c.dev.Spec.Workers
		if st.decl.Type == cc.TInt {
			c.lanesI = make([][]int64, workers)
			for w := range c.lanesI {
				c.lanesI[w] = newLaneI(st.n, nd.laneOp)
			}
		} else {
			c.lanesF = make([][]float64, workers)
			for w := range c.lanesF {
				c.lanesF[w] = newLaneF(st.n, nd.laneOp)
			}
		}
	}
	return nil
}
