package rt

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// span is a half-open iteration range [lo, hi) assigned to one GPU.
type span struct{ lo, hi int64 }

func (s span) count() int64 {
	if s.hi <= s.lo {
		return 0
	}
	return s.hi - s.lo
}

// partition splits [lower, upper) evenly across n devices, the paper's
// task mapping (§IV-B2).
func partition(lower, upper int64, n int) []span {
	total := upper - lower
	if total < 0 {
		total = 0
	}
	parts := make([]span, n)
	for g := 0; g < n; g++ {
		lo := lower + total*int64(g)/int64(n)
		hi := lower + total*int64(g+1)/int64(n)
		parts[g] = span{lo: lo, hi: hi}
	}
	return parts
}

// partitionTopo splits [lower, upper) across n devices respecting the
// machine's node topology: the iteration space is first block-split
// across nodes, then each node's block is split across its GPUs — the
// two-level decomposition of the multi-node loader. A single node (a
// whole single-node machine, or a degraded prefix of one node) is the
// flat partition. Node-block boundaries coincide with the flat
// split's boundaries at node multiples, so GPU-index-adjacent chunks
// stay contiguous; only intra-node rounding may differ from the flat
// split, and never by more than one element per boundary.
func (r *Runtime) partitionTopo(lower, upper int64, n int) []span {
	spec := &r.mach.Spec
	gpn := spec.GPUsPerNode()
	if gpn < 1 || n <= gpn {
		return partition(lower, upper, n)
	}
	total := upper - lower
	if total < 0 {
		total = 0
	}
	parts := make([]span, n)
	for base := 0; base < n; base += gpn {
		cnt := gpn
		if base+cnt > n {
			cnt = n - base
		}
		nlo := lower + total*int64(base)/int64(n)
		nhi := lower + total*int64(base+cnt)/int64(n)
		copy(parts[base:base+cnt], partition(nlo, nhi, cnt))
	}
	return parts
}

// Launch executes one parallel loop: data loading, concurrent kernel
// execution on every GPU, and the inter-GPU communication step — the
// three-phase BSP cycle of the paper's Figure 3.
//
// A device OOM during the load phase does not abort the run (unless
// DisableDegradation is set): the launch retries down a degradation
// ladder — distributed arrays fall back to replication, then the GPU
// count shrinks one device at a time — re-partitioning the iteration
// space each rung. A lost node (the losenode fault) takes a steeper
// rung: every array is evacuated to the host — the drain model keeps
// lost memory readable, only new allocations fail — and the run
// permanently redistributes across the surviving node prefix. Each
// step is recorded in the report's Events.
func (r *Runtime) Launch(k *ir.Kernel, env *ir.Env) error {
	if err := r.Poll(); err != nil {
		return err
	}
	r.kernelExecs[k.ID]++
	r.rep.KernelLaunches++
	if r.opts.Mode == ModeCPU {
		return r.launchCPU(k, env)
	}
	if r.auditing() {
		if err := r.opts.Auditor.BeforeLaunch(k, env); err != nil {
			return err
		}
	}
	gpus := r.gpus()
	degraded := false
	for {
		err := r.launchAttempt(k, env, gpus)
		if err == nil {
			break
		}
		if r.opts.DisableDegradation {
			return err
		}
		var oom *sim.OutOfMemoryError
		var lost *sim.NodeLostError
		// Degradation ladder: give up placement sophistication first,
		// parallelism second. Node loss jumps straight to the surviving
		// prefix — there is no point retrying placement on a node that
		// refuses allocations.
		switch {
		case errors.As(err, &lost):
			keep := lost.Node * r.mach.Spec.GPUsPerNode()
			if keep < 1 || keep >= len(gpus) {
				return err
			}
			if err := r.nodeLossReset(); err != nil {
				return err
			}
			gpus = gpus[:keep]
			r.usableGPUs = keep
			r.addEvent("node-loss", fmt.Sprintf("kernel %s: %v; redistributing across the %d surviving GPU(s)", k.Name, lost, keep))
		case !errors.As(err, &oom):
			return err
		case !r.forceReplicate && r.kernelDistributes(k):
			r.forceReplicate = true
			r.addEvent("oom-fallback", fmt.Sprintf("kernel %s: %v; retrying with distribution disabled (replica placement)", k.Name, oom))
		case len(gpus) > 1:
			gpus = gpus[:len(gpus)-1]
			r.addEvent("oom-fallback", fmt.Sprintf("kernel %s: %v; retrying on %d GPU(s)", k.Name, oom, len(gpus)))
		default:
			r.addEvent("oom-giveup", fmt.Sprintf("kernel %s: %v; ladder exhausted", k.Name, oom))
			r.forceReplicate = false
			return err
		}
		r.rep.Fallbacks++
		degraded = true
		if err := r.resetKernelArrays(k); err != nil {
			return err
		}
	}
	if degraded {
		// A degraded placement must not leak into later launches'
		// reload-skip decisions (a full replica left resident would
		// masquerade as a distributed partition): gather and release,
		// so the next launch reloads with its proper shapes.
		if err := r.resetKernelArrays(k); err != nil {
			return err
		}
		r.forceReplicate = false
	}
	if r.auditing() {
		if err := r.opts.Auditor.AfterLaunch(k, env, r.snapshotCopies(k), r.rep.Total()); err != nil {
			return err
		}
	}
	return nil
}

// kernelDistributes reports whether any of the kernel's arrays would
// place as partitions on the current ladder rung.
func (r *Runtime) kernelDistributes(k *ir.Kernel) bool {
	for _, use := range k.Arrays {
		if r.distributed(use) {
			return true
		}
	}
	return false
}

// resetKernelArrays flushes the kernel's arrays back to the host and
// releases their device copies, leaving the loader free to rebuild
// them from scratch on the next attempt (or launch).
func (r *Runtime) resetKernelArrays(k *ir.Kernel) error {
	for _, use := range k.Arrays {
		st := r.state(use.Decl)
		tr, err := r.gatherToHost(st)
		if err != nil {
			return err
		}
		if err := r.account(tr, &r.rep.CPUGPUTime); err != nil {
			return err
		}
		if err := st.release(); err != nil {
			return err
		}
	}
	return nil
}

// nodeLossReset evacuates every resident array to the host and
// releases all device copies — the node-loss rung's drain step. The
// fault model keeps a lost node's memory readable (the node is
// cordoned, not vaporized), so gathers from its GPUs still succeed;
// only new allocations fail. Arrays are processed in name order: the
// gather transfers are priced.
func (r *Runtime) nodeLossReset() error {
	states := make([]*arrayState, 0, len(r.arrays))
	for _, st := range r.arrays {
		if st != nil {
			states = append(states, st)
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].decl.Name < states[j].decl.Name })
	for _, st := range states {
		tr, err := r.gatherToHost(st)
		if err != nil {
			return err
		}
		if err := r.account(tr, &r.rep.CPUGPUTime); err != nil {
			return err
		}
		if err := st.release(); err != nil {
			return err
		}
	}
	return nil
}

// launchAttempt runs one BSP cycle of the launch on the given device
// subset (always an index-aligned prefix of the machine's GPUs).
func (r *Runtime) launchAttempt(k *ir.Kernel, env *ir.Env, gpus []*sim.Device) error {
	lower, upper := k.Lower(env), k.Upper(env)

	// Phase A — data loader.
	for _, use := range k.Arrays {
		st := r.state(use.Decl)
		switch {
		case !st.present && !st.deviceNewer:
			// No data region governs this array: the host copy is
			// canonical before every launch (the implicit per-loop
			// data movement of OpenACC).
			r.bumpHost(st)
			st.dropRelays()
		case use.Reduced || r.distributed(use):
			// A reduction merge updates every element of every copy, and
			// a partition is read and written outside any replica's read
			// envelope (halo pushes, miss delivery): both start settled.
			st.settle()
		}
	}
	// Resolve the partition and per-GPU needs (cached across launches;
	// resolved after the implicit-movement bumps so the plan's epoch
	// snapshot is the one the loading decisions see).
	parts, needs := r.resolvePlan(k, env, len(gpus), lower, upper)

	// The prepare pass stays serial in (GPU, array) order — device
	// allocations and transfer records feed deterministic fault
	// oracles, so their order is load-bearing — and defers the bulk
	// content copies as per-GPU jobs, which then run concurrently.
	transfers := r.loadTransfers[:0]
	jobs := r.jobScratchFor(len(gpus))
	var loadErr error
loading:
	for g := range gpus {
		for ui, use := range k.Arrays {
			st := r.state(use.Decl)
			var job copyJob
			var err error
			transfers, job, err = r.prepareLoad(st, st.copies[g], needs[g][ui], transfers)
			if job.c != nil {
				jobs[g] = append(jobs[g], job)
			}
			if err != nil {
				loadErr = fmt.Errorf("rt: kernel %s: loading %s on GPU%d: %w", k.Name, use.Decl.Name, g, err)
				break loading
			}
		}
	}
	if loadErr == nil {
		r.catchUpJobs(k, parts, jobs)
	}
	// Copies prepared before a failure still ran in the serial scheme;
	// run them all so a degraded retry resumes from identical state.
	r.runCopyJobs(jobs)
	r.loadTransfers = transfers
	// Transfers performed before a failure still happened: price them
	// so the degraded retry's accounting stays honest.
	if err := r.account(transfers, &r.rep.CPUGPUTime); err != nil {
		return err
	}
	if loadErr != nil {
		return loadErr
	}
	r.sampleMemory()

	// Phase B — kernel execution, fanned out over the GPUs. The
	// specialized executor, when one applies, is resolved on the host
	// strand (its cache is unsynchronized); each GPU's run then decides
	// independently whether its chunk can take the fast path.
	//
	// Results land in per-GPU slots (each run writes only its own
	// index) and merge on the host strand in GPU order after the
	// barrier, so the surfaced error, the report fields and the kernel
	// spans do not depend on goroutine interleaving.
	ex := r.specExecutor(k)
	eff := r.kernelEfficiency(k)
	r.launchScratch(len(gpus))
	partials := r.gpuPartials(k, len(gpus))
	t0 := r.rep.Total()
	wall0 := time.Now()
	sim.FanOut(len(gpus), func(s, g int) {
		dev := gpus[g]
		counters, handled, err := r.runOnGPU(k, env, s, g, dev, parts[g], needs[g], ex, partials[g])
		cost := dev.Spec.KernelCost(counters, eff)
		if r.opts.Mode == ModeBaseline && counters.ReduceOps > 0 {
			// Without the reductiontoarray extension the compiler
			// serializes dynamic array reductions (paper §III-B).
			cost += time.Duration(float64(counters.ReduceOps) / (baselineSerialGOPS * 1e9) * float64(time.Second))
		}
		r.gpuCost[g] = cost
		r.gpuCtrs[g] = counters
		r.gpuErrs[g] = err
		r.gpuSpec[g] = handled
	})
	r.phaseBWall += time.Since(wall0)
	var maxKernel time.Duration
	var total sim.Counters
	for g := range gpus {
		if err := r.gpuErrs[g]; err != nil {
			return fmt.Errorf("rt: kernel %s on GPU%d: %w", k.Name, g, err)
		}
		if r.gpuCost[g] > maxKernel {
			maxKernel = r.gpuCost[g]
		}
		total.Add(r.gpuCtrs[g])
		r.specTally(k, ex, g, r.gpuSpec[g], parts[g].count())
	}
	r.rep.KernelTime += maxKernel
	r.rep.Counters.Add(total)
	ks := r.rep.kernelStats(k.Name)
	ks.Launches++
	ks.Time += maxKernel
	ks.Counters.Add(total)
	// Every GPU's cost is known and error-free: the async scheduler
	// places the launch's kernel nodes on their engine timelines, the
	// synchronous schedule starts them all at the phase's begin.
	begins := r.gpuBegin[:len(gpus)]
	if r.sched != nil {
		r.sched.kernels(k, parts, needs, begins)
	} else {
		for g := range begins {
			begins[g] = t0
		}
	}
	r.emitKernelSpans(k, parts, needs, begins)

	// Phase C — inter-GPU communication manager.
	if err := r.commSync(k, env, gpus, partials); err != nil {
		return err
	}

	// Kernel writes, reduction merges and the communication manager all
	// mutate the copies of written/reduced arrays: advance their write
	// epochs so stale prover value scans cannot be reused.
	for _, use := range k.Arrays {
		if !use.Written && !use.Reduced {
			continue
		}
		for _, c := range r.state(use.Decl).copies {
			c.wepoch++
		}
	}

	// Phase D — arrays outside data regions return to the host after
	// every loop (implicit copy-out).
	out := r.outTransfers[:0]
	for _, use := range k.Arrays {
		st := r.state(use.Decl)
		if !st.present && (use.Written || use.Reduced) {
			tr, err := r.gatherToHost(st)
			if err != nil {
				return err
			}
			out = append(out, tr...)
		}
	}
	r.outTransfers = out
	if err := r.account(out, &r.rep.CPUGPUTime); err != nil {
		return err
	}
	r.sampleMemory()
	return nil
}

// catchUpJobs queues, after the prepare pass, the catch-up of every copy
// that holds relays where its GPU's chunk of the launch reads it
// (readEnvelope). The prepare pass settled every array it reloaded, so
// no catch-up meets a host→device copy job of the same array.
func (r *Runtime) catchUpJobs(k *ir.Kernel, parts []span, jobs [][]copyJob) {
	for g, p := range parts {
		if p.count() == 0 {
			continue
		}
		for _, use := range k.Arrays {
			if c := r.state(use.Decl).copies[g]; use.Read && len(c.relays) > 0 {
				lo, hi := readEnvelope(use, p, c)
				jobs[g] = append(jobs[g], copyJob{c: c, lo: lo, hi: hi, fromPeers: true})
			}
		}
	}
}

// readEnvelope is the physical range [lo,hi) of c that chunk p of the
// launch may read (empty when lo >= hi): the literal-affine read envelope
// of the partition, or the whole residency when the reads are not
// literal-affine.
func readEnvelope(use *ir.ArrayUse, p span, c *gpuCopy) (lo, hi int64) {
	if use.ReadCoef < 1 {
		return 0, c.localLen()
	}
	lo, hi = envelope(use.ReadCoef, use.ReadOffLo, use.ReadOffHi, p, c.lo, c.hi)
	return lo - c.lo, hi - c.lo + 1
}

// emitKernelSpans states one error-free launch's Phase B on the tracer,
// GPU ascending: the GPU's kernel span over [begins[g], begins[g] + its
// cost], then one dirty-mark instant per array whose dirty bits the
// kernel set — they settle as the kernel retires, so the instant sits on
// the span's end, nested inside it. Host strand, after the merge.
func (r *Runtime) emitKernelSpans(k *ir.Kernel, parts []span, needs [][]need, begins []time.Duration) {
	tr := r.opts.Tracer
	if tr == nil {
		return
	}
	for g, p := range parts {
		if p.count() == 0 {
			continue
		}
		kind := trace.KindKernel
		if r.gpuSpec[g] {
			kind = trace.KindSpecKernel
		}
		end := begins[g] + r.gpuCost[g]
		tr.Emit(trace.Span{Kind: kind, Lane: g,
			Begin: begins[g], End: end, Name: k.Name, Lo: p.lo, Hi: p.hi - 1})
		for ui, use := range k.Arrays {
			if nd := needs[g][ui]; nd.wantDirty {
				tr.Emit(trace.Span{Kind: trace.KindDirtyMark, Lane: g,
					Begin: end, End: end, Name: use.Decl.Name, Lo: nd.lo, Hi: nd.hi})
			}
		}
	}
}

// SpecStats is what a run counts about the engine that ran each non-empty
// per-GPU chunk of Phase B. It is the one source of these figures: accrun
// prints it, the differential tests compare it whole, and a traced run
// copies it into the tracer's spec.* metrics when it ends.
type SpecStats struct {
	// Hits counts the chunks the specialized executor handled, Fallbacks
	// those of eligible kernels that bounced to the interpreter.
	Hits, Fallbacks int64
	// SplitPieces counts the pieces the handled chunks of affine-guarded
	// kernels were cut into (index-set splitting): at least one per such
	// chunk, more where a guard changes inside the chunk.
	SplitPieces int64
	// TiledIters counts the iterations that ran in lockstep tiles: every
	// iteration of a handled chunk. HazardLanes counts the lanes a tile
	// handed to the next one, its flat loop having stored into the window
	// its lockstep prefix had loaded (ir.DArray.Hit).
	TiledIters, HazardLanes int64
	// FlatCuts counts the flat tiles of a lane-divergent loop that a
	// store-before-load hazard ended early.
	FlatCuts int64
	// FallbackReasons breaks Fallbacks down by cause ("transform",
	// "miss", "range", "reduction", "indirect", "guard", "fault",
	// "alias").
	FallbackReasons map[string]int64
	// Rejects counts the chunks of kernels the spec compiler rejected
	// outright, by compile-time reason (ir.Kernel.SpecReason).
	Rejects map[string]int64
}

// SpecStats returns the run's engine counts so far. The maps are the
// runtime's own: read them, do not write them.
func (r *Runtime) SpecStats() SpecStats { return r.spec }

// flush adds every non-zero count to m under its spec.* key.
func (s SpecStats) flush(m *trace.Metrics) {
	counts := map[string]int64{
		"spec.hits": s.Hits, "spec.fallbacks": s.Fallbacks, "spec.split_pieces": s.SplitPieces,
		"spec.tiled_iters": s.TiledIters, "spec.hazard_lanes": s.HazardLanes, "spec.flat_cuts": s.FlatCuts,
	}
	for prefix, by := range map[string]map[string]int64{
		"spec.fallbacks.": s.FallbackReasons, "spec.reject.": s.Rejects,
	} {
		for reason, n := range by {
			counts[prefix+reason] = n
		}
	}
	for key, n := range counts {
		if n != 0 {
			m.Inc(key, n)
		}
	}
}

// specTally counts one non-empty per-GPU chunk in r.spec: handled by the
// specialized executor (and how), bounced by it to the interpreter (and
// why), or never eligible because the translator built no spec.
func (r *Runtime) specTally(k *ir.Kernel, ex *specExec, g int, handled bool, chunk int64) {
	st := &r.spec
	switch {
	case chunk == 0:
	case handled:
		gs := &ex.gs[g]
		st.Hits++
		if ex.spec.Guard != nil {
			st.SplitPieces += int64(len(gs.pieces))
		}
		st.TiledIters += chunk
		st.HazardLanes += gs.hazard
		st.FlatCuts += gs.flatCuts
	case ex != nil:
		st.Fallbacks++
		st.FallbackReasons[ex.gs[g].reason]++
	case k.Spec == nil && !r.opts.Reference:
		// Compile-time rejection, tracked apart from runtime fallbacks.
		st.Rejects[k.SpecReason]++
	}
}

// kernelEfficiency picks the cost-model factor for this mode.
func (r *Runtime) kernelEfficiency(k *ir.Kernel) float64 {
	eff := k.Efficiency
	if r.opts.DisableLayoutTransform || r.opts.Mode == ModeBaseline {
		eff = k.EfficiencyBaseline
	}
	if r.opts.Mode == ModeCUDA {
		eff *= cudaHandTuneBonus
		if eff > 1 {
			eff = 1
		}
	}
	return eff
}

// runOnGPU executes one GPU's share of the iteration space and returns
// the work counters and whether the specialized executor handled the
// chunk; redVals, the GPU's scalar-reduction partials, arrive holding
// the identities and leave holding the chunk's folds. The specialized
// executor handles the chunk when its per-GPU conditions hold;
// otherwise the instrumented interpreter runs. s is the FanOut strand
// running the GPU's chunk.
func (r *Runtime) runOnGPU(k *ir.Kernel, env *ir.Env, s, g int, dev *sim.Device, p span, nds []need, ex *specExec, redVals []float64) (sim.Counters, bool, error) {
	n := p.count()
	if n == 0 {
		return sim.Counters{}, false, nil
	}
	if ex != nil {
		counters, handled, err := ex.run(r, k, env, s, g, dev, p, nds, redVals)
		if handled {
			return counters, true, err
		}
	}
	views := r.buildViews(k, env, g, nds)
	counters, err := r.interpretWorkers(k, env.CloneWithViews(views), p.lo, n, dev, redVals)
	// Fold per-lane chunk marks into the shared chunk-dirty array now
	// that the worker strands are done.
	for ui, use := range k.Arrays {
		if nds[ui].wantDirty {
			r.state(use.Decl).copies[g].mergeChunkLanes()
		}
	}
	return counters, false, err
}

// interpretWorkers runs iterations [lo, lo+n) of the kernel through the
// closure interpreter on dev's workers: the engine of every GPU chunk the
// fast path declines and of the whole OpenMP bar, and the reference the
// differential tests hold the fast path against. Each worker runs on its
// own clone of base; redVals arrives holding the scalar reductions'
// identities and leaves with the workers' partials folded in worker
// order — the specialized executor's order — so the result is a pure
// function of the input, whatever the host's parallelism. Each worker
// polls Interrupt every pollIters iterations.
func (r *Runtime) interpretWorkers(k *ir.Kernel, base *ir.Env, lo, n int64, dev *sim.Device, redVals []float64) (sim.Counters, error) {
	for ri, red := range k.ScalarReds {
		setRedSlot(base, red, redVals[ri])
	}
	envs := make([]*ir.Env, min(int64(dev.Spec.Workers), n)) // worker w's, nil past the last
	loopSlot := k.LoopVar.Slot
	counters, err := dev.ForWorkers(int(n), nil, k.SerialWorkers, func(_, w, start, end int) (sim.Counters, error) {
		we := base.Clone()
		we.WorkerID = w
		envs[w] = we
		for it := start; it < end; it++ {
			if (it-start)%pollIters == 0 {
				if err := r.Poll(); err != nil {
					return sim.Counters{}, err
				}
			}
			we.Ints[loopSlot] = lo + int64(it)
			if err := k.Body(we); err != nil {
				if errors.Is(err, ir.ErrLoopContinue) {
					continue // `continue` binding to the parallel loop
				}
				if errors.Is(err, ir.ErrLoopBreak) {
					return sim.Counters{}, fmt.Errorf("line %d: break out of a parallel loop is not allowed", k.Line)
				}
				return sim.Counters{}, err
			}
		}
		return sim.Counters{
			Flops:        we.Flops,
			BytesRead:    we.BytesRead,
			BytesWritten: we.BytesWritten,
			Iterations:   int64(end - start),
			ReduceOps:    we.ReduceOps,
		}, nil
	})
	for _, we := range envs {
		if we == nil {
			break
		}
		for ri, red := range k.ScalarReds {
			redVals[ri] = mergeRed(red, redVals[ri], getRedSlot(we, red))
		}
	}
	return counters, err
}

// buildViews produces the kernel's view table for one GPU: host views
// for untouched arrays, instrumented device views for kernel arrays.
func (r *Runtime) buildViews(k *ir.Kernel, env *ir.Env, g int, nds []need) []ir.ArrayView {
	views := append([]ir.ArrayView(nil), env.Views...)
	for ui, use := range k.Arrays {
		c, nd, v := r.state(use.Decl).copies[g], nds[ui], &views[use.Decl.Slot]
		d := devStore{c, nd.wantDirty, nd.wantMiss}
		lanesF, lanesI := c.lanesF, c.lanesI
		if !nd.wantLanes { // lanes a past launch left stay out of reach
			lanesF, lanesI = nil, nil
		}
		switch use.Decl.Type {
		case cc.TFloat:
			v.F = &devView[float64, float32]{d, c.data.F32, lanesF}
		case cc.TDouble:
			v.F = &devView[float64, float64]{d, c.data.F64, lanesF}
		default:
			v.I = &devView[int64, int32]{d, c.data.I32, lanesI}
		}
	}
	return views
}

// Scalar reduction helpers: partials are carried as float64 (exact for
// the int values the apps produce) and written back per declared type.

// gpuPartials returns one slice of scalar-reduction partials per GPU,
// each reset to the kernel's identities.
func (r *Runtime) gpuPartials(k *ir.Kernel, ngpus int) [][]float64 {
	for len(r.partials) < ngpus {
		r.partials = append(r.partials, nil)
	}
	partials := r.partials[:ngpus]
	for g := range partials {
		vals := partials[g][:0]
		for _, red := range k.ScalarReds {
			if red.Decl.Type == cc.TInt {
				vals = append(vals, float64(red.Op.IdentityI()))
			} else {
				vals = append(vals, red.Op.IdentityF())
			}
		}
		partials[g] = vals
	}
	return partials
}

func setRedSlot(e *ir.Env, red cc.Reduction, v float64) {
	if red.Decl.Type == cc.TInt {
		e.Ints[red.Decl.Slot] = int64(v)
	} else {
		e.Floats[red.Decl.Slot] = v
	}
}

func getRedSlot(e *ir.Env, red cc.Reduction) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(e.Ints[red.Decl.Slot])
	}
	return e.Floats[red.Decl.Slot]
}

func mergeRed(red cc.Reduction, a, b float64) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(red.Op.MergeI(int64(a), int64(b)))
	}
	return red.Op.MergeF(a, b)
}
