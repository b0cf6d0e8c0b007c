package rt

import (
	"fmt"
	"time"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// Cross-kernel launch fusion, runtime half (the translator half marks
// candidate pairs via Kernel.FuseNext). A fused launch runs both
// kernels' Phase B chunks in one per-GPU fan-out — each GPU executes
// its k1 chunk then its k2 chunk in one run — saving a host barrier and
// a fan-out round per pair. Everything else is a
// wall-clock-only rearrangement: the virtual-time accounting, the
// report, the plan cache, the fault-oracle consumption order and the
// final array contents are bit-identical to launching the pair
// sequentially. That invariance is what keeps the async-vs-sync and
// ablation equivalence suites oblivious to whether fusion fired, and
// the fused-vs-DisableFusion A/B test pins it directly.
//
// The sequential-identity argument needs three ingredient proofs,
// checked per launch before committing:
//
//  1. k2's Phase A must be a complete no-op — no implicit host bumps
//     (every k2 array resident or device-newer), a plan-cache
//     resolution whose inputs cannot have changed (host epoch and
//     scalars are untouched between the launches), and a load pass
//     that provably moves no bytes and allocates nothing (loadIsNoop
//     mirrors prepareLoad's skip conditions). Then performing that
//     Phase A early, before k1's Phase B, has exactly the effects the
//     sequential schedule produces, in the same order.
//  2. k1's Phase D must be a no-op (all written arrays inside data
//     regions), so no gather mutates host content or epochs between
//     the early k2 resolution and its sequential position.
//  3. The pair is declaration-disjoint (translator gate): no device
//     copy either kernel touches is mutated by the other kernel or by
//     its communication step, so k2 chunks running before k1's
//     commSync on other GPUs read and write exactly the bytes they
//     would have sequentially.
//
// Gates also exclude every observer that could see the reordering:
// text tracing and the span tracer (span/metric order would shift),
// the auditor (per-launch oracle), the async scheduler (which owns
// overlap), load balancing (k2's partition would have used k1's
// measured costs), and degraded rungs.

// fuseCandidate applies the cheap per-launch gates and returns the
// fusion partner, or nil.
func (r *Runtime) fuseCandidate(k *ir.Kernel, gpus []*sim.Device) *ir.Kernel {
	k2 := k.FuseNext
	if k2 == nil || r.opts.DisableFusion || r.opts.Mode != ModeMultiGPU ||
		r.sched != nil || r.auditing() ||
		r.opts.Trace != nil || r.opts.Tracer != nil ||
		r.opts.BalanceLoad ||
		r.forceReplicate || len(gpus) != len(r.gpus()) {
		return nil
	}
	return k2
}

// loadIsNoop reports that prepareLoad(st, c, nd, …) would move no
// bytes, allocate nothing on the device and perform no gather — only
// bookkeeping. It mirrors prepareLoad's and ensureAuxiliaries' skip
// conditions exactly.
func (r *Runtime) loadIsNoop(st *arrayState, c *gpuCopy, nd need) bool {
	if nd.hi < nd.lo {
		return true // empty partition: prepareLoad only clears the core
	}
	covered := c.valid && c.lo <= nd.lo && c.hi >= nd.hi &&
		c.transformed == nd.transform && (!nd.transform || c.width == nd.width)
	if !covered {
		return false // realloc (and possibly a gather) ahead
	}
	fresh := c.version == st.hostVersion
	if !fresh && !st.deviceNewer {
		return false // content reload ahead
	}
	if fresh && r.opts.DisableReloadSkip && !st.deviceNewer {
		return false // ablation forces the reload
	}
	if nd.wantLanes {
		return false // reduction lanes are rebuilt every launch
	}
	if nd.wantDirty {
		chunkElems := r.opts.ChunkBytes / st.elemSize
		if chunkElems < 1 {
			chunkElems = 1
		}
		local := c.localLen()
		if c.dirty == nil || int64(len(c.dirty)) != local || c.chunkElems != chunkElems {
			return false
		}
		if len(c.chunkLanes) != c.dev.Spec.Workers {
			return false
		}
	}
	if nd.wantMiss && c.missBuf == nil {
		return false
	}
	return true
}

// launchFused attempts the fused execution of k1 (whose Phase A just
// completed) and k2. It returns handled=false, with no observable
// state change beyond a (sequentially identical) plan-cache fill, when
// a residency or no-op proof fails — the caller then proceeds with the
// normal unfused Phase B. When handled, the caller returns err
// directly: phases B–D of k1 and A–D of k2 are done, and the next
// Launch(k2) call reduces to its entry bookkeeping.
func (r *Runtime) launchFused(k1, k2 *ir.Kernel, env *ir.Env, gpus []*sim.Device, parts1 []span, needs1 [][]need) (bool, error) {
	// Ingredient 2: k1's implicit copy-out must be a no-op.
	for _, use := range k1.Arrays {
		if (use.Written || use.Reduced) && !r.state(use.Decl).present {
			return false, nil
		}
	}
	// Ingredient 1a: k2's implicit copy-in bumps must not fire.
	for _, use := range k2.Arrays {
		st := r.state(use.Decl)
		if !st.present && !st.deviceNewer {
			return false, nil
		}
	}
	// Ingredient 1b: resolve k2's plan now. Host epoch, bounds and
	// scalars cannot change before the sequential resolution point
	// (gates above), so the resolution — and the cache entry it may
	// fill — is the one the sequential schedule produces.
	lower2, upper2 := k2.Lower(env), k2.Upper(env)
	parts2, needs2 := r.resolvePlan(k2, env, len(gpus), lower2, upper2)
	// Ingredient 1c: the load pass must provably move nothing.
	for g := range gpus {
		for ui, use := range k2.Arrays {
			st := r.state(use.Decl)
			if !r.loadIsNoop(st, st.copies[g], needs2[g][ui]) {
				return false, nil
			}
		}
	}

	// Commit. k2's Phase A bookkeeping runs now, exactly as the
	// sequential launch would run it: prepareLoad performs the core
	// assignments and auxiliary resets (transfer- and allocation-free
	// by the proof above; k1 touches none of k2's copies in between).
	transfers := r.loadTransfers[:0]
	for g := range gpus {
		for ui, use := range k2.Arrays {
			st := r.state(use.Decl)
			var err error
			transfers, _, err = r.prepareLoad(st, st.copies[g], needs2[g][ui], transfers)
			if err != nil {
				return true, fmt.Errorf("rt: kernel %s: loading %s on GPU%d: %w", k2.Name, use.Decl.Name, g, err)
			}
		}
	}
	r.loadTransfers = transfers
	if err := r.account(transfers, &r.rep.CPUGPUTime); err != nil {
		return true, err
	}

	// Phase B — one fan-out for both kernels. Each GPU runs its k1
	// chunk then its k2 chunk; results land in separate per-GPU slot
	// sets and merge on the host strand in GPU order, kernel by
	// kernel, so everything downstream is interleaving-independent.
	ex1, ex2 := r.specExecutor(k1), r.specExecutor(k2)
	eff1, eff2 := r.kernelEfficiency(k1), r.kernelEfficiency(k2)
	r.launchScratch(len(gpus))
	r.fusedScratch(len(gpus))
	partials1 := gpuPartials(k1, &r.partials, len(gpus))
	partials2 := gpuPartials(k2, &r.partials2, len(gpus))
	wall0 := time.Now()
	sim.FanOut(len(gpus), func(g int) {
		dev := gpus[g]
		c1, h1, err1 := r.runOnGPU(k1, env, g, dev, parts1[g], needs1[g], ex1, partials1[g])
		r.gpuCost[g] = dev.Spec.KernelCost(c1, eff1)
		r.gpuCtrs[g], r.gpuErrs[g], r.gpuSpec[g] = c1, err1, h1
		if err1 != nil {
			return // sequential schedule would never start k2
		}
		c2, h2, err2 := r.runOnGPU(k2, env, g, dev, parts2[g], needs2[g], ex2, partials2[g])
		r.gpuCost2[g] = dev.Spec.KernelCost(c2, eff2)
		r.gpuCtrs2[g], r.gpuErrs2[g], r.gpuSpec2[g] = c2, err2, h2
	})
	r.phaseBWall += time.Since(wall0)

	// k1's epilogue: merge, communication step, write epochs, copy-out
	// (a no-op by ingredient 2) — verbatim the sequential sequence, so
	// every account() call and event lands at its sequential position.
	if err := r.fusedEpilogue(k1, env, gpus, parts1, ex1, r.gpuCost, r.gpuCtrs, r.gpuErrs, r.gpuSpec, partials1); err != nil {
		return true, err
	}
	// k2's epilogue. On a k2 chunk error the sequential schedule has
	// already entered Launch(k2); mirror its entry bookkeeping before
	// surfacing the error (the skip in Launch never runs then).
	if err := r.fusedEpilogue(k2, env, gpus, parts2, ex2, r.gpuCost2, r.gpuCtrs2, r.gpuErrs2, r.gpuSpec2, partials2); err != nil {
		r.kernelExecs[k2.ID]++
		r.rep.KernelLaunches++
		return true, err
	}
	r.fusedLaunches++
	r.fusedDone = k2
	return true, nil
}

// fusedEpilogue is phases B-merge through D for one kernel of a fused
// pair, replicating launchAttempt's epilogue statement for statement
// (minus the tracer and scheduler branches, which the fusion gates
// exclude).
func (r *Runtime) fusedEpilogue(k *ir.Kernel, env *ir.Env, gpus []*sim.Device, parts []span, ex *specExec,
	costs []time.Duration, ctrs []sim.Counters, errs []error, handled []bool, partials [][]float64) error {
	var maxKernel time.Duration
	var total sim.Counters
	for g := range gpus {
		if err := errs[g]; err != nil {
			return fmt.Errorf("rt: kernel %s on GPU%d: %w", k.Name, g, err)
		}
		if costs[g] > maxKernel {
			maxKernel = costs[g]
		}
		total.Add(ctrs[g])
		r.specTally(k, ex, g, handled[g], parts[g].count())
	}
	r.rep.KernelTime += maxKernel
	r.rep.Counters.Add(total)
	ks := r.rep.kernelStats(k.Name)
	ks.Launches++
	ks.Time += maxKernel
	ks.Counters.Add(total)

	// Phase C — inter-GPU communication manager.
	if err := r.commSync(k, env, gpus, partials); err != nil {
		return err
	}
	for _, use := range k.Arrays {
		if !use.Written && !use.Reduced {
			continue
		}
		for _, c := range r.state(use.Decl).copies {
			c.wepoch++
		}
	}

	// Phase D — implicit copy-out (for k1 provably empty; for k2 it
	// runs at exactly its sequential position).
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

// fusedScratch sizes and clears the second per-GPU result slot set
// used for the trailing kernel of a fused pair.
func (r *Runtime) fusedScratch(n int) {
	for len(r.gpuCost2) < n {
		r.gpuCost2 = append(r.gpuCost2, 0)
		r.gpuCtrs2 = append(r.gpuCtrs2, sim.Counters{})
		r.gpuErrs2 = append(r.gpuErrs2, nil)
		r.gpuSpec2 = append(r.gpuSpec2, false)
	}
	for g := 0; g < n; g++ {
		r.gpuCost2[g], r.gpuCtrs2[g], r.gpuErrs2[g], r.gpuSpec2[g] = 0, sim.Counters{}, nil, false
	}
}

// FusedLaunches returns how many launch pairs executed fused. Not part
// of the Report: fusion is a wall-clock optimization whose accounting
// is defined to be invisible, and the async scheduler never fuses.
func (r *Runtime) FusedLaunches() int { return r.fusedLaunches }
