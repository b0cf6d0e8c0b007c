package rt

import (
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Launch-plan cache (host-side performance layer): the one cache in front
// of a launch. Iterative apps (MD, KMEANS, the HOTSPOT2D ping-pong)
// relaunch identical kernels hundreds of times; the partition (equal or,
// under BalanceLoad, weighted by footprint) and the per-GPU needs
// (bounds-form footprints included, each one pass over the iteration
// space) are pure functions of the kernel, the active device count, the
// degradation rung, the loop bounds, the host scalars the
// localaccess/width expressions read, and — for bounds-form footprints —
// host array content. The cache stores the resolved plan keyed by the
// first three and validates the rest on every hit, so a stale plan can
// never be served:
//
//   - loop bounds are re-evaluated and compared (they are one closure
//     call each);
//   - every stride-form localaccess re-evaluates Stride/Left/Right and
//     every transform array re-evaluates Width; the values must match
//     the ones the plan was built from;
//   - the global hostEpoch must match, which covers bounds-form
//     footprints and BalanceLoad's weights (their inputs only change
//     when host array content changes, and every legal content change
//     calls bumpHost). The epoch also invalidates after gathers, update
//     directives, region entries and the degradation ladder's
//     resetKernelArrays.
//
// Degraded retries additionally miss by construction: the active GPU
// count and the forceReplicate rung are part of the key. Nothing below
// the plan memoizes: Options.Reference recomputes all of it, footprints
// and weights included, on every launch.
type planKey struct {
	kernel    int
	ngpus     int
	replicate bool
}

// launchPlan is one cached resolution plus the inputs it descends from.
type launchPlan struct {
	lower, upper int64
	epoch        int64
	scalars      []int64
	parts        []span
	needs        [][]need
}

// planScalars appends the evaluated env-dependent scalar inputs of the
// kernel's plan, in a fixed order (per array use: stride form's
// Stride/Left/Right, then the transform Width).
func (r *Runtime) planScalars(k *ir.Kernel, env *ir.Env, dst []int64) []int64 {
	for _, use := range k.Arrays {
		if use.Local != nil && use.Local.HasStride {
			dst = append(dst, use.Local.Stride(env), use.Local.Left(env), use.Local.Right(env))
		}
		if r.transformActive(use) {
			dst = append(dst, use.Width(env))
		}
	}
	return dst
}

func scalarsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resolvePlan returns the partition and per-GPU needs for this launch,
// serving a validated cached plan when one exists. The returned slices
// are owned by the cache: callers must treat them as read-only.
func (r *Runtime) resolvePlan(k *ir.Kernel, env *ir.Env, ngpus int, lower, upper int64) ([]span, [][]need) {
	if r.opts.Reference {
		return r.computePlan(k, env, ngpus, lower, upper)
	}
	key := planKey{kernel: k.ID, ngpus: ngpus, replicate: r.forceReplicate}
	if pl, ok := r.planCache[key]; ok &&
		pl.lower == lower && pl.upper == upper && pl.epoch == r.hostEpoch {
		r.scalarScratch = r.planScalars(k, env, r.scalarScratch[:0])
		if scalarsEqual(r.scalarScratch, pl.scalars) {
			r.planEvent(k, "hit")
			return pl.parts, pl.needs
		}
	}
	parts, needs := r.computePlan(k, env, ngpus, lower, upper)
	r.planCache[key] = &launchPlan{
		lower: lower, upper: upper, epoch: r.hostEpoch,
		scalars: r.planScalars(k, env, nil),
		parts:   parts, needs: needs,
	}
	r.planEvent(k, "miss")
	return parts, needs
}

// planEvent records one plan-cache consultation as an instant span on
// the host lane plus a hit/miss counter.
func (r *Runtime) planEvent(k *ir.Kernel, outcome string) {
	tr := r.opts.Tracer
	if tr == nil {
		return
	}
	if outcome == "hit" {
		tr.Metrics().Inc("plan.hits", 1)
	} else {
		tr.Metrics().Inc("plan.misses", 1)
	}
	now := r.rep.Total()
	tr.Emit(trace.Span{Kind: trace.KindPlanCache, Lane: trace.LaneHost,
		Begin: now, End: now, Name: k.Name, Lo: 0, Hi: -1, Detail: outcome})
}

// computePlan builds the partition and needs from scratch — the exact
// serial computation the pre-cache runtime performed every launch.
func (r *Runtime) computePlan(k *ir.Kernel, env *ir.Env, ngpus int, lower, upper int64) ([]span, [][]need) {
	parts := r.partitionTopo(lower, upper, ngpus)
	if r.opts.BalanceLoad {
		if bal := r.balancedPartition(k, env, lower, upper, ngpus); bal != nil {
			parts = bal
		}
	}
	needs := make([][]need, ngpus)
	for g := 0; g < ngpus; g++ {
		needs[g] = make([]need, len(k.Arrays))
		for ui, use := range k.Arrays {
			needs[g][ui] = r.computeNeed(k, use, env, parts[g], r.state(use.Decl), ngpus)
		}
	}
	return parts, needs
}

// copyJob is one deferred host→device content copy: the serial prepare
// pass makes every allocation and accounting decision (so the fault
// oracles observe the exact legacy order), and the bulk element
// movement — the actual hot loop — runs later, fanned out per GPU.
type copyJob struct {
	st     *arrayState
	c      *gpuCopy
	lo, hi int64 // inclusive logical range, == the copy's resident range
}

func (j copyJob) run() {
	c, host := j.c, j.st.host
	c.wepoch++
	if !c.transformed {
		// Untransformed copies store element i at physical offset
		// i - c.lo, and the typed slices match the host mirror's (both
		// switch on the declared type), so the copy is one memmove.
		off := j.lo - c.lo
		n := j.hi - j.lo + 1
		switch {
		case c.f32 != nil:
			copy(c.f32[off:off+n], host.F32[j.lo:j.hi+1])
		case c.f64 != nil:
			copy(c.f64[off:off+n], host.F64[j.lo:j.hi+1])
		default:
			copy(c.i32[off:off+n], host.I32[j.lo:j.hi+1])
		}
		return
	}
	if n := j.hi - j.lo + 1; j.lo != c.lo || n != c.rows*c.width {
		for i := j.lo; i <= j.hi; i++ {
			c.storeF(c.phys(i), hostLoadF(host, i))
		}
		return
	}
	// A column-major copy filled whole is a transpose of the host rows.
	switch {
	case c.f32 != nil:
		transpose(c.f32, host.F32[j.lo:j.hi+1], c.rows, c.width)
	case c.f64 != nil:
		transpose(c.f64, host.F64[j.lo:j.hi+1], c.rows, c.width)
	default:
		transpose(c.i32, host.I32[j.lo:j.hi+1], c.rows, c.width)
	}
}

// transpose stores the rows×width row-major src column-major into dst.
func transpose[T any](dst, src []T, rows, width int64) {
	for row := int64(0); row < rows; row++ {
		for col, x := range src[row*width : (row+1)*width] {
			dst[int64(col)*rows+row] = x
		}
	}
}

// runCopyJobs executes the launch's deferred content copies, one
// worker per GPU. Safety argument: each job writes only its own
// gpuCopy's storage (jobs for one GPU run in order on one goroutine;
// different GPUs hold disjoint buffers) and reads only host mirrors,
// which nothing mutates between the serial prepare pass and here — a
// launch gathers an array to the host at most once, and always before
// any copy job for that array is queued (prepareLoad gathers exactly
// when deviceNewer && !covered, which clears deviceNewer for the rest
// of the pass).
func (r *Runtime) runCopyJobs(jobs [][]copyJob) {
	any := false
	for _, js := range jobs {
		if len(js) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	sim.FanOut(len(jobs), func(g int) {
		for _, j := range jobs[g] {
			j.run()
		}
	})
}

// jobScratchFor returns the per-GPU job lists sized for this launch,
// emptied but with their capacity retained across launches.
func (r *Runtime) jobScratchFor(ngpus int) [][]copyJob {
	for len(r.jobs) < ngpus {
		r.jobs = append(r.jobs, nil)
	}
	js := r.jobs[:ngpus]
	for g := range js {
		js[g] = js[g][:0]
	}
	return js
}

// diffScratchFor returns the per-source diff slots for a replicated
// sync, reset but with their capacity retained.
func (r *Runtime) diffScratchFor(ngpus int) []srcDiff {
	for len(r.diffs) < ngpus {
		r.diffs = append(r.diffs, srcDiff{})
	}
	ds := r.diffs[:ngpus]
	for g := range ds {
		ds[g].runs = ds[g].runs[:0]
		ds[g].transfers = ds[g].transfers[:0]
	}
	if cap(r.diffLists) < ngpus {
		r.diffLists = make([][]span, 0, ngpus)
		r.diffIdx = make([]int, 0, ngpus)
	}
	return ds
}
