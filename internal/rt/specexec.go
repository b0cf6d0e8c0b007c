package rt

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// Specialized kernel executors: the Phase-B fast path.
//
// When the translator produced a KernelSpec for a kernel (see
// ir.BuildKernelSpec), the runtime can run each GPU's share of the
// iteration space directly on the device copies' backing slices instead
// of driving the instrumented closure-tree interpreter. The contract is
// the PR-3 invariance standard: reports, events, transfers and final
// array contents must be bit-identical with the fast path on or off, so
// the executor only runs when it can reproduce the interpreter exactly:
//
//   - Kernel-wide (specExecutor returns nil): no KernelSpec at all, or
//     Options.Reference. Nothing else about the run — schedule, tracer,
//     narration, auditor, fault plan — is consulted.
//   - Per-GPU fallbacks (run returns handled=false): miss-check lanes
//     (distributed writes buffer out-of-partition stores one record at
//     a time), a layout-transformed copy feeding a reduction lane
//     (lanes are logically indexed; the translator transforms no array
//     the module writes or reduces, so no other store meets a
//     column-major copy) or walked with a stride its row width does not
//     divide, an empty resident range on an accessed array, an endpoint
//     range check that fails, a computed access the interval prover
//     cannot place inside the residency, an affine guard whose operands
//     overflow, an index or guard operand that faults, or affine
//     accesses the alias check cannot order — the interpreter then
//     reproduces the exact legacy behaviour, including its
//     partition-violation panic texts.
//
// Beyond affine bodies, the executor covers gather loads (a[idx[i]]),
// guarded stores (top-level if/else arms), inner loops,
// reduction-to-array merges and math intrinsics: computed indices are
// discharged per chunk by the interval prover (ir.SpecProver) with
// min/max value scans of resident index arrays, branch-arm costs are
// charged per observed arm execution, and data-dependent store
// footprints mark their dirty bits one store at a time, in the same
// bitmap the interpreter uses. Layout-transformed copies remap
// logical offsets through DArray.off (the tiled body walks them with a
// physical stride where the row width divides the access stride).
//
// A handled chunk runs tiles (KernelSpec.VecBody: a tile of consecutive
// iterations — straight-line statements, data-dependent arms, gathers and
// uniform inner loops in lockstep, loops that store or whose trips
// diverge as flat tiles, see ir/specflat.go); a lockstep store that must
// mark dirty bits one by one marks from the tile's active-lane list, the
// stores of flat tiles as they commit. A tile whose loop stores into the
// window its own lockstep prefix loaded (BFS) ends after the storing
// lane, and the next tile starts at the lane after it:
// SpecStats.HazardLanes counts the lanes so handed on, FlatCuts the flat
// tiles a store-before-load hazard ended early. A kernel marked
// SerialWorkers (it loads from an array it scatters to) runs its workers
// in worker order on one goroutine, here and on the interpreter, so that
// what it counts does not depend on how the workers interleave.
//
// Affine guards (if (i > 0 && i < n - 1) ...) are not arms: the
// translator compiled one straight-line variant per arm path
// (ir.SpecGuard), and each launch cuts the GPU's chunk at the roots of
// the guard's comparisons into pieces on which the guard is constant.
// Each piece runs its variant's tiles, is range- and alias-checked
// against that variant's accesses only, and is costed and dirty-marked
// in bulk like an unguarded chunk.
//
// What the per-access instrumentation did, the executor reconstructs:
// counters analytically (per-iteration IterCost formulas × iteration
// and arm-taken counts), dirty bits in bulk (each affine store's
// footprint is the arithmetic progression between its endpoint
// indices), and range safety by monotonicity (an affine index over a
// chunk attains its extrema at the chunk's first and last iteration).
type specExec struct {
	spec *ir.KernelSpec
	// poll is the runtime's Poll, called from the worker goroutines.
	poll func() error
	// uiBySlot maps array slots to the kernel's Arrays index (-1 when
	// the slot is not a kernel array: no access of the spec names one).
	uiBySlot []int
	// gs is the per-GPU reusable launch scratch, indexed by GPU.
	gs []specGPU
	// free holds the idle tile scratch, shared by the GPUs. A worker
	// leases one for its run, so the list grows to the number of workers
	// that ran at once — the host's parallelism — not to the number
	// spawned; mu guards it.
	mu   sync.Mutex
	free []*ir.VecEnv
}

// SpecHits, SpecFallbacks, PhaseBWall and FusedLaunches are what
// benchmark/layers.go reads of a finished run, and it is their only
// caller: everything else, the tests included, reads SpecStats.

// SpecHits is SpecStats().Hits.
func (r *Runtime) SpecHits() int64 { return r.spec.Hits }

// SpecFallbacks is SpecStats().Fallbacks.
func (r *Runtime) SpecFallbacks() int64 { return r.spec.Fallbacks }

// PhaseBWall reports the real wall-clock time this runtime has spent
// inside Phase B kernel fan-outs (chunk execution on all GPUs), across
// every launch so far. The paper-app speedup gate compares this figure
// between a specialized and a Reference run of the same app.
func (r *Runtime) PhaseBWall() time.Duration { return r.phaseBWall }

// FusedLaunches is always 0: launch fusion is gone. It stays only until
// its one caller, benchmark/layers.go (rt.fused_launches), drops it.
func (r *Runtime) FusedLaunches() int { return 0 }

// specGPU is one GPU's executor scratch, reused across launches so the
// steady state allocates nothing.
type specGPU struct {
	// envs are the per-worker direct environments.
	envs []*ir.DEnv
	// slots is the ForWorkers result storage.
	slots []sim.WorkerSlot
	// evalEnv evaluates guards and access-index endpoints against the
	// host scalars.
	evalEnv *ir.Env
	// pieces partition this launch's chunk: one piece, running the spec
	// itself, for an unguarded kernel; for a guarded one the sub-ranges
	// on which every guard is constant, each with its variant. cuts is
	// the split's scratch.
	pieces []specPiece
	cuts   []int64
	// branch accumulates arm-taken counts over the workers.
	branch []int64
	// penv is the interval prover's abstract environment (computed-
	// access kernels only); scans memoizes its array scans, scanned
	// counts the elements they read.
	penv    *ir.PEnv
	scans   []scanEntry
	scanned int64
	// reason records why this GPU's chunk bounced to the interpreter
	// ("" when it didn't); read by the host merge after the barrier.
	reason string
	// hazard is how many of this launch's lanes tiles handed to the next
	// tile after a window hit, flatCuts the flat tiles a hazard cut.
	hazard, flatCuts int64
	// work is the ForWorkers callback (runChunk on this slot), built
	// once; lo and chunk are what it needs of the launch at hand: the
	// span's first iteration and the worker chunk length.
	work  func(w, start, end int) (sim.Counters, error)
	lo    int64
	chunk int
}

// lease hands a worker tile scratch for runs of up to chunk iterations.
func (ex *specExec) lease(chunk int) *ir.VecEnv {
	ex.mu.Lock()
	var vm *ir.VecEnv
	if n := len(ex.free); n > 0 {
		vm, ex.free = ex.free[n-1], ex.free[:n-1]
	}
	ex.mu.Unlock()
	if vm == nil {
		vm = ex.spec.NewVecEnv()
	}
	vm.Reserve(chunk)
	return vm
}

func (ex *specExec) release(vm *ir.VecEnv) {
	ex.mu.Lock()
	ex.free = append(ex.free, vm)
	ex.mu.Unlock()
}

// specPiece is the iterations [lo, hi) of a chunk and the body that
// runs them.
type specPiece struct {
	lo, hi int64
	// v is the spec itself, or the guard's variant for this sub-range.
	v *ir.KernelSpec
	// guardFlops is what evaluating the guards costs per iteration here
	// (short-circuiting makes it differ between pieces).
	guardFlops int64
	// offWalk says an affine access walks a column-major copy with a
	// stride its row width does not divide, which the tiles' straight-line
	// loads do not map.
	offWalk bool
	// v0, v1 hold each access's index at the piece's first and last
	// iteration (v.Accesses order; meaningless for computed accesses);
	// accA/accB are the coefficients the tiled body walks with:
	// index(i) = accA*i + accB.
	v0, v1, accA, accB []int64
}

// addPiece appends a piece, reusing the slot's index vectors.
func (gs *specGPU) addPiece(lo, hi int64, v *ir.KernelSpec, guardFlops int64) {
	if len(gs.pieces) < cap(gs.pieces) {
		gs.pieces = gs.pieces[:len(gs.pieces)+1]
	} else {
		gs.pieces = append(gs.pieces, specPiece{})
	}
	pc := &gs.pieces[len(gs.pieces)-1]
	pc.lo, pc.hi, pc.v, pc.guardFlops, pc.offWalk = lo, hi, v, guardFlops, false
	na := len(v.Accesses)
	if cap(pc.v0) < na {
		buf := make([]int64, 4*na)
		pc.v0, pc.v1, pc.accA, pc.accB = buf[:na:na], buf[na:2*na:2*na], buf[2*na:3*na:3*na], buf[3*na:]
	}
	pc.v0, pc.v1, pc.accA, pc.accB = pc.v0[:na], pc.v1[:na], pc.accA[:na], pc.accB[:na]
}

// scanEntry memoizes one min/max value scan of an int array subrange.
// Entries persist across launches and are revalidated against the
// copy's write epoch, so a read-only index array (a CSR row table, a
// neighbor list) is scanned once per content change, not once per
// launch.
type scanEntry struct {
	slot   int
	lo, hi int64
	epoch  int64
	val    ir.Ival
}

// specExecutor resolves the executor for a launch, or nil when the
// whole launch must interpret. Called on the host strand only (the
// cache map is unsynchronized, like the plan cache).
func (r *Runtime) specExecutor(k *ir.Kernel) *specExec {
	if k.Spec == nil || r.opts.Reference {
		return nil
	}
	ex, ok := r.specExecs[k.ID]
	if !ok {
		ex = &specExec{
			spec:     k.Spec,
			poll:     r.Poll,
			uiBySlot: make([]int, k.Spec.NumArrays),
			gs:       make([]specGPU, r.mach.NumGPUs()),
		}
		for slot := range ex.uiBySlot {
			ex.uiBySlot[slot] = -1
		}
		for ui, use := range k.Arrays {
			ex.uiBySlot[use.Decl.Slot] = ui
		}
		r.specExecs[k.ID] = ex
	}
	return ex
}

// run executes one GPU's share on the fast path. handled=false means
// the caller must fall back to the interpreter for this GPU (nothing
// was mutated). On handled=true, redVals has this GPU's scalar
// reduction partials merged in and the returned counters are exactly
// what the interpreter would have accumulated.
func (ex *specExec) run(r *Runtime, k *ir.Kernel, env *ir.Env, g int, dev *sim.Device, p span, nds []need, redVals []float64) (sim.Counters, bool, error) {
	spec := ex.spec
	n := p.count()
	gs := &ex.gs[g]
	gs.reason, gs.hazard, gs.flatCuts = "", 0, 0

	// Structural per-GPU fallbacks. Layout-transformed copies are
	// handled (the direct arrays carry the column-major remap), except
	// under reduction lanes, whose merge addresses logical order.
	for ui := range k.Arrays {
		nd := &nds[ui]
		if nd.transform && nd.wantLanes {
			gs.reason = "transform"
			return sim.Counters{}, false, nil
		}
		if nd.wantMiss {
			gs.reason = "miss"
			return sim.Counters{}, false, nil
		}
	}

	// The chunking ForWorkers will apply: nw workers of up to
	// chunk iterations each.
	workers := dev.Spec.Workers
	if workers > int(n) {
		workers = int(n)
	}
	chunk := (int(n) + workers - 1) / workers
	nw := (int(n) + chunk - 1) / chunk
	ex.ensureScratch(gs, nw)

	if gs.reason = ex.plan(r, k, env, g, gs, p); gs.reason != "" {
		return sim.Counters{}, false, nil
	}

	// Computed accesses: prove every abstract index in-range before any
	// mutation. A failed (or impossible) proof hands the whole chunk to
	// the interpreter, which reproduces the exact legacy behaviour for
	// genuinely out-of-range indices — including its diagnostics.
	if spec.HasComputed && !ex.prove(r, k, env, g, gs, p) {
		return sim.Counters{}, false, nil
	}

	// A piece the tiles cannot run exactly hands the chunk over too: an
	// affine walk across a column-major copy off its stride, or affine
	// accesses the alias check cannot order.
	for pi := range gs.pieces {
		if pc := &gs.pieces[pi]; pc.offWalk {
			gs.reason = "transform"
		} else if !pc.prepVec() {
			gs.reason = "alias"
		}
		if gs.reason != "" {
			return sim.Counters{}, false, nil
		}
	}

	// Worker environments: one per chunk ForWorkers will spawn,
	// with the host scalars, identity reduction slots, zeroed arm
	// counters and the GPU's slices bound by slot.
	// A slot whose stores must mark dirty bits per iteration (some
	// store's footprint is data-dependent: under an arm, in an inner
	// loop, or at a computed index) gets the dirty buffers bound, so the
	// store closures mark exactly what executes. Only a copy the kernel
	// reads can be column-major (DESIGN §6, invariant 6), so every mark
	// lands on a copy in logical order.
	for w := 0; w < nw; w++ {
		de := gs.envs[w]
		copy(de.Ints, env.Ints)
		copy(de.Floats, env.Floats)
		clear(de.Branch)
		de.HazardLanes, de.FlatCuts = 0, 0
		for ri, red := range k.ScalarReds {
			setRedSlotD(de, red, redVals[ri])
		}
		for ui, use := range k.Arrays {
			c := r.state(use.Decl).copies[g]
			da := &de.Arrays[use.Decl.Slot]
			*da = ir.DArray{F32: c.f32, F64: c.f64, I32: c.i32, Base: c.lo}
			if c.transformed {
				da.TWidth, da.TRows = c.width, c.rows
			}
			if nds[ui].wantLanes {
				if c.lanesI != nil {
					da.LaneI = c.lanesI[w]
				} else {
					da.LaneF = c.lanesF[w]
				}
			}
			if nds[ui].wantDirty && spec.InexactStores[use.Decl.Slot] {
				da.Dirty = c.dirty
				da.ChunkLane = c.chunkLanes[w]
				da.ChunkElems = c.chunkElems
			}
		}
	}

	gs.lo, gs.chunk = p.lo, chunk
	_, err := dev.ForWorkers(int(n), gs.slots, k.SerialWorkers, gs.work)
	if err != nil {
		return sim.Counters{}, true, err
	}

	// Merge scalar-reduction partials and arm counts in worker order.
	for ri, red := range k.ScalarReds {
		for w := 0; w < nw; w++ {
			redVals[ri] = mergeRed(red, redVals[ri], getRedSlotD(gs.envs[w], red))
		}
	}
	clear(gs.branch)
	for _, de := range gs.envs[:nw] {
		gs.hazard += de.HazardLanes
		gs.flatCuts += de.FlatCuts
		for j := range gs.branch {
			gs.branch[j] += de.Branch[j]
		}
	}

	// Analytic counters: each piece's per-iteration cost (its body's
	// base cost plus its guards') × its length, plus each arm's
	// per-execution cost × its observed execution count.
	var ctrs sim.Counters
	ctrs.Iterations = n
	for pi := range gs.pieces {
		pc := &gs.pieces[pi]
		addCost(&ctrs, &pc.v.Base, pc.hi-pc.lo)
		ctrs.Flops += pc.guardFlops * (pc.hi - pc.lo)
	}
	for j := range spec.Arms {
		addCost(&ctrs, &spec.Arms[j], gs.branch[j])
	}

	// Dirty marking. Exact stores (affine, unconditional, top-level — in
	// a guarded kernel, every store of every variant) on slots without
	// data-dependent stores mark in bulk, piece by piece: the footprint
	// is the arithmetic progression between the endpoint indices. Slots
	// with any inexact store had the dirty buffers bound above, so the
	// tiles already marked precisely what executed; fold their
	// per-worker chunk lanes now. Either way the interpreter would have
	// charged 2 bytes of dirty-bit traffic per executed store, which the
	// per-slot store counts reproduce exactly (base stores every
	// iteration of their piece, arm stores per observed arm execution).
	for pi := range gs.pieces {
		pc := &gs.pieces[pi]
		for ai := range pc.v.Accesses {
			a := &pc.v.Accesses[ai]
			if a.Kind != ir.AccessStore || !a.Exact() {
				continue
			}
			ui := ex.uiBySlot[a.Slot]
			if !nds[ui].wantDirty || spec.InexactStores[a.Slot] {
				continue
			}
			markDirtyAffine(r.state(k.Arrays[ui].Decl).copies[g], pc.v0[ai], pc.v1[ai], pc.hi-pc.lo)
		}
	}
	for ui, use := range k.Arrays {
		if !nds[ui].wantDirty {
			continue
		}
		slot := use.Decl.Slot
		if spec.InexactStores[slot] {
			r.state(use.Decl).copies[g].mergeChunkLanes()
		}
		var stores int64
		for pi := range gs.pieces {
			pc := &gs.pieces[pi]
			stores += pc.v.Base.Stores[slot] * (pc.hi - pc.lo)
		}
		for j := range spec.Arms {
			stores += spec.Arms[j].Stores[slot] * gs.branch[j]
		}
		ctrs.BytesWritten += 2 * stores
	}
	return ctrs, true, nil
}

// runChunk is one worker's share of a handled chunk: iterations
// [start, end) of the GPU's span, walked through the launch's pieces in
// ascending order, so worker identity, reduction lanes and the order
// scalar reductions fold in are those of the unsplit schedule.
func (ex *specExec) runChunk(gs *specGPU, w, start, end int) (_ sim.Counters, err error) {
	// A tile's inner loops poll too (ir.DEnv.Poll) and, returning no
	// error, unwind an interrupted tile with a panic.
	defer func() {
		if p := recover(); p != nil {
			it, ok := p.(ir.Interrupt)
			if !ok {
				panic(p)
			}
			err = it.Err
		}
	}()
	vm := ex.lease(gs.chunk)
	vm.D = gs.envs[w]
	lo, hi := gs.lo+int64(start), gs.lo+int64(end)
	for pi := range gs.pieces {
		pc := &gs.pieces[pi]
		s, e := max(lo, pc.lo), min(hi, pc.hi)
		// Tiles run in blocks with a poll before each: an interrupted
		// worker stops within one block, and one that starts after the
		// interrupt runs nothing. Like a panicking tile, an interrupted one
		// keeps its scratch. A tile cut short by a window hit is followed
		// by one that starts at the first lane it did not run.
		vm.AccA, vm.AccB = pc.accA, pc.accB
		for s < e {
			if err := ex.poll(); err != nil {
				return sim.Counters{}, err
			}
			for stop := min(e, s+pollTiles*ir.VecTile); s < stop; {
				s += int64(pc.v.VecBody(vm, s, int(min(stop-s, ir.VecTile))))
			}
		}
	}
	ex.release(vm) // a tile that panics keeps its scratch: the list just regrows
	return sim.Counters{}, nil
}

// ensureScratch sizes the per-GPU scratch for a launch of nw workers;
// later launches of the same shape reuse it. Each spawned worker keeps
// its own direct environment (it holds the worker's reduction partials
// and arm counts); tile scratch is leased by the workers that run.
func (ex *specExec) ensureScratch(gs *specGPU, nw int) {
	spec := ex.spec
	if gs.evalEnv == nil {
		gs.evalEnv = &ir.Env{
			Ints:   make([]int64, spec.NumInts),
			Floats: make([]float64, spec.NumFloats),
		}
		gs.branch = make([]int64, len(spec.Arms))
		if spec.Prover != nil {
			gs.penv = spec.Prover.NewPEnv()
		}
		gs.work = func(w, start, end int) (sim.Counters, error) { return ex.runChunk(gs, w, start, end) }
	}
	for w := len(gs.envs); w < nw; w++ {
		de := spec.NewDEnv()
		de.Poll = ex.poll
		gs.envs = append(gs.envs, de)
		gs.slots = append(gs.slots, sim.WorkerSlot{})
	}
}

// plan does everything the fast path must know before it mutates
// anything, on the host environment: it cuts the chunk into pieces and
// range-checks every piece against its own body's accesses. It returns
// the fallback reason, "" when the fast path may run.
func (ex *specExec) plan(r *Runtime, k *ir.Kernel, env *ir.Env, g int, gs *specGPU, p span) (reason string) {
	defer func() {
		// A faulting loop-invariant operand (n / 0 in a guard or an
		// index) must fault inside the kernel, where the interpreter
		// turns it into the launch's error.
		if recover() != nil {
			reason = "fault"
		}
	}()
	spec := ex.spec
	ev := gs.evalEnv
	copy(ev.Ints, env.Ints)
	copy(ev.Floats, env.Floats)
	gs.pieces = gs.pieces[:0]
	if spec.Guard == nil {
		gs.addPiece(p.lo, p.hi, spec, 0)
	} else if !ex.split(gs, p) {
		return "guard"
	}

	// Endpoint range checks: each access's affine index is monotone over
	// a piece, so checking it at the first and last iteration covers the
	// whole piece. A failed check hands the chunk to the interpreter,
	// which reproduces the exact legacy diagnostics (including for
	// accesses a data-dependent branch would never have executed — a
	// conservative, slower-only difference; affine guards are split
	// away, so their arms are checked only where they run).
	for pi := range gs.pieces {
		pc := &gs.pieces[pi]
		for ai := range pc.v.Accesses {
			a := &pc.v.Accesses[ai]
			if !a.Affine {
				continue // discharged by the interval prover
			}
			st := r.state(k.Arrays[ex.uiBySlot[a.Slot]].Decl)
			c := st.copies[g]
			ev.Ints[spec.LoopSlot] = pc.lo
			v0 := a.Index(ev)
			ev.Ints[spec.LoopSlot] = pc.hi - 1
			v1 := a.Index(ev)
			lo, hi := min(v0, v1), max(v0, v1)
			if a.Kind == ir.AccessReduce {
				if lo < 0 || hi >= st.n {
					return "reduction"
				}
			} else if !c.valid || lo < c.lo || hi > c.hi {
				return "range"
			}
			if n := pc.hi - pc.lo; c.transformed && n > 1 && (v1-v0)/(n-1)%c.width != 0 {
				pc.offWalk = true
			}
			pc.v0[ai], pc.v1[ai] = v0, v1
		}
	}
	return ""
}

// split cuts a guarded kernel's chunk at the roots of the guard's
// comparisons, so that every comparison — hence every guard, the
// variant it selects and what evaluating it costs — is constant on each
// piece, and records one piece per run of equal (variant, cost), both
// read off the interpreter's own conditions at the piece's first
// iteration; false (overflowing operands) means fall back.
func (ex *specExec) split(gs *specGPU, p span) bool {
	guard, ev, loopSlot := ex.spec.Guard, gs.evalEnv, ex.spec.LoopSlot
	n := p.count()
	cuts := gs.cuts[:0]
	for ai := range guard.Atoms {
		a := &guard.Atoms[ai]
		ev.Ints[loopSlot] = p.lo
		x0, y0 := a.X(ev), a.Y(ev)
		ev.Ints[loopSlot] = p.lo + 1
		x1, y1 := a.X(ev), a.Y(ev)
		var ok bool
		if cuts, ok = guardCuts(cuts, a.Op, x1-x0, x0, y1-y0, y0, n); !ok {
			return false
		}
	}
	cuts = append(cuts, n)
	slices.Sort(cuts)
	gs.cuts = cuts
	selectAt := func(i int64) (int, int64) {
		ev.Ints[loopSlot], ev.Flops = i, 0
		return guard.Select(ev), ev.Flops
	}
	lo := p.lo
	for _, t := range cuts {
		hi := p.lo + t
		if hi == lo {
			continue // two comparisons with the same root
		}
		vi, cost := selectAt(lo)
		v := guard.Variants[vi]
		if last := len(gs.pieces) - 1; last >= 0 && gs.pieces[last].v == v && gs.pieces[last].guardFlops == cost {
			gs.pieces[last].hi = hi
		} else {
			gs.addPiece(lo, hi, v, cost)
		}
		lo = hi
	}
	return true
}

// guardCuts appends the offsets t in (0, n) at which the truth of
// (ax*t + bx) op (ay*t + by) may change as t runs over [0, n): one cut
// for an inequality, the root and its successor for == and !=, none
// when the difference has no root in range. ok is false when a side, or
// the difference of the sides, might leave int64 inside the range: the
// interpreter compares wrapped values, which no cut describes.
func guardCuts(cuts []int64, op string, ax, bx, ay, by, n int64) ([]int64, bool) {
	a, okA := subOK(ax, ay)
	b, okB := subOK(bx, by)
	if !okA || !okB || b == math.MinInt64 ||
		!affineFits(ax, bx, n-1) || !affineFits(ay, by, n-1) || !affineFits(a, b, n-1) {
		return cuts, false
	}
	if a == 0 {
		return cuts, true
	}
	if a < 0 {
		// Negate the difference and mirror the comparison.
		a, b = -a, -b
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	// a*t + b is increasing; its root is r = -b/a.
	add := func(c int64) {
		if c > 0 && c < n {
			cuts = append(cuts, c)
		}
	}
	switch op {
	case ">", "<=": // first t with a*t + b > 0: floor(r) + 1
		if q := floorDiv(-b, a); q < n {
			add(q + 1)
		}
	case ">=", "<": // first t with a*t + b >= 0: ceil(r)
		add(-floorDiv(b, a))
	default: // == and != change at an integer root and just after it
		if b%a == 0 {
			if q := -b / a; q < n {
				add(q)
				add(q + 1)
			}
		}
	}
	return cuts, true
}

// floorDiv is x/a rounded toward minus infinity, for a > 0.
func floorDiv(x, a int64) int64 {
	q := x / a
	if x%a != 0 && x < 0 {
		q--
	}
	return q
}

// subOK is x - y, and whether it fits int64.
func subOK(x, y int64) (int64, bool) {
	d := x - y
	return d, (x >= y) == (d >= 0)
}

// affineFits reports that a*t + b fits int64 for every t in [0, tmax].
func affineFits(a, b, tmax int64) bool {
	if a == math.MinInt64 {
		return false
	}
	hi, lo := bits.Mul64(uint64(max(a, -a)), uint64(tmax))
	if hi != 0 || lo > math.MaxInt64 {
		return false
	}
	at := int64(lo)
	if a < 0 {
		at = -at
	}
	s := b + at
	return (at >= 0) == (s >= b)
}

// prove discharges every computed access for this GPU's chunk: the
// interval prover walks the abstract body over [p.lo, p.hi-1] with
// scalar seeds from the host environment and value intervals of
// read-only int arrays resolved by memoized min/max scans; each recorded
// computed-access interval must then lie inside the copy's residency
// (reduces: the logical array). The first walk answers every load from
// one scan of the array's whole residency — a sound superset of any
// subrange, and the abstract loops ask for many, widening step by step —
// so each resident element is read at most once per content; only when
// that proof fails does a second walk scan the exact subranges. False
// means fall back (gs.reason set); nothing was mutated.
func (ex *specExec) prove(r *Runtime, k *ir.Kernel, env *ir.Env, g int, gs *specGPU, p span) bool {
	spec := ex.spec
	pe := gs.penv
	exact, widened := false, false
	pe.Load = func(slot int, idx ir.Ival) ir.Ival {
		// The prover asks only for arrays the kernel never writes (a scan
		// of one it mutates would be stale at once: ir answers Top itself).
		c := r.state(k.Arrays[ex.uiBySlot[slot]].Decl).copies[g]
		if !c.valid || c.i32 == nil || idx.Lo < c.lo || idx.Hi > c.hi {
			// The load's own recorded access interval — unbounded, or past
			// the residency — fails its range check below, so an unbounded
			// value costs nothing extra.
			return ir.IvalTop()
		}
		lo, hi := idx.Lo, idx.Hi
		if !exact || c.transformed {
			// The whole residency: what the first walk settles for, and
			// all a column-major copy offers (logical→physical permutes
			// the residency, so no logical subrange is a physical one).
			widened = widened || !c.transformed && (lo != c.lo || hi != c.hi)
			lo, hi = c.lo, c.hi
		}
		ent := (*scanEntry)(nil)
		for i := range gs.scans {
			s := &gs.scans[i]
			if s.slot == slot && s.lo == lo && s.hi == hi {
				if s.epoch == c.wepoch {
					return s.val
				}
				ent = s // stale content: rescan in place
				break
			}
		}
		if ent == nil {
			gs.scans = append(gs.scans, scanEntry{slot: slot, lo: lo, hi: hi})
			ent = &gs.scans[len(gs.scans)-1]
		}
		// min and max compile to conditional moves: no branch on the data.
		vals := c.i32[lo-c.lo : hi-c.lo+1]
		vlo, vhi := vals[0], vals[0]
		for _, x := range vals[1:] {
			vlo, vhi = min(vlo, x), max(vhi, x)
		}
		gs.scanned += int64(len(vals))
		ent.epoch, ent.val = c.wepoch, ir.Ival{Lo: int64(vlo), Hi: int64(vhi)}
		return ent.val
	}
	defer func() { pe.Load = nil }()
	for ; ; exact = true {
		widened = false
		spec.Prover.Prove(pe, env, p.lo, p.hi-1)
		if gs.reason = ex.checkProof(r, k, g, gs); gs.reason == "" || !widened {
			return gs.reason == ""
		}
	}
}

// checkProof holds every computed access's proven interval against the
// copy's residency; it returns the fallback reason, "" when all fit.
func (ex *specExec) checkProof(r *Runtime, k *ir.Kernel, g int, gs *specGPU) string {
	for ai := range ex.spec.Accesses {
		a := &ex.spec.Accesses[ai]
		if a.Affine {
			continue
		}
		iv := gs.penv.Access[ai]
		st := r.state(k.Arrays[ex.uiBySlot[a.Slot]].Decl)
		if a.Kind == ir.AccessReduce {
			if !iv.Bounded() || iv.Lo < 0 || iv.Hi >= st.n {
				return "indirect"
			}
		} else if c := st.copies[g]; !c.valid || !iv.Bounded() || iv.Lo < c.lo || iv.Hi > c.hi {
			return "indirect"
		}
	}
	return ""
}

// prepVec derives each access's affine coefficients over the piece from
// its endpoint values and decides whether the tiles' statement-blocked
// schedule is element-equivalent to the iteration-by-iteration one.
// Two accesses of the same array may be reordered against each other
// only if they provably hit the same element every iteration (program
// order is then preserved per element) or provably disjoint element
// sets. Reduce accesses write per-worker lanes, not the array, and a
// tiled body has one per target, so they interfere with nothing. Left
// out, because the tile builder's static rules cover them
// (ir.vecBuilder.scan): computed accesses, and stores inside a flat loop,
// which face only their own loop — run in iteration order — and watched
// prefix loads.
func (pc *specPiece) prepVec() bool {
	n := pc.hi - pc.lo
	acc := pc.v.Accesses
	for ai := range pc.v0 {
		var A int64
		if n > 1 && acc[ai].Affine {
			A = (pc.v1[ai] - pc.v0[ai]) / (n - 1)
		}
		pc.accA[ai] = A
		pc.accB[ai] = pc.v0[ai] - A*pc.lo
	}
	if n == 1 {
		return true // one iteration (a boundary piece): nothing to reorder
	}
	for i := range acc {
		for j := i + 1; j < len(acc); j++ {
			if acc[i].Slot != acc[j].Slot || !acc[i].Affine || !acc[j].Affine {
				continue
			}
			ki, kj := acc[i].Kind, acc[j].Kind
			if !(ki == ir.AccessStore && acc[i].FlatLoop == 0 && kj != ir.AccessReduce ||
				kj == ir.AccessStore && acc[j].FlatLoop == 0 && ki != ir.AccessReduce) {
				continue
			}
			ai, bi := pc.accA[i], pc.accB[i]
			aj, bj := pc.accA[j], pc.accB[j]
			if ai == aj && bi == bj && ai != 0 {
				continue // same element every iteration
			}
			if vecDisjoint(pc.v0[i], pc.v1[i], pc.v0[j], pc.v1[j], ai, aj, bi, bj) {
				continue
			}
			return false
		}
	}
	return true
}

// vecDisjoint reports that two affine access footprints share no
// element: separated ranges, or equal nonzero strides whose offset
// difference is not a multiple of the stride.
func vecDisjoint(v0i, v1i, v0j, v1j, ai, aj, bi, bj int64) bool {
	if max(v0i, v1i) < min(v0j, v1j) || max(v0j, v1j) < min(v0i, v1i) {
		return true
	}
	return ai == aj && ai != 0 && (bi-bj)%ai != 0
}

// addCost accumulates c×times into the launch counters.
func addCost(ctrs *sim.Counters, c *ir.IterCost, times int64) {
	ctrs.Flops += c.Flops * times
	ctrs.BytesRead += c.BytesRead * times
	ctrs.BytesWritten += c.BytesWritten * times
	ctrs.ReduceOps += c.ReduceOps * times
}

// markDirtyAffine marks the footprint of one store access: the
// arithmetic progression from v0 to v1 over iters iterations (logical
// element indices; the copy is untransformed, so physical offset =
// logical − lo). A unit step or a single element is one span, a wider
// step one dirty byte per element; either way each chunk it touches gets
// its bit.
func markDirtyAffine(c *gpuCopy, v0, v1, iters int64) {
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	p0, p1 := v0-c.lo, v1-c.lo
	if iters == 1 || p0 == p1 || (p1-p0)/(iters-1) == 1 {
		c.addSpan(p0, p1+1)
		// Contiguous, so every chunk in the range holds a store.
		for ch := p0 / c.chunkElems; ch <= p1/c.chunkElems; ch++ {
			c.chunkDirty[ch] |= chunkSpan
		}
		return
	}
	for p, step := p0, (p1-p0)/(iters-1); p <= p1; p += step {
		c.dirty[p] = 1
		c.chunkDirty[p/c.chunkElems] |= chunkBytes
	}
}

// setRedSlotD / getRedSlotD mirror setRedSlot/getRedSlot for direct
// environments.
func setRedSlotD(e *ir.DEnv, red cc.Reduction, v float64) {
	if red.Decl.Type == cc.TInt {
		e.Ints[red.Decl.Slot] = int64(v)
	} else {
		e.Floats[red.Decl.Slot] = v
	}
}

func getRedSlotD(e *ir.DEnv, red cc.Reduction) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(e.Ints[red.Decl.Slot])
	}
	return e.Floats[red.Decl.Slot]
}
