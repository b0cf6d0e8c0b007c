// Package rt is the multi-GPU OpenACC runtime of the reproduction: the
// paper's data loader, inter-GPU communication manager and hierarchical
// reduction engine, executing translated modules on a simulated
// machine. It implements ir.Hooks, so compiled host code drives it the
// same way the paper's generated host code drives their C++ runtime.
//
// Four execution modes cover the paper's comparison bars:
//
//   - ModeCPU — the OpenMP baseline: kernels run on the simulated
//     multi-core CPU directly over host memory, no transfers.
//   - ModeBaseline — a stock single-GPU OpenACC compiler (the PGI bar):
//     one GPU, replica placement only, no layout transform, and
//     reductiontoarray statements serialized (the paper's motivation
//     for the extension).
//   - ModeCUDA — the hand-written CUDA bar: one GPU with all
//     optimizations plus a small hand-tuning efficiency edge.
//   - ModeMultiGPU — the proposed system on all GPUs of the machine.
package rt

import (
	"fmt"
	"time"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Mode selects the execution strategy.
type Mode int

const (
	// ModeMultiGPU is the paper's proposed system.
	ModeMultiGPU Mode = iota
	// ModeCPU is the OpenMP baseline on the host CPU.
	ModeCPU
	// ModeBaseline is a stock single-GPU OpenACC compiler.
	ModeBaseline
	// ModeCUDA is the hand-written single-GPU CUDA baseline.
	ModeCUDA
)

func (m Mode) String() string {
	switch m {
	case ModeMultiGPU:
		return "Proposal"
	case ModeCPU:
		return "OpenMP"
	case ModeBaseline:
		return "OpenACC(stock)"
	case ModeCUDA:
		return "CUDA"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Tuning constants of the runtime's cost model.
const (
	// DefaultChunkBytes is the second-level dirty-bit chunk size; the
	// paper experimentally chose 1 MB (§IV-D1).
	DefaultChunkBytes = 1 << 20
	// baselineSerialGOPS prices the serialized execution of
	// reductiontoarray updates in ModeBaseline (one GPU thread's
	// effective throughput, in 1e9 ops/s).
	baselineSerialGOPS = 1.1
	// cudaHandTuneBonus is the efficiency edge of hand-written CUDA
	// kernels over compiler-generated ones.
	cudaHandTuneBonus = 1.10
	// missRecordBytes is the wire size of one remote-write record:
	// (element index, value) pairs, padded like the paper's system
	// buffers.
	missRecordBytes = 12
)

// Options configures a runtime; the zero value is the proposed system.
// Of the five Disable* switches, four are the paper's ablations
// (distribution, layout transform, two-level dirty bits, reload skip)
// and DisableDegradation makes faults fatal; Reference selects the
// reference implementations the invariance tests compare against. Which
// engine runs a kernel's Phase B depends on the kernel, its data and
// Reference alone: not on Async, Tracer, Auditor, BalanceLoad or a fault
// plan armed on the machine. A run states
// what it did once — spans and metrics on Tracer, totals in the Report,
// engine choices in SpecStats — and every rendering (Chrome JSON, the
// text narration of accrun -narrate) reads those.
type Options struct {
	// Mode selects the execution strategy (default ModeMultiGPU).
	Mode Mode
	// ChunkBytes overrides the second-level dirty chunk size.
	ChunkBytes int64
	// DisableDistribution forces replica placement even for arrays
	// with localaccess directives.
	DisableDistribution bool
	// DisableLayoutTransform skips the 2-D coalescing transform.
	DisableLayoutTransform bool
	// DisableTwoLevelDirty degrades the dirty-bit scheme to a single
	// level: any dirty element ships the whole replica (paper §IV-D1).
	DisableTwoLevelDirty bool
	// DisableReloadSkip reloads every kernel input even when the
	// previous launch left an identical copy resident.
	DisableReloadSkip bool
	// BalanceLoad splits iteration spaces by footprint weight instead
	// of equally, when a kernel carries a bounds-form localaccess
	// array (an extension: the paper divides tasks equally, §IV-B2).
	BalanceLoad bool
	// Async arms the pipelined scheduler (see sched.go): runtime steps
	// issue concurrently in virtual time when their read/write
	// footprints prove independence, and Report.Total() becomes the
	// overlapped makespan (AsyncTime) instead of the phase-bucket sum.
	// Functional execution, phase buckets, transfer volumes, events,
	// fault handling and final arrays are bit-identical to the
	// synchronous schedule; only time stamps differ. Ignored in
	// ModeCPU, which performs no transfers to overlap.
	Async bool
	// Tracer, when non-nil, receives structured spans and metrics for
	// every runtime operation (see internal/trace), all emitted on the
	// host strand. All stamps come from the simulated clock, so the span
	// stream is bit-identical across runs and host-parallelism settings;
	// the report and the final arrays are bit-identical with the tracer
	// on or off. When nil (the default), no emission path allocates.
	Tracer *trace.Tracer
	// Auditor, when non-nil, receives consistency-audit events (see
	// AuditSink); internal/audit provides the shadow-oracle
	// implementation. Ignored in ModeCPU.
	Auditor AuditSink
	// DisableDegradation turns the graceful fault handling off: device
	// OOM and transfer failures become immediate hard errors instead
	// of triggering the fallback ladder / bounded retries. The default
	// (false) is the resilient behaviour.
	DisableDegradation bool
	// Interrupt, when non-nil, is polled at the run loop's directive
	// boundaries (data-region entry, update directives, kernel
	// launches), every 1024 back-edges of the host program's own
	// loops, and from inside a kernel: every 1024 iterations of the
	// interpreter and of the auditor's oracle, every 64 tiles of the tile
	// executor, and every 1024 trips of a loop inside an iteration, on
	// either engine. The kernel polls come from the worker
	// goroutines, several at once, so the hook must be safe for
	// concurrent use (a context's Err is). The first non-nil return — in
	// a kernel, the first in worker order — aborts the run with an
	// *InterruptedError wrapping the cause; device memory is still
	// released by Run's epilogue. This is how an embedding service
	// threads per-request timeout and cancellation through the run
	// loop without plumbing a context into every hook. A run that is
	// never interrupted is bit-identical to one with Interrupt nil.
	Interrupt func() error
	// Reference runs the reference implementations the differential and
	// invariance tests compare against: every chunk of every launch on
	// the instrumented closure-tree interpreter, and the launch plan
	// (partition and per-GPU needs) recomputed from scratch every launch.
	// Reports, events, transfers and final array contents must be
	// bit-identical either way.
	Reference bool
	// Sabotage deliberately corrupts communication steps so tests can
	// prove the auditor detects real consistency bugs. Never set it
	// outside tests.
	Sabotage *Sabotage
}

// Sabotage switches off individual communication-manager duties. Each
// flag plants exactly the class of bug multi-GPU OpenACC runtimes get
// wrong in the wild; the auditor's mutation tests assert every one is
// caught with the offending array and range.
type Sabotage struct {
	// DropOverlapSync skips the halo-overlap push of distributed
	// written arrays (stale halos).
	DropOverlapSync bool
	// DropDirtyChunks skips shipping dirty chunks between replicas but
	// still clears the dirty bits (silently diverging replicas).
	DropDirtyChunks bool
	// DropMissDelivery discards buffered remote writes of distributed
	// arrays instead of routing them (lost scatter updates).
	DropMissDelivery bool
}

// Degradation-ladder tuning constants.
const (
	// maxTransferAttempts bounds the retry loop of one transfer.
	maxTransferAttempts = 6
	// transferBackoffBase is the first retry's virtual-time backoff;
	// each further attempt doubles it.
	transferBackoffBase = 20 * time.Microsecond
)

func (o Options) withDefaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	return o
}

// Runtime executes translated modules on a simulated machine.
type Runtime struct {
	mach *sim.Machine
	opts Options
	rep  *Report

	// arrays tracks per-array device state, indexed by the declaration's
	// slot (nil until the array's first touch).
	arrays []*arrayState
	inst   *ir.Instance
	// regionDepth counts nested data regions.
	regionDepth int
	// kernelExecs counts launches per kernel ID (Table II column C).
	kernelExecs map[int]int

	// hostEpoch advances whenever any array's host content becomes
	// canonical, invalidating the launch-plan cache.
	hostEpoch int64
	// forceReplicate is set while a launch retries on the replication
	// rung of the OOM degradation ladder: localaccess arrays place as
	// full replicas for that attempt.
	forceReplicate bool
	// usableGPUs, when non-zero, caps the device set for the rest of
	// the run: the node-loss rung of the degradation ladder sets it to
	// the index-aligned GPU prefix preceding the lost node. Unlike the
	// per-launch OOM shrink, a lost node never comes back.
	usableGPUs int

	// planCache memoizes resolved launch plans (partition + per-GPU
	// needs) across launches of the same kernel; see plancache.go for
	// the validity rules.
	planCache map[planKey]*launchPlan
	// specExecs caches one specialized executor per eligible kernel ID
	// (worker environments, result slots, endpoint scratch); see
	// specexec.go. Unlike the plan cache it needs no validation: the
	// specialized body is static and all launch-varying state is
	// re-bound on every run.
	specExecs map[int]*specExec
	// spec counts which engine ran each per-GPU chunk (specTally).
	spec SpecStats
	// phaseBWall accumulates real wall-clock time spent inside the
	// Phase B kernel fan-out (all GPUs' chunk execution, specialized or
	// interpreted), for the paper-app speedup gate and benchmark/.
	phaseBWall time.Duration
	// scalarScratch is reused for plan-cache validation fingerprints.
	scalarScratch []int64
	// memGen is the machine's MemGen at the last memory sample.
	memGen uint64

	// sched is the async pipelined scheduler; nil when Options.Async
	// is off (the default) or in ModeCPU.
	sched *asyncSched

	// Per-launch scratch, reused to keep the steady-state hot path
	// allocation-free. Launches never nest and the runtime's host
	// strand is single-threaded, so plain fields suffice.
	loadTransfers []sim.Transfer // Phase A H2D batch
	outTransfers  []sim.Transfer // Phase D copy-out batch
	p2pScratch    []sim.Transfer // commSync GPU-GPU batch
	tinyScratch   []sim.Transfer // commSync scalar-reduction batch
	replScratch   []sim.Transfer // syncReplicated merged transfer list
	jobs          [][]copyJob    // deferred loader content copies
	diffs         []srcDiff      // per-source dirty-run diffs
	claims        []relay        // syncReplicated's merged claim list
	claimBuf      []relay        // ... and the buffer it is rebuilt in
	ownRuns       []relay        // one source's runs as relays
	missBytes     []int64        // deliverMisses per-destination tallies
	partials      [][]float64    // per-GPU scalar-reduction partials

	// Phase B per-GPU result slots, indexed by GPU. Each launch
	// goroutine writes only its own slot; the host strand merges them
	// in GPU order after the barrier, which makes the merged report
	// fields, the surfaced error and the kernel spans (emitted from the
	// merged slots) deterministic no matter how the goroutines interleave.
	gpuCost []time.Duration
	gpuCtrs []sim.Counters
	gpuErrs []error
	gpuSpec []bool
	// gpuBegin is when each GPU's kernel starts on the simulated clock,
	// filled after the merge by whichever schedule is armed.
	gpuBegin []time.Duration
}

// InterruptedError reports a run aborted by Options.Interrupt (a
// per-request timeout or cancellation in an embedding service).
type InterruptedError struct {
	// Cause is what Options.Interrupt returned (e.g. a context error).
	Cause error
}

func (e *InterruptedError) Error() string { return "rt: run interrupted: " + e.Cause.Error() }

// Unwrap exposes the cause to errors.Is/As (context.DeadlineExceeded,
// context.Canceled).
func (e *InterruptedError) Unwrap() error { return e.Cause }

// pollIters and pollTiles are how much of a kernel one worker runs
// between two polls: iterations of the interpreter, tiles' worth of
// iterations of the tile executor. Rare enough
// that apps_kernel does not see the polls, often enough that an
// interrupted launch ends within microseconds.
const (
	pollIters = 1024
	pollTiles = 64
)

// Poll polls the Interrupt hook: at every run-loop boundary, (as the
// ir.Hooks method) every 1024 back-edges of the host program's loops,
// and from the kernels' workers. It only reads the options, so it is as
// safe for concurrent use as the hook.
func (r *Runtime) Poll() error {
	if r.opts.Interrupt == nil {
		return nil
	}
	if err := r.opts.Interrupt(); err != nil {
		return &InterruptedError{Cause: err}
	}
	return nil
}

// bumpHost marks the host copy of st canonical.
func (r *Runtime) bumpHost(st *arrayState) {
	st.hostVersion++
	r.hostEpoch++
}

// New creates a runtime for the machine.
func New(mach *sim.Machine, opts Options) *Runtime {
	r := &Runtime{
		mach:        mach,
		opts:        opts.withDefaults(),
		rep:         NewReport(),
		kernelExecs: map[int]int{},
		planCache:   map[planKey]*launchPlan{},
		specExecs:   map[int]*specExec{},
		spec:        SpecStats{FallbackReasons: map[string]int64{}, Rejects: map[string]int64{}},
	}
	if r.opts.Async && r.opts.Mode != ModeCPU {
		r.sched = newAsyncSched(r)
		r.rep.Async = true
	}
	return r
}

// Machine returns the simulated machine.
func (r *Runtime) Machine() *sim.Machine { return r.mach }

// Report returns the accumulated execution report.
func (r *Runtime) Report() *Report { return r.rep }

// addEvent records one fault-handling action in the report and the
// trace stream. Host strand only: Events and spans commit in
// occurrence order.
func (r *Runtime) addEvent(kind, detail string) {
	now := r.rep.Total()
	r.rep.Events = append(r.rep.Events, Event{Time: now, Kind: kind, Detail: detail})
	if t := r.opts.Tracer; t != nil {
		t.Metrics().Inc("events."+kind, 1)
		if kind != "halo-exchange" {
			// Fault-handling actions become degrade spans; halo
			// exchanges already appear as halo-exchange transfer spans.
			t.Emit(trace.Span{Kind: trace.KindDegrade, Lane: trace.LaneHost,
				Begin: now, End: now, Name: kind, Lo: 0, Hi: -1, Detail: detail})
		}
	}
}

// launchScratch sizes and clears the Phase B per-GPU result slots.
func (r *Runtime) launchScratch(n int) {
	for len(r.gpuCost) < n {
		r.gpuCost = append(r.gpuCost, 0)
		r.gpuCtrs = append(r.gpuCtrs, sim.Counters{})
		r.gpuErrs = append(r.gpuErrs, nil)
		r.gpuSpec = append(r.gpuSpec, false)
		r.gpuBegin = append(r.gpuBegin, 0)
	}
	for g := 0; g < n; g++ {
		r.gpuCost[g], r.gpuCtrs[g], r.gpuErrs[g], r.gpuSpec[g] = 0, sim.Counters{}, nil, false
	}
}

// Run binds nothing new; it executes an already bound instance with
// this runtime as the hook table and finalizes accounting. A Runtime is
// for one run: its Report and SpecStats only ever accumulate, and the
// latter is copied into the tracer's spec.* metrics when the run ends.
// So is an instance: the arrays Bind made are taken for zeros until the
// run writes them (arrayState.zeros).
func (r *Runtime) Run(inst *ir.Instance) error {
	r.inst = inst
	defer func() { r.inst = nil }()
	if r.auditing() {
		if err := r.opts.Auditor.BeginRun(inst); err != nil {
			return err
		}
	}
	err := inst.Run(r)
	if t := r.opts.Tracer; t != nil {
		r.spec.flush(t.Metrics())
	}
	// Release whatever is still resident — programs may leave arrays
	// on the devices (no data region, or an aborted run) and the
	// device memory accounting must balance either way.
	relErr := r.releaseAll()
	if err != nil {
		return err
	}
	return relErr
}

// gpus returns the devices this mode uses.
func (r *Runtime) gpus() []*sim.Device {
	all := r.mach.GPUs()
	if r.usableGPUs > 0 && r.usableGPUs < len(all) {
		// A node was lost earlier in the run: only the surviving
		// prefix remains addressable.
		all = all[:r.usableGPUs]
	}
	switch r.opts.Mode {
	case ModeBaseline, ModeCUDA:
		return all[:1]
	default:
		return all
	}
}

// Report aggregates what the paper measures: the execution-time
// breakdown of Figure 8, the transfer volumes behind it, and the
// device-memory peaks of Figure 9.
type Report struct {
	// KernelTime, CPUGPUTime and GPUGPUTime are the virtual-time
	// phase totals (Figure 8's KERNELS, CPU-GPU, GPU-GPU).
	KernelTime, CPUGPUTime, GPUGPUTime time.Duration
	// BytesH2D, BytesD2H, BytesP2P are the transfer volumes.
	BytesH2D, BytesD2H, BytesP2P int64
	// KernelLaunches counts kernel executions across all GPUs'
	// shares (one launch per parallel loop execution).
	KernelLaunches int
	// PeakUserBytes and PeakSystemBytes are the maxima over time of
	// the summed per-GPU device memory by class (Figure 9).
	PeakUserBytes, PeakSystemBytes int64
	// Counters sums the functional work executed on the devices.
	Counters sim.Counters
	// PerKernel breaks kernel activity down by kernel name.
	PerKernel map[string]*KernelStats
	// TransferRetries counts transfer attempts that failed transiently
	// and were retried (fault injection).
	TransferRetries int
	// Fallbacks counts OOM degradation-ladder steps taken.
	Fallbacks int
	// Events records every notable runtime action — fault handling
	// (transfer retries, placement fallbacks, GPU-count reductions) and
	// inter-GPU halo exchanges — in occurrence order.
	Events []Event
	// Async records whether the pipelined scheduler was armed.
	// AsyncTime is then the overlapped-schedule makespan, which
	// Total() reports instead of the phase-bucket sum. The buckets
	// themselves keep their synchronous values, so an async report
	// equals its synchronous twin in everything but time.
	Async     bool
	AsyncTime time.Duration
}

// Event is one recorded runtime action.
type Event struct {
	// Time is the simulated clock when the action was taken.
	Time time.Duration
	// Kind classifies the action: "transfer-retry", "transfer-giveup",
	// "oom-fallback", "oom-giveup", "node-loss" or "halo-exchange".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

// KernelStats aggregates one kernel's activity across its launches.
type KernelStats struct {
	// Launches counts executions (Table II column C per kernel).
	Launches int
	// Time is the summed critical-path kernel time.
	Time time.Duration
	// Counters sums the functional work of all launches.
	Counters sim.Counters
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{PerKernel: map[string]*KernelStats{}} }

// kernelStats returns (creating) the per-kernel bucket.
func (rep *Report) kernelStats(name string) *KernelStats {
	ks, ok := rep.PerKernel[name]
	if !ok {
		ks = &KernelStats{}
		rep.PerKernel[name] = ks
	}
	return ks
}

// Total is the simulated wall time of the parallel regions: the
// phase-bucket sum under the synchronous schedule, the overlapped
// makespan when the async scheduler ran.
func (rep *Report) Total() time.Duration {
	if rep.Async {
		return rep.AsyncTime
	}
	return rep.KernelTime + rep.CPUGPUTime + rep.GPUGPUTime
}

// String formats the report compactly.
func (rep *Report) String() string {
	return fmt.Sprintf("total %v (kernels %v, cpu-gpu %v, gpu-gpu %v); H2D %dB D2H %dB P2P %dB; peak mem user %dB system %dB",
		rep.Total(), rep.KernelTime, rep.CPUGPUTime, rep.GPUGPUTime,
		rep.BytesH2D, rep.BytesD2H, rep.BytesP2P,
		rep.PeakUserBytes, rep.PeakSystemBytes)
}

// sampleMemory raises the report's memory peaks to the devices' current
// use. A sample taken when no allocation or free happened since the
// previous one would read the same sums, so it is skipped.
func (r *Runtime) sampleMemory() {
	gen := r.mach.MemGen()
	if gen == r.memGen {
		return
	}
	r.memGen = gen
	var user, system int64
	for _, g := range r.mach.GPUs() {
		user += g.UsedByClass(sim.MemUser)
		system += g.UsedByClass(sim.MemSystem)
	}
	if user > r.rep.PeakUserBytes {
		r.rep.PeakUserBytes = user
	}
	if system > r.rep.PeakSystemBytes {
		r.rep.PeakSystemBytes = system
	}
}

// KernelExecs returns how many times kernel id launched (Table II C).
func (r *Runtime) KernelExecs() map[int]int { return r.kernelExecs }
