// Package core ties the reproduction together: it compiles OpenACC C
// source through the frontend and translator, binds inputs, and runs
// the result on a simulated machine under one of the runtime modes.
// It is the programmatic entry point used by the public facade, the
// command-line tools and the benchmark harness.
package core

import (
	"fmt"
	"math"
	"sync"

	"accmulti/internal/analysis"
	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// Program is a compiled OpenACC program.
type Program struct {
	// Module is the executable translation.
	Module *ir.Module
	// Source is the type-checked AST the module was translated from.
	Source *cc.Program
	// Access is the program skeleton the module was lowered from; Vet
	// reads it again instead of analysing Source a second time.
	Access *translator.ProgramAccess

	srcOnce sync.Once
	src     string
}

// Compile parses, analyzes and translates OpenACC C source.
func Compile(source string) (*Program, error) {
	prog, err := cc.ParseProgram(source)
	if err != nil {
		return nil, err
	}
	pa, err := translator.AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	mod, err := translator.Lower(pa)
	if err != nil {
		return nil, err
	}
	return &Program{Module: mod, Source: prog, Access: pa}, nil
}

// GeneratedSource returns the translator's CUDA-like output, rendered
// the first time it is asked for and kept: Compile renders none, since
// running a program never reads it, and the Module stays as Compile
// left it.
func (p *Program) GeneratedSource() string {
	p.srcOnce.Do(func() { p.src = translator.Emit(p.Module, p.Access) })
	return p.src
}

// Vet runs the accvet directive-verification pass over the compiled
// program, returning its diagnostics and footprint-safety verdicts.
func (p *Program) Vet() (*analysis.Result, error) { return analysis.VetAccess(p.Access), nil }

// Config selects the platform and runtime behaviour of one run.
type Config struct {
	// Machine is the simulated platform (defaults to the desktop).
	Machine sim.MachineSpec
	// Options select the runtime mode and ablation switches.
	Options rt.Options
	// Audit installs the shadow-oracle consistency auditor: every
	// kernel re-executes sequentially on a host oracle and every device
	// copy is verified after each communication step.
	Audit bool
	// AuditTolerance overrides the relative tolerance for reassociated
	// float reductions (0 = the auditor's default).
	AuditTolerance float64
	// Faults arms deterministic fault injection on the machine before
	// the run (see sim.ParseFaultPlan for the accrun -faults syntax).
	Faults *sim.FaultPlan
	// Trace, when non-nil, collects structured spans and aggregate
	// metrics for the run (see internal/trace): export them afterwards
	// with trace.WriteChrome / Metrics().WriteJSON. Equivalent to
	// setting Options.Tracer directly; a tracer may be shared across
	// several runs to collect them into one file.
	Trace *trace.Tracer
}

// Result carries everything a run produced.
type Result struct {
	// Report is the runtime's accounting (times, bytes, memory).
	Report *rt.Report
	// Instance exposes the final host arrays and scalars.
	Instance *ir.Instance
	// Runtime gives access to per-kernel execution counts.
	Runtime *rt.Runtime
}

// Run binds inputs and executes the program under the configuration
// on a machine instantiated for this run alone. A fault plan in cfg is
// injected into that machine, so it reaches no other run.
//
// Run is safe to call concurrently on one shared Program (the accd
// service does): every piece of per-run state (machine, instance,
// runtime, report) is created here, and the compiled Module is never
// mutated after Compile returns. Concurrent runs must use distinct
// Bindings.
func (p *Program) Run(b *ir.Bindings, cfg Config) (*Result, error) {
	if cfg.Machine.Name == "" {
		cfg.Machine = sim.Desktop()
	}
	mach, err := sim.NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	inst, err := p.Module.Bind(b)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Active() {
		mach.InjectFaults(cfg.Faults)
	}
	if cfg.Audit && cfg.Options.Auditor == nil {
		cfg.Options.Auditor = audit.New(audit.Options{Tolerance: cfg.AuditTolerance})
	}
	if cfg.Trace != nil && cfg.Options.Tracer == nil {
		cfg.Options.Tracer = cfg.Trace
	}
	runtime := rt.New(mach, cfg.Options)
	if err := runtime.Run(inst); err != nil {
		return nil, err
	}
	return &Result{Report: runtime.Report(), Instance: inst, Runtime: runtime}, nil
}

// Stats summarizes the program the way the paper's Table II does.
type Stats struct {
	// ParallelLoops is the number of translated kernels (column B).
	ParallelLoops int
	// ArraysInLoops is the number of distinct arrays used across all
	// parallel loops.
	ArraysInLoops int
	// LocalAccessArrays is how many of those carry a localaccess
	// directive in at least one loop (column D's numerator).
	LocalAccessArrays int
	// ReductionArrays counts reductiontoarray targets.
	ReductionArrays int
}

// Stats computes the static program statistics.
func (p *Program) Stats() Stats {
	s := Stats{ParallelLoops: len(p.Module.Kernels)}
	// Three sets of arrays by slot (the subset has one scope, so a slot is
	// a name): in a loop, with a localaccess, reduced.
	n := p.Module.Prog.NumArrays
	seen := make([]bool, 3*n)
	add := func(set int, u *ir.ArrayUse, count *int) {
		if i := set*n + u.Decl.Slot; !seen[i] {
			seen[i] = true
			*count++
		}
	}
	for _, k := range p.Module.Kernels {
		for _, u := range k.Arrays {
			add(0, u, &s.ArraysInLoops)
			if u.Local != nil {
				add(1, u, &s.LocalAccessArrays)
			}
			if u.Reduced {
				add(2, u, &s.ReductionArrays)
			}
		}
	}
	return s
}

// DeviceMemoryUsage evaluates the single-GPU device footprint of the
// bound program's arrays (Table II column A): the bytes a 1-GPU run
// keeps resident for the program's device arrays. The sizes come from
// b's scalars (its arrays are only held to them) and nothing is
// allocated, so it is safe to ask of sizes nobody has admitted yet (the
// sum saturates).
func DeviceMemoryUsage(p *Program, b *ir.Bindings) (int64, error) {
	bytes, err := p.Module.ArrayBytes(b)
	if err != nil {
		return 0, err
	}
	var total int64
	seen := map[string]bool{}
	for _, k := range p.Module.Kernels {
		for _, u := range k.Arrays {
			if seen[u.Decl.Name] {
				continue
			}
			seen[u.Decl.Name] = true
			n := bytes[u.Decl.Slot]
			if n > math.MaxInt64-total {
				return math.MaxInt64, nil
			}
			total += n
		}
	}
	return total, nil
}

// FormatStats renders Stats in the style of Table II's B-D columns.
func FormatStats(s Stats) string {
	return fmt.Sprintf("loops=%d localaccess=%d/%d reductions=%d",
		s.ParallelLoops, s.LocalAccessArrays, s.ArraysInLoops, s.ReductionArrays)
}
