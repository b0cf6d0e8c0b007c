// Package cliutil factors the flag handling and output plumbing shared
// by the command-line tools (accrun, accbench, accd): machine/mode
// spelling, the trace/metrics sink flags, fault-plan parsing, and the
// runtime switches (-no-async, -reference, -no-degrade).
// Each tool registers the subsets it supports on its own FlagSet, so
// the spellings and help strings stay identical across binaries.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Machine resolves the -machine/-gpus flag pair to a platform spec:
// "desktop" or "super"/"supercomputer" (with gpus > 0 overriding the
// platform's GPU count), or a multi-node topology in the
// "NxM[:key=val]*" grammar of topology.go, e.g. "2x4:pcie=8G:nic=1G"
// (which fixes the GPU count itself, so gpus must be 0).
func Machine(name string, gpus int) (sim.MachineSpec, error) {
	var spec sim.MachineSpec
	switch name {
	case "desktop", "":
		spec = sim.Desktop()
	case "super", "supercomputer":
		spec = sim.SupercomputerNode()
	default:
		if isTopology(name) {
			return parseTopology(name, gpus)
		}
		return sim.MachineSpec{}, fmt.Errorf("unknown machine %q (want desktop, super, or a topology like 2x4:pcie=8G:nic=1G)", name)
	}
	if gpus > 0 {
		spec = spec.WithGPUs(gpus)
	}
	return spec, nil
}

// Mode resolves the -mode flag spelling to an execution mode.
func Mode(name string) (rt.Mode, error) {
	switch name {
	case "proposal", "":
		return rt.ModeMultiGPU, nil
	case "openmp":
		return rt.ModeCPU, nil
	case "baseline":
		return rt.ModeBaseline, nil
	case "cuda":
		return rt.ModeCUDA, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want proposal, openmp, baseline or cuda)", name)
	}
}

// RunFlags is the runtime-behaviour flag set every execution tool
// shares: ablation switches, the fault plan, and the trace/metrics
// output files.
type RunFlags struct {
	// TraceFile / MetricsFile are the -trace / -metrics output paths.
	TraceFile, MetricsFile string
	// Faults is the raw -faults plan spec (see sim.ParseFaultPlan).
	Faults string
	// NoAsync / NoDegrade are the ablation switches; Reference selects
	// the reference implementations (rt.Options.Reference).
	NoAsync, Reference, NoDegrade bool
}

// RegisterAblations adds -no-async and -reference.
func (f *RunFlags) RegisterAblations(fs *flag.FlagSet) {
	fs.BoolVar(&f.NoAsync, "no-async", false, "disable the pipelined scheduler: report strictly bulk-synchronous phase times")
	fs.BoolVar(&f.Reference, "reference", false, "run the reference implementations: the interpreter for every kernel chunk, the launch plan recomputed every launch")
}

// RegisterFaults adds -faults and -no-degrade.
func (f *RunFlags) RegisterFaults(fs *flag.FlagSet) {
	fs.StringVar(&f.Faults, "faults", "", "deterministic fault plan, e.g. seed=7,oomgpu=1,oomalloc=5,shrink=0.5,transfail=0.01")
	fs.BoolVar(&f.NoDegrade, "no-degrade", false, "make injected faults fatal instead of degrading gracefully")
}

// RegisterSinks adds -trace and -metrics.
func (f *RunFlags) RegisterSinks(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceFile, "trace", "", "write a Chrome trace-event JSON file (about://tracing)")
	fs.StringVar(&f.MetricsFile, "metrics", "", "write the aggregate metrics registry as JSON")
}

// FaultPlan parses the -faults spec.
func (f *RunFlags) FaultPlan() (*sim.FaultPlan, error) { return sim.ParseFaultPlan(f.Faults) }

// ApplyTo copies the ablation switches onto runtime options. The
// async default is on (the pipelined schedule); -no-async restores the
// paper's bulk-synchronous timeline.
func (f *RunFlags) ApplyTo(opts *rt.Options) {
	opts.Async = !f.NoAsync
	opts.Reference = f.Reference
	opts.DisableDegradation = f.NoDegrade
}

// NewTracer returns a tracer when either sink flag asks for one.
func (f *RunFlags) NewTracer() *trace.Tracer {
	if f.TraceFile == "" && f.MetricsFile == "" {
		return nil
	}
	return trace.New()
}

// WriteSinks writes the requested trace/metrics files from the tracer
// (a no-op for the files not asked for, or a nil tracer).
func (f *RunFlags) WriteSinks(tracer *trace.Tracer) error {
	if tracer == nil {
		return nil
	}
	if f.TraceFile != "" {
		if err := WriteFileWith(f.TraceFile, func(w io.Writer) error {
			return trace.WriteChrome(w, tracer)
		}); err != nil {
			return err
		}
	}
	if f.MetricsFile != "" {
		if err := WriteFileWith(f.MetricsFile, func(w io.Writer) error {
			return tracer.Metrics().WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteFileWith streams fn's output into path.
func WriteFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
