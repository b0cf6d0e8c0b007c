// Package bench regenerates the paper's evaluation: Table I (machine
// settings), Table II (application characteristics), Figure 7 (relative
// performance vs OpenMP across versions and GPU counts), Figure 8 (the
// execution-time breakdown), Figure 9 (device-memory usage), and the
// ablation studies behind the design choices (two-level dirty bits,
// distribution policy, layout transform, reductiontoarray, reload
// skipping, chunk size).
package bench

import (
	"fmt"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/core"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Config controls one evaluation sweep.
type Config struct {
	// Scale multiplies each application's default benchmark scale
	// (1.0 keeps harness runtime in the minutes; the paper's exact
	// input sizes correspond to AppScale values of 1.0).
	Scale float64
	// AppScale overrides the per-app scale (fraction of the paper's
	// input size). Zero entries fall back to defaults.
	AppScale map[string]float64
	// Seed drives the input generators.
	Seed int64
	// Verify re-checks every run against the Go references.
	Verify bool
	// Apps restricts the sweep (empty = all three).
	Apps []string
	// Reference runs every measured configuration on the reference
	// implementations (rt.Options.Reference): the simulated results must
	// not move, only the host time does.
	Reference bool
	// Async runs the Proposal (multi-GPU) configurations under the
	// pipelined scheduler, so their simulated totals are overlapped
	// makespans instead of bulk-synchronous phase sums. Results and
	// transfer accounting are identical either way; the paper's
	// figures were measured synchronously (accbench -no-async).
	Async bool
	// Trace, when non-nil, collects structured spans and metrics for
	// every measured run. Each configuration becomes its own trace
	// process ("app/machine/mode(gpus)"), so one Chrome trace file
	// holds the whole sweep side by side.
	Trace *trace.Tracer
}

// Default per-app benchmark scales: fractions of the paper's input
// sizes that keep functional execution tractable while the kernels
// stay long enough to dominate fixed launch/transfer latencies.
var defaultBenchScale = map[string]float64{
	"MD":     1.0,
	"KMEANS": 0.08,
	"BFS":    0.1,
	// Extension apps (beyond the paper): -apps SPMV,HOTSPOT2D,NBODY.
	"SPMV":      0.25,
	"HOTSPOT2D": 0.25,
	"NBODY":     0.25,
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 20130701 // ICPP 2013
	}
	if len(c.Apps) == 0 {
		c.Apps = []string{"MD", "KMEANS", "BFS"}
	}
	return c
}

func (c Config) scaleFor(app string) float64 {
	if s, ok := c.AppScale[app]; ok && s > 0 {
		return s * c.Scale
	}
	return defaultBenchScale[app] * c.Scale
}

// Point is one measured configuration: an application under one
// version (mode + GPU count) on one machine.
type Point struct {
	App     string
	Machine string
	// Version labels the bar as the paper does: "OpenMP",
	// "OpenACC(1)", "CUDA(1)", "Proposal(N)".
	Version string
	GPUs    int
	Mode    rt.Mode
	Report  *rt.Report
	// Relative is the speedup over the machine's OpenMP run.
	Relative float64
	// Breakdown is (GPU-GPU, CPU-GPU, KERNELS) normalized to the
	// 1-GPU Proposal total on the same machine (Fig 8).
	Breakdown [3]float64
	// MemUser and MemSystem are peak device bytes normalized to the
	// 1-GPU Proposal user bytes (Fig 9).
	MemUser, MemSystem float64
}

// Results is a complete evaluation sweep.
type Results struct {
	Config   Config
	Machines []sim.MachineSpec
	Points   []Point
}

// machines returns the two evaluation platforms of Table I.
func machines() []sim.MachineSpec {
	return []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()}
}

// RunAll executes the full version matrix the paper's Figure 7 shows.
func RunAll(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	res := &Results{Config: cfg, Machines: machines()}
	for _, appName := range cfg.Apps {
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		prog, err := core.Compile(app.Source)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", app.Name, err)
		}
		scale := cfg.scaleFor(app.Name)
		for _, mach := range res.Machines {
			pts, err := runMachine(cfg, app, prog, mach, scale)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pts...)
		}
	}
	return res, nil
}

func runMachine(cfg Config, app *apps.App, prog *core.Program, mach sim.MachineSpec, scale float64) ([]Point, error) {
	type version struct {
		label string
		mode  rt.Mode
		gpus  int
	}
	versions := []version{
		{"OpenMP", rt.ModeCPU, 0},
		{"OpenACC(1)", rt.ModeBaseline, 1},
		{"CUDA(1)", rt.ModeCUDA, 1},
	}
	for g := 1; g <= mach.NumGPUs; g++ {
		versions = append(versions, version{fmt.Sprintf("Proposal(%d)", g), rt.ModeMultiGPU, g})
	}

	var points []Point
	var ompTotal time.Duration
	var base1 *rt.Report // 1-GPU Proposal, the Fig 8/9 normalizer
	for _, v := range versions {
		spec := mach
		if v.gpus > 0 {
			spec = mach.WithGPUs(v.gpus)
		}
		rep, err := runOnce(cfg, app, prog, spec, rt.Options{Mode: v.mode}, scale)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s/%s: %w", app.Name, mach.Name, v.label, err)
		}
		p := Point{
			App: app.Name, Machine: mach.Name, Version: v.label,
			GPUs: v.gpus, Mode: v.mode, Report: rep,
		}
		if v.mode == rt.ModeCPU {
			ompTotal = rep.Total()
		}
		if v.mode == rt.ModeMultiGPU && v.gpus == 1 {
			base1 = rep
		}
		points = append(points, p)
	}
	for i := range points {
		p := &points[i]
		if ompTotal > 0 && p.Report.Total() > 0 {
			p.Relative = float64(ompTotal) / float64(p.Report.Total())
		}
		if base1 != nil && base1.Total() > 0 {
			norm := float64(base1.Total())
			p.Breakdown = [3]float64{
				float64(p.Report.GPUGPUTime) / norm,
				float64(p.Report.CPUGPUTime) / norm,
				float64(p.Report.KernelTime) / norm,
			}
		}
		if base1 != nil && base1.PeakUserBytes > 0 {
			p.MemUser = float64(p.Report.PeakUserBytes) / float64(base1.PeakUserBytes)
			p.MemSystem = float64(p.Report.PeakSystemBytes) / float64(base1.PeakUserBytes)
		}
	}
	return points, nil
}

// runOnce executes one configuration, optionally verifying results.
func runOnce(cfg Config, app *apps.App, prog *core.Program, spec sim.MachineSpec, opts rt.Options, scale float64) (*rt.Report, error) {
	opts.Reference = cfg.Reference
	if cfg.Async && opts.Mode == rt.ModeMultiGPU {
		opts.Async = true
	}
	in, err := app.Generate(scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		cfg.Trace.BeginProcess(fmt.Sprintf("%s/%s/%s(%d)", app.Name, spec.Name, opts.Mode, spec.NumGPUs))
	}
	res, err := prog.Run(in.Bindings, core.Config{Machine: spec, Options: opts, Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}
	if cfg.Verify {
		if err := in.Verify(res.Instance); err != nil {
			return nil, fmt.Errorf("verification failed: %w", err)
		}
	}
	return res.Report, nil
}

// Proposal returns the Proposal(n) point for app on machine.
func (r *Results) Proposal(app, machine string, n int) *Point {
	return r.find(app, machine, fmt.Sprintf("Proposal(%d)", n))
}

func (r *Results) find(app, machine, version string) *Point {
	for i := range r.Points {
		p := &r.Points[i]
		if p.App == app && p.Machine == machine && p.Version == version {
			return p
		}
	}
	return nil
}
