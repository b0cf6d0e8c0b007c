package bench

import (
	"fmt"
	"io"
	"strings"

	"accmulti/internal/apps"
	"accmulti/internal/core"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// RenderTable1 prints the machine settings (paper Table I).
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table I — machine settings for the evaluation")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, m := range machines() {
		fmt.Fprintf(w, "%s\n", m.Name)
		fmt.Fprintf(w, "  CPU   %s (%.1f eff. GFLOPS, %.0f GB/s)\n", m.CPU.Name, m.CPU.GFLOPS, m.CPU.MemGBs)
		fmt.Fprintf(w, "  GPUs  %s x%d (%.0f eff. GFLOPS, %.0f GB/s, %.0f GiB)\n",
			m.GPU.Name, m.NumGPUs, m.GPU.GFLOPS, m.GPU.MemGBs, float64(m.GPU.MemBytes)/float64(sim.GiB))
		peer := "host-staged (no peer path)"
		if m.Bus.PeerGBs > 0 {
			peer = fmt.Sprintf("%.1f GB/s peer DMA", m.Bus.PeerGBs)
		}
		fmt.Fprintf(w, "  Bus   %.1f GB/s per host link (concurrency %.2f), GPU-GPU: %s\n",
			m.Bus.HostLinkGBs, m.Bus.HostConcurrency, peer)
	}
}

// Table2Row is one application's characteristics (paper Table II).
type Table2Row struct {
	App, Suite, Description, Input string
	// DeviceMemBytes is column A at the paper's input size.
	DeviceMemBytes int64
	// Loops is column B; KernelExecs column C.
	Loops, KernelExecs int
	// LocalArrays/LoopArrays are column D.
	LocalArrays, LoopArrays int
}

// Table2 measures the application characteristics. Column A is
// evaluated at the paper's full input size; column C is counted from a
// functional run at the bench scale (it is scale independent for these
// apps).
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, name := range cfg.Apps {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := core.Compile(app.Source)
		if err != nil {
			return nil, err
		}
		stats := prog.Stats()

		memBytes, err := core.DeviceMemoryUsage(prog, app.Shape(1.0))
		if err != nil {
			return nil, err
		}

		in, err := app.Generate(cfg.scaleFor(app.Name), cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := prog.Run(in.Bindings, core.Config{Machine: sim.Desktop().WithGPUs(1)})
		if err != nil {
			return nil, err
		}

		rows = append(rows, Table2Row{
			App: app.Name, Suite: app.Suite, Description: app.Description, Input: app.PaperInput,
			DeviceMemBytes: memBytes,
			Loops:          stats.ParallelLoops,
			KernelExecs:    res.Report.KernelLaunches,
			LocalArrays:    stats.LocalAccessArrays,
			LoopArrays:     stats.ArraysInLoops,
		})
	}
	return rows, nil
}

// RenderTable2 prints Table II.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table II — application characteristics")
	fmt.Fprintln(w, "A: device memory (single GPU, paper-scale input); B: parallel loops;")
	fmt.Fprintln(w, "C: kernel executions; D: localaccess arrays / arrays in parallel loops")
	fmt.Fprintln(w, strings.Repeat("-", 80))
	fmt.Fprintf(w, "%-8s %-8s %-16s %-12s %9s %3s %4s %5s\n",
		"App", "Source", "Description", "Input", "A", "B", "C", "D")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-8s %-16s %-12s %7.1fMB %3d %4d %2d/%d\n",
			r.App, r.Suite, r.Description, r.Input,
			float64(r.DeviceMemBytes)/1e6, r.Loops, r.KernelExecs, r.LocalArrays, r.LoopArrays)
	}
}

// RenderFig7 prints the relative-performance chart (paper Fig. 7).
func RenderFig7(w io.Writer, res *Results) {
	fmt.Fprintln(w, "Figure 7 — performance relative to the OpenMP versions")
	for _, m := range res.Machines {
		fmt.Fprintf(w, "\n%s\n%s\n", m.Name, strings.Repeat("-", 64))
		for _, app := range res.Config.Apps {
			var parts []string
			for _, p := range res.Points {
				if p.App != app || p.Machine != m.Name {
					continue
				}
				parts = append(parts, fmt.Sprintf("%s %.2fx", p.Version, p.Relative))
			}
			fmt.Fprintf(w, "  %-7s %s\n", app, strings.Join(parts, "  "))
		}
	}
}

// RenderFig8 prints the execution-time breakdown (paper Fig. 8):
// GPU-GPU / CPU-GPU / KERNELS, normalized to the single-GPU total.
func RenderFig8(w io.Writer, res *Results) {
	fmt.Fprintln(w, "Figure 8 — execution time breakdown, normalized to 1-GPU total")
	for _, m := range res.Machines {
		fmt.Fprintf(w, "\n%s\n%s\n", m.Name, strings.Repeat("-", 64))
		fmt.Fprintf(w, "  %-7s %-12s %8s %8s %8s %8s\n", "App", "Version", "GPU-GPU", "CPU-GPU", "KERNELS", "TOTAL")
		for _, app := range res.Config.Apps {
			for _, p := range res.Points {
				if p.App != app || p.Machine != m.Name || p.Mode != rt.ModeMultiGPU {
					continue
				}
				total := p.Breakdown[0] + p.Breakdown[1] + p.Breakdown[2]
				fmt.Fprintf(w, "  %-7s %-12s %8.3f %8.3f %8.3f %8.3f\n",
					app, p.Version, p.Breakdown[0], p.Breakdown[1], p.Breakdown[2], total)
			}
		}
	}
}

// RenderFig9 prints the device-memory usage (paper Fig. 9): User and
// System bytes summed over GPUs, normalized to the 1-GPU user bytes.
func RenderFig9(w io.Writer, res *Results) {
	fmt.Fprintln(w, "Figure 9 — device memory usage, normalized to 1-GPU user data")
	for _, m := range res.Machines {
		fmt.Fprintf(w, "\n%s\n%s\n", m.Name, strings.Repeat("-", 64))
		fmt.Fprintf(w, "  %-7s %-12s %8s %8s %8s\n", "App", "Version", "User", "System", "Total")
		for _, app := range res.Config.Apps {
			for _, p := range res.Points {
				if p.App != app || p.Machine != m.Name || p.Mode != rt.ModeMultiGPU {
					continue
				}
				fmt.Fprintf(w, "  %-7s %-12s %8.3f %8.3f %8.3f\n",
					app, p.Version, p.MemUser, p.MemSystem, p.MemUser+p.MemSystem)
			}
		}
	}
}

// Headline extracts the abstract's headline numbers: the best
// Proposal speedup on each platform.
func (r *Results) Headline() map[string]float64 {
	best := map[string]float64{}
	for _, p := range r.Points {
		if p.Mode != rt.ModeMultiGPU {
			continue
		}
		if p.Relative > best[p.Machine] {
			best[p.Machine] = p.Relative
		}
	}
	return best
}
