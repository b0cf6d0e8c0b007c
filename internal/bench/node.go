package bench

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"accmulti/internal/core"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// The node study (`accbench node`): the shipped example programs run on
// cluster topologies under both schedules. Two questions per row: how
// much does crossing the network cost each app (the §VI future-work
// cliff, now with a real network model — NIC bandwidth and latency
// distinct from PCIe), and how much of that cost does the NIC-aware
// async scheduler hide by overlapping network pushes under kernels. The
// 1x3 shape is the degenerate-topology control: it must reproduce the
// flat supercomputer node exactly, so its rows double as a cross-check
// that the node dimension is free when unused.

// NodeRow is one example app on one cluster shape, sync vs async.
type NodeRow struct {
	// App is the example name (quickstart, md, kmeans, bfs, stencil1d).
	App string
	// Shape is the topology (nodes x GPUs-per-node, e.g. "2x2").
	Shape string
	// Nodes and GPUs identify the platform size.
	Nodes, GPUs int
	// SyncUS and AsyncUS are the reported simulated totals in
	// microseconds under the bulk-synchronous and pipelined schedules.
	SyncUS, AsyncUS float64
	// Speedup is SyncUS / AsyncUS.
	Speedup float64
	// Equivalent records that the two reports matched modulo time —
	// the differential contract the fuzz harness enforces, re-checked
	// here on every topology.
	Equivalent bool
}

// NodeStudy measures every example on each cluster shape under both
// schedules.
func NodeStudy(cfg Config) ([]NodeRow, error) {
	dir, err := examplesDir()
	if err != nil {
		return nil, err
	}
	shapes := []struct {
		label string
		spec  sim.MachineSpec
	}{
		{"1x3", sim.Cluster(1, 3)},
		{"2x2", sim.Cluster(2, 2)},
		{"2x3", sim.Cluster(2, 3)},
	}
	var rows []NodeRow
	for _, wl := range asyncWorkloads() {
		src, err := exampleSource(dir, wl.name)
		if err != nil {
			return nil, err
		}
		prog, err := core.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", wl.name, err)
		}
		for _, sh := range shapes {
			run := func(opts rt.Options) (*rt.Report, error) {
				res, err := prog.Run(wl.bind(), core.Config{Machine: sh.spec, Options: opts})
				if err != nil {
					return nil, fmt.Errorf("bench: %s on %s: %w", wl.name, sh.label, err)
				}
				return res.Report, nil
			}
			syncRep, err := run(rt.Options{})
			if err != nil {
				return nil, err
			}
			asyncRep, err := run(rt.Options{Async: true})
			if err != nil {
				return nil, err
			}
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			row := NodeRow{
				App: wl.name, Shape: sh.label,
				Nodes: sh.spec.NodeCount(), GPUs: sh.spec.NumGPUs,
				SyncUS: us(syncRep.Total()), AsyncUS: us(asyncRep.Total()),
				Equivalent: reflect.DeepEqual(asyncNormalize(syncRep), asyncNormalize(asyncRep)),
			}
			if row.AsyncUS > 0 {
				row.Speedup = row.SyncUS / row.AsyncUS
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderNode prints the study as text.
func RenderNode(w io.Writer, rows []NodeRow) {
	fmt.Fprintln(w, "Node study — cluster topologies, sync vs NIC-aware async (example apps)")
	fmt.Fprintf(w, "  %-12s %-6s %6s %12s %12s %8s  %s\n",
		"app", "shape", "gpus", "sync us", "async us", "speedup", "equivalent")
	last := ""
	for _, r := range rows {
		app := r.App
		if app == last {
			app = ""
		} else if last != "" {
			fmt.Fprintln(w)
		}
		last = r.App
		fmt.Fprintf(w, "  %-12s %-6s %6d %12.1f %12.1f %7.2fx  %v\n",
			app, r.Shape, r.GPUs, r.SyncUS, r.AsyncUS, r.Speedup, r.Equivalent)
	}
}
