package bench

import (
	"fmt"
	"io"

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
	// The totals under both schedules and the report equivalence,
	// re-checked here on every topology.
	SchedulePair
}

// NodeStudy measures every example on each cluster shape under both
// schedules.
func NodeStudy(cfg Config) ([]NodeRow, error) {
	machines := []sim.MachineSpec{sim.Cluster(1, 3), sim.Cluster(2, 2), sim.Cluster(2, 3)}
	var rows []NodeRow
	err := compareSchedules(machines, func(app string, spec sim.MachineSpec, p SchedulePair) {
		rows = append(rows, NodeRow{App: app, Shape: fmt.Sprintf("%dx%d", spec.NodeCount(), spec.GPUsPerNode()),
			Nodes: spec.NodeCount(), GPUs: spec.NumGPUs, SchedulePair: p})
	})
	return rows, err
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
