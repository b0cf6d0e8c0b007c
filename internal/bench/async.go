package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// The async study (`accbench async`): the five shipped example programs
// run once under the bulk-synchronous schedule and once under the
// pipelined scheduler, on the desktop machine. Both runs execute the
// identical step sequence — the study records how much reported
// simulated time the overlap recovers per app, and asserts the
// equivalence contract (reports identical modulo time) along the way.

// AsyncRow is one example app's sync-vs-async comparison.
type AsyncRow struct {
	// App is the example name (quickstart, md, kmeans, bfs, stencil1d).
	App string
	// Machine and GPUs identify the platform.
	Machine string
	GPUs    int
	SchedulePair
}

// SchedulePair is one program on one machine under both schedules.
type SchedulePair struct {
	// SyncUS and AsyncUS are the reported simulated totals in
	// microseconds: the bulk-synchronous phase sum and the overlapped
	// makespan.
	SyncUS, AsyncUS float64
	// Speedup is SyncUS / AsyncUS.
	Speedup float64
	// Equivalent records that the two reports matched modulo time
	// (buckets, volumes, launches, events, peaks) — the differential
	// contract the fuzz harness enforces, re-checked here.
	Equivalent bool
}

// examplesDir locates the shipped examples whether the caller runs
// from the repo root (cmd/accbench) or from this package (tests).
func examplesDir() (string, error) {
	for _, d := range []string{"examples", filepath.Join("..", "..", "examples")} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("bench: cannot locate the examples directory (run from the repo root)")
}

// exampleSource extracts the backquoted `const source` program from an
// example's main.go, so the study measures the shipped programs
// verbatim.
func exampleSource(dir, name string) (string, error) {
	path := filepath.Join(dir, name, "main.go")
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	const marker = "const source = `"
	s := string(data)
	i := strings.Index(s, marker)
	if i < 0 {
		return "", fmt.Errorf("bench: %s: no embedded source", path)
	}
	rest := s[i+len(marker):]
	j := strings.Index(rest, "`")
	if j < 0 {
		return "", fmt.Errorf("bench: %s: unterminated embedded source", path)
	}
	return rest[:j], nil
}

// asyncWorkload is one example with a deterministic binding generator;
// bindings are rebuilt per run because copyout mutates bound arrays.
type asyncWorkload struct {
	name string
	bind func() *ir.Bindings
}

// asyncWorkloads builds the five example workloads at study scale:
// inputs large enough that transfers and halos are visible against the
// kernels, small enough that the functional simulation stays quick.
func asyncWorkloads() []asyncWorkload {
	return []asyncWorkload{
		{name: "quickstart", bind: func() *ir.Bindings {
			const n = 1 << 18
			x := &ir.HostArray{F32: make([]float32, n)}
			y := &ir.HostArray{F32: make([]float32, n)}
			for i := 0; i < n; i++ {
				x.F32[i] = float32(i%100) * 0.01
				y.F32[i] = 1
			}
			return ir.NewBindings().SetScalar("n", n).SetScalar("a", 2.0).
				SetArray("x", x).SetArray("y", y)
		}},
		{name: "md", bind: func() *ir.Bindings {
			const natoms, maxn = 4096, 32
			pos := &ir.HostArray{F32: make([]float32, 4*natoms)}
			for i := 0; i < natoms; i++ {
				pos.F32[4*i] = float32(i % 16)
				pos.F32[4*i+1] = float32((i / 16) % 16)
				pos.F32[4*i+2] = float32(i / 256)
			}
			nbr := &ir.HostArray{I32: make([]int32, natoms*maxn)}
			for i := 0; i < natoms; i++ {
				for j := 0; j < maxn; j++ {
					jn := i - maxn/2 + j
					if jn < 0 || jn >= natoms || jn == i {
						nbr.I32[i*maxn+j] = -1
					} else {
						nbr.I32[i*maxn+j] = int32(jn)
					}
				}
			}
			return ir.NewBindings().
				SetScalar("natoms", natoms).SetScalar("maxn", maxn).
				SetScalar("lj1", 1.5).SetScalar("lj2", 2.0).SetScalar("cutsq", 4.0).
				SetArray("pos", pos).SetArray("nbr", nbr)
		}},
		{name: "kmeans", bind: func() *ir.Bindings {
			const n, nf, k, iters = 20000, 8, 4, 4
			feat := &ir.HostArray{F32: make([]float32, n*nf)}
			for i := range feat.F32 {
				feat.F32[i] = float32((i*2654435761)%1000) / 250
			}
			clusters := &ir.HostArray{F32: make([]float32, k*nf)}
			copy(clusters.F32, feat.F32[:k*nf])
			member := &ir.HostArray{I32: make([]int32, n)}
			return ir.NewBindings().
				SetScalar("n", n).SetScalar("nf", nf).SetScalar("k", k).SetScalar("iters", iters).
				SetArray("feat", feat).SetArray("clusters", clusters).SetArray("member", member)
		}},
		{name: "bfs", bind: func() *ir.Bindings {
			// A deterministic binary tree: parent(w) = w/2, depth ~log2(nv).
			const nv = 60000
			deg := make([]int32, nv)
			for w := 1; w < nv; w++ {
				deg[w/2]++
			}
			off := &ir.HostArray{I32: make([]int32, nv+1)}
			for v := 0; v < nv; v++ {
				off.I32[v+1] = off.I32[v] + deg[v]
			}
			edges := &ir.HostArray{I32: make([]int32, off.I32[nv])}
			fill := make([]int32, nv)
			copy(fill, off.I32[:nv])
			for w := 1; w < nv; w++ {
				edges.I32[fill[w/2]] = int32(w)
				fill[w/2]++
			}
			cost := &ir.HostArray{I32: make([]int32, nv)}
			for i := range cost.I32 {
				cost.I32[i] = -1
			}
			cost.I32[0] = 0
			return ir.NewBindings().
				SetScalar("nv", nv).SetScalar("ne", float64(len(edges.I32))).
				SetArray("off", off).SetArray("edges", edges).SetArray("cost", cost)
		}},
		{name: "stencil1d", bind: func() *ir.Bindings {
			const n, steps = 1 << 18, 8
			a := &ir.HostArray{F32: make([]float32, n)}
			a.F32[n/2] = 1000
			return ir.NewBindings().
				SetScalar("n", n).SetScalar("steps", steps).SetArray("a", a)
		}},
	}
}

// asyncNormalize strips the time-carrying fields the schedules are
// allowed to disagree on; everything else must match exactly.
func asyncNormalize(rep *rt.Report) *rt.Report {
	c := *rep
	c.Async = false
	c.AsyncTime = 0
	c.Events = append([]rt.Event(nil), rep.Events...)
	for i := range c.Events {
		c.Events[i].Time = 0
	}
	return &c
}

// compareSchedules compiles every example, runs it on each machine under
// the bulk-synchronous and then the pipelined schedule, compares the two
// reports modulo time and hands the pair to row.
func compareSchedules(machines []sim.MachineSpec, row func(app string, spec sim.MachineSpec, p SchedulePair)) error {
	dir, err := examplesDir()
	if err != nil {
		return err
	}
	for _, wl := range asyncWorkloads() {
		src, err := exampleSource(dir, wl.name)
		if err != nil {
			return err
		}
		prog, err := core.Compile(src)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", wl.name, err)
		}
		for _, spec := range machines {
			var reps [2]*rt.Report
			for i, opts := range []rt.Options{{}, {Async: true}} {
				res, err := prog.Run(wl.bind(), core.Config{Machine: spec, Options: opts})
				if err != nil {
					return fmt.Errorf("bench: %s on %s: %w", wl.name, spec.Name, err)
				}
				reps[i] = res.Report
			}
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			p := SchedulePair{
				SyncUS: us(reps[0].Total()), AsyncUS: us(reps[1].Total()),
				Equivalent: reflect.DeepEqual(asyncNormalize(reps[0]), asyncNormalize(reps[1])),
			}
			if p.AsyncUS > 0 {
				p.Speedup = p.SyncUS / p.AsyncUS
			}
			row(wl.name, spec, p)
		}
	}
	return nil
}

// AsyncStudy measures every example under both schedules.
func AsyncStudy(cfg Config) ([]AsyncRow, error) {
	var rows []AsyncRow
	err := compareSchedules([]sim.MachineSpec{sim.Desktop()}, func(app string, spec sim.MachineSpec, p SchedulePair) {
		rows = append(rows, AsyncRow{App: app, Machine: spec.Name, GPUs: spec.NumGPUs, SchedulePair: p})
	})
	return rows, err
}

// RenderAsync prints the study as text.
func RenderAsync(w io.Writer, rows []AsyncRow) {
	fmt.Fprintln(w, "Pipelined scheduling — reported simulated time, sync vs async (example apps)")
	fmt.Fprintf(w, "  %-12s %-20s %12s %12s %8s  %s\n",
		"app", "machine", "sync us", "async us", "speedup", "equivalent")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-20s %12.1f %12.1f %7.2fx  %v\n",
			r.App, fmt.Sprintf("%s(%d)", r.Machine, r.GPUs), r.SyncUS, r.AsyncUS, r.Speedup, r.Equivalent)
	}
}
