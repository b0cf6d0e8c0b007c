package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/cliutil"
	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// This file is the end-to-end pass. It reaches the system only through
// core.Compile, Program.Run/Vet/GeneratedSource, apps.ByName and (in
// serve.go) serve.New(cfg).Handler(), so that a refactor of ir or rt
// internals cannot break the harness that judges it. Calls on single
// layers are in layers.go and run only in the traced pass.

// The frozen sizes. An op count is not frozen: the contract this
// benchmark is run under measures for a fixed time, so a run repeats
// the same op until its budget is spent and reports per-op figures.
const (
	mdScale     = 0.05
	kmeansScale = 0.001
	bfsScale    = 0.01

	replSmallN, replSmallSteps = 4096, 250
	replBulkN, replBulkSteps   = 1 << 20, 8

	distSmallN, distSmallSteps = 4096, 120
	distBulkN, distBulkSteps   = 256 << 10, 2
)

var workloads = []workloadSpec{
	{"apps_kernel", "MD, KMEANS and BFS compiled and run on desktop: Phase B kernel execution is most of the host time, in three kernel shapes (gather, reduction-to-array, guarded scatter)", 0.85, buildAppsKernel},
	{"stencil_repl", "replicated ping-pong stencil, 500 tiny launches on 2x2 then 8 MiB steps on desktop: per-launch rt work (dirty diff/apply, replica relay, plan cache) outweighs the kernels", 0.8, buildStencilRepl},
	{"stencil_dist", "localaccess stencil on 2x2, async and sync schedules, small and bulk: the same rt loader/comm layer used for distribution, halo exchange, reload-skip and the NIC path", 0.5, buildStencilDist},
	{"compile_cold", "parse, translate, vet and emit the whole corpus (apps, examples, 8- to 128-kernel pipelines) with nothing cached: cc/translator/analysis do all the work, rt and ir execution none", 0.75, buildCompileCold},
	{"serve_mixed", "closed-loop client on an in-process accd handler, seeded shuffle of hot/cold runs and compiles, rejects and inline arrays: decode, cache, queue, pool, digest, encode", 0.7, buildServeMixed},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// progRow is one program of a progWorkload: a source, a machine, a
// pristine input and a reference check. Its name is the <p> of the
// per-layer metric names.
type progRow struct {
	name    string
	source  string
	machine sim.MachineSpec
	opts    rt.Options
	input   *ir.Bindings
	check   func(*ir.Instance) error
	stencil bool // rt.us_per_launch is reported for stencil rows

	bind *ir.Bindings // this round's fresh copy of input
	inst *ir.Instance // this round's final arrays
	rep  *rt.Report   // this round's simulated accounting
	err  error
	// specTuple extends the row's simulated statistics with the counts
	// only the traced pass can read (spec hits/fallbacks, fusions).
	specTuple string
}

// progWorkload runs its rows in sequence; one op is compile + run of
// every row, what a user of accrun waits for.
type progWorkload struct {
	rows []*progRow
	testHooks
	layerState
}

func cloneBindings(b *ir.Bindings) *ir.Bindings {
	out := ir.NewBindings()
	for k, v := range b.Scalars {
		out.Scalars[k] = v
	}
	for k, a := range b.Arrays {
		out.Arrays[k] = &ir.HostArray{
			Decl: a.Decl,
			F32:  append([]float32(nil), a.F32...),
			F64:  append([]float64(nil), a.F64...),
			I32:  append([]int32(nil), a.I32...),
		}
	}
	return out
}

func (w *progWorkload) prepare() error {
	for _, r := range w.rows {
		r.bind = cloneBindings(r.input)
		r.inst, r.rep, r.err = nil, nil, nil
	}
	return nil
}

func (w *progWorkload) run(lat []time.Duration) []time.Duration {
	t0 := time.Now()
	for _, r := range w.rows {
		prog, err := core.Compile(r.source)
		if err != nil {
			r.err = err
			continue
		}
		res, err := prog.Run(r.bind, core.Config{Machine: r.machine, Options: r.opts})
		if err != nil {
			r.err = err
			continue
		}
		r.inst, r.rep = res.Instance, res.Report
	}
	return append(lat, time.Since(t0))
}

func (w *progWorkload) verify() (int, int, error) {
	for _, r := range w.rows {
		if r.err != nil {
			return 1, 1, fmt.Errorf("%s: %w", r.name, r.err)
		}
		if w.corrupt {
			corruptArrays(r.inst)
		}
		if err := r.check(r.inst); err != nil {
			return 1, 1, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return 1, 0, nil
}

// corruptArrays flips one element of every array, standing in for a
// wrong expected output where the reference (apps.Input.Verify) keeps
// its expectation private.
func corruptArrays(inst *ir.Instance) {
	for _, a := range inst.Arrays {
		switch {
		case len(a.F32) > 1:
			a.F32[1] += 1000
		case len(a.F64) > 1:
			a.F64[1] += 1000
		case len(a.I32) > 1:
			a.I32[1] ^= 0x40000000
		}
	}
}

func (w *progWorkload) simStats() map[string]string {
	out := map[string]string{}
	for _, r := range w.rows {
		if r.rep != nil {
			out[r.name] = simTuple(r.rep) + r.specTuple
		}
	}
	return out
}

// simTuple renders every simulated statistic of a report that a
// host-only change must leave identical.
func simTuple(rep *rt.Report) string {
	return fmt.Sprintf("total=%d kernel=%d cpugpu=%d gpugpu=%d h2d=%d d2h=%d p2p=%d launches=%d ctr=%+v peak=%d/%d",
		rep.Total(), rep.KernelTime, rep.CPUGPUTime, rep.GPUGPUTime,
		rep.BytesH2D, rep.BytesD2H, rep.BytesP2P, rep.KernelLaunches, rep.Counters,
		rep.PeakUserBytes, rep.PeakSystemBytes)
}

func mustMachine(name string) sim.MachineSpec {
	spec, err := cliutil.Machine(name, 0)
	if err != nil {
		panic(err) // the names are constants of this file
	}
	return spec
}

// warm runs untimed rounds so that lazy set-up (page faults, worker
// pools, the runtime's heap target) is paid before the first op. The
// workloads with short rounds warm up with more of them, which also
// keeps setup_s long enough to be measured steadily.
func warm(w workload, rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := w.prepare(); err != nil {
			return err
		}
		w.run(nil)
		if _, failed, err := w.verify(); failed > 0 {
			return fmt.Errorf("warm-up op failed: %w", err)
		}
	}
	return nil
}

func buildAppsKernel(o buildOptions) (workload, error) {
	w := &progWorkload{}
	for _, a := range []struct {
		name  string
		scale float64
	}{{"MD", mdScale}, {"KMEANS", kmeansScale}, {"BFS", bfsScale}} {
		app, err := apps.ByName(a.name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err := app.Generate(a.scale, o.seed)
		if err != nil {
			return nil, err
		}
		w.noteGenerate(a.name, time.Since(t0))
		w.rows = append(w.rows, &progRow{
			name: a.name, source: app.Source, machine: sim.Desktop(),
			opts: rt.Options{Async: true}, input: in.Bindings, check: in.Verify,
		})
	}
	return w, warm(w, repeats(o.quick, 2))
}

// stencilRow builds one stencil program row with its plain-Go check.
func stencilRow(rng *rand.Rand, name, src, machine string, n, steps int, async bool) *progRow {
	a0 := stencilInput(rng, n)
	want := stencilRef(a0, steps)
	in := ir.NewBindings().
		SetScalar("n", float64(n)).SetScalar("steps", float64(steps)).
		SetArray("a", &ir.HostArray{F32: a0})
	return &progRow{
		name: name, source: src, machine: mustMachine(machine), stencil: true,
		opts: rt.Options{Async: async}, input: in,
		check: func(inst *ir.Instance) error {
			got, err := inst.Array("a")
			if err != nil {
				return err
			}
			return equalF32(got.F32, want)
		},
	}
}

func buildStencilRepl(o buildOptions) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	w := &progWorkload{rows: []*progRow{
		stencilRow(rng, "repl_small", replStencilSrc, "2x2", replSmallN, replSmallSteps, true),
		stencilRow(rng, "repl_bulk", replStencilSrc, "desktop", replBulkN, replBulkSteps, true),
	}}
	return w, warm(w, repeats(o.quick, 3))
}

func buildStencilDist(o buildOptions) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	w := &progWorkload{rows: []*progRow{
		stencilRow(rng, "dist_small", distStencilSrc, "2x2", distSmallN, distSmallSteps, true),
		stencilRow(rng, "dist_small_sync", distStencilSrc, "2x2", distSmallN, distSmallSteps, false),
		stencilRow(rng, "dist_bulk", distStencilSrc, "2x2", distBulkN, distBulkSteps, true),
	}}
	return w, warm(w, repeats(o.quick, 2))
}

// compileUnit is one source of the compile_cold corpus with what is
// known about it without asking the compiler: the committed accvet
// golden (examples), or the number of parallel loops its text holds.
type compileUnit struct {
	name, source string
	wantDiag     *string
	wantLoops    int
	wantClean    bool // generated pipelines: accvet must find no error

	loops  int
	diag   string
	errors bool
	genLen int
	err    error
}

type compileWorkload struct {
	units []*compileUnit
	testHooks
	layerState
}

func buildCompileCold(o buildOptions) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	w := &compileWorkload{}
	for _, name := range []string{"MD", "KMEANS", "BFS", "SPMV", "HOTSPOT2D", "NBODY"} {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		w.units = append(w.units, &compileUnit{name: name, source: app.Source,
			wantLoops: strings.Count(app.Source, "parallel loop")})
	}
	for _, dir := range []string{"examples/testdata", "examples/vet"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.c"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no sources under %s: run from the repository root", dir)
		}
		sort.Strings(files)
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			golden, err := os.ReadFile(strings.TrimSuffix(f, ".c") + ".diag")
			if err != nil {
				return nil, err
			}
			want := string(golden)
			w.units = append(w.units, &compileUnit{name: filepath.Base(f), source: string(src),
				wantDiag: &want, wantLoops: strings.Count(string(src), "parallel loop")})
		}
	}
	for _, k := range []int{8, 32, 128} {
		mul, add := pipelineCoefs(rng, k)
		w.units = append(w.units, &compileUnit{name: fmt.Sprintf("pipeline%d", k),
			source: pipelineSrc(k, mul, add), wantLoops: k, wantClean: true})
	}
	rng.Shuffle(len(w.units), func(i, j int) { w.units[i], w.units[j] = w.units[j], w.units[i] })
	return w, warm(w, repeats(o.quick, 25))
}

func (w *compileWorkload) prepare() error {
	for _, u := range w.units {
		*u = compileUnit{name: u.name, source: u.source, wantDiag: u.wantDiag, wantLoops: u.wantLoops, wantClean: u.wantClean}
	}
	return nil
}

func (w *compileWorkload) run(lat []time.Duration) []time.Duration {
	t0 := time.Now()
	for _, u := range w.units {
		prog, err := core.Compile(u.source)
		if err != nil {
			u.err = err
			continue
		}
		vet, err := prog.Vet()
		if err != nil {
			u.err = err
			continue
		}
		u.loops = prog.Stats().ParallelLoops
		u.genLen = len(prog.GeneratedSource())
		u.errors = vet.Diags.HasErrors()
		u.diag = vet.Diags.Format(u.name)
	}
	return append(lat, time.Since(t0))
}

func (w *compileWorkload) verify() (int, int, error) {
	for _, u := range w.units {
		if err := u.verify(w.corrupt); err != nil {
			return 1, 1, fmt.Errorf("%s: %w", u.name, err)
		}
	}
	return 1, 0, nil
}

func (u *compileUnit) verify(corrupt bool) error {
	wantLoops := u.wantLoops
	if corrupt {
		wantLoops++
	}
	switch {
	case u.err != nil:
		return u.err
	case u.loops != wantLoops:
		return fmt.Errorf("%d kernels, want %d", u.loops, wantLoops)
	case u.genLen == 0:
		return fmt.Errorf("empty generated source")
	case u.wantDiag != nil && u.diag != *u.wantDiag:
		return fmt.Errorf("diagnostics differ from the committed golden:\n%s", u.diag)
	case u.wantClean && u.errors:
		return fmt.Errorf("accvet reports errors on a known-good source:\n%s", u.diag)
	}
	return nil
}

func (w *compileWorkload) simStats() map[string]string { return nil }
