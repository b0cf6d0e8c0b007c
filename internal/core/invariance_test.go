package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// Report-invariance coverage for the host-side performance layer over
// every shipped example program and evaluation app: the specialized
// executors, the plan cache and the host parallelism must leave the
// virtual-time report and all computed arrays bit-identical — on by
// default, on the reference implementations, and under GOMAXPROCS=1.

// perfVariants are the option sets compared against the default, each
// at the ambient GOMAXPROCS and again at GOMAXPROCS=1 (where every host
// fan-out is the ascending serial loop); the default itself only at one
// processor.
var perfVariants = []struct {
	name    string
	opts    rt.Options
	oneProc bool
}{
	{"reference", rt.Options{Reference: true}, false},
	{"GOMAXPROCS=1, default", rt.Options{}, true},
	{"GOMAXPROCS=1, reference", rt.Options{Reference: true}, true},
}

// bindDeterministic binds m with b plus every array of the program,
// given reproducible nonzero content from seed, in slot order, so the
// loader and diff paths move real data. The content goes in through the
// bindings: the runtime takes an array Bind made for zeros.
func bindDeterministic(m *ir.Module, b *ir.Bindings, seed int64) (*ir.Instance, error) {
	sizes, err := m.ArrayBytes(b)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range m.Prog.ArrayDecls() {
		a := ir.NewHostArray(d, sizes[d.Slot]/d.Type.Size())
		switch {
		case a.F32 != nil:
			for i := range a.F32 {
				a.F32[i] = rng.Float32()
			}
		case a.F64 != nil:
			for i := range a.F64 {
				a.F64[i] = rng.Float64()
			}
		default:
			for i := range a.I32 {
				a.I32[i] = int32(rng.Intn(1 << 16))
			}
		}
		b.SetArray(d.Name, a)
	}
	return m.Bind(b)
}

// runExample executes one example source at fixed bindings and returns
// the report plus final array contents.
func runExample(t *testing.T, src string, scalars map[string]float64, spec sim.MachineSpec, opts rt.Options) (*rt.Report, []*ir.HostArray) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBindings()
	for k, v := range scalars {
		b.SetScalar(k, v)
	}
	inst, err := bindDeterministic(prog.Module, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime := rt.New(mach, opts)
	if err := runtime.Run(inst); err != nil {
		t.Fatal(err)
	}
	return runtime.Report(), inst.Arrays
}

func checkSameRun(t *testing.T, label string, wantRep, gotRep *rt.Report, want, got []*ir.HostArray) {
	t.Helper()
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Fatalf("%s: Report diverged\nwant %+v\ngot  %+v", label, wantRep, gotRep)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].F32, got[i].F32) ||
			!reflect.DeepEqual(want[i].F64, got[i].F64) ||
			!reflect.DeepEqual(want[i].I32, got[i].I32) {
			t.Fatalf("%s: array %q diverged", label, want[i].Decl.Name)
		}
	}
}

func TestExamplesReportInvariance(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "testdata")
	files, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found in %s (%v)", dir, err)
	}
	for _, path := range files {
		name := filepath.Base(path)
		want, ok := goldenPrograms[name]
		if !ok {
			continue // golden_test already flags the missing entry
		}
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
				refRep, refArr := runExample(t, src, want.scalars, spec, rt.Options{})
				for _, v := range perfVariants {
					prev := goruntime.GOMAXPROCS(0)
					if v.oneProc {
						goruntime.GOMAXPROCS(1)
					}
					rep, arr := runExample(t, src, want.scalars, spec, v.opts)
					goruntime.GOMAXPROCS(prev)
					checkSameRun(t, fmt.Sprintf("%s on %s (%s)", name, spec.Name, v.name), refRep, rep, refArr, arr)
				}
			}
		})
	}
}

func TestAppsReportInvariance(t *testing.T) {
	scales := map[string]float64{"MD": 0.03, "KMEANS": 0.004, "BFS": 0.002}
	list := apps.All()
	if testing.Short() {
		list = list[:1]
	}
	for _, app := range list {
		t.Run(app.Name, func(t *testing.T) {
			prog, err := Compile(app.Source)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts rt.Options) *Result {
				in, err := app.Generate(scales[app.Name], 42)
				if err != nil {
					t.Fatal(err)
				}
				res, err := prog.Run(in.Bindings, Config{Machine: sim.Desktop().WithGPUs(4), Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Verify(res.Instance); err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(rt.Options{})
			for _, v := range perfVariants {
				prev := goruntime.GOMAXPROCS(0)
				if v.oneProc {
					goruntime.GOMAXPROCS(1)
				}
				res := run(v.opts)
				goruntime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(ref.Report, res.Report) {
					t.Fatalf("%s (%s): Report diverged\nwant %+v\ngot  %+v", app.Name, v.name, ref.Report, res.Report)
				}
			}
		})
	}
}

// TestBFSReportDeterministic pins the fix for BFS's counter race: its
// kernel gathers from the array it scatters to (`if (cost[w] < 0)
// cost[w] = ...`), so two workers of one device could both pass the
// test for one vertex and both count the store, and the report moved
// from run to run. Such kernels run their workers in order
// (ir.Kernel.SerialWorkers): forty runs, specialized and interpreted
// alternating, at four OS threads, must produce one report.
func TestBFSReportDeterministic(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	app, err := apps.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	if k := prog.Module.Kernels[0]; !k.SerialWorkers {
		t.Fatal("the BFS kernel is not marked SerialWorkers")
	}
	var ref *rt.Report
	for run := 0; run < 40; run++ {
		in, err := app.Generate(0.002, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(in.Bindings, Config{Machine: sim.Desktop().WithGPUs(4), Options: rt.Options{Reference: run%2 == 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(res.Instance); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Report
		} else if !reflect.DeepEqual(ref, res.Report) {
			t.Fatalf("run %d: Report diverged\nwant %+v\ngot  %+v", run, ref, res.Report)
		}
	}
}
