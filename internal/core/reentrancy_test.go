package core

import (
	"fmt"
	"sync"
	"testing"

	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// Re-entrancy coverage for the shared-Program contract that the accd
// service relies on: one Compile, many concurrent RunOn calls (each
// with its own machine, bindings and runtime), every result
// bit-identical to the serial run of the same parameters. Run under
// `go test -race` this doubles as the data-race proof that the
// compiled Module really is immutable after Compile returns.

const reentrantSrc = `
int n, steps;
float a[n], b[n], total[1];

void main() {
    int t, i;
    #pragma acc data copy(a, total) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0 && i < n - 1) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                } else {
                    b[i] = a[i];
                }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
        #pragma acc localaccess(a) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: total[0])
            total[0] += a[i];
        }
    }
}
`

// reentrantParams is one workload variant: distinct sizes, machines
// and option sets exercise different plans from the same Module.
type reentrantParams struct {
	n, steps float64
	spec     sim.MachineSpec
	opts     rt.Options
	seed     int64
}

func reentrantVariants() []reentrantParams {
	noSpec := rt.Options{Reference: true}
	async := rt.Options{Async: true}
	return []reentrantParams{
		{n: 64, steps: 3, spec: sim.Desktop(), seed: 1},
		{n: 257, steps: 2, spec: sim.Desktop(), opts: noSpec, seed: 2},
		{n: 128, steps: 4, spec: sim.SupercomputerNode(), seed: 3},
		{n: 96, steps: 1, spec: sim.SupercomputerNode(), opts: async, seed: 4},
		{n: 200, steps: 2, spec: sim.Desktop(), opts: async, seed: 5},
	}
}

// runShared executes the shared program once for the given variant on
// a fresh machine, returning the report and final arrays.
func runShared(prog *Program, p reentrantParams) (*rt.Report, []*ir.HostArray, error) {
	b := ir.NewBindings().SetScalar("n", p.n).SetScalar("steps", p.steps)
	inst, err := prog.Module.Bind(b)
	if err != nil {
		return nil, nil, err
	}
	fillDeterministic(inst, p.seed)
	mach, err := sim.NewMachine(p.spec)
	if err != nil {
		return nil, nil, err
	}
	runtime := rt.New(mach, p.opts)
	if err := runtime.Run(inst); err != nil {
		return nil, nil, err
	}
	return runtime.Report(), inst.Arrays, nil
}

func TestProgramReentrantUnderRace(t *testing.T) {
	prog, err := Compile(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	variants := reentrantVariants()

	// Serial baselines, one per variant, from the same shared Program.
	baseRep := make([]*rt.Report, len(variants))
	baseArr := make([][]*ir.HostArray, len(variants))
	for i, p := range variants {
		rep, arr, err := runShared(prog, p)
		if err != nil {
			t.Fatal(err)
		}
		baseRep[i], baseArr[i] = rep, arr
	}

	// Hammer the one Program from many goroutines; every run must be
	// bit-identical to its serial baseline.
	const workers, rounds = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(variants)
				rep, arr, err := runShared(prog, variants[i])
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if err := diffSharedRun(baseRep[i], rep, baseArr[i], arr); err != nil {
					errs <- fmt.Errorf("worker %d round %d (variant %d): %v", w, r, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// diffSharedRun is checkSameRun without the testing.T plumbing, so it
// can run inside worker goroutines.
func diffSharedRun(wantRep, gotRep *rt.Report, want, got []*ir.HostArray) error {
	wantS, gotS := fmt.Sprintf("%+v", wantRep), fmt.Sprintf("%+v", gotRep)
	if wantS != gotS {
		return fmt.Errorf("report diverged\nwant %s\ngot  %s", wantS, gotS)
	}
	if len(want) != len(got) {
		return fmt.Errorf("array count diverged: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if fmt.Sprint(want[i].F32) != fmt.Sprint(got[i].F32) ||
			fmt.Sprint(want[i].F64) != fmt.Sprint(got[i].F64) ||
			fmt.Sprint(want[i].I32) != fmt.Sprint(got[i].I32) {
			return fmt.Errorf("array %q diverged", want[i].Decl.Name)
		}
	}
	return nil
}
