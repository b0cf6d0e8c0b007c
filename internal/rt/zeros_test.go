package rt

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// TestMadeArraysReachTheDevice: an array Bind made is taken for zeros, and
// the loader ships nothing for it, only while nothing has written it. Each
// program below writes such an array in one of the ways the fact must see,
// and every array must end bit-identical to the OpenMP run's, which reads
// and writes host memory only. Every program runs twice on each machine,
// so that the second run's copies take the storage the first one freed.
// zeros names the arrays whose fact must still hold when the run ends, the
// premise that the loader's skip was taken at all; they are create arrays,
// whose mirrors must still read zero.
func TestMadeArraysReachTheDevice(t *testing.T) {
	const n = 3001
	for _, tc := range []struct {
		name, src string
		supplied  []string // filled before Bind; every other array is made
		zeros     []string
	}{
		// b is made, partly written by a kernel and then read whole: the
		// elements the kernel skips are the zeros of fresh storage.
		{"create-partly-written", `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc data copy(a) create(b)
    {
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            b[i] = a[i] + 1.0;
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i] = b[i] * 2.0 - a[i];
        }
    }
}
`, []string{"a"}, []string{"b"}},
		// A host loop under a branch writes a and c before the region that
		// ships them.
		{"host-loop-before-region", `
int n;
float a[n], b[n];
int c[n];
void main() {
    int i;
    if (n > 1) {
        for (i = 0; i < n; i++) {
            a[i] = i * 0.5;
            c[i] = n - i;
        }
    }
    #pragma acc data copyin(a, c) copyout(b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + c[i];
        }
    }
}
`, nil, nil},
		// update host gathers a into its mirror; update device makes that
		// canonical, and the next kernel reloads it.
		{"update-host-then-device", `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc data create(a) copyout(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i] = i + 1.0;
        }
        #pragma acc update host(a)
        #pragma acc update device(a)
        #pragma acc parallel loop
        for (i = 1; i < n; i++) {
            b[i] = a[i - 1] * 2.0;
        }
    }
}
`, nil, nil},
		// Every store to out lies past every partition, so each is a miss
		// delivered to the host mirror; update device makes the mirror
		// canonical with no gather, and the next kernel ships it.
		{"miss-to-host", `
int n;
float a[n], out[n], b[n];
void main() {
    int i;
    #pragma acc data copyin(a) create(out) copyout(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(out) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n / 2; i++) {
            out[i + n / 2 + 1] = a[i] + 1.0;
        }
        #pragma acc update device(out)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = out[i];
        }
    }
}
`, []string{"a"}, nil},
	} {
		mod, _ := buildSpecInstance(t, tc.src, map[string]float64{"n": n})
		run := func(spec sim.MachineSpec, opts Options) (*ir.Instance, *Runtime) {
			bind := ir.NewBindings().SetScalar("n", n)
			rng := rand.New(rand.NewSource(5))
			for _, name := range tc.supplied {
				a := ir.NewHostArray(mod.Prog.Scope[name], n)
				fillHost(rng, a)
				bind.SetArray(name, a)
			}
			inst, err := mod.Bind(bind)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := sim.NewMachine(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := New(mach, opts)
			if err := r.Run(inst); err != nil {
				t.Fatalf("%s on %s: %v", tc.name, spec.Name, err)
			}
			return inst, r
		}
		want, _ := run(sim.Desktop(), Options{Mode: ModeCPU})
		for _, spec := range []sim.MachineSpec{sim.Desktop().WithGPUs(1), sim.Desktop(), sim.Cluster(2, 2)} {
			for pass := range 2 {
				got, r := run(spec, Options{})
				for slot, a := range got.Arrays {
					for i := range a.Len() {
						g, w := ir.LoadAs[float64](a, i), ir.LoadAs[float64](want.Arrays[slot], i)
						if slices.Contains(tc.zeros, a.Decl.Name) {
							w = 0
						}
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s on %s, run %d: %s[%d] = %v, want %v", tc.name, spec.Name, pass+1, a.Decl.Name, i, g, w)
						}
					}
				}
				for _, st := range r.arrays {
					if st == nil {
						continue
					}
					if want := slices.Contains(tc.zeros, st.decl.Name); st.zeros != want {
						t.Errorf("%s on %s: %s ends the run with zeros %v, want %v", tc.name, spec.Name, st.decl.Name, st.zeros, want)
					}
				}
			}
		}
	}
}

// TestFilledAfterBindPanicsInRaceBuild: a caller that fills an array
// Bind made, instead of supplying it, would have the devices read zeros
// for it. A race build checks the mirror when it first ships and names
// the array.
func TestFilledAfterBindPanicsInRaceBuild(t *testing.T) {
	if !sim.RaceDetector {
		t.Skip("the zero check is on in race builds only")
	}
	const src = `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        b[i] = a[i] * 2.0;
    }
}
`
	mod, _ := buildSpecInstance(t, src, map[string]float64{"n": 100})
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 100))
	if err != nil {
		t.Fatal(err)
	}
	inst.Arrays[0].F32[42] = 1 // the bug the check is for
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `array "a" was filled after Bind made it (element 42)`) {
			t.Errorf("recovered %q, want a panic naming the array", msg)
		}
	}()
	_ = New(mach, Options{}).Run(inst)
}
