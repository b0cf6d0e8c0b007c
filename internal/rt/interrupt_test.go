package rt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// iteratedStencil is a multi-launch program: `steps` kernel launches
// inside one data region, so an Interrupt hook armed after the first
// few polls aborts mid-run with device memory still resident.
const interruptStencil = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
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
    }
}
`

// TestInterruptAbortsRun pins the cancellation contract: a poll that
// starts failing mid-run aborts with an *InterruptedError wrapping the
// cause, the cause stays visible to errors.Is, and the epilogue still
// releases every device allocation.
func TestInterruptAbortsRun(t *testing.T) {
	prog, err := cc.ParseProgram(interruptStencil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	bind := ir.NewBindings().SetScalar("n", 256).SetScalar("steps", 50)
	inst, err := mod.Bind(bind)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	var polls atomic.Int64 // the kernels' workers poll too
	r := New(mach, Options{Interrupt: func() error {
		if polls.Add(1) > 5 {
			return context.DeadlineExceeded
		}
		return nil
	}})
	err = r.Run(inst)
	if err == nil {
		t.Fatal("run completed despite failing Interrupt polls")
	}
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v is not an *InterruptedError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause %v lost: want errors.Is(context.DeadlineExceeded)", err)
	}
	for _, g := range mach.GPUs() {
		if used := g.UsedBytes(); used != 0 {
			t.Fatalf("%s still holds %d bytes after interrupted run", g, used)
		}
	}
}

// TestInterruptNilIdentical pins that a never-failing hook leaves the
// run bit-identical to one without the hook.
func TestInterruptNilIdentical(t *testing.T) {
	bindA := ir.NewBindings().SetScalar("n", 512).SetScalar("steps", 4)
	instA, rA := exec(t, interruptStencil, sim.Desktop(), Options{}, bindA)

	bindB := ir.NewBindings().SetScalar("n", 512).SetScalar("steps", 4)
	prog, _ := cc.ParseProgram(interruptStencil)
	mod, _ := translator.Translate(prog)
	instB, err := mod.Bind(bindB)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	mach, _ := sim.NewMachine(sim.Desktop())
	rB := New(mach, Options{Interrupt: func() error { return nil }})
	if err := rB.Run(instB); err != nil {
		t.Fatalf("run: %v", err)
	}
	aA, _ := instA.Array("a")
	aB, _ := instB.Array("a")
	for i := range aA.F32 {
		if aA.F32[i] != aB.F32[i] {
			t.Fatalf("a[%d] differs with benign Interrupt hook: %v vs %v", i, aA.F32[i], aB.F32[i])
		}
	}
	if rA.Report().String() != rB.Report().String() {
		t.Fatalf("report differs with benign Interrupt hook:\n%v\nvs\n%v", rA.Report(), rB.Report())
	}
}

// TestInterruptHostLoop pins the host half of the contract: a host loop
// that never reaches a directive still polls Interrupt (every 1024
// back-edges, while and for alike), so a cancelled run comes back as an
// *InterruptedError instead of holding its caller for ever.
func TestInterruptHostLoop(t *testing.T) {
	for _, src := range []string{
		`int x; void main(){ x = 0; while (1) { x = x + 1; } }`,
		`int x, j; void main(){ x = 0; for (j = 0; j >= 0; j = j * 0) { x = x + 1; } }`,
	} {
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		mod, err := translator.Translate(prog)
		if err != nil {
			t.Fatalf("translate: %v", err)
		}
		inst, err := mod.Bind(ir.NewBindings())
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatalf("machine: %v", err)
		}
		polls := 0
		r := New(mach, Options{Interrupt: func() error {
			if polls++; polls > 3 {
				return context.Canceled
			}
			return nil
		}})
		err = r.Run(inst)
		var ie *InterruptedError
		if !errors.As(err, &ie) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v; want an *InterruptedError wrapping context.Canceled", src, err)
		}
		if x := inst.Env.Ints[prog.Scope["x"].Slot]; x != 4*1024-1 {
			t.Errorf("%s: interrupted after %d trips; want the fourth poll, at trip 4096", src, x)
		}
	}
}

// TestInterruptKernel pins the kernel half of the contract: one launch
// with an enormous trip count polls Interrupt from inside Phase B — on the
// tile executor, on the per-iteration specialized body and on the
// interpreter — so a cancelled run comes back as an *InterruptedError
// within 100 ms instead of holding its caller until the loop ends. The
// inner legs hold the same of a launch of few iterations whose inner loop
// has the enormous trip count (m), on every engine that runs inner loops.
func TestInterruptKernel(t *testing.T) {
	const tiled = `int n; float s; void main(){ int i; s = 0.0;
#pragma acc parallel loop reduction(+:s)
for (i = 0; i < n; i++) { s += 1.0; } }`
	const untiled = `int n; float a_[4]; void main(){ int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a_[1] = a_[1] + 1.0; } }`
	// One iteration counts the trips of its inner loop into s.
	inner := func(loop, store string) string {
		return `int n, m; float a_[n + 2]; void main(){ int i; int j; float s;
#pragma acc parallel loop
for (i = 0; i < n; i++) { s = 0.0; ` + loop + ` { s += 1.0; } ` + store + ` } }`
	}
	const (
		uniform   = `for (j = 0; j < m; j++)`
		divergent = `for (j = 0; j < m + i % 2; j++)`
		strided   = `for (j = 0; j < m; j = j + 2)`
		while     = `j = 0; while (j < m) { j = j + 1; } for (j = 0; j < 1; j++)`
		own       = `a_[i] = s;`
		shared    = `a_[1] = a_[1] + s;`
	)
	outer := [2]map[string]float64{{"n": 4096}, {"n": 100_000_000_000}}
	trips := func(n float64) [2]map[string]float64 {
		return [2]map[string]float64{{"n": n, "m": 64}, {"n": n, "m": 2_000_000_000}}
	}
	lockstep := func(s SpecStats) bool { return s.TiledIters > 0 && s.LaneMajorTrips == 0 && len(s.Untiled) == 0 }
	perIter := func(s SpecStats) bool { return s.TiledIters == 0 && s.Untiled["alias"] > 0 }
	interp := func(s SpecStats) bool { return s.Hits == 0 }
	for _, tc := range []struct {
		name, src string
		opts      Options
		route     func(SpecStats) bool
		scalars   [2]map[string]float64 // the small run proving the route, the one interrupted
	}{
		{"tiled", tiled, Options{}, func(s SpecStats) bool { return s.TiledIters > 0 }, outer},
		{"untiled", untiled, Options{}, perIter, outer},
		{"reference", tiled, Options{Reference: true}, interp, outer},
		// A uniform loop runs trip by trip for the whole tile; one whose
		// trips differ by lane as flat tiles, or, the launch too small for
		// those, lane by lane through the per-iteration loop.
		{"inner-lockstep", inner(uniform, own), Options{}, lockstep, trips(64)},
		{"inner-flat", inner(divergent, own), Options{}, lockstep, trips(8192)},
		{"inner-lane-major", inner(divergent, own), Options{}, func(s SpecStats) bool { return s.LaneMajorTrips > 0 }, trips(4)},
		// The per-iteration body: a counted loop (fused) and one that is not.
		{"inner-fused", inner(uniform, shared), Options{}, perIter, trips(4)},
		{"inner-open-coded", inner(strided, shared), Options{}, perIter, trips(4)},
		// The interpreter: a for under Reference, a while (which no
		// specialized form takes).
		{"inner-reference", inner(uniform, own), Options{Reference: true}, interp, trips(4)},
		{"inner-while", inner(while, own), Options{}, interp, trips(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bind := func(scalars map[string]float64) *ir.Bindings {
				b := ir.NewBindings()
				for name, v := range scalars {
					b.SetScalar(name, v)
				}
				return b
			}
			_, small := exec(t, tc.src, sim.Desktop(), tc.opts, bind(tc.scalars[0]))
			if st := small.SpecStats(); !tc.route(st) {
				t.Fatalf("not on the %s route: %+v", tc.name, st)
			}

			prog, err := cc.ParseProgram(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := translator.Translate(prog)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := mod.Bind(bind(tc.scalars[1]))
			if err != nil {
				t.Fatal(err)
			}
			mach, err := sim.NewMachine(sim.Desktop())
			if err != nil {
				t.Fatal(err)
			}
			// Interrupt is called from the kernel's worker goroutines.
			var fire atomic.Bool
			var firedAt atomic.Int64
			timer := time.AfterFunc(20*time.Millisecond, func() { fire.Store(true) })
			defer timer.Stop()
			opts := tc.opts
			opts.Interrupt = func() error {
				if !fire.Load() {
					return nil
				}
				firedAt.CompareAndSwap(0, time.Now().UnixNano())
				return context.DeadlineExceeded
			}
			err = New(mach, opts).Run(inst)
			late := time.Duration(time.Now().UnixNano() - firedAt.Load())
			var ie *InterruptedError
			if !errors.As(err, &ie) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v; want an *InterruptedError wrapping context.DeadlineExceeded", err)
			}
			if late > 100*time.Millisecond {
				t.Errorf("run returned %v after Interrupt fired; want under 100ms", late)
			}
			for _, g := range mach.GPUs() {
				if used := g.UsedBytes(); used != 0 {
					t.Errorf("%s still holds %d bytes after the interrupted run", g, used)
				}
			}
		})
	}
}
