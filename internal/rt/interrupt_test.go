package rt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

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
