package rt_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// TestInterruptKernel pins the kernel half of the contract: one launch
// with an enormous trip count polls Interrupt from inside Phase B — on the
// tile executor and on the interpreter, for a chunk the alias check hands
// over, a kernel the tiles reject or under Reference — and from the
// shadow auditor's oracle, which runs the launch before the runtime
// touches it; so a cancelled run comes back as an *InterruptedError within
// 100 ms, its device memory released, instead of holding its caller until
// the loop ends. The inner legs hold the same of a launch of few
// iterations whose inner loop has the enormous trip count (m), on every
// engine that runs inner loops.
func TestInterruptKernel(t *testing.T) {
	const tiled = `int n; float s; void main(){ int i; s = 0.0;
#pragma acc parallel loop reduction(+:s)
for (i = 0; i < n; i++) { s += 1.0; } }`
	const aliased = `int n; float a_[4]; void main(){ int i;
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
	tiles := func(s rt.SpecStats) bool { return s.TiledIters > 0 && s.Fallbacks == 0 }
	alias := func(s rt.SpecStats) bool { return s.Hits == 0 && s.FallbackReasons["alias"] > 0 }
	rejected := func(s rt.SpecStats) bool { return s.Hits == 0 && s.Rejects["shape"] > 0 }
	interp := func(s rt.SpecStats) bool { return s.Hits == 0 }
	for _, tc := range []struct {
		name, src string
		opts      rt.Options
		route     func(rt.SpecStats) bool
		scalars   [2]map[string]float64 // the small run proving the route, the one interrupted
	}{
		{"tiled", tiled, rt.Options{}, tiles, outer},
		// One element stored and loaded every iteration: the alias check
		// sends the chunks to the interpreter.
		{"untiled", aliased, rt.Options{}, alias, outer},
		{"reference", tiled, rt.Options{Reference: true}, interp, outer},
		{"audited", tiled, rt.Options{Auditor: audit.New(audit.Options{})}, tiles, outer},
		// A uniform loop runs trip by trip for the whole tile, one whose
		// trips differ by lane as flat tiles, however small the launch.
		{"inner-lockstep", inner(uniform, own), rt.Options{}, tiles, trips(64)},
		{"inner-flat", inner(divergent, own), rt.Options{}, tiles, trips(8192)},
		{"inner-lane-major", inner(divergent, own), rt.Options{}, tiles, trips(4)},
		// The interpreter: a counted loop beside an aliased store, a loop
		// that is not counted (the tiles reject the kernel), a for under
		// Reference, a while (which no specialized form takes).
		{"inner-fused", inner(uniform, shared), rt.Options{}, alias, trips(4)},
		{"inner-open-coded", inner(strided, shared), rt.Options{}, rejected, trips(4)},
		{"inner-reference", inner(uniform, own), rt.Options{Reference: true}, interp, trips(4)},
		{"inner-while", inner(while, own), rt.Options{}, interp, trips(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(scalars map[string]float64) *ir.Instance {
				prog, err := cc.ParseProgram(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				mod, err := translator.Translate(prog)
				if err != nil {
					t.Fatal(err)
				}
				b := ir.NewBindings()
				for name, v := range scalars {
					b.SetScalar(name, v)
				}
				inst, err := mod.Bind(b)
				if err != nil {
					t.Fatal(err)
				}
				return inst
			}
			mach, err := sim.NewMachine(sim.Desktop())
			if err != nil {
				t.Fatal(err)
			}
			small := rt.New(mach, tc.opts)
			if err := small.Run(build(tc.scalars[0])); err != nil {
				t.Fatal(err)
			}
			if st := small.SpecStats(); !tc.route(st) {
				t.Fatalf("not on the %s route: %+v", tc.name, st)
			}

			inst := build(tc.scalars[1])
			if mach, err = sim.NewMachine(sim.Desktop()); err != nil {
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
			err = rt.New(mach, opts).Run(inst)
			late := time.Duration(time.Now().UnixNano() - firedAt.Load())
			var ie *rt.InterruptedError
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
