package rt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// White-box tests and the Phase-B benchmark gate for the specialized
// kernel executors (PR 4): the bulk dirty marker against a naive
// per-iteration oracle, the fallback decision matrix, kernel-body error
// propagation, the steady-state allocation budget, and the
// legacy-vs-specialized wall-clock comparison bench-quick reports.

const specSaxpySrc = `
int n;
float a;
float x[n], y[n];
void main() {
    int i;
    #pragma acc data copyin(x) copy(y)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            y[i] = a * x[i] + y[i];
        }
    }
}
`

// specKMeansSrc is KMEANS's assignment kernel: a feature row loaded in
// two nested loops and again by the centre update, one group of held
// loads, whose slab each worker's tile scratch carves once.
const specKMeansSrc = `
int n, k, nf;
float feat[n * nf], cl[k * nf], newc[k * nf];
int member[n];
void main() {
    int i;
    #pragma acc data copyin(feat, cl) copy(newc, member)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f, best;
            float bestd;
            bestd = 1.0e30;
            best = 0;
            for (c = 0; c < k; c++) {
                float d, diff;
                d = 0.0;
                for (f = 0; f < nf; f++) {
                    diff = feat[i * nf + f] - cl[c * nf + f];
                    d += diff * diff;
                }
                if (d < bestd) {
                    bestd = d;
                    best = c;
                }
            }
            member[i] = best;
            for (f = 0; f < nf; f++) {
                #pragma acc reductiontoarray(+: newc[best * nf + f])
                newc[best * nf + f] += feat[i * nf + f];
            }
        }
    }
}
`

const specStencilSrc = `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
        }
    }
}
`

// specGuardedStencilSrc is the boundary-guarded localaccess stencil of
// examples/stencil1d and the stencil_dist benchmark workload: the
// affine && guard that index-set splitting takes off the interpreter.
const specGuardedStencilSrc = `
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

// SpecSaxpySrc and SpecGuardedStencilSrc are exported for the rt_test
// files.
const SpecSaxpySrc, SpecGuardedStencilSrc = specSaxpySrc, specGuardedStencilSrc

// specSingleGuardSrc is the one-sided form: the guarded load a[i - 1]
// is out of range at i = 0, an iteration the guard never lets it run.
const specSingleGuardSrc = `
int n, steps;
float a[n], b[n];
void main() {
    int t, i;
    #pragma acc data copy(a) copy(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 0)
            #pragma acc localaccess(b) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0) {
                    b[i] = 0.5 * a[i] + 0.5 * a[i - 1];
                }
            }
        }
    }
}
`

// guardedStencilRef is specGuardedStencilSrc in plain Go: double
// arithmetic, one rounding to float per store. The explicit float64
// conversions keep the products from fusing into the sums.
// TestSpecScratchLease drives an executor's tile-scratch free list the way
// a launch's workers do, from several goroutines at once (under the race
// detector the simulated workers themselves run one by one): no two
// concurrent holders may share a VecEnv, and the list never holds more
// than were out at once.
func TestSpecScratchLease(t *testing.T) {
	mod, _ := buildSpecInstance(t, specSaxpySrc, map[string]float64{"n": 4096, "a": 1.5})
	spec := mod.Kernels[0].Spec
	if spec == nil || spec.VecBody == nil {
		t.Fatal("saxpy has no tiled body")
	}
	const workers, rounds = 8, 200
	ex := &specExec{spec: spec}
	var held [workers]atomic.Pointer[ir.VecEnv]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				vm := ex.lease(64)
				held[w].Store(vm)
				for o := range held {
					if o != w && held[o].Load() == vm {
						t.Errorf("workers %d and %d hold the same scratch", w, o)
					}
				}
				held[w].Store(nil)
				ex.release(vm)
			}
		}(w)
	}
	wg.Wait()
	if len(ex.free) == 0 || len(ex.free) > workers {
		t.Errorf("free list holds %d scratch sets after %d workers", len(ex.free), workers)
	}
}

// TestHostileMaskedLanes pins the lanes-not-speculation rule of the
// lockstep tiles: what an inactive lane holds — an index far outside
// the array, a zero divisor — is never dereferenced or divided by, and
// what it would compute — inf - inf in the lanes whose divisor is zero —
// never reaches a private scalar's vector, through the fused assignment
// either (fuseLanes: "=" over -, "+=" and "-=" over a product).
// The tiled run must neither fault nor move a counter relative to the
// interpreter, which evaluates the guarded expressions only where the
// guards hold.
func TestHostileMaskedLanes(t *testing.T) {
	const src = `
int n, m;
int idx_[n], den_[n], a_[m], out_[n];
float big_[n], outf_[n];
void main() {
    int i;
    #pragma acc data copyin(idx_, den_, a_, big_) copyout(out_, outf_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int j, d, v;
            float x, y, s;
            j = idx_[i];
            d = den_[i];
            v = 0;
            x = big_[i] * 10.0;
            y = x;
            s = 1.0;
            if (d != 0) {
                s = x - y;
                s += x * y;
                s -= y * 0.5;
            }
            outf_[i] = s;
            if (j >= 0) {
                if (j < m) {
                    v = a_[j];
                }
            }
            if (d != 0) {
                v = v + 1000 / d + v % d;
            }
            out_[i] = v;
        }
    }
}
`
	const n, m = 3000, 97
	run := func(opts Options) (*Runtime, *ir.Instance) {
		mod, inst := buildSpecInstance(t, src, map[string]float64{"n": n, "m": m})
		if k := mod.Kernels[0]; k.Spec == nil || k.Spec.VecBody == nil {
			t.Fatalf("kernel has no tiled body (%q); test premise broken", k.SpecReason)
		}
		idx, _ := inst.Array("idx_")
		den, _ := inst.Array("den_")
		for i := range idx.I32 {
			switch i % 4 {
			case 0:
				idx.I32[i] = -1000000007 // far below the array
			case 1:
				idx.I32[i] = 2000000000 // far above it
			default:
				idx.I32[i] = int32(i % m)
			}
			den.I32[i] = int32(i%5 - 2) // zero in one lane of five
		}
		big, _ := inst.Array("big_")
		for i := range big.F32 {
			if big.F32[i] = float32(i%7) - 3; i%5 == 2 {
				big.F32[i] = 3e38 // x and y are +Inf where the divisor is zero
			}
		}
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		return r, inst
	}
	ref, refInst := run(Options{Reference: true})
	r, inst := run(Options{})
	if st := r.SpecStats(); st.TiledIters != n || st.Fallbacks != 0 {
		t.Fatalf("tiled %d of %d iterations, fallbacks %v", st.TiledIters, n, st.FallbackReasons)
	}
	if !reflect.DeepEqual(ref.Report(), r.Report()) {
		t.Fatalf("Report diverged\ninterp %+v\ntiled  %+v", ref.Report(), r.Report())
	}
	want, _ := refInst.Array("out_")
	got, _ := inst.Array("out_")
	if !reflect.DeepEqual(want.I32, got.I32) {
		t.Fatal("out_ diverged")
	}
	wantF, _ := refInst.Array("outf_")
	gotF, _ := inst.Array("outf_")
	for i, w := range wantF.F32 {
		if g := gotF.F32[i]; g != w || i%5 == 2 && g != 1 {
			t.Fatalf("outf_[%d] = %v tiled, %v interpreted (1 where the arm is skipped)", i, g, w)
		}
	}
}

func guardedStencilRef(a []float32, steps int) []float32 {
	a = append([]float32(nil), a...)
	b := make([]float32, len(a))
	for s := 0; s < steps; s++ {
		for i := range a {
			if i > 0 && i < len(a)-1 {
				b[i] = float32(float64(0.25*float64(a[i-1])) + float64(0.5*float64(a[i])) + float64(0.25*float64(a[i+1])))
			} else {
				b[i] = a[i]
			}
		}
		copy(a, b)
	}
	return a
}

// buildSpecInstance compiles a source and binds it with deterministic
// array contents.
func buildSpecInstance(tb testing.TB, src string, scalars map[string]float64) (*ir.Module, *ir.Instance) {
	tb.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		tb.Fatal(err)
	}
	bind := ir.NewBindings()
	for name, v := range scalars {
		bind.SetScalar(name, v)
	}
	inst, err := mod.Bind(bind)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, a := range inst.Arrays {
		fillHost(rng, a)
	}
	return mod, inst
}

// TestSpecFastPathTaken pins that an eligible kernel actually runs the
// fast path (so the differential suites compare spec against interp,
// not interp against itself), that only the Reference
// switch keeps the executor away, and that an armed fault plan or an
// attached auditor does not.
func TestSpecFastPathTaken(t *testing.T) {
	scalars := map[string]float64{"n": 4096, "a": 1.5}
	run := func(opts Options, plan *sim.FaultPlan) *Runtime {
		_, inst := buildSpecInstance(t, specSaxpySrc, scalars)
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		mach.InjectFaults(plan)
		r := New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		return r
	}

	for label, r := range map[string]*Runtime{
		"bare":             run(Options{}, nil),
		"armed fault plan": run(Options{}, &sim.FaultPlan{Seed: 1, TransferFailRate: 1e-12}),
		"audit mode":       run(Options{Auditor: noopAudit{}}, nil),
	} {
		if len(r.specExecs) != 1 {
			t.Fatalf("%s: want 1 cached executor, have %d", label, len(r.specExecs))
		}
		if h := r.SpecStats().Hits; h != int64(r.mach.NumGPUs()) {
			t.Fatalf("%s: fast path handled %d GPU chunks, want %d", label, h, r.mach.NumGPUs())
		}
	}
	if r := run(Options{Reference: true}, nil); len(r.specExecs) != 0 {
		t.Fatal("Reference must keep the executor cache empty")
	}
}

// noopAudit arms r.auditing() without checking anything.
type noopAudit struct{}

func (noopAudit) BeginRun(*ir.Instance) error                                       { return nil }
func (noopAudit) BeforeLaunch(*ir.Kernel, *ir.Env) error                            { return nil }
func (noopAudit) AfterLaunch(*ir.Kernel, *ir.Env, []AuditCopy, time.Duration) error { return nil }
func (noopAudit) AfterEnterData(*ir.DataRegion, *ir.Env, time.Duration) error       { return nil }
func (noopAudit) AfterExitData(*ir.DataRegion, *ir.Env, time.Duration) error        { return nil }
func (noopAudit) AfterUpdate(*ir.UpdateOp, *ir.Env, time.Duration) error            { return nil }

// TestSpecIneligibleKernelHasNoSpec pins translator-side eligibility:
// a conditional expression (the one shape the spec compiler still
// rejects) must leave Kernel.Spec nil with a "branch" reason, while
// the formerly-ineligible indirect store now compiles — with a prover.
func TestSpecIneligibleKernelHasNoSpec(t *testing.T) {
	src := `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        out_[i] = in_[i] > 0 ? in_[i] : 0;
    }
}
`
	mod, _ := buildSpecInstance(t, src, map[string]float64{"n": 64})
	if mod.Kernels[0].Spec != nil {
		t.Fatal("conditional expression compiled a KernelSpec; want interpreter-only")
	}
	if r := mod.Kernels[0].SpecReason; r != "branch" {
		t.Fatalf("SpecReason = %q, want \"branch\"", r)
	}
	// A short-circuit operator over array loads is data-dependent, not
	// an affine guard: it must not be split, and stays a "branch" reject.
	src = `
int n;
int a[n], b[n], out_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        if (a[i] > 0 && b[i] > 0) {
            out_[i] = a[i] + b[i];
        }
    }
}
`
	mod, _ = buildSpecInstance(t, src, map[string]float64{"n": 64})
	if k := mod.Kernels[0]; k.Spec != nil || k.SpecReason != "branch" {
		t.Fatalf("data-dependent && guard: spec %v, reason %q; want no spec, \"branch\"", k.Spec != nil, k.SpecReason)
	}
	// A scatter at top level has no tiled form; inside a loop it runs as
	// flat tiles, its index proved at launch.
	const scatter = `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i, e;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        LOOP out_[idx_[i]] = in_[i];
    }
}
`
	mod, _ = buildSpecInstance(t, strings.Replace(scatter, "LOOP", "", 1), map[string]float64{"n": 64})
	if k := mod.Kernels[0]; k.Spec != nil || k.SpecReason != "shape" {
		t.Fatalf("top-level scatter: spec %v, reason %q; want no spec, \"shape\"", k.Spec != nil, k.SpecReason)
	}
	mod, _ = buildSpecInstance(t, strings.Replace(scatter, "LOOP", "for (e = 0; e < 1; e++)", 1), map[string]float64{"n": 64})
	if mod.Kernels[0].Spec == nil {
		t.Fatal("scatter in a loop did not compile a KernelSpec")
	}
	if mod.Kernels[0].Spec.Prover == nil {
		t.Fatal("scatter spec has no interval prover")
	}
	mod, _ = buildSpecInstance(t, specSaxpySrc, map[string]float64{"n": 64, "a": 1})
	if mod.Kernels[0].Spec == nil {
		t.Fatal("saxpy kernel did not compile a KernelSpec")
	}
	if mod.Kernels[0].SpecReason != "" {
		t.Fatalf("saxpy SpecReason = %q, want empty", mod.Kernels[0].SpecReason)
	}
	// A lowered node keeps the body-assigned scalars it reads as one bit
	// each: 64 private scalars compile, a 65th makes the body a "shape"
	// reject.
	for _, m := range []int{64, 65} {
		var body strings.Builder
		for s := range m {
			fmt.Fprintf(&body, "        int p%d;\n        p%d = i + %d;\n        out_[i] = out_[i] + p%d;\n", s, s, s, s)
		}
		src := "int n;\nint out_[n];\nvoid main() {\n    int i;\n    #pragma acc parallel loop\n    for (i = 0; i < n; i++) {\n" +
			body.String() + "    }\n}\n"
		mod, _ = buildSpecInstance(t, src, map[string]float64{"n": 64})
		k := mod.Kernels[0]
		if want := m <= 64; (k.Spec != nil) != want || (!want && k.SpecReason != "shape") {
			t.Fatalf("%d assigned scalars: spec %v, reason %q", m, k.Spec != nil, k.SpecReason)
		}
	}
}

// TestAffineGuardSpecializes pins the two refusals index-set splitting
// removed: the && boundary guard (formerly a compile-time "branch"
// reject) and the single-guard form (formerly a "range" fallback on
// GPU 0 every launch) run every chunk of every launch on the fast path.
func TestAffineGuardSpecializes(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		kernels   int // parallel loops per step
	}{
		{"boundary", specGuardedStencilSrc, 2},
		{"single", specSingleGuardSrc, 1},
	} {
		for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.Cluster(2, 2)} {
			const n, steps = 4096, 3
			mod, inst := buildSpecInstance(t, tc.src, map[string]float64{"n": n, "steps": steps})
			for _, k := range mod.Kernels {
				if k.Spec == nil {
					t.Fatalf("%s: kernel %s has no KernelSpec (reason %q)", tc.name, k.Name, k.SpecReason)
				}
			}
			if mod.Kernels[0].Spec.Guard == nil {
				t.Fatalf("%s: guarded kernel was not split", tc.name)
			}
			a0 := append([]float32(nil), inst.Arrays[0].F32...)
			mach, err := sim.NewMachine(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := New(mach, Options{})
			if err := r.Run(inst); err != nil {
				t.Fatal(err)
			}
			label := tc.name + " on " + spec.Name
			launches := r.Report().KernelLaunches
			if launches != steps*tc.kernels {
				t.Fatalf("%s: %d launches, want %d", label, launches, steps*tc.kernels)
			}
			if fb := r.SpecStats().Fallbacks; fb != 0 {
				t.Errorf("%s: %d interpreter fallbacks %v", label, fb, r.SpecStats().FallbackReasons)
			}
			if rej := r.SpecStats().Rejects; len(rej) != 0 {
				t.Errorf("%s: rejected chunks %v", label, rej)
			}
			if hits, want := r.SpecStats().Hits, int64(launches*mach.NumGPUs()); hits != want {
				t.Errorf("%s: %d chunks specialized, want %d (launches x GPUs)", label, hits, want)
			}
			// The first and the last GPU each cut one boundary iteration
			// off; the GPUs between them run one piece.
			if pieces, want := r.SpecStats().SplitPieces, int64(steps*(mach.NumGPUs()+len(mod.Kernels[0].Spec.Guard.Atoms))); pieces != want {
				t.Errorf("%s: %d pieces, want %d", label, pieces, want)
			}
			if tc.name == "boundary" {
				want := guardedStencilRef(a0, steps)
				for i, v := range inst.Arrays[0].F32 {
					if v != want[i] {
						t.Fatalf("%s: a[%d] = %v, want %v", label, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestGuardCuts checks the cut-point solver against direct evaluation:
// between consecutive cuts the comparison must be constant, for every
// sign of the coefficient, every operator, roots at and around every
// offset, and operands near the int64 limits.
func TestGuardCuts(t *testing.T) {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	cmp := func(op string, x, y int64) bool {
		switch op {
		case "<":
			return x < y
		case "<=":
			return x <= y
		case ">":
			return x > y
		case ">=":
			return x >= y
		case "==":
			return x == y
		}
		return x != y
	}
	check := func(op string, ax, bx, ay, by, n int64) {
		t.Helper()
		cuts, ok := guardCuts(nil, op, ax, bx, ay, by, n)
		if !ok {
			t.Fatalf("(%d*t%+d) %s (%d*t%+d) over %d: refused", ax, bx, op, ay, by, n)
		}
		if len(cuts) > 2 {
			t.Fatalf("(%d*t%+d) %s (%d*t%+d) over %d: %d cuts %v", ax, bx, op, ay, by, n, len(cuts), cuts)
		}
		isCut := map[int64]bool{}
		for _, c := range cuts {
			if c <= 0 || c >= n {
				t.Fatalf("(%d*t%+d) %s (%d*t%+d) over %d: cut %d outside (0, n)", ax, bx, op, ay, by, n, c)
			}
			isCut[c] = true
		}
		for tt := int64(1); tt < n; tt++ {
			prev, cur := cmp(op, ax*(tt-1)+bx, ay*(tt-1)+by), cmp(op, ax*tt+bx, ay*tt+by)
			if prev != cur && !isCut[tt] {
				t.Fatalf("(%d*t%+d) %s (%d*t%+d) over %d: truth changes at %d, cuts %v", ax, bx, op, ay, by, n, tt, cuts)
			}
			if prev == cur && isCut[tt] && op != "==" && op != "!=" {
				t.Fatalf("(%d*t%+d) %s (%d*t%+d) over %d: spurious cut at %d", ax, bx, op, ay, by, n, tt)
			}
		}
	}
	const n = 12
	for _, op := range ops {
		for _, ax := range []int64{-3, -2, -1, 0, 1, 2, 3} {
			for bx := int64(-40); bx <= 40; bx++ {
				check(op, ax, bx, 0, 0, n)   // a*t + b op 0
				check(op, 1, 0, ax, bx+5, n) // t op a*t + b: coefficients 1-a
				check(op, ax, bx, -ax, 7, n) // doubled coefficient
			}
		}
	}

	// Large operands: i < n - 1 with i starting near 2^62, no overflow.
	const big = int64(1) << 62
	for _, op := range ops {
		cuts, ok := guardCuts(nil, op, 1, big, 0, big+5, 100)
		if !ok {
			t.Fatalf("%s: large operands refused", op)
		}
		want := map[string][]int64{"<": {5}, "<=": {6}, ">": {6}, ">=": {5}, "==": {5, 6}, "!=": {5, 6}}[op]
		if len(cuts) != len(want) {
			t.Fatalf("%s: cuts %v, want %v", op, cuts, want)
		}
		for i := range want {
			if cuts[i] != want[i] {
				t.Fatalf("%s: cuts %v, want %v", op, cuts, want)
			}
		}
	}
	// Operands that leave int64 inside the range are refused, whichever
	// side or step overflows.
	for _, tc := range [][5]int64{
		{1, math.MaxInt64 - 3, 0, 0, 100},           // x overflows
		{0, 0, -1, math.MinInt64 + 3, 100},          // y overflows
		{0, math.MaxInt64, 0, -1, 1},                // x - y overflows
		{math.MaxInt64, 0, 0, 0, 3},                 // slope times offset overflows
		{1 << 62, 0, -(1 << 62), 0, 2},              // difference of slopes overflows
		{math.MinInt64, 0, 0, 0, 2},                 // slope cannot be negated
		{0, math.MinInt64, 0, 0, 2},                 // offset cannot be negated
		{2, 0, 1, math.MinInt64 + 1, math.MaxInt64}, // everything at once
	} {
		if _, ok := guardCuts(nil, "<", tc[0], tc[1], tc[2], tc[3], tc[4]); ok {
			t.Errorf("guardCuts(%v) accepted overflowing operands", tc)
		}
	}
}

// TestFaultingOperandFallsBack pins that a loop-invariant operand that
// faults (division by zero) in an access index or in an affine guard —
// both evaluated on the host strand before the fast path starts — hands
// the chunk to the interpreter, whose kernel-body error the launch then
// reports, instead of crashing the process.
func TestFaultingOperandFallsBack(t *testing.T) {
	for name, stmt := range map[string]string{
		"index": "out_[i + n / d - n / d] = in_[i];",
		"guard": "if (i > n / d) { out_[i] = in_[i]; }",
	} {
		src := `
int n, d;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        ` + stmt + `
    }
}
`
		var msgs []string
		for _, opts := range []Options{{}, {Reference: true}} {
			mod, inst := buildSpecInstance(t, src, map[string]float64{"n": 512, "d": 0})
			if mod.Kernels[0].Spec == nil {
				t.Fatalf("%s: kernel did not compile a KernelSpec", name)
			}
			mach, err := sim.NewMachine(sim.Desktop().WithGPUs(1))
			if err != nil {
				t.Fatal(err)
			}
			runErr := New(mach, opts).Run(inst)
			if runErr == nil || !strings.Contains(runErr.Error(), "integer divide by zero") {
				t.Fatalf("%s, opts %+v: error %v does not name the fault", name, opts, runErr)
			}
			msgs = append(msgs, runErr.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: fast-path error %q != interpreter error %q", name, msgs[0], msgs[1])
		}
	}
}

// TestKernelBodyErrorPropagates is the PR's error-path satellite: a
// faulting kernel body (integer division by zero) must surface as an
// error from Run — identically with the fast path on or off, and on
// the CPU path — instead of crashing the process.
func TestKernelBodyErrorPropagates(t *testing.T) {
	src := `
int n, d;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        out_[i] = in_[i] / d;
    }
}
`
	scalars := map[string]float64{"n": 512, "d": 0}
	var msgs []string
	for _, opts := range []Options{
		{},
		{Reference: true},
		{Mode: ModeCPU},
	} {
		_, inst := buildSpecInstance(t, src, scalars)
		mach, err := sim.NewMachine(sim.Desktop().WithGPUs(1))
		if err != nil {
			t.Fatal(err)
		}
		runErr := New(mach, opts).Run(inst)
		if runErr == nil {
			t.Fatalf("opts %+v: faulting body did not error", opts)
		}
		if !strings.Contains(runErr.Error(), "integer divide by zero") {
			t.Fatalf("opts %+v: error %q does not name the fault", opts, runErr)
		}
		msgs = append(msgs, runErr.Error())
	}
	// Spec and interp run identical worker chunking on one GPU, so even
	// the failing range in the message must agree.
	if msgs[0] != msgs[1] {
		t.Fatalf("fast-path error %q != interpreter error %q", msgs[0], msgs[1])
	}
}

// TestMarkDirtyAffine checks the bulk marker against a naive
// per-iteration oracle over strides, directions, offsets and chunk
// sizes (including ones that do not divide the footprint).
func TestMarkDirtyAffine(t *testing.T) {
	const elems = 600
	cases := []struct {
		name       string
		lo         int64 // resident base of the copy
		first      int64 // logical index at the first iteration
		step       int64
		iters      int64
		chunkElems int64
	}{
		{"contig", 0, 0, 1, 400, 64},
		{"contig-offset", 50, 57, 1, 300, 64},
		{"contig-descending", 0, 399, -1, 400, 64},
		{"stride2", 0, 4, 2, 150, 7},
		{"stride3-offset", 20, 23, 3, 100, 64},
		{"stride5-descending", 10, 510, -5, 90, 33},
		{"single-iter", 0, 123, 0, 1, 64},
		{"invariant-index", 5, 77, 0, 200, 64},
		{"two-iters", 0, 10, 37, 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nChunks := (elems + tc.chunkElems - 1) / tc.chunkElems
			c := &gpuCopy{
				lo:         tc.lo,
				chunkElems: tc.chunkElems,
				dirty:      make([]uint8, elems),
				chunkDirty: make([]uint8, nChunks),
			}
			wantDirty := make([]uint8, elems)
			wantChunk := make([]uint8, nChunks)
			last := tc.first
			for it := int64(0); it < tc.iters; it++ {
				p := tc.first + it*tc.step - tc.lo
				wantDirty[p] = 1
				wantChunk[p/tc.chunkElems] = 1
				last = tc.first + it*tc.step
			}
			markDirtyAffine(c, tc.first, last, tc.iters)
			for p := range wantDirty {
				if c.dirty[p] != wantDirty[p] {
					t.Fatalf("dirty[%d] = %d, want %d", p, c.dirty[p], wantDirty[p])
				}
			}
			for ch := range wantChunk {
				if c.chunkDirty[ch] != wantChunk[ch] {
					t.Fatalf("chunkDirty[%d] = %d, want %d", ch, c.chunkDirty[ch], wantChunk[ch])
				}
			}
		})
	}
}

// TestLockstepStoreDirtyBits holds the dirty bits a tile sets for a store
// under an arm (from its active-lane list) and for an unconditional store
// to the same array (the whole tile) against the interpreter's, which
// marks store by store: element bits and second-level chunk bits of every
// GPU's copy after Phase B alone, and the P2P bytes of whole launches,
// which follow from the chunk bits. The kernel is KMEANS's centre update;
// one element in a hundred or so keeps the arm, so that some chunks of
// that half of the array stay clean in every tile. Mutation check: marking every lane of the
// tile under the arm (ir.DArray.markWalk with act nil) fails here on the
// bits and on BytesP2P.
func TestLockstepStoreDirtyBits(t *testing.T) {
	const src = `
int n;
int cnt_[n];
float a_[2 * n], b_[n];
void main() {
    int j;
    #pragma acc parallel loop
    for (j = 0; j < n; j++) {
        if ((j + cnt_[j] % 2) % 100 == 0) {
            a_[j] = b_[j] / (float)(cnt_[j] + 7);
        }
        if (cnt_[j] % 5 == 0) {
            a_[n + j] += 1.0;
        } else {
            a_[n + j] = b_[j];
        }
        b_[j] = 0.5;
    }
}
`
	type bits struct{ dirty, chunks [][]uint8 }
	phaseB := func(opts Options) (bits, SpecStats, int64) {
		s := newSpecLaunchState(t, src, map[string]float64{"n": 3000}, opts)
		r, k, env := s.r, s.k, s.env
		p2p := r.Report().BytesP2P
		parts, needs := r.resolvePlan(k, env, r.mach.NumGPUs(), k.Lower(env), k.Upper(env))
		for _, use := range k.Arrays {
			for _, c := range r.state(use.Decl).copies {
				c.clearDirty()
			}
		}
		ex := r.specExecutor(k)
		var got bits
		for g, dev := range r.mach.GPUs() {
			_, handled, err := r.runOnGPU(k, env, g, dev, parts[g], needs[g], ex, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.specTally(k, ex, g, handled, parts[g].count())
			ui := slices.IndexFunc(k.Arrays, func(use *ir.ArrayUse) bool { return use.Decl.Name == "a_" })
			c := r.state(k.Arrays[ui].Decl).copies[g]
			if !needs[g][ui].wantDirty {
				t.Fatal("premise: a_ is not dirty-marked on this machine")
			}
			got.dirty = append(got.dirty, slices.Clone(c.dirty))
			got.chunks = append(got.chunks, slices.Clone(c.chunkDirty))
		}
		return got, r.SpecStats(), p2p
	}
	// Chunks of 16 elements.
	want, _, wantP2P := phaseB(Options{ChunkBytes: 64, Reference: true})
	got, st, gotP2P := phaseB(Options{ChunkBytes: 64})
	if st.TiledIters == 0 || st.Fallbacks != 0 {
		t.Fatalf("the kernel did not run tiled: %+v", st)
	}
	marked := 0
	for g := range want.dirty {
		for p, b := range want.dirty[g] {
			marked += int(b)
			if got.dirty[g][p] != b {
				t.Fatalf("GPU %d: dirty[%d] = %d in the tile, %d in the interpreter", g, p, got.dirty[g][p], b)
			}
		}
		if !slices.Equal(got.chunks[g], want.chunks[g]) {
			t.Fatalf("GPU %d: chunk bits %v in the tile, %v in the interpreter", g, got.chunks[g], want.chunks[g])
		}
	}
	if marked <= 3000+10 || marked > 3000+60 {
		t.Errorf("%d elements marked; want the 3000 unconditional ones and a hundredth or so of the rest", marked)
	}
	if gotP2P != wantP2P || gotP2P == 0 {
		t.Errorf("BytesP2P %d tiled, %d interpreted; want equal and nonzero", gotP2P, wantP2P)
	}
}

func TestFillOnes(t *testing.T) {
	for n := 0; n <= 70; n++ {
		buf := make([]uint8, n+8)
		fillOnes(buf[4 : 4+n])
		for i, b := range buf {
			want := uint8(0)
			if i >= 4 && i < 4+n {
				want = 1
			}
			if b != want {
				t.Fatalf("n=%d: buf[%d] = %d, want %d", n, i, b, want)
			}
		}
	}
}

// specLaunchState wires one compiled kernel into a runtime for direct
// Launch/runOnGPU driving, with the arrays held resident as a data
// region would (the steady state the benchmarks and the allocation
// budget measure).
type specLaunchState struct {
	r   *Runtime
	k   *ir.Kernel
	env *ir.Env
}

func newSpecLaunchState(tb testing.TB, src string, scalars map[string]float64, opts Options) *specLaunchState {
	tb.Helper()
	mod, inst := buildSpecInstance(tb, src, scalars)
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		tb.Fatal(err)
	}
	r := New(mach, opts)
	r.inst = inst
	s := &specLaunchState{r: r, k: mod.Kernels[0], env: inst.Env}
	if err := r.Launch(s.k, s.env); err != nil {
		tb.Fatal(err)
	}
	// Pin the arrays resident so later launches skip the implicit
	// per-loop host round trip, as inside a data region.
	for _, use := range s.k.Arrays {
		r.state(use.Decl).present = true
	}
	if err := r.Launch(s.k, s.env); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSpecLaunchSteadyStateAllocBudget bounds the per-launch allocation
// count of the specialized path: all executor state is reused, so a
// steady-state launch allocates only the fan-out scaffolding — a few
// closures on one processor, a bounded set per fan-out otherwise —
// independent of n.
func TestSpecLaunchSteadyStateAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		scalars   map[string]float64
		// extra is what a launch of the kernel allocates besides the
		// fan-out: KMEANS's reduction-to-array merge, 15 objects at the
		// parent of its held loads too, which add none.
		extra float64
	}{
		{"saxpy", specSaxpySrc, map[string]float64{"a": 1.5}, 0},
		{"stencil", specStencilSrc, map[string]float64{}, 0},
		{"guarded-stencil", specGuardedStencilSrc, map[string]float64{"steps": 1}, 0},
		{"kmeans", specKMeansSrc, map[string]float64{"k": 5, "nf": 34}, 15},
	} {
		var base float64
		for _, n := range []float64{1 << 12, 1 << 16} {
			tc.scalars["n"] = n
			s := newSpecLaunchState(t, tc.src, tc.scalars, Options{})
			allocs := testing.AllocsPerRun(10, func() {
				if err := s.r.Launch(s.k, s.env); err != nil {
					t.Fatal(err)
				}
			})
			if h := s.r.SpecStats().Hits; h == 0 {
				t.Fatal("fast path never ran; budget would measure the interpreter")
			}
			// One processor: sim.FanOut spawns nothing, and what is left is
			// the launch's own fan-out closures (Phase B, and scan, apply
			// and clear per replicated written array).
			if allocs > 6+tc.extra {
				t.Errorf("%s n=%v: steady-state launch allocates %v objects on one processor, budget %v", tc.name, n, allocs, 6+tc.extra)
			}
			// Processors to spare: a launch makes at most one fan-out per
			// GPU (its workers) plus those four, each paying its closures,
			// counter and wait group and at worst a goroutine record per
			// processor.
			for _, procs := range []int{2, 4} {
				got := allocsPerRunAt(procs, 20, func() {
					if err := s.r.Launch(s.k, s.env); err != nil {
						t.Fatal(err)
					}
				})
				if limit := float64((s.r.mach.NumGPUs()+4)*(procs+5)) + tc.extra; got > limit {
					t.Errorf("%s n=%v: steady-state launch allocates %v objects on %d processors, budget %v", tc.name, n, got, procs, limit)
				}
			}
			// The count must not scale with the iteration space.
			if n == 1<<12 {
				base = allocs
			} else if allocs > base+8 {
				t.Errorf("%s: allocations grew with n: %v at n=4096 vs %v at n=%v", tc.name, base, allocs, n)
			}
		}
	}

	// First launch: the executor scratch is sized to the work — one
	// environment per spawned worker, tile vectors no longer than a
	// worker's chunk, as many vectors as the deepest expression keeps
	// live — not to the device's worker count and the full tile width.
	// Measured with every worker holding its tile scratch at once, the
	// most a launch can lease.
	scratch := func(ex *specExec, workers, chunk int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ex.ensureScratch(&ex.gs[0], workers)
		for w := 0; w < workers; w++ {
			defer ex.release(ex.lease(chunk))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		n      float64
		budget uint64 // bytes per GPU
	}{
		{128, 6 << 10},        // 4 workers x 16 iterations
		{256 << 10, 44 << 10}, // 4 workers x 2 float vectors x 512 x 8 B = 32 KiB
	} {
		mod, inst := buildSpecInstance(t, specGuardedStencilSrc, map[string]float64{"n": tc.n, "steps": 1})
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		r.inst = inst
		k := mod.Kernels[0]
		ex := r.specExecutor(k)
		if ex == nil || k.Spec.Guard == nil {
			t.Fatal("guarded stencil kernel has no split executor")
		}
		workers := mach.GPUs()[0].Spec.Workers
		chunk := (int(tc.n)/mach.NumGPUs() + workers - 1) / workers
		if got := scratch(ex, workers, chunk); got > tc.budget {
			t.Errorf("n=%v: first-launch executor scratch is %d bytes per GPU, budget %d", tc.n, got, tc.budget)
		}
	}
	// The paper apps' lockstep tiles at the benchmark's scales: MD keeps
	// some twenty vectors of a 461-iteration chunk per running worker,
	// KMEANS the slab of its held feature loads besides (holdTrips = 64
	// vectors of a 62-iteration chunk, 31 KiB a worker).
	for _, tc := range []struct {
		app    string
		scale  float64
		budget uint64
	}{
		{"MD", 0.05, 400 << 10},
		{"KMEANS", 0.001, 192 << 10},
	} {
		mod, inst, _ := appInstance(t, tc.app, tc.scale)
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		r.inst = inst
		k := mod.Kernels[0]
		ex := r.specExecutor(k)
		if ex == nil {
			t.Fatalf("%s: kernel %s has no tiled body (%q)", tc.app, k.Name, k.SpecReason)
		}
		workers := mach.GPUs()[0].Spec.Workers
		n := int(k.Upper(inst.Env) - k.Lower(inst.Env))
		chunk := (n/mach.NumGPUs() + workers - 1) / workers
		if got := scratch(ex, workers, chunk); got > tc.budget {
			t.Errorf("%s %gx: first-launch executor scratch is %d bytes per GPU, budget %d", tc.app, tc.scale, got, tc.budget)
		}
	}
}

// TestGuardedStencilSpeedupGate enforces this PR's acceptance bar where
// bench-quick can see it: on the boundary-guarded localaccess stencil at
// 4 GPUs x 1 Mi elements, specialized Phase B (index-set split, tiled
// per piece) beats the instrumented interpreter by >= 4x, with the
// result verified against plain Go on both sides. Skipped in -short
// mode: wall-clock ratios under -race are noise, not signal.
func TestGuardedStencilSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate: skipped in -short mode")
	}
	const n, steps = 1 << 20, 2
	wall := func(opts Options) func() time.Duration {
		return func() time.Duration {
			_, inst := buildSpecInstance(t, specGuardedStencilSrc, map[string]float64{"n": n, "steps": steps})
			want := guardedStencilRef(inst.Arrays[0].F32, steps)
			mach, err := sim.NewMachine(sim.Desktop().WithGPUs(4))
			if err != nil {
				t.Fatal(err)
			}
			r := New(mach, opts)
			if err := r.Run(inst); err != nil {
				t.Fatal(err)
			}
			for i, v := range inst.Arrays[0].F32 {
				if v != want[i] {
					t.Fatalf("opts %+v: a[%d] = %v, want %v", opts, i, v, want[i])
				}
			}
			return r.PhaseBWall()
		}
	}
	legacy, fast := alternate(wall(Options{Reference: true}), wall(Options{}))
	speedup := float64(legacy) / float64(fast)
	t.Logf("guarded stencil: legacy %v, specialized %v, speedup %.1fx", legacy, fast, speedup)
	if speedup < 4 {
		t.Errorf("guarded stencil: Phase-B speedup %.2fx below the 4x gate", speedup)
	}
}

// alternate times ref and fast in turn, three runs of each, the side that
// goes first swapping every round, and returns the best of each: a
// disturbed stretch of the box then slows both sides, not one. The
// wall-clock gates share it.
func alternate(ref, fast func() time.Duration) (time.Duration, time.Duration) {
	var best [2]time.Duration
	runs := [2]func() time.Duration{ref, fast}
	for round := 0; round < 3; round++ {
		for k := range runs {
			side := k ^ round&1
			if d := runs[side](); best[side] == 0 || d < best[side] {
				best[side] = d
			}
		}
	}
	return best[0], best[1]
}

// phaseBTime readies one Phase B sweep — runOnGPU over every GPU's chunk
// with resident arrays — and returns a timed run of it.
func phaseBTime(t *testing.T, src string, scalars map[string]float64, opts Options) func() time.Duration {
	t.Helper()
	s := newSpecLaunchState(t, src, scalars, opts)
	r, k, env := s.r, s.k, s.env
	ex := r.specExecutor(k)
	lower, upper := k.Lower(env), k.Upper(env)
	parts, needs := r.resolvePlan(k, env, r.mach.NumGPUs(), lower, upper)
	return func() time.Duration {
		start := time.Now()
		for g, dev := range r.mach.GPUs() {
			if _, _, err := r.runOnGPU(k, env, g, dev, parts[g], needs[g], ex, nil); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
}

// TestPhaseBSpeedupGate enforces the bench-quick acceptance bar:
// specialized Phase B beats the instrumented interpreter by >= 5x at
// 4 GPUs x 1M elements on saxpy- and stencil-shaped kernels. Skipped
// in -short mode — the race detector and loaded CI hosts distort
// wall-clock ratios (observed margin is ~14-16x, but a timing
// assertion under -race would still be noise, not signal).
func TestPhaseBSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate: skipped in -short mode")
	}
	for _, tc := range []struct {
		name, src string
		scalars   map[string]float64
	}{
		{"saxpy", specSaxpySrc, map[string]float64{"n": 1 << 20, "a": 1.5}},
		{"stencil", specStencilSrc, map[string]float64{"n": 1 << 20}},
	} {
		legacy, fast := alternate(phaseBTime(t, tc.src, tc.scalars, Options{Reference: true}),
			phaseBTime(t, tc.src, tc.scalars, Options{}))
		speedup := float64(legacy) / float64(fast)
		t.Logf("%s: legacy %v, specialized %v, speedup %.1fx", tc.name, legacy, fast, speedup)
		if speedup < 5 {
			t.Errorf("%s: Phase-B speedup %.2fx below the 5x gate", tc.name, speedup)
		}
	}
}

// benchPhaseB measures Phase B alone — runOnGPU over every GPU's chunk
// with resident arrays — for the ISSUE's legacy-vs-specialized gate.
func benchPhaseB(b *testing.B, src string, scalars map[string]float64, opts Options) {
	s := newSpecLaunchState(b, src, scalars, opts)
	r, k, env := s.r, s.k, s.env
	ex := r.specExecutor(k)
	if opts.Reference != (ex == nil) {
		b.Fatal("executor resolution disagrees with options")
	}
	lower, upper := k.Lower(env), k.Upper(env)
	parts, needs := r.resolvePlan(k, env, r.mach.NumGPUs(), lower, upper)
	b.SetBytes((upper - lower) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g, dev := range r.mach.GPUs() {
			if _, _, err := r.runOnGPU(k, env, g, dev, parts[g], needs[g], ex, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPhaseBSaxpy is the bench-quick gate: specialized must beat
// legacy (the instrumented interpreter) by >= 5x at 4 GPUs x 1M
// elements on saxpy- and hotspot-shaped kernels.
func BenchmarkPhaseBSaxpy(b *testing.B) {
	scalars := map[string]float64{"n": 1 << 20, "a": 1.5}
	b.Run("legacy", func(b *testing.B) {
		benchPhaseB(b, specSaxpySrc, scalars, Options{Reference: true})
	})
	b.Run("specialized", func(b *testing.B) {
		benchPhaseB(b, specSaxpySrc, scalars, Options{})
	})
}

func BenchmarkPhaseBStencil(b *testing.B) {
	scalars := map[string]float64{"n": 1 << 20}
	b.Run("legacy", func(b *testing.B) {
		benchPhaseB(b, specStencilSrc, scalars, Options{Reference: true})
	})
	b.Run("specialized", func(b *testing.B) {
		benchPhaseB(b, specStencilSrc, scalars, Options{})
	})
}

// TestHostileGatherIndexFallsBack pins the out-of-range contract for
// computed indices: a hostile idx_ entry must fail the interval proof,
// hand the chunk to the interpreter, and surface the interpreter's
// exact illegal-access error — never a process panic and never a
// silent wrong answer from the fast path.
func TestHostileGatherIndexFallsBack(t *testing.T) {
	const n = 256
	shapes := map[string]string{
		"gather": `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = in_[idx_[i]] + 1;
        }
    }
}
`,
		// A scatter has a tiled form only inside a loop (flat tiles).
		"scatter": `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i, e;
    #pragma acc data copyin(in_, idx_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            for (e = 0; e < 1; e++) {
                out_[idx_[i]] = in_[i] + 1;
            }
        }
    }
}
`,
	}
	hostiles := map[string]int32{"past-the-end": n + 7, "negative": -3}
	for shapeName, src := range shapes {
		for hostileName, hostile := range hostiles {
			t.Run(shapeName+"/"+hostileName, func(t *testing.T) {
				run := func(opts Options) error {
					prog, err := cc.ParseProgram(src)
					if err != nil {
						t.Fatal(err)
					}
					mod, err := translator.Translate(prog)
					if err != nil {
						t.Fatal(err)
					}
					if mod.Kernels[0].Spec == nil {
						t.Fatal("indirect kernel did not compile a KernelSpec; test premise broken")
					}
					bind := ir.NewBindings().SetScalar("n", n)
					in := make([]int32, n)
					idx := make([]int32, n)
					for i := range idx {
						in[i] = int32(i)
						idx[i] = int32(i) // identity, except one hostile entry
					}
					idx[n/3] = hostile // lands in GPU0's chunk
					bind.SetArray("in_", &ir.HostArray{Decl: prog.Scope["in_"], I32: in})
					bind.SetArray("idx_", &ir.HostArray{Decl: prog.Scope["idx_"], I32: idx})
					inst, err := mod.Bind(bind)
					if err != nil {
						t.Fatal(err)
					}
					mach, err := sim.NewMachine(sim.Desktop())
					if err != nil {
						t.Fatal(err)
					}
					return New(mach, opts).Run(inst)
				}
				errSpec := run(Options{})
				errInterp := run(Options{Reference: true})
				if errSpec == nil || errInterp == nil {
					t.Fatalf("hostile index must error on both paths; spec=%v interp=%v", errSpec, errInterp)
				}
				if errSpec.Error() != errInterp.Error() {
					t.Fatalf("spec path error diverges from interpreter:\nspec:   %v\ninterp: %v", errSpec, errInterp)
				}
				if !strings.Contains(errSpec.Error(), "panicked") {
					t.Fatalf("error %v did not come from the recovered illegal access", errSpec)
				}
			})
		}
	}
}
