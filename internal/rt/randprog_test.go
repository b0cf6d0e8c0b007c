package rt_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// This file is a randomized equivalence suite: it generates random but
// valid OpenACC programs from a template family covering the runtime's
// placement and communication paths (distributed reads with halos,
// strided writes with miss-check elision, irregular scatter on
// replicated and distributed arrays, scalar reductions,
// reductiontoarray, nested data regions with present(), and update
// directives around host-side phases) and checks that every multi-GPU
// execution produces exactly the results of the single-device CPU
// execution. Integer arrays make the comparison exact (no FP
// reassociation concerns). Every generated program additionally runs
// under the shadow-oracle auditor, which re-verifies each intermediate
// device state, not just the final arrays.

type randProg struct {
	src     string
	n       int
	in, idx []int32
}

// genRandProg builds one random program over int arrays.
func genRandProg(rng *rand.Rand) randProg {
	n := 64 + rng.Intn(2000)
	stride := []int64{1, 2, 4}[rng.Intn(3)]
	halo := int64(rng.Intn(3))
	useLocalIn := rng.Intn(2) == 0
	useLocalOut := rng.Intn(2) == 0
	scatter := rng.Intn(3) == 0      // out2_[idx_[i]] = ... irregular writes
	scatterLocal := rng.Intn(2) == 0 // ... on a distributed out2_ (miss path)
	reduce := rng.Intn(2) == 0       // scalar reduction
	histo := rng.Intn(3) == 0        // reductiontoarray
	twoPhase := rng.Intn(2) == 0     // host phase + update directives + 2nd loop
	nested := rng.Intn(2) == 0       // 2nd loop inside a nested present() region

	var b strings.Builder
	fmt.Fprintf(&b, "int n, k;\n")
	fmt.Fprintf(&b, "int in_[%d * n + %d], out_[%d * n + %d];\n", stride, 2*halo, stride, 2*halo)
	fmt.Fprintf(&b, "int idx_[n];\nint out2_[n];\nint hist_[k];\nint total;\n")
	fmt.Fprintf(&b, "void main() {\n    int i;\n    int v;\n    total = 0;\n")
	fmt.Fprintf(&b, "    #pragma acc data copyin(in_, idx_) copy(out_, out2_, hist_)\n    {\n")

	emitLoop := func(addend int64) {
		if useLocalIn {
			fmt.Fprintf(&b, "        #pragma acc localaccess(in_) stride(%d, %d, %d)\n", stride, halo, halo+stride-1)
		}
		if useLocalOut {
			fmt.Fprintf(&b, "        #pragma acc localaccess(out_) stride(%d)\n", stride)
		}
		if scatter && scatterLocal {
			fmt.Fprintf(&b, "        #pragma acc localaccess(out2_) stride(1)\n")
		}
		red := ""
		if reduce {
			red = " reduction(+:total)"
		}
		if scatter {
			// idx_ is a permutation, so the scatter targets really are
			// disjoint; assert it so the static pass downgrades its
			// unprovable-write-race finding (ACCV009) to a warning.
			red += " independent"
		}
		fmt.Fprintf(&b, "        #pragma acc parallel loop%s\n", red)
		fmt.Fprintf(&b, "        for (i = 0; i < n; i++) {\n")
		// A halo-ish read: clamp to valid range via min/max so any halo
		// declaration is honored.
		fmt.Fprintf(&b, "            v = in_[%d * i] + in_[max(%d * i - %d, 0)] + in_[min(%d * i + %d, %d * n - 1 + %d)];\n",
			stride, stride, halo, stride, halo+stride-1, stride, 2*halo)
		for c := int64(0); c < stride; c++ {
			fmt.Fprintf(&b, "            out_[%d * i + %d] = v + %d;\n", stride, c, c+addend)
		}
		if scatter {
			fmt.Fprintf(&b, "            out2_[idx_[i]] = v + %d;\n", addend)
		} else {
			fmt.Fprintf(&b, "            out2_[i] = v / 2 + %d;\n", addend)
		}
		if reduce {
			fmt.Fprintf(&b, "            total += v;\n")
		}
		if histo {
			fmt.Fprintf(&b, "            #pragma acc reductiontoarray(+: hist_[(v %% k + k) %% k])\n")
			fmt.Fprintf(&b, "            hist_[(v %% k + k) %% k] += 1;\n")
		}
		fmt.Fprintf(&b, "        }\n")
	}

	emitLoop(0)
	if twoPhase {
		// A host-side phase between the kernels, made visible to the
		// devices the only legal way: update host before reading device
		// results, update device after mutating kernel inputs.
		fmt.Fprintf(&b, "        #pragma acc update host(out_)\n")
		fmt.Fprintf(&b, "        for (i = 0; i < %d * n + %d; i++) {\n", stride, 2*halo)
		fmt.Fprintf(&b, "            in_[i] = in_[i] + out_[i] / 3;\n")
		fmt.Fprintf(&b, "        }\n")
		fmt.Fprintf(&b, "        #pragma acc update device(in_)\n")
		if nested {
			fmt.Fprintf(&b, "        #pragma acc data present(in_, out_, out2_, hist_)\n        {\n")
		}
		emitLoop(1)
		if nested {
			fmt.Fprintf(&b, "        }\n")
		}
	}
	fmt.Fprintf(&b, "    }\n}\n")

	in := make([]int32, int64(n)*stride+2*halo)
	for i := range in {
		in[i] = int32(rng.Intn(1000) - 500)
	}
	idx := rng.Perm(n)
	idx32 := make([]int32, n)
	for i, v := range idx {
		idx32[i] = int32(v)
	}
	return randProg{src: b.String(), n: n, in: in, idx: idx32}
}

// runResult carries everything one execution produced.
type runResult struct {
	out, out2, hist []int32
	total           float64
	rep             *rt.Report
	mach            *sim.Machine
	runtime         *rt.Runtime
}

// runFull executes the program, returning results, the report, the
// machine (for memory assertions) and the run error.
func (p randProg) runFull(t testing.TB, spec sim.MachineSpec, opts rt.Options, plan *sim.FaultPlan) (runResult, error) {
	t.Helper()
	prog, err := cc.ParseProgram(p.src)
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", p.src, err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatalf("translate:\n%s\n%v", p.src, err)
	}
	const k = 13
	inA := &ir.HostArray{Decl: prog.Scope["in_"], I32: append([]int32(nil), p.in...)}
	idxA := &ir.HostArray{Decl: prog.Scope["idx_"], I32: append([]int32(nil), p.idx...)}
	bind := ir.NewBindings().
		SetScalar("n", float64(p.n)).SetScalar("k", k).
		SetArray("in_", inA).SetArray("idx_", idxA)
	inst, err := mod.Bind(bind)
	if err != nil {
		t.Fatalf("bind:\n%s\n%v", p.src, err)
	}
	mach, err := sim.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	mach.InjectFaults(plan)
	runtime := rt.New(mach, opts)
	runErr := runtime.Run(inst)
	res := runResult{rep: runtime.Report(), mach: mach, runtime: runtime}
	if runErr != nil {
		return res, runErr
	}
	outA, _ := inst.Array("out_")
	out2A, _ := inst.Array("out2_")
	histA, _ := inst.Array("hist_")
	tot, _ := inst.ScalarF("total")
	res.out, res.out2, res.hist, res.total = outA.I32, out2A.I32, histA.I32, tot
	return res, nil
}

func (p randProg) run(t testing.TB, spec sim.MachineSpec, opts rt.Options) (out, out2, hist []int32, total float64) {
	t.Helper()
	res, err := p.runFull(t, spec, opts, nil)
	if err != nil {
		t.Fatalf("run:\n%s\n%v", p.src, err)
	}
	return res.out, res.out2, res.hist, res.total
}

// auditedSeeds is the fixed generator-seed table of the audited corpus:
// large enough that all template features (two-phase programs, nested
// present regions, scatter on distributed arrays, reductions) occur.
var auditedSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}

// auditedSpecs are the platforms the audited corpus runs on.
func auditedSpecs() []sim.MachineSpec {
	return []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
		sim.Cluster(2, 2),
		sim.Cluster(3, 2),
	}
}

// checkAuditedEquivalence runs one generated program on the CPU
// reference and on audited multi-GPU configurations, comparing all
// observable results exactly.
func checkAuditedEquivalence(t testing.TB, p randProg) {
	refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})
	for _, spec := range auditedSpecs() {
		opts := rt.Options{Auditor: audit.New(audit.Options{})}
		out, out2, hist, total := p.run(t, spec, opts)
		compareI32(t, p.src, spec.Name, "out_", out, refOut)
		compareI32(t, p.src, spec.Name, "out2_", out2, refOut2)
		compareI32(t, p.src, spec.Name, "hist_", hist, refHist)
		if total != refTotal {
			t.Fatalf("on %s: total = %g, want %g\n%s", spec.Name, total, refTotal, p.src)
		}
	}
}

func TestRandomProgramsMultiGPUEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	iterations := 25
	if testing.Short() {
		iterations = 8
	}
	for trial := 0; trial < iterations; trial++ {
		p := genRandProg(rng)
		refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})
		for _, spec := range []sim.MachineSpec{
			sim.Desktop().WithGPUs(1),
			sim.Desktop(),
			sim.SupercomputerNode(),
			sim.Cluster(2, 2),
		} {
			out, out2, hist, total := p.run(t, spec, rt.Options{})
			compareI32(t, p.src, spec.Name, "out_", out, refOut)
			compareI32(t, p.src, spec.Name, "out2_", out2, refOut2)
			compareI32(t, p.src, spec.Name, "hist_", hist, refHist)
			if total != refTotal {
				t.Fatalf("trial %d on %s: total = %g, want %g\n%s", trial, spec.Name, total, refTotal, p.src)
			}
		}
		// Ablations must never change results, only costs.
		for _, opts := range []rt.Options{
			{DisableDistribution: true},
			{DisableLayoutTransform: true},
			{DisableTwoLevelDirty: true},
			{DisableReloadSkip: true},
			{ChunkBytes: 256},
			{BalanceLoad: true},
		} {
			out, out2, hist, total := p.run(t, sim.Desktop(), opts)
			compareI32(t, p.src, fmt.Sprintf("%+v", opts), "out_", out, refOut)
			compareI32(t, p.src, fmt.Sprintf("%+v", opts), "out2_", out2, refOut2)
			compareI32(t, p.src, fmt.Sprintf("%+v", opts), "hist_", hist, refHist)
			if total != refTotal {
				t.Fatalf("opts %+v: total = %g, want %g\n%s", opts, total, refTotal, p.src)
			}
		}
	}
}

// TestAuditedSeedCorpus drives the fixed table of generator seeds
// through the shadow-oracle auditor on every platform.
func TestAuditedSeedCorpus(t *testing.T) {
	seeds := auditedSeeds
	if testing.Short() {
		seeds = seeds[:5]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkAuditedEquivalence(t, genRandProg(rand.New(rand.NewSource(seed))))
		})
	}
}

// TestObserversKeepTheRouteCorpus pins, over the audited seed corpus on
// every platform, that the Phase B route is chosen from the kernel and
// its data alone: the span tracer, the shadow auditor, an armed fault
// plan (its rate never fires) and the async schedule each leave the whole
// SpecStats value where the bare synchronous run put it.
func TestObserversKeepTheRouteCorpus(t *testing.T) {
	seeds := auditedSeeds
	if testing.Short() {
		seeds = seeds[:5]
	}
	armed := &sim.FaultPlan{Seed: 1, TransferFailRate: 1e-12}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		for _, spec := range auditedSpecs() {
			route := func(opts rt.Options, plan *sim.FaultPlan) rt.SpecStats {
				res, err := p.runFull(t, spec, opts, plan)
				if err != nil {
					t.Fatalf("seed %d on %s: %v\n%s", seed, spec.Name, err, p.src)
				}
				return res.runtime.SpecStats()
			}
			bare := route(rt.Options{}, nil)
			for label, got := range map[string]rt.SpecStats{
				"tracer":     route(rt.Options{Tracer: trace.New()}, nil),
				"auditor":    route(rt.Options{Auditor: audit.New(audit.Options{})}, nil),
				"fault plan": route(rt.Options{}, armed),
				"async":      route(rt.Options{Async: true}, nil),
				"everything": route(rt.Options{Async: true, Tracer: trace.New(),
					Auditor: audit.New(audit.Options{})}, armed),
			} {
				if !reflect.DeepEqual(got, bare) {
					t.Errorf("seed %d on %s with %s: %+v; bare: %+v\n%s", seed, spec.Name, label, got, bare, p.src)
				}
			}
		}
	}
}

// FuzzAuditedRandomPrograms lets the fuzzer explore generator seeds;
// every program must survive the auditor and match the CPU reference.
func FuzzAuditedRandomPrograms(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 12345, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAuditedEquivalence(t, genRandProg(rand.New(rand.NewSource(seed))))
	})
}

func compareI32(t testing.TB, src, cfg, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s on %s: length %d vs %d", name, cfg, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s on %s: [%d] = %d, want %d\nprogram:\n%s", name, cfg, i, got[i], want[i], src)
		}
	}
}

// TestRandomCollapsedPrograms checks collapse(2) kernels against the
// CPU reference over random rectangular shapes and operations.
func TestRandomCollapsedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		h := 3 + rng.Intn(60)
		w := 3 + rng.Intn(60)
		coef := 1 + rng.Intn(5)
		src := fmt.Sprintf(`
int h, w;
int grid[h * w], out_[h * w];
int total;
void main() {
    int r, c;
    total = 0;
    #pragma acc data copyin(grid) copy(out_)
    {
        #pragma acc localaccess(grid) stride(1)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop collapse(2) reduction(+:total)
        for (r = 0; r < h; r++) {
            for (c = 0; c < w; c++) {
                out_[r * w + c] = grid[r * w + c] * %d + r - c;
                total += 1;
            }
        }
    }
}
`, coef)
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := translator.Translate(prog)
		if err != nil {
			t.Fatal(err)
		}
		gridVals := make([]int32, h*w)
		for i := range gridVals {
			gridVals[i] = int32(rng.Intn(100) - 50)
		}
		runOnce := func(spec sim.MachineSpec, mode rt.Mode) ([]int32, float64) {
			g := &ir.HostArray{Decl: prog.Scope["grid"], I32: append([]int32(nil), gridVals...)}
			inst, err := mod.Bind(ir.NewBindings().
				SetScalar("h", float64(h)).SetScalar("w", float64(w)).SetArray("grid", g))
			if err != nil {
				t.Fatal(err)
			}
			mach, _ := sim.NewMachine(spec)
			if err := rt.New(mach, rt.Options{Mode: mode}).Run(inst); err != nil {
				t.Fatal(err)
			}
			out, _ := inst.Array("out_")
			total, _ := inst.ScalarF("total")
			return out.I32, total
		}
		refOut, refTotal := runOnce(sim.Desktop(), rt.ModeCPU)
		for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
			out, total := runOnce(spec, rt.ModeMultiGPU)
			if total != refTotal {
				t.Fatalf("h=%d w=%d on %s: total %g vs %g", h, w, spec.Name, total, refTotal)
			}
			for i := range refOut {
				if out[i] != refOut[i] {
					t.Fatalf("h=%d w=%d on %s: out[%d]=%d want %d", h, w, spec.Name, i, out[i], refOut[i])
				}
			}
		}
	}
}

// errorsAsDivergence unwraps the auditor's divergence report.
func errorsAsDivergence(t *testing.T, err error) *audit.DivergenceError {
	t.Helper()
	var div *audit.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want a DivergenceError, got %v", err)
	}
	return div
}
