package rt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"accmulti/internal/analysis"
	"accmulti/internal/cc"
	"accmulti/internal/diag"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// This file cross-checks the PR-7 whole-program dataflow pass
// (internal/analysis, flow.go) against the runtime from two sides:
//
//  1. Programs the pass declares race-free must execute bit-exactly
//     under the PR-1 shadow auditor on every machine — a missed race
//     would desynchronize the replicas and trip the oracle.
//  2. Seeded race mutants (in-place stencils, congruent distributed
//     writes, unannotated scatters) must be rejected statically with
//     the designed ACCV code and are deliberately never executed.
//  3. The inter-kernel dependences the pass reports (Result.Deps)
//     must cover every array the pipelined scheduler actually
//     serializes: each halo span and each device
//     hazard-interval record names an array the static pass already
//     knew was passed between kernels.

// TestStaticDepsCoverRuntimeHazards pins the static dependence graph
// to the asynchronous scheduler's hazard bookkeeping on the iterated
// ping-pong stencil: loop 1 produces b for loop 2, and loop 2 feeds a
// back to loop 1 across the while-loop back edge.
func TestStaticDepsCoverRuntimeHazards(t *testing.T) {
	prog, err := cc.ParseProgram(pingpongSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Vet(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diags.HasErrors() {
		t.Fatalf("ping-pong stencil should be statically clean: %v", res.Diags)
	}
	pa, err := translator.AnalyzeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Loops) != 2 {
		t.Fatalf("expected 2 kernels, got %d", len(pa.Loops))
	}
	l1, l2 := pa.Loops[0].Line, pa.Loops[1].Line
	// Forward edge: loop 1 writes b, loop 2 reads it. Back edge: loop 2
	// writes a, the next while-iteration of loop 1 reads it.
	for _, want := range []analysis.Dep{
		{Array: "b", WriterLine: l1, ReaderLine: l2},
		{Array: "a", WriterLine: l2, ReaderLine: l1},
	} {
		if !hasDep(res.Deps, want) {
			t.Errorf("static deps missing %+v (got %+v)", want, res.Deps)
		}
	}
	depArrays := map[string]bool{}
	for _, d := range res.Deps {
		depArrays[d.Array] = true
	}

	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 96))
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(sim.Desktop().WithGPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	runtime := rt.New(mach, rt.Options{Async: true, Tracer: tr})
	if err := runtime.Run(inst); err != nil {
		t.Fatal(err)
	}

	// Every array the async scheduler tracked device accesses for must
	// appear in the static dependence graph, and both stencil arrays
	// must show settled device reads and writes.
	hazards := runtime.HazardIntervals()
	if hazards == nil {
		t.Fatal("async run reported no hazard intervals")
	}
	devReads, devWrites := map[string]bool{}, map[string]bool{}
	for _, h := range hazards {
		if h.GPU < 0 {
			continue
		}
		if !depArrays[h.Array] {
			t.Errorf("runtime tracked device hazards on %q, but the static pass found no dependence through it", h.Array)
		}
		if len(h.Reads) > 0 {
			devReads[h.Array] = true
		}
		if len(h.Writes) > 0 {
			devWrites[h.Array] = true
		}
	}
	for _, arr := range []string{"a", "b"} {
		if !devReads[arr] || !devWrites[arr] {
			t.Errorf("array %q: device reads=%v writes=%v, want both (hazards: %+v)",
				arr, devReads[arr], devWrites[arr], hazards)
		}
	}

	// And every halo exchange the communication manager performed moves
	// an array on a statically-detected dependence edge.
	halos := 0
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindHalo {
			continue
		}
		halos++
		if !depArrays[s.Name] {
			t.Errorf("halo exchange on %q has no static dependence edge (deps: %+v)", s.Name, res.Deps)
		}
	}
	if halos == 0 {
		t.Error("async run traced no halo spans")
	}
}

func hasDep(deps []analysis.Dep, want analysis.Dep) bool {
	for _, d := range deps {
		if d == want {
			return true
		}
	}
	return false
}

// raceMutant is one deliberately broken program the dataflow pass must
// reject with a specific code. Mutants are never executed: running a
// racy program on the replicated runtime is undefined by construction.
type raceMutant struct {
	kind string
	code string
	src  string
}

// genRaceMutants builds the three seeded race families with
// rng-chosen shapes: an in-place stencil (loop-carried RAW), congruent
// writes on a distributed array (loop-carried WAW), and an indirect
// scatter without an independent annotation.
func genRaceMutants(rng *rand.Rand) []raceMutant {
	d := 1 + rng.Intn(3)
	e := 1 + rng.Intn(3)
	stride := []int64{2, 3, 4}[rng.Intn(3)]
	return []raceMutant{
		{kind: "in-place-stencil", code: "ACCV008", src: fmt.Sprintf(`int n;
float a[n];

void main() {
    int i;
    #pragma acc data copy(a)
    {
        #pragma acc parallel loop
        for (i = %d; i < n - %d; i++) {
            a[i] = a[i - %d] + a[i + %d];
        }
    }
}
`, d, e, d, e)},
		{kind: "congruent-writes", code: "ACCV008", src: fmt.Sprintf(`int n;
float a[n];

void main() {
    int i;
    #pragma acc data copy(a)
    {
        #pragma acc parallel loop
        #pragma acc localaccess(a) stride(%d, 0, %d)
        for (i = 0; i < n / %d - 1; i++) {
            a[%d * i] = 1.0;
            a[%d * i + %d] = 2.0;
        }
    }
}
`, stride, stride, stride, stride, stride, stride)},
		{kind: "scatter", code: "ACCV009", src: `int n;
float val[n];
float out[n];
int idx[n];

void main() {
    int i;
    #pragma acc data copyin(val, idx) copy(out)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out[idx[i]] = val[i] + 1.0;
        }
    }
}
`},
	}
}

// checkDepCrossCheck is the two-sided property FuzzDepCrossCheck
// enforces: generator output the dataflow pass declares clean passes
// the shadow auditor bit-exactly on every platform, and the seeded
// race mutants are rejected statically without ever running.
func checkDepCrossCheck(t testing.TB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := genRandProg(rng)
	prog, err := cc.ParseProgram(p.src)
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", p.src, err)
	}
	res, err := analysis.Vet(prog)
	if err != nil {
		t.Fatalf("vet:\n%s\n%v", p.src, err)
	}
	if res.Diags.HasErrors() {
		t.Fatalf("dataflow pass rejects an audited-correct generator program:\n%s\n%v", p.src, res.Diags)
	}
	checkAuditedEquivalence(t, p)

	// Corpus-level static-dependence pin: when the affine generator
	// emits a producer -> consumer kernel pair (kernel 2 reads the out_
	// array kernel 1 writes), the async scheduler serializes the pair
	// through its out_ hazards — the static pass must find that edge.
	ap := genAffineProg(rng)
	aprog, err := cc.ParseProgram(ap.src)
	if err != nil {
		t.Fatalf("parse affine:\n%s\n%v", ap.src, err)
	}
	ares, err := analysis.Vet(aprog)
	if err != nil {
		t.Fatalf("vet affine:\n%s\n%v", ap.src, err)
	}
	apa, err := translator.AnalyzeProgram(aprog)
	if err != nil {
		t.Fatalf("analyze affine:\n%s\n%v", ap.src, err)
	}
	if len(apa.Loops) == 2 {
		want := analysis.Dep{Array: "out_", WriterLine: apa.Loops[0].Line, ReaderLine: apa.Loops[1].Line}
		if !hasDep(ares.Deps, want) {
			t.Fatalf("static deps miss the producer->consumer edge %+v:\n%s\ndeps: %+v",
				want, ap.src, ares.Deps)
		}
	}

	for _, m := range genRaceMutants(rng) {
		mprog, err := cc.ParseProgram(m.src)
		if err != nil {
			t.Fatalf("parse %s mutant:\n%s\n%v", m.kind, m.src, err)
		}
		mres, err := analysis.Vet(mprog)
		if err != nil {
			t.Fatalf("vet %s mutant:\n%s\n%v", m.kind, m.src, err)
		}
		if !mres.Diags.HasErrors() {
			t.Fatalf("%s mutant not rejected:\n%s\n%v", m.kind, m.src, mres.Diags)
		}
		found := false
		for _, dg := range mres.Diags.ByCode(m.code) {
			if dg.Severity == diag.Error {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s mutant: want an %s error, got:\n%s\n%v", m.kind, m.code, m.src, mres.Diags)
		}
		// Deliberately not executed: the rejection is the point.
	}
}

func TestDepCrossCheckSeedCorpus(t *testing.T) {
	seeds := []int64{2, 3, 5, 7, 11, 13, 17, 19}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkDepCrossCheck(t, seed)
		})
	}
}

// FuzzDepCrossCheck lets the fuzzer hunt for a generator program whose
// races the dataflow pass misses (the auditor would catch the
// desynchronized replicas) or a mutant shape it fails to reject.
func FuzzDepCrossCheck(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 12345, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDepCrossCheck(t, seed)
	})
}
