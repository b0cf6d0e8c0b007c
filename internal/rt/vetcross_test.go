package rt_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"accmulti/internal/analysis"
	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// This file cross-checks the static accvet pass (internal/analysis)
// against the runtime and the PR-1 shadow-oracle auditor:
//
//  1. ACCV007 halo-exchange predictions must match the halo spans
//     the communication manager's transfers emit.
//  2. Any program the analyzer declares footprint-safe must execute
//     bit-exactly under the auditor on every machine (no false "safe").
//  3. Footprint mutants the analyzer rejects with ACCV001 are never
//     executed — the rejection is the point; running them would read
//     outside partitions.

const pingpongSrc = `int n;
int t;
float a[n];
float b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        t = 0;
        while (t < 4) {
            #pragma acc parallel loop
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1)
            for (i = 1; i < n - 1; i++) {
                b[i] = a[i - 1] + a[i] + a[i + 1];
            }
            #pragma acc parallel loop
            #pragma acc localaccess(b) stride(1, 1, 1)
            #pragma acc localaccess(a) stride(1)
            for (i = 1; i < n - 1; i++) {
                a[i] = b[i - 1] + b[i] + b[i + 1];
            }
            t += 1;
        }
    }
}
`

// TestHaloPredictionMatchesRuntime pins ACCV007 to reality: the
// iterated ping-pong stencil for which the analyzer predicts a
// 2-element-per-pair exchange on both arrays must produce exactly such
// exchanges, as halo spans on an attached tracer, when run on a
// multi-GPU machine.
func TestHaloPredictionMatchesRuntime(t *testing.T) {
	prog, err := cc.ParseProgram(pingpongSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Vet(prog)
	if err != nil {
		t.Fatal(err)
	}
	preds := res.Diags.ByCode("ACCV007")
	if len(preds) != 2 {
		t.Fatalf("want 2 halo predictions, got %v", res.Diags)
	}
	for _, d := range preds {
		if !strings.Contains(d.Message, "2 boundary element(s)") {
			t.Fatalf("prediction %q should announce 2 boundary elements", d.Message)
		}
	}
	if res.Diags.HasErrors() || !res.Safe() {
		t.Fatalf("stencil should be clean and footprint-safe: %v", res.Diags)
	}

	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 64))
	if err != nil {
		t.Fatal(err)
	}
	const gpus = 4
	mach, err := sim.NewMachine(sim.Desktop().WithGPUs(gpus))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	if err := rt.New(mach, rt.Options{Tracer: tr}).Run(inst); err != nil {
		t.Fatal(err)
	}

	// 2 elements per adjacent pair, float32 elements.
	wantBytes := int64((gpus - 1) * 2 * 4)
	seen := map[string]int{}
	for _, launch := range haloExchanges(tr) {
		moved := map[string]int64{}
		for _, p := range launch {
			if d := p.src - p.dst; d != 1 && d != -1 {
				t.Errorf("halo push of %q moves gpu%d -> gpu%d, not between adjacent GPUs", p.array, p.src, p.dst)
			}
			moved[p.array] += p.bytes
		}
		for arr, bytes := range moved {
			seen[arr]++
			if bytes != wantBytes {
				t.Errorf("a launch's halo exchange of %q moved %d bytes, predicted %d", arr, bytes, wantBytes)
			}
		}
	}
	for _, arr := range []string{"a", "b"} {
		if seen[arr] == 0 {
			t.Errorf("no halo spans for predicted array %q", arr)
		}
	}
}

// affineProg is one generated footprint-verifiable program plus an
// optional halo-narrowed mutant of it.
type affineProg struct {
	src    string
	mutant string // "" when the program has no narrowable halo
	n      int
	s, h   int64
	in     []int32
}

// genAffineProg builds a random stencil whose reads are unclamped
// literal-affine, so the analyzer can fully verify it: by construction
// the correct variant must come back footprint-safe and the mutant
// (declared halo one element short) must be rejected with ACCV001.
func genAffineProg(rng *rand.Rand) affineProg {
	n := 32 + rng.Intn(400)
	s := []int64{1, 2}[rng.Intn(2)]
	h := int64(rng.Intn(3))
	specIn := rng.Intn(2) == 0 // declare localaccess(in_) vs. leave it replicated
	second := rng.Intn(2) == 0 // add a kernel reading out_ back
	maxOff := s - 1 + h

	offs := []int64{0}
	if maxOff > 0 {
		if mid := rng.Int63n(maxOff + 1); mid != 0 && mid != maxOff {
			offs = append(offs, mid)
		}
		offs = append(offs, maxOff)
	}

	emit := func(declHalo int64) string {
		var b strings.Builder
		fmt.Fprintf(&b, "int n;\n")
		fmt.Fprintf(&b, "int in_[%d * n + %d];\nint out_[%d * n];\nint res_[n];\n", s, h, s)
		fmt.Fprintf(&b, "\nvoid main() {\n    int i;\n    int v;\n")
		fmt.Fprintf(&b, "    #pragma acc data copyin(in_) copy(out_, res_)\n    {\n")
		if specIn {
			fmt.Fprintf(&b, "        #pragma acc localaccess(in_) stride(%d, 0, %d)\n", s, declHalo)
		}
		fmt.Fprintf(&b, "        #pragma acc localaccess(out_) stride(%d)\n", s)
		fmt.Fprintf(&b, "        #pragma acc parallel loop\n")
		fmt.Fprintf(&b, "        for (i = 0; i < n; i++) {\n")
		terms := make([]string, len(offs))
		for j, off := range offs {
			if off == 0 {
				terms[j] = fmt.Sprintf("in_[%d * i]", s)
			} else {
				terms[j] = fmt.Sprintf("in_[%d * i + %d]", s, off)
			}
		}
		fmt.Fprintf(&b, "            v = %s;\n", strings.Join(terms, " + "))
		for c := int64(0); c < s; c++ {
			fmt.Fprintf(&b, "            out_[%d * i + %d] = v + %d;\n", s, c, c)
		}
		fmt.Fprintf(&b, "        }\n")
		if second {
			fmt.Fprintf(&b, "        #pragma acc localaccess(res_) stride(1)\n")
			fmt.Fprintf(&b, "        #pragma acc parallel loop\n")
			fmt.Fprintf(&b, "        for (i = 0; i < n; i++) {\n")
			fmt.Fprintf(&b, "            res_[i] = out_[%d * i] * 2;\n", s)
			fmt.Fprintf(&b, "        }\n")
		}
		fmt.Fprintf(&b, "    }\n}\n")
		return b.String()
	}

	p := affineProg{src: emit(h), n: n, s: s, h: h}
	if specIn && h > 0 {
		p.mutant = emit(h - 1)
	}
	p.in = make([]int32, int64(n)*s+h)
	for i := range p.in {
		p.in[i] = int32(rng.Intn(200) - 100)
	}
	return p
}

func (p affineProg) run(t testing.TB, spec sim.MachineSpec, opts rt.Options) (out, res []int32) {
	t.Helper()
	prog, err := cc.ParseProgram(p.src)
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", p.src, err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatalf("translate:\n%s\n%v", p.src, err)
	}
	inA := &ir.HostArray{Decl: prog.Scope["in_"], I32: append([]int32(nil), p.in...)}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", float64(p.n)).SetArray("in_", inA))
	if err != nil {
		t.Fatalf("bind:\n%s\n%v", p.src, err)
	}
	mach, err := sim.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.New(mach, opts).Run(inst); err != nil {
		t.Fatalf("run on %s:\n%s\n%v", spec.Name, p.src, err)
	}
	outA, _ := inst.Array("out_")
	resA, _ := inst.Array("res_")
	return outA.I32, resA.I32
}

// checkVetCrossCheck is the property the fuzz target enforces: vet-safe
// programs pass the shadow auditor everywhere; halo-narrowed mutants
// are statically rejected (and never executed).
func checkVetCrossCheck(t testing.TB, seed int64) {
	p := genAffineProg(rand.New(rand.NewSource(seed)))

	prog, err := cc.ParseProgram(p.src)
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", p.src, err)
	}
	res, err := analysis.Vet(prog)
	if err != nil {
		t.Fatalf("vet:\n%s\n%v", p.src, err)
	}
	if res.Diags.HasErrors() {
		t.Fatalf("generator emitted a program vet rejects:\n%s\n%v", p.src, res.Diags)
	}
	if !res.Safe() {
		t.Fatalf("generator emitted an unverifiable program:\n%s\nsafety: %+v", p.src, res.FootprintSafe)
	}

	refOut, refRes := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
	} {
		out, resArr := p.run(t, spec, rt.Options{Auditor: audit.New(audit.Options{})})
		compareI32(t, p.src, spec.Name, "out_", out, refOut)
		compareI32(t, p.src, spec.Name, "res_", resArr, refRes)
	}

	if p.mutant == "" {
		return
	}
	mprog, err := cc.ParseProgram(p.mutant)
	if err != nil {
		t.Fatalf("parse mutant:\n%s\n%v", p.mutant, err)
	}
	mres, err := analysis.Vet(mprog)
	if err != nil {
		t.Fatalf("vet mutant:\n%s\n%v", p.mutant, err)
	}
	if !mres.Diags.HasErrors() || len(mres.Diags.ByCode("ACCV001")) == 0 {
		t.Fatalf("narrowed-halo mutant not rejected with ACCV001:\n%s\n%v", p.mutant, mres.Diags)
	}
	if mres.Safe() {
		t.Fatalf("mutant declared footprint-safe:\n%s", p.mutant)
	}
	// Deliberately not executed: a too-narrow halo reads outside the
	// partition, which the runtime treats as a program bug.
}

func TestVetCrossCheckSeedCorpus(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if testing.Short() {
		seeds = seeds[:6]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkVetCrossCheck(t, seed)
		})
	}
}

// FuzzVetCrossCheck lets the fuzzer hunt for a program the analyzer
// wrongly declares footprint-safe (the auditor would catch it) or a
// mutant it fails to reject.
func FuzzVetCrossCheck(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 12345, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkVetCrossCheck(t, seed)
	})
}

// TestVetCleanOnAuditedCorpus runs the analyzer over the PR-1 audited
// random-program corpus: those programs execute correctly, so vet must
// raise no errors on them (warnings and infos are fine — clamped halo
// reads are simply unverifiable statically).
func TestVetCleanOnAuditedCorpus(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	if testing.Short() {
		seeds = seeds[:5]
	}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		prog, err := cc.ParseProgram(p.src)
		if err != nil {
			t.Fatalf("seed %d: parse:\n%s\n%v", seed, p.src, err)
		}
		res, err := analysis.Vet(prog)
		if err != nil {
			t.Fatalf("seed %d: vet:\n%s\n%v", seed, p.src, err)
		}
		if res.Diags.HasErrors() {
			t.Errorf("seed %d: vet errors on an audited-correct program:\n%s\n%v", seed, p.src, res.Diags)
		}
	}
}
