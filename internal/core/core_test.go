package core

import (
	"strings"
	"testing"

	"accmulti/internal/analysis"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

const coreSrc = `
int n;
float x[n], out[n];
float total;

void main() {
    int i;
    total = 0.0;
    #pragma acc data copyin(x) copyout(out)
    {
        #pragma acc localaccess(x) stride(1)
        #pragma acc localaccess(out) stride(1)
        #pragma acc parallel loop reduction(+:total)
        for (i = 0; i < n; i++) {
            out[i] = x[i] * x[i];
            total += out[i];
        }
    }
}
`

// NaNSrc makes every element of y NaN, zero over zero: the kernel the
// auditor once reported as diverging, "got NaN, want NaN".
const NaNSrc = `
int n;
float x[n], y[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        y[i] = (x[i] - x[i]) / (x[i] - x[i]);
    }
}
`

// TestAuditedNaNRun: an audited run whose results are NaN passes — the
// oracle and the engines agree that each element is NaN.
func TestAuditedNaNRun(t *testing.T) {
	prog, err := Compile(NaNSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(ir.NewBindings().SetScalar("n", 64), Config{Audit: true})
	if err != nil {
		t.Fatalf("audited run: %v", err)
	}
	y, err := res.Instance.Array("y")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y.F32 {
		if v == v {
			t.Fatalf("y[%d] = %g, want NaN", i, v)
		}
	}
}

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	xd := ir.NewHostArray(prog.Module.Prog.Scope["x"], int64(n))
	for i := range xd.F32 {
		xd.F32[i] = 2
	}
	res, err := prog.Run(
		ir.NewBindings().SetScalar("n", float64(n)).SetArray("x", xd),
		Config{Machine: sim.SupercomputerNode()},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Instance.Array("out")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out.F32[i] != 4 {
			t.Fatalf("out[%d] = %g", i, out.F32[i])
		}
	}
	total, _ := res.Instance.ScalarF("total")
	if total != float64(4*n) {
		t.Errorf("total = %g, want %d", total, 4*n)
	}
	if res.Runtime.KernelExecs()[0] != 1 {
		t.Errorf("kernel execs = %v", res.Runtime.KernelExecs())
	}
}

// TestVetReusesCompileAnalysis: a compiled program is analysed once. Vet
// reads the skeleton Compile lowered the module from, and says what
// analysis.Vet says from the source alone.
func TestVetReusesCompileAnalysis(t *testing.T) {
	prog, err := Compile(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err := prog.Vet()
		if err != nil {
			t.Fatal(err)
		}
		if res.Access != prog.Access {
			t.Fatal("Vet analysed the program again instead of reusing Compile's skeleton")
		}
		fresh, err := analysis.Vet(prog.Source)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Diags.Format("p"), fresh.Diags.Format("p"); got != want {
			t.Errorf("Program.Vet:\n%s\nanalysis.Vet:\n%s", got, want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"int n void main() { }",  // parse error
		"void main() { y = 1; }", // sema error
		"int n; float a[n];\nvoid main() { int i;\n#pragma acc parallel loop\nfor (i = 0; i < n; i += 2) { a[i] = 0.0; } }", // translator error
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestDefaultMachine(t *testing.T) {
	prog, err := Compile("int n;\nvoid main() { n = 1; }")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime.Machine().Spec.Name != "Desktop Machine" {
		t.Errorf("default machine = %q", res.Runtime.Machine().Spec.Name)
	}
}

func TestStatsAndMemory(t *testing.T) {
	prog, err := Compile(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Stats()
	if s.ParallelLoops != 1 || s.ArraysInLoops != 2 || s.LocalAccessArrays != 2 || s.ReductionArrays != 0 {
		t.Errorf("stats = %+v", s)
	}
	if got := FormatStats(s); !strings.Contains(got, "loops=1") || !strings.Contains(got, "2/2") {
		t.Errorf("FormatStats = %q", got)
	}
	mem, err := DeviceMemoryUsage(prog, ir.NewBindings().SetScalar("n", 100))
	if err != nil {
		t.Fatal(err)
	}
	if mem != 800 { // x and out, 100 floats each
		t.Errorf("memory = %d, want 800", mem)
	}
}

func TestRunBadBindings(t *testing.T) {
	prog, err := Compile(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(ir.NewBindings().SetScalar("zzz", 1), Config{}); err == nil {
		t.Error("bad binding should fail")
	}
	if _, err := prog.Run(nil, Config{Machine: sim.MachineSpec{Name: "broken"}}); err == nil {
		t.Error("invalid machine should fail")
	}
}

func TestRunOutOfDeviceMemory(t *testing.T) {
	prog, err := Compile(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.Desktop()
	spec.GPU.MemBytes = 1024 // tiny board
	_, err = prog.Run(
		ir.NewBindings().SetScalar("n", 100000),
		Config{Machine: spec, Options: rt.Options{}},
	)
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("want device OOM, got %v", err)
	}
}
