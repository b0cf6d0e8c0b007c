package rt

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

func TestNestedDataRegions(t *testing.T) {
	src := `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc data copyin(a)
    {
        #pragma acc data copy(b)
        {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { b[i] = b[i] * 2.0; }
    }
}
`
	n := 512
	aD := &cc.VarDecl{Name: "a", Type: cc.TFloat, IsArray: true}
	a := ir.NewHostArray(aD, int64(n))
	for i := range a.F32 {
		a.F32[i] = float32(i)
	}
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetArray("a", a)
	inst, _ := exec(t, src, sim.Desktop(), Options{}, bind)
	b, _ := inst.Array("b")
	// Inner region ends before the second loop, so b round-trips via
	// the host (implicit per-loop movement for the second loop).
	for i := 0; i < n; i++ {
		if want := float32(2 * (i + 1)); b.F32[i] != want {
			t.Fatalf("b[%d] = %g, want %g", i, b.F32[i], want)
		}
	}
}

func TestCopyoutSkipsInboundTransfer(t *testing.T) {
	// Write-only arrays with statically in-range writes never load
	// host content (the paper's write-only distributed case).
	src := `
int n;
float src_[n], dst_[n];
void main() {
    int i;
    #pragma acc data copyin(src_) copyout(dst_)
    {
        #pragma acc localaccess(src_) stride(1)
        #pragma acc localaccess(dst_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { dst_[i] = src_[i]; }
    }
}
`
	n := 100000
	srcD := &cc.VarDecl{Name: "src_", Type: cc.TFloat, IsArray: true}
	srcA := ir.NewHostArray(srcD, int64(n))
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetArray("src_", srcA)
	_, r := exec(t, src, sim.Desktop(), Options{}, bind)
	// Only src_ flows in: n floats split across GPUs.
	if got := r.Report().BytesH2D; got != int64(n)*4 {
		t.Errorf("H2D = %d, want %d (dst_ must not load)", got, n*4)
	}
	if got := r.Report().BytesD2H; got != int64(n)*4 {
		t.Errorf("D2H = %d, want %d (dst_ copyout)", got, n*4)
	}
}

func TestHaloExchangeExactBytes(t *testing.T) {
	// Two GPUs, stride(1,1,1) halo: each sweep exchanges exactly one
	// element per direction.
	src := `
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
                if (i > 0 && i < n - 1) { b[i] = a[i-1] + a[i+1]; } else { b[i] = 0.0; }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { a[i] = b[i]; }
        }
    }
}
`
	steps := 5
	bind := ir.NewBindings().SetScalar("n", 1024).SetScalar("steps", float64(steps))
	_, r := exec(t, src, sim.Desktop(), Options{}, bind)
	// Each copy-back sweep pushes a's boundary element into the
	// neighbor's halo: 2 directions x 4 bytes x steps.
	want := int64(2 * 4 * steps)
	if got := r.Report().BytesP2P; got != want {
		t.Errorf("halo P2P = %d, want %d", got, want)
	}
}

func TestParallelLoopOutsideDataRegion(t *testing.T) {
	// Without a data region the loader treats the host as canonical
	// before each launch and gathers results after (implicit data
	// movement); two launches therefore reload.
	src := `
int n;
float v[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { v[i] = v[i] + 1.0; }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { v[i] = v[i] * 3.0; }
}
`
	n := 4096
	bind := ir.NewBindings().SetScalar("n", float64(n))
	inst, r := exec(t, src, sim.Desktop().WithGPUs(1), Options{}, bind)
	v, _ := inst.Array("v")
	for i := 0; i < n; i++ {
		if v.F32[i] != 3 {
			t.Fatalf("v[%d] = %g, want 3", i, v.F32[i])
		}
	}
	if got := r.Report().BytesH2D; got != int64(2*n)*4 {
		t.Errorf("H2D = %d, want %d (two implicit loads)", got, 2*n*4)
	}
	if got := r.Report().BytesD2H; got != int64(2*n)*4 {
		t.Errorf("D2H = %d, want %d (two implicit gathers)", got, 2*n*4)
	}
}

func TestChunkSizeOptionRespected(t *testing.T) {
	r := New(mustMachine(t), Options{})
	if r.opts.ChunkBytes != DefaultChunkBytes {
		t.Errorf("default chunk = %d", r.opts.ChunkBytes)
	}
	r2 := New(mustMachine(t), Options{ChunkBytes: 4096})
	if r2.opts.ChunkBytes != 4096 {
		t.Errorf("chunk override = %d", r2.opts.ChunkBytes)
	}
}

func mustMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeMultiGPU, ModeCPU, ModeBaseline, ModeCUDA} {
		if m.String() == "" || strings.HasPrefix(m.String(), "Mode(") {
			t.Errorf("mode %d has bad string %q", m, m.String())
		}
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode formatting")
	}
}

func TestSubtractRange(t *testing.T) {
	cases := []struct {
		lo, hi, sLo, sHi int64
		want             [][2]int64
	}{
		{0, 9, 3, 5, [][2]int64{{0, 2}, {6, 9}}},
		{0, 9, 0, 9, nil},
		{0, 9, 20, 30, [][2]int64{{0, 9}}},
		{0, 9, 5, 3, [][2]int64{{0, 9}}}, // empty subtrahend
		{0, 9, 0, 4, [][2]int64{{5, 9}}},
		{0, 9, 5, 9, [][2]int64{{0, 4}}},
	}
	for _, tc := range cases {
		segs, n := subtractRange(tc.lo, tc.hi, tc.sLo, tc.sHi)
		got := segs[:n]
		if len(got) != len(tc.want) {
			t.Errorf("subtract(%d,%d minus %d,%d) = %v, want %v", tc.lo, tc.hi, tc.sLo, tc.sHi, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("subtract(%d,%d minus %d,%d) = %v, want %v", tc.lo, tc.hi, tc.sLo, tc.sHi, got, tc.want)
			}
		}
	}
}

func TestPresentClause(t *testing.T) {
	src := `
int n;
float a[n];
void main() {
    int i;
    #pragma acc data copy(a)
    {
        #pragma acc data present(a)
        {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
    }
}
`
	n := 2048
	bind := ir.NewBindings().SetScalar("n", float64(n))
	inst, r := exec(t, src, sim.Desktop().WithGPUs(1), Options{}, bind)
	a, _ := inst.Array("a")
	for i := 0; i < n; i++ {
		if a.F32[i] != 2 {
			t.Fatalf("a[%d] = %g, want 2", i, a.F32[i])
		}
	}
	// present must not reload or release: a loads exactly once.
	if got := r.Report().BytesH2D; got != int64(n)*4 {
		t.Errorf("H2D = %d, want %d (present must not reload)", got, n*4)
	}
}

func TestPresentClauseNotResidentFails(t *testing.T) {
	src := `
int n;
float a[n];
void main() {
    int i;
    #pragma acc data present(a)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = 1.0; }
    }
}
`
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 8))
	if err != nil {
		t.Fatal(err)
	}
	mach, _ := sim.NewMachine(sim.Desktop())
	err = New(mach, Options{}).Run(inst)
	if err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Errorf("present without enclosing region must fail, got %v", err)
	}
}

func TestContinueInParallelLoop(t *testing.T) {
	// `continue` at kernel-body top level ends that parallel iteration
	// (the parallel for IS the innermost loop).
	src := `
int n;
int out[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        if (i % 3 != 0) { continue; }
        out[i] = 1;
    }
}
`
	n := 999
	inst, _ := exec(t, src, sim.Desktop(), Options{}, ir.NewBindings().SetScalar("n", float64(n)))
	out, _ := inst.Array("out")
	for i := 0; i < n; i++ {
		want := int32(0)
		if i%3 == 0 {
			want = 1
		}
		if out.I32[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out.I32[i], want)
		}
	}
}

func TestBreakInParallelLoopFails(t *testing.T) {
	src := `
int n;
int out[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        if (i == 5) { break; }
        out[i] = 1;
    }
}
`
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 100))
	if err != nil {
		t.Fatal(err)
	}
	mach, _ := sim.NewMachine(sim.Desktop())
	err = New(mach, Options{}).Run(inst)
	if err == nil || !strings.Contains(err.Error(), "break out of a parallel loop") {
		t.Errorf("break escaping a parallel loop must fail, got %v", err)
	}
}

func TestCollapse2Execution(t *testing.T) {
	src := `
int h, w;
float a[h * w], b[h * w];
float total;
void main() {
    int r, c;
    total = 0.0;
    #pragma acc data copyin(a) copyout(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop collapse(2) reduction(+:total)
        for (r = 0; r < h; r++) {
            for (c = 0; c < w; c++) {
                b[r * w + c] = a[r * w + c] * 2.0 + (float)r;
                total += 1.0;
            }
        }
    }
}
`
	h, w := 63, 41
	aD := &cc.VarDecl{Name: "a", Type: cc.TFloat, IsArray: true}
	a := ir.NewHostArray(aD, int64(h*w))
	for i := range a.F32 {
		a.F32[i] = float32(i % 7)
	}
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1), sim.Desktop(), sim.SupercomputerNode(),
	} {
		a2 := ir.NewHostArray(aD, int64(h*w))
		copy(a2.F32, a.F32)
		bind := ir.NewBindings().SetScalar("h", float64(h)).SetScalar("w", float64(w)).SetArray("a", a2)
		inst, _ := exec(t, src, spec, Options{}, bind)
		b, _ := inst.Array("b")
		for r := 0; r < h; r++ {
			for c := 0; c < w; c++ {
				p := r*w + c
				if want := a.F32[p]*2 + float32(r); b.F32[p] != want {
					t.Fatalf("%s: b[%d] = %g, want %g", spec.Name, p, b.F32[p], want)
				}
			}
		}
		if total, _ := inst.ScalarF("total"); total != float64(h*w) {
			t.Fatalf("%s: total = %g, want %d", spec.Name, total, h*w)
		}
	}
}

func TestReduceMulAcrossGPUs(t *testing.T) {
	// Multiplicative reductiontoarray: prod[k] *= v, merged across
	// workers and GPUs with identity 1 lanes.
	src := `
int n, k;
float prod[k];
int keys[n];
void main() {
    int i;
    for (i = 0; i < k; i++) { prod[i] = 1.0; }
    #pragma acc data copyin(keys) copy(prod)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(*: prod[keys[i]])
            prod[keys[i]] *= 2.0;
        }
    }
}
`
	n, kk := 24, 3
	keysD := &cc.VarDecl{Name: "keys", Type: cc.TInt, IsArray: true}
	keys := ir.NewHostArray(keysD, int64(n))
	for i := 0; i < n; i++ {
		keys.I32[i] = int32(i % kk)
	}
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", float64(kk)).SetArray("keys", keys)
	inst, _ := exec(t, src, sim.SupercomputerNode(), Options{}, bind)
	prod, _ := inst.Array("prod")
	for b := 0; b < kk; b++ {
		if want := float32(256); prod.F32[b] != want { // 2^8
			t.Errorf("prod[%d] = %g, want %g", b, prod.F32[b], want)
		}
	}
	// Same result on the CPU baseline (hostReduceView path).
	keys2 := ir.NewHostArray(keysD, int64(n))
	copy(keys2.I32, keys.I32)
	bind2 := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", float64(kk)).SetArray("keys", keys2)
	inst2, _ := exec(t, src, sim.Desktop(), Options{Mode: ModeCPU}, bind2)
	prod2, _ := inst2.Array("prod")
	for b := 0; b < kk; b++ {
		if prod2.F32[b] != 256 {
			t.Errorf("cpu prod[%d] = %g", b, prod2.F32[b])
		}
	}
}

func TestReportStringAndExecCounts(t *testing.T) {
	src := `
int n;
float v[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { v[i] = 1.0; }
}
`
	_, r := exec(t, src, sim.Desktop(), Options{}, ir.NewBindings().SetScalar("n", 100))
	s := r.Report().String()
	for _, want := range []string{"total", "kernels", "H2D", "peak mem"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q: %s", want, s)
		}
	}
	if r.KernelExecs()[0] != 1 {
		t.Errorf("exec counts = %v", r.KernelExecs())
	}
}

func TestPerKernelStats(t *testing.T) {
	src := `
int n, iters;
float v[n];
void main() {
    int it, i;
    #pragma acc data copy(v)
    {
        for (it = 0; it < iters; it++) {
            #pragma acc localaccess(v) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { v[i] = v[i] + 1.0; }
        }
    }
}
`
	bind := ir.NewBindings().SetScalar("n", 1000).SetScalar("iters", 7)
	_, r := exec(t, src, sim.Desktop(), Options{}, bind)
	if len(r.Report().PerKernel) != 1 {
		t.Fatalf("per-kernel buckets = %d", len(r.Report().PerKernel))
	}
	for name, ks := range r.Report().PerKernel {
		if ks.Launches != 7 {
			t.Errorf("%s launches = %d, want 7", name, ks.Launches)
		}
		if ks.Time <= 0 || ks.Counters.Iterations != 7000 {
			t.Errorf("%s stats = %+v", name, ks)
		}
	}
}

func TestFailedRunReleasesDeviceMemory(t *testing.T) {
	// A run that aborts (localaccess violation) must still release all
	// device allocations.
	src := `
int n;
float x[n], y[n];
void main() {
    int i;
    #pragma acc localaccess(x) stride(1)
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { y[i] = x[(i + n/2) % n]; }
}
`
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 1000))
	if err != nil {
		t.Fatal(err)
	}
	mach, _ := sim.NewMachine(sim.Desktop())
	r := New(mach, Options{})
	if err := r.Run(inst); err == nil {
		t.Fatal("run should fail")
	}
	for _, g := range mach.GPUs() {
		if g.UsedBytes() != 0 {
			t.Errorf("GPU%d leaks %d bytes after failed run", g.ID, g.UsedBytes())
		}
	}
}

// TestInterpreterReductionOrder pins that the closure interpreter — the
// reference of the differential tests, every fallback chunk and the whole
// OpenMP bar — folds scalar-reduction partials in worker order, like the
// specialized executor, and not in the order its workers happen to
// finish: a double dot product (examples/testdata/dotprod.c with double
// arrays) has one bit pattern over many runs on four processors, and on
// the GPUs it is the specialized path's.
func TestInterpreterReductionOrder(t *testing.T) {
	src, err := os.ReadFile("../../examples/testdata/dotprod.c")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.ParseProgram(strings.ReplaceAll(string(src), "float", "double"))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4001
	rng := rand.New(rand.NewSource(7))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	dot := func(opts Options) uint64 {
		inst, err := mod.Bind(ir.NewBindings().SetScalar("n", n))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range inst.Arrays {
			copy(a.F64, map[string][]float64{"x": xs, "y": ys}[a.Decl.Name])
		}
		mach, _ := sim.NewMachine(sim.Desktop())
		if err := New(mach, opts).Run(inst); err != nil {
			t.Fatal(err)
		}
		v, err := inst.ScalarF("dot")
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(v)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	runs := 2000
	if testing.Short() {
		runs = 200
	}
	specialized := dot(Options{})
	for _, tc := range []struct {
		name string
		opts Options
		want uint64
	}{
		{"interpreter on the GPUs", Options{Reference: true}, specialized},
		{"OpenMP", Options{Mode: ModeCPU}, dot(Options{Mode: ModeCPU})},
	} {
		seen := map[uint64]int{}
		for i := 0; i < runs; i++ {
			seen[dot(tc.opts)]++
		}
		if len(seen) != 1 || seen[tc.want] != runs {
			t.Errorf("%s: %d runs gave bit patterns %v, want only %#x", tc.name, runs, seen, tc.want)
		}
	}
}
