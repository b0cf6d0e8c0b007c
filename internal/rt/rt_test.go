package rt

import (
	"math"
	"strings"
	"testing"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// exec compiles src, binds it, and runs it on a fresh machine with the
// given options, returning the instance and the runtime.
func exec(t testing.TB, src string, spec sim.MachineSpec, opts Options, bind *ir.Bindings) (*ir.Instance, *Runtime) {
	t.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	inst, err := mod.Bind(bind)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	mach, err := sim.NewMachine(spec)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	r := New(mach, opts)
	if err := r.Run(inst); err != nil {
		t.Fatalf("run: %v", err)
	}
	return inst, r
}

const saxpyHalo = `
int n;
float a;
float x[n], y[n];

void main() {
    int i;
    #pragma acc data copyin(x) copy(y)
    {
        #pragma acc localaccess(x) stride(1, 1, 1)
        #pragma acc localaccess(y) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            float left, right;
            left = x[max(i - 1, 0)];
            right = x[min(i + 1, n - 1)];
            y[i] = a * x[i] + 0.25 * (left + right) + y[i];
        }
    }
}
`

func saxpyRef(n int, a float64, x, y []float32) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		l := x[maxInt(i-1, 0)]
		r := x[minInt(i+1, n-1)]
		out[i] = float32(a)*x[i] + 0.25*(l+r) + y[i]
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func makeInput(n int) (*ir.HostArray, *ir.HostArray, []float32, []float32) {
	xd := &cc.VarDecl{Name: "x", Type: cc.TFloat, IsArray: true}
	yd := &cc.VarDecl{Name: "y", Type: cc.TFloat, IsArray: true}
	x := ir.NewHostArray(xd, int64(n))
	y := ir.NewHostArray(yd, int64(n))
	for i := 0; i < n; i++ {
		x.F32[i] = float32(i%17) * 0.5
		y.F32[i] = float32(i%5) * 0.125
	}
	xs := append([]float32(nil), x.F32...)
	ys := append([]float32(nil), y.F32...)
	return x, y, xs, ys
}

func TestSaxpyMultiGPUMatchesReference(t *testing.T) {
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
	} {
		n := 1003
		x, y, xs, ys := makeInput(n)
		bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("a", 2.0).
			SetArray("x", x).SetArray("y", y)
		inst, r := exec(t, saxpyHalo, spec, Options{}, bind)
		want := saxpyRef(n, 2.0, xs, ys)
		got, _ := inst.Array("y")
		for i := range want {
			if got.F32[i] != want[i] {
				t.Fatalf("%s: y[%d] = %g, want %g", spec.Name, i, got.F32[i], want[i])
			}
		}
		if r.Report().BytesH2D == 0 || r.Report().BytesD2H == 0 {
			t.Errorf("%s: expected transfers, report: %s", spec.Name, r.Report())
		}
		// All device memory released after the data region.
		for _, g := range r.Machine().GPUs() {
			if g.UsedBytes() != 0 {
				t.Errorf("%s: GPU%d leaks %d bytes", spec.Name, g.ID, g.UsedBytes())
			}
		}
	}
}

func TestDistributionReducesTraffic(t *testing.T) {
	n := 100000
	x, y, _, _ := makeInput(n)
	bind := func() *ir.Bindings {
		x2 := ir.NewHostArray(x.Decl, int64(n))
		y2 := ir.NewHostArray(y.Decl, int64(n))
		copy(x2.F32, x.F32)
		copy(y2.F32, y.F32)
		return ir.NewBindings().SetScalar("n", float64(n)).SetScalar("a", 2.0).
			SetArray("x", x2).SetArray("y", y2)
	}
	_, dist := exec(t, saxpyHalo, sim.Desktop(), Options{}, bind())
	_, repl := exec(t, saxpyHalo, sim.Desktop(), Options{DisableDistribution: true}, bind())
	if dist.Report().BytesH2D >= repl.Report().BytesH2D {
		t.Errorf("distribution should move fewer bytes: %d vs %d",
			dist.Report().BytesH2D, repl.Report().BytesH2D)
	}
	// Replica-only roughly doubles the inbound traffic on 2 GPUs.
	if ratio := float64(repl.Report().BytesH2D) / float64(dist.Report().BytesH2D); ratio < 1.7 {
		t.Errorf("replica/distribution H2D ratio = %.2f, want >= 1.7", ratio)
	}
}

const scatterSrc = `
int n, k;
int dst[n], val[n];

void main() {
    int i;
    #pragma acc data copyin(dst) copy(val)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            val[dst[i]] = i;
        }
    }
}
`

func TestReplicatedScatterConsistency(t *testing.T) {
	// Irregular writes on a replicated array: after the communication
	// step the host must see every write regardless of which GPU made
	// it. dst is a permutation so writes never collide.
	n := 4096
	dstD := &cc.VarDecl{Name: "dst", Type: cc.TInt, IsArray: true}
	dst := ir.NewHostArray(dstD, int64(n))
	for i := 0; i < n; i++ {
		dst.I32[i] = int32((i*2654435761 + 7) % n)
	}
	seen := map[int32]bool{}
	perm := true
	for _, v := range dst.I32 {
		if seen[v] {
			perm = false
			break
		}
		seen[v] = true
	}
	if !perm { // fall back to identity if the hash is not a permutation
		for i := 0; i < n; i++ {
			dst.I32[i] = int32(i)
		}
	}
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", 0).SetArray("dst", dst)
	inst, r := exec(t, scatterSrc, sim.Desktop(), Options{}, bind)
	val, _ := inst.Array("val")
	for i := 0; i < n; i++ {
		if val.I32[dst.I32[i]] != int32(i) {
			t.Fatalf("val[dst[%d]] = %d, want %d", i, val.I32[dst.I32[i]], i)
		}
	}
	if r.Report().BytesP2P == 0 {
		t.Error("replicated writes on 2 GPUs must produce GPU-GPU traffic")
	}
}

func TestTwoLevelDirtyBeatsSingleLevel(t *testing.T) {
	// Writes concentrated in a small region: the two-level scheme
	// ships only the dirty chunks, the single-level ablation ships the
	// whole replica.
	src := `
int n;
float buf[n];
void main() {
    int i;
    #pragma acc data copy(buf)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i < 1000) { buf[i * 7 % 1000] = 1.0; }
        }
    }
}
`
	n := 1 << 20 // 4 MiB of float32
	bind := func() *ir.Bindings { return ir.NewBindings().SetScalar("n", float64(n)) }
	_, two := exec(t, src, sim.Desktop(), Options{ChunkBytes: 64 << 10}, bind())
	_, one := exec(t, src, sim.Desktop(), Options{ChunkBytes: 64 << 10, DisableTwoLevelDirty: true}, bind())
	if two.Report().BytesP2P >= one.Report().BytesP2P {
		t.Errorf("two-level should ship less: %d vs %d", two.Report().BytesP2P, one.Report().BytesP2P)
	}
	if one.Report().BytesP2P < int64(n)*4 {
		t.Errorf("single-level must ship at least the whole replica, got %d", one.Report().BytesP2P)
	}
}

const histSrc = `
int n, k;
int data[n], hist[k];
float sums[k];

void main() {
    int i;
    #pragma acc data copyin(data) copy(hist, sums)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int b;
            b = data[i] % k;
            #pragma acc reductiontoarray(+: hist[b])
            hist[b] += 1;
            #pragma acc reductiontoarray(+: sums[b])
            sums[b] += 0.5;
        }
    }
}
`

func TestReductionToArrayAcrossGPUs(t *testing.T) {
	n, k := 10000, 13
	dataD := &cc.VarDecl{Name: "data", Type: cc.TInt, IsArray: true}
	data := ir.NewHostArray(dataD, int64(n))
	wantHist := make([]int32, k)
	for i := 0; i < n; i++ {
		data.I32[i] = int32(i * 31)
		wantHist[(i*31)%k]++
	}
	for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
		d2 := ir.NewHostArray(dataD, int64(n))
		copy(d2.I32, data.I32)
		bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", float64(k)).SetArray("data", d2)
		inst, r := exec(t, histSrc, spec, Options{}, bind)
		hist, _ := inst.Array("hist")
		sums, _ := inst.Array("sums")
		for b := 0; b < k; b++ {
			if hist.I32[b] != wantHist[b] {
				t.Fatalf("%s: hist[%d] = %d, want %d", spec.Name, b, hist.I32[b], wantHist[b])
			}
			if want := float32(wantHist[b]) * 0.5; sums.F32[b] != want {
				t.Fatalf("%s: sums[%d] = %g, want %g", spec.Name, b, sums.F32[b], want)
			}
		}
		if r.Report().Counters.ReduceOps != int64(2*n) {
			t.Errorf("%s: ReduceOps = %d, want %d", spec.Name, r.Report().Counters.ReduceOps, 2*n)
		}
	}
}

const sumSrc = `
int n;
float x[n];
float total;
int cnt;

void main() {
    int i;
    total = 10.0;
    cnt = 5;
    #pragma acc localaccess(x) stride(1)
    #pragma acc parallel loop reduction(+:total) reduction(+:cnt)
    for (i = 0; i < n; i++) {
        total += x[i];
        cnt += 1;
    }
}
`

func TestScalarReductions(t *testing.T) {
	n := 5000
	xd := &cc.VarDecl{Name: "x", Type: cc.TFloat, IsArray: true}
	x := ir.NewHostArray(xd, int64(n))
	var want float64 = 10
	for i := 0; i < n; i++ {
		x.F32[i] = 0.25
		want += 0.25
	}
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetArray("x", x)
	inst, _ := exec(t, sumSrc, sim.SupercomputerNode(), Options{}, bind)
	got, _ := inst.ScalarF("total")
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("total = %g, want %g", got, want)
	}
	cnt, _ := inst.ScalarF("cnt")
	if cnt != float64(n+5) {
		t.Errorf("cnt = %g, want %d", cnt, n+5)
	}
}

const iterSrc = `
int n, iters;
float x[n], y[n];

void main() {
    int it, i;
    #pragma acc data copyin(x) copy(y)
    {
        for (it = 0; it < iters; it++) {
            #pragma acc localaccess(x) stride(1)
            #pragma acc localaccess(y) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                y[i] = y[i] + x[i];
            }
        }
    }
}
`

func TestReloadSkipAcrossIterations(t *testing.T) {
	n, iters := 50000, 10
	bind := func() *ir.Bindings {
		return ir.NewBindings().SetScalar("n", float64(n)).SetScalar("iters", float64(iters))
	}
	_, skip := exec(t, iterSrc, sim.Desktop(), Options{}, bind())
	_, noskip := exec(t, iterSrc, sim.Desktop(), Options{DisableReloadSkip: true}, bind())
	// With the skip, x and y load once; without, x reloads per launch.
	if skip.Report().BytesH2D >= noskip.Report().BytesH2D {
		t.Errorf("reload skip should reduce H2D: %d vs %d",
			skip.Report().BytesH2D, noskip.Report().BytesH2D)
	}
	if got := skip.Report().KernelLaunches; got != iters {
		t.Errorf("launches = %d, want %d", got, iters)
	}
	// y accumulates correctly either way.
	i1, _ := exec(t, iterSrc, sim.Desktop(), Options{}, bind())
	_ = i1
}

func TestUpdateDirectives(t *testing.T) {
	src := `
int n;
float x[n];

void main() {
    int i;
    #pragma acc data copy(x)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { x[i] = 1.0; }
        #pragma acc update host(x)
        x[0] = 42.0;
        #pragma acc update device(x)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { x[i] = x[i] + 1.0; }
    }
}
`
	n := 1000
	bind := ir.NewBindings().SetScalar("n", float64(n))
	inst, _ := exec(t, src, sim.Desktop(), Options{}, bind)
	x, _ := inst.Array("x")
	if x.F32[0] != 43 {
		t.Errorf("x[0] = %g, want 43 (host write must reach the device)", x.F32[0])
	}
	if x.F32[1] != 2 {
		t.Errorf("x[1] = %g, want 2", x.F32[1])
	}
}

func TestLocalAccessViolationSurfacesError(t *testing.T) {
	src := `
int n;
float x[n], y[n];

void main() {
    int i;
    #pragma acc localaccess(x) stride(1)
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        y[i] = x[(i + n/2) % n];
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
	inst, err := mod.Bind(ir.NewBindings().SetScalar("n", 1000))
	if err != nil {
		t.Fatal(err)
	}
	mach, _ := sim.NewMachine(sim.Desktop())
	r := New(mach, Options{})
	err = r.Run(inst)
	if err == nil || !strings.Contains(err.Error(), "localaccess") {
		t.Errorf("understated footprint must fail loudly, got %v", err)
	}
}

func TestModesAgreeOnResults(t *testing.T) {
	n, k := 3000, 7
	for _, mode := range []Mode{ModeCPU, ModeBaseline, ModeCUDA, ModeMultiGPU} {
		dataD := &cc.VarDecl{Name: "data", Type: cc.TInt, IsArray: true}
		data := ir.NewHostArray(dataD, int64(n))
		for i := 0; i < n; i++ {
			data.I32[i] = int32(i)
		}
		bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", float64(k)).SetArray("data", data)
		inst, r := exec(t, histSrc, sim.Desktop(), Options{Mode: mode}, bind)
		hist, _ := inst.Array("hist")
		for b := 0; b < k; b++ {
			want := int32(n / k)
			if b < n%k {
				want++
			}
			if hist.I32[b] != want {
				t.Fatalf("mode %v: hist[%d] = %d, want %d", mode, b, hist.I32[b], want)
			}
		}
		if mode == ModeCPU {
			if r.Report().BytesH2D != 0 || r.Report().GPUGPUTime != 0 {
				t.Errorf("CPU mode must not touch the bus: %s", r.Report())
			}
		}
		if r.Report().KernelTime == 0 {
			t.Errorf("mode %v: kernel time must be positive", mode)
		}
	}
}

func TestBaselineSerializesArrayReductions(t *testing.T) {
	n, k := 200000, 7
	run := func(mode Mode) *Report {
		dataD := &cc.VarDecl{Name: "data", Type: cc.TInt, IsArray: true}
		data := ir.NewHostArray(dataD, int64(n))
		bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("k", float64(k)).SetArray("data", data)
		_, r := exec(t, histSrc, sim.Desktop(), Options{Mode: mode}, bind)
		return r.Report()
	}
	base := run(ModeBaseline)
	cuda := run(ModeCUDA)
	if base.KernelTime <= cuda.KernelTime {
		t.Errorf("baseline must pay the serialization penalty: %v vs %v",
			base.KernelTime, cuda.KernelTime)
	}
}

func TestMemoryPeaksAccounted(t *testing.T) {
	n := 1 << 18
	x, y, _, _ := makeInput(n)
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("a", 1.0).
		SetArray("x", x).SetArray("y", y)
	_, r := exec(t, saxpyHalo, sim.Desktop(), Options{}, bind)
	rep := r.Report()
	if rep.PeakUserBytes == 0 {
		t.Error("user memory peak not sampled")
	}
	// Distributed x and y: each GPU holds roughly half of each array.
	approxTotal := int64(n) * 4 * 2 // both arrays, all partitions combined
	if rep.PeakUserBytes > approxTotal*12/10 || rep.PeakUserBytes < approxTotal*8/10 {
		t.Errorf("user peak = %d, want about %d", rep.PeakUserBytes, approxTotal)
	}
}

func TestTransformDoesNotChangeResults(t *testing.T) {
	src := `
int n, w;
float mat[n * w], out[n];

void main() {
    int i;
    #pragma acc data copyin(mat) copyout(out)
    {
        #pragma acc localaccess(mat) stride(w)
        #pragma acc localaccess(out) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int j;
            float s;
            s = 0.0;
            for (j = 0; j < w; j++) { s += mat[i * w + j]; }
            out[i] = s;
        }
    }
}
`
	n, w := 999, 16
	matD := &cc.VarDecl{Name: "mat", Type: cc.TFloat, IsArray: true}
	mk := func() *ir.Bindings {
		mat := ir.NewHostArray(matD, int64(n*w))
		for i := range mat.F32 {
			mat.F32[i] = float32(i % 23)
		}
		return ir.NewBindings().SetScalar("n", float64(n)).SetScalar("w", float64(w)).SetArray("mat", mat)
	}
	instT, rT := exec(t, src, sim.Desktop(), Options{}, mk())
	instN, rN := exec(t, src, sim.Desktop(), Options{DisableLayoutTransform: true}, mk())
	outT, _ := instT.Array("out")
	outN, _ := instN.Array("out")
	for i := 0; i < n; i++ {
		if outT.F32[i] != outN.F32[i] {
			t.Fatalf("out[%d]: transform %g vs plain %g", i, outT.F32[i], outN.F32[i])
		}
	}
	if rT.Report().KernelTime >= rN.Report().KernelTime {
		t.Errorf("transform should speed up the kernel: %v vs %v",
			rT.Report().KernelTime, rN.Report().KernelTime)
	}
}

func TestMissBufferDelivery(t *testing.T) {
	// Distributed writes that sometimes land outside the local
	// partition: a shift-by-one write pattern with stride(1) reads.
	src := `
int n;
int src_[n], dst_[n];

void main() {
    int i;
    #pragma acc data copyin(src_) copy(dst_)
    {
        #pragma acc localaccess(src_) stride(1)
        #pragma acc localaccess(dst_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            dst_[(i + n/2) % n] = src_[i];
        }
    }
}
`
	n := 2048
	srcD := &cc.VarDecl{Name: "src_", Type: cc.TInt, IsArray: true}
	srcA := ir.NewHostArray(srcD, int64(n))
	for i := 0; i < n; i++ {
		srcA.I32[i] = int32(i + 1)
	}
	bind := ir.NewBindings().SetScalar("n", float64(n)).SetArray("src_", srcA)
	inst, _ := exec(t, src, sim.Desktop(), Options{}, bind)
	dst, _ := inst.Array("dst_")
	for i := 0; i < n; i++ {
		if dst.I32[(i+n/2)%n] != int32(i+1) {
			t.Fatalf("dst[%d] = %d, want %d", (i+n/2)%n, dst.I32[(i+n/2)%n], i+1)
		}
	}
}
