package rt

import (
	"errors"
	"runtime/metrics"
	"sync/atomic"
	"testing"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// A device buffer's storage outlives the run that freed it (sim's
// process-wide free list). These tests hold a recycled buffer to what a
// fresh one gives.

// TestRecycledBufferReadsZero: one run leaves non-zero bytes in its
// device copies of a; a second program of the same shape reads its
// create copy of a before writing it and must see zeros. (Bind made a,
// so the loader ships nothing into that copy: only the zeroing of the
// recycled storage keeps it, as it keeps the dirty bytes of
// TestRunAfterCutRunReportsAsFresh.)
func TestRecycledBufferReadsZero(t *testing.T) {
	const dirtySrc = `
int n;
float a[n];
void main() {
    int i;
    #pragma acc data create(a)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = 7.0; }
    }
}
`
	// out is a double array, so that the float slices the first run
	// freed can serve a alone.
	const readSrc = `
int n;
float a[n];
double out[n];
void main() {
    int i;
    #pragma acc data create(a) copyout(out)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { out[i] = a[i]; }
    }
}
`
	const n = 6007 // a length no other test allocates
	for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
		exec(t, dirtySrc, spec, Options{}, ir.NewBindings().SetScalar("n", n))
		inst, _ := exec(t, readSrc, spec, Options{}, ir.NewBindings().SetScalar("n", n))
		out, _ := inst.Array("out")
		for i, v := range out.F64 {
			if v != 0 {
				t.Fatalf("%s: out[%d] = %v: a create copy read a previous run's bytes", spec.Name, i, v)
			}
		}
	}
}

// TestRunAfterCutRunReportsAsFresh: a run cut inside a scatter kernel
// frees dirty-bit arrays with bytes still set (no sync cleared them).
// The next run of the same shape takes that storage and must report
// exactly what it reports on fresh memory: a stale dirty byte in a chunk
// it marks would ship an element it never wrote.
func TestRunAfterCutRunReportsAsFresh(t *testing.T) {
	const src = `
int n, m;
int dst[n], val[n];
void main() {
    int i;
    #pragma acc data copyin(dst) copy(val)
    {
        #pragma acc parallel loop
        for (i = 0; i < m; i++) {
            val[dst[i]] = i;
        }
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
	const n = 40013 // a length no other test allocates
	dstD := &cc.VarDecl{Name: "dst", Type: cc.TInt, IsArray: true}
	// run scatters the first m of n permuted indices, cut at the cut-th
	// poll when cut > 0; 128-element chunks, so a chunk the scatter
	// marks is scanned byte by byte.
	run := func(m int, cut int64) (string, error) {
		dst := ir.NewHostArray(dstD, n)
		for i := range dst.I32 {
			dst.I32[i] = int32(i * 7919 % n)
		}
		inst, err := mod.Bind(ir.NewBindings().SetScalar("n", n).SetScalar("m", float64(m)).SetArray("dst", dst))
		if err != nil {
			t.Fatal(err)
		}
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{ChunkBytes: 512}
		if cut > 0 {
			var polls atomic.Int64
			opts.Interrupt = func() error {
				if polls.Add(1) >= cut {
					return errors.New("deadline")
				}
				return nil
			}
		}
		r := New(mach, opts)
		err = r.Run(inst)
		return r.Report().String(), err
	}
	fresh, err := run(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{4, 8, 16} {
		if _, err := run(n, cut); !errors.As(err, new(*InterruptedError)) {
			t.Fatalf("cut at poll %d: %v, want the run interrupted", cut, err)
		}
		if got, err := run(100, 0); err != nil || got != fresh {
			t.Errorf("after a run cut at poll %d: %s (%v)\nwant, as on fresh memory: %s", cut, got, err, fresh)
		}
	}
}

// TestSecondRunAllocatesBelowFootprint: the second of two identical
// runs of the replicated stencil allocates less heap than its own
// device footprint, because the first run's freed buffers serve it.
func TestSecondRunAllocatesBelowFootprint(t *testing.T) {
	prog, err := cc.ParseProgram(ReplPingPongSrc)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var allocated, footprint int64
	for range 2 {
		inst, err := mod.Bind(ir.NewBindings().SetScalar("n", n).SetScalar("steps", 2))
		if err != nil {
			t.Fatal(err)
		}
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		metrics.Read(sample)
		allocated = int64(sample[0].Value.Uint64() - before)
		footprint = r.Report().PeakUserBytes + r.Report().PeakSystemBytes
	}
	if footprint < 2*4*n {
		t.Fatalf("device footprint %d bytes: the stencil no longer replicates its arrays", footprint)
	}
	if allocated >= footprint {
		t.Errorf("the second run allocated %d bytes of heap, not less than its %d-byte device footprint", allocated, footprint)
	}
	t.Logf("second run: %d bytes allocated, device footprint %d bytes", allocated, footprint)
}

// TestReductionLanesRefilled: the lanes a copy keeps from one
// reductiontoarray are refilled with the next one's identity, whichever
// operator it has.
func TestReductionLanesRefilled(t *testing.T) {
	src := `
int n, k, rounds;
float v[k];
int keys[n];
void main() {
    int i, t;
    for (i = 0; i < k; i++) { v[i] = 1.0; }
    #pragma acc data copyin(keys) copy(v)
    {
        for (t = 0; t < rounds; t++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                #pragma acc reductiontoarray(*: v[keys[i]])
                v[keys[i]] *= 2.0;
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                #pragma acc reductiontoarray(+: v[keys[i]])
                v[keys[i]] += 1.0;
            }
        }
    }
}
`
	const n, k, rounds = 24, 3, 3
	want := float32(1)
	for range rounds {
		want = want*256 + 8 // eight keys per bucket: 2^8, then +8
	}
	keysD := &cc.VarDecl{Name: "keys", Type: cc.TInt, IsArray: true}
	for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()} {
		keys := ir.NewHostArray(keysD, n)
		for i := range keys.I32 {
			keys.I32[i] = int32(i % k)
		}
		bind := ir.NewBindings().SetScalar("n", n).SetScalar("k", k).SetScalar("rounds", rounds).SetArray("keys", keys)
		inst, _ := exec(t, src, spec, Options{}, bind)
		v, _ := inst.Array("v")
		for b, got := range v.F32 {
			if got != want {
				t.Errorf("%s: v[%d] = %g, want %g", spec.Name, b, got, want)
			}
		}
	}

	// Same shape: the lanes themselves, refilled; another shape: new ones.
	lanes := newLanes[float64](4, 10, acc.RedAdd)
	lanes[2][5] = 3
	again := lanesFor(lanes, 4, 10, acc.RedMul)
	if &again[2][0] != &lanes[2][0] || again[2][5] != 1 {
		t.Errorf("same-shape lanes not refilled in place with the new identity: %v", again[2])
	}
	if other := lanesFor(lanes, 4, 11, acc.RedMul); &other[0][0] == &lanes[0][0] {
		t.Error("lanes of another length were reused")
	}
}
