package rt

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// White-box tests and wall-clock benchmarks for the host-side
// performance layer (PR 3): the word-parallel dirty diff, the deferred
// bulk loader copies, and the launch-plan cache. The legacy* functions
// are verbatim transcriptions of the serial hot paths this PR replaced;
// they serve both as parity oracles (the new code must produce
// bit-identical state and transfer lists) and as the "pre-PR code"
// baselines of the benchmark gate.

func newPerfRuntime(tb testing.TB, ngpus int, opts Options) *Runtime {
	tb.Helper()
	mach, err := sim.NewMachine(sim.Desktop().WithGPUs(ngpus))
	if err != nil {
		tb.Fatal(err)
	}
	return New(mach, opts)
}

func newPerfArray(tb testing.TB, r *Runtime, name string, typ cc.ElemType, n int64) *arrayState {
	tb.Helper()
	decl := &cc.VarDecl{Name: name, Type: typ, IsArray: true, Slot: len(r.arrays)}
	host := ir.NewHostArray(decl, n)
	st := &arrayState{
		decl: decl, host: host, n: n, elemSize: typ.Size(),
		copies: make([]*gpuCopy, r.mach.NumGPUs()),
	}
	for g, dev := range r.mach.GPUs() {
		st.copies[g] = &gpuCopy{st: st, g: g, dev: dev}
	}
	r.addState(st)
	return st
}

func fillHost(rng *rand.Rand, a *ir.HostArray) {
	switch {
	case a.F32 != nil:
		for i := range a.F32 {
			a.F32[i] = rng.Float32()
		}
	case a.F64 != nil:
		for i := range a.F64 {
			a.F64[i] = rng.Float64()
		}
	default:
		for i := range a.I32 {
			a.I32[i] = int32(rng.Intn(1 << 20))
		}
	}
}

// loadReplicas ships a full replica (with dirty-bit auxiliaries when
// asked) onto every GPU.
func loadReplicas(tb testing.TB, r *Runtime, st *arrayState, wantDirty bool) {
	tb.Helper()
	for g := range st.copies {
		nd := need{lo: 0, hi: st.n - 1, contentIn: true, wantDirty: wantDirty, coreLo: 0, coreHi: -1}
		_, job, err := r.prepareLoad(st, st.copies[g], nd, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if job.c != nil {
			job.run()
		}
	}
}

func markDirty(c *gpuCopy, lo, hi int64) {
	for p := lo; p < hi; p++ {
		c.dirty[p] = 1
		c.chunkDirty[p/c.chunkElems] = 1
	}
}

// covered reports physical element p marked dirty: its byte, or a span.
func covered(c *gpuCopy, p int64) bool {
	return c.dirty[p] != 0 || slices.ContainsFunc(c.spans, func(s span) bool { return s.lo <= p && p < s.hi })
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// --- legacy reference implementations (pre-PR serial hot paths) ---

// legacyLoadContent is the loader's old per-element content copy.
func legacyLoadContent(st *arrayState, c *gpuCopy, lo, hi int64) {
	for i := lo; i <= hi; i++ {
		ir.StoreAs(&c.data, c.phys(i), ir.LoadAs[float64](st.host, i))
	}
}

// legacySyncReplicated is the old per-destination byte-scan diff,
// including the single-level ablation's whole-replica path. Spans are
// first marked the old way, a byte per element and the chunk bits of
// their elements.
func legacySyncReplicated(st *arrayState, ngpus int, disableTwoLevel bool) []sim.Transfer {
	var transfers []sim.Transfer
	for g := 0; g < ngpus; g++ {
		c := st.copies[g]
		for _, s := range c.spans {
			markDirty(c, s.lo, s.hi)
		}
		c.spans = nil
	}
	for g := 0; g < ngpus; g++ {
		src := st.copies[g]
		if src.dirty == nil || !src.valid {
			continue
		}
		if disableTwoLevel {
			any := false
			for _, b := range src.chunkDirty {
				if b != 0 {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			payload := src.localLen()*st.elemSize + src.localLen()
			for g2 := 0; g2 < ngpus; g2++ {
				if g2 == g {
					continue
				}
				dst := st.copies[g2]
				for p := int64(0); p < src.localLen(); p++ {
					if src.dirty[p] == 1 {
						ir.StoreAs(&dst.data, p, ir.LoadAs[float64](&src.data, p))
					}
				}
				transfers = append(transfers, sim.Transfer{Kind: sim.PeerToPeer, Bytes: payload, Src: g, Dst: g2,
					Label: st.decl.Name, Lo: src.lo, Hi: src.hi, Tag: sim.TagDirty})
			}
			continue
		}
		for ch := range src.chunkDirty {
			if src.chunkDirty[ch] == 0 {
				continue
			}
			lo := int64(ch) * src.chunkElems
			hi := lo + src.chunkElems
			if hi > src.localLen() {
				hi = src.localLen()
			}
			chunkBytes := (hi - lo) * st.elemSize
			for g2 := 0; g2 < ngpus; g2++ {
				if g2 == g {
					continue
				}
				dst := st.copies[g2]
				for p := lo; p < hi; p++ {
					if src.dirty[p] == 1 {
						ir.StoreAs(&dst.data, p, ir.LoadAs[float64](&src.data, p))
					}
				}
				transfers = append(transfers, sim.Transfer{Kind: sim.PeerToPeer, Bytes: chunkBytes, Src: g, Dst: g2,
					Label: st.decl.Name, Lo: src.lo + lo, Hi: src.lo + hi - 1, Tag: sim.TagDirty})
			}
		}
	}
	for g := 0; g < ngpus; g++ {
		c := st.copies[g]
		if c.dirty != nil {
			for i := range c.dirty {
				c.dirty[i] = 0
			}
			for i := range c.chunkDirty {
				c.chunkDirty[i] = 0
			}
		}
	}
	return transfers
}

// --- parity tests ---

// TestAppendNonzeroRuns checks the word scan against a per-byte
// reference over adversarial and random patterns, including unaligned
// bounds and runs crossing word boundaries.
func TestAppendNonzeroRuns(t *testing.T) {
	ref := func(d []uint8, lo, hi int64) []span {
		var runs []span
		start := int64(-1)
		for i := lo; i < hi; i++ {
			if d[i] != 0 {
				if start < 0 {
					start = i
				}
			} else if start >= 0 {
				runs = append(runs, span{lo: start, hi: i})
				start = -1
			}
		}
		if start >= 0 {
			runs = append(runs, span{lo: start, hi: hi})
		}
		return runs
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		d := make([]uint8, n)
		switch trial % 4 {
		case 0: // sparse
			for i := range d {
				if rng.Intn(10) == 0 {
					d[i] = 1
				}
			}
		case 1: // dense
			for i := range d {
				if rng.Intn(10) != 0 {
					d[i] = 1
				}
			}
		case 2: // block runs
			for i := 0; i < n; {
				run := 1 + rng.Intn(40)
				v := uint8(rng.Intn(2))
				for j := 0; j < run && i < n; j++ {
					d[i] = v
					i++
				}
			}
		case 3: // all same
			v := uint8(trial / 4 % 2)
			for i := range d {
				d[i] = v
			}
		}
		lo := int64(rng.Intn(n))
		hi := lo + int64(rng.Intn(n-int(lo)))
		got := appendNonzeroRuns(nil, d, lo, hi)
		want := ref(d, lo, hi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: runs over [%d,%d) = %v, want %v (pattern %v)", trial, lo, hi, got, want, d)
		}
	}
}

// TestSyncReplicatedMatchesLegacy drives the staged diff and the
// transcribed serial diff over identical replica states — disjoint
// writes (the BSP case), overlapping writes with diverging values (the
// first-claim case), the single-level ablation, and sparse random
// patterns — and demands bit-identical transfer lists and cleared bits,
// and bit-identical storage once every relay the new diff recorded has
// settled.
func TestSyncReplicatedMatchesLegacy(t *testing.T) {
	type pattern func(st *arrayState, ngpus int, rng *rand.Rand)
	patterns := map[string]pattern{
		"disjoint-quarters": func(st *arrayState, ngpus int, _ *rand.Rand) {
			for g := 0; g < ngpus; g++ {
				lo := st.n * int64(g) / int64(ngpus)
				hi := st.n * int64(g+1) / int64(ngpus)
				markDirty(st.copies[g], lo, hi)
			}
		},
		"overlapping": func(st *arrayState, ngpus int, _ *rand.Rand) {
			// Every GPU dirties an overlapping window with its own
			// values: propagation order decides the outcome.
			for g := 0; g < ngpus; g++ {
				lo := st.n * int64(g) / int64(ngpus+1)
				hi := lo + st.n/2
				if hi > st.n {
					hi = st.n
				}
				for p := lo; p < hi; p++ {
					ir.StoreAs(&st.copies[g].data, p, float64(g*1000)+float64(p%97))
				}
				markDirty(st.copies[g], lo, hi)
			}
		},
		"sparse-random": func(st *arrayState, ngpus int, rng *rand.Rand) {
			for g := 0; g < ngpus; g++ {
				for k := 0; k < int(st.n)/8; k++ {
					p := int64(rng.Intn(int(st.n)))
					ir.StoreAs(&st.copies[g].data, p, float64(g)*7.5+float64(p))
					markDirty(st.copies[g], p, p+1)
				}
			}
		},
		"clean": func(st *arrayState, ngpus int, _ *rand.Rand) {},
		// One span per GPU, as a unit-step store's bulk marking records it.
		"span-per-gpu": func(st *arrayState, ngpus int, _ *rand.Rand) {
			for g := 0; g < ngpus; g++ {
				lo := st.n*int64(g)/int64(ngpus) + 3
				hi := st.n * int64(g+1) / int64(ngpus)
				for p := lo; p < hi; p++ {
					ir.StoreAs(&st.copies[g].data, p, float64(g)*3.5+float64(p%89))
				}
				markDirtyAffine(st.copies[g], lo, hi-1, hi-lo)
			}
		},
		// Spans, a strided store's bytes and the interpreter's marks in
		// the same chunks: inside a span, beside it, and touching its ends.
		"span-and-bytes": func(st *arrayState, ngpus int, rng *rand.Rand) {
			for g := 0; g < ngpus; g++ {
				c := st.copies[g]
				base := st.n * int64(g) / int64(ngpus)
				lo, hi := base+10+int64(rng.Intn(40)), base+120+int64(rng.Intn(60))
				marks := []int64{lo - 1, lo, lo + 5, hi - 1, hi, hi + 2, base + 2}
				for p := lo; p < hi; p++ {
					ir.StoreAs(&c.data, p, float64(g)+float64(p)/8)
				}
				markDirtyAffine(c, lo, hi-1, hi-lo)
				markDirtyAffine(c, hi+20, hi+40, 11)
				for _, p := range append(marks, hi+20, hi+22, hi+40) {
					ir.StoreAs(&c.data, p, float64(g)*9+float64(p))
				}
				for _, p := range marks {
					c.dirty[p] = 1
					c.chunkLanes[rng.Intn(len(c.chunkLanes))][p/c.chunkElems] = 1
				}
				c.mergeChunkLanes()
				markDirtyAffine(c, lo+2, lo+30, 29) // inside the first span
			}
		},
	}
	for name, pat := range patterns {
		for _, disableTwoLevel := range []bool{false, true} {
			for _, typ := range []cc.ElemType{cc.TFloat, cc.TInt, cc.TDouble} {
				const ngpus = 4
				// Small chunks so multiple chunks exist per GPU.
				opts := Options{ChunkBytes: 256, DisableTwoLevelDirty: disableTwoLevel}
				rLegacy := newPerfRuntime(t, ngpus, opts)
				rNew := newPerfRuntime(t, ngpus, opts)
				const n = 1000
				rng := rand.New(rand.NewSource(7))
				stL := newPerfArray(t, rLegacy, "a", typ, n)
				stN := newPerfArray(t, rNew, "a", typ, n)
				fillHost(rng, stL.host)
				copyHost(stN.host, stL.host)
				loadReplicas(t, rLegacy, stL, true)
				loadReplicas(t, rNew, stN, true)
				rngL, rngN := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
				pat(stL, ngpus, rngL)
				pat(stN, ngpus, rngN)

				trL := legacySyncReplicated(stL, ngpus, disableTwoLevel)
				trN := rNew.syncReplicated(stN, rNew.mach.GPUs())
				stN.settle()

				if !transfersEqual(trL, trN) {
					t.Fatalf("%s/twoLevelOff=%v/%v: transfers diverge:\nlegacy %v\nnew    %v",
						name, disableTwoLevel, typ, trL, trN)
				}
				for g := 0; g < ngpus; g++ {
					cL, cN := stL.copies[g], stN.copies[g]
					for p := int64(0); p < n; p++ {
						if ir.LoadAs[float64](&cL.data, p) != ir.LoadAs[float64](&cN.data, p) {
							t.Fatalf("%s/twoLevelOff=%v/%v: gpu%d element %d: legacy %v, new %v",
								name, disableTwoLevel, typ, g, p, ir.LoadAs[float64](&cL.data, p), ir.LoadAs[float64](&cN.data, p))
						}
						if cN.dirty[p] != 0 || cL.dirty[p] != 0 {
							t.Fatalf("%s: gpu%d element %d: dirty bit not cleared", name, g, p)
						}
					}
					if len(cN.spans) != 0 {
						t.Fatalf("%s: gpu%d: spans %v not cleared", name, g, cN.spans)
					}
					for ch := range cN.chunkDirty {
						if cN.chunkDirty[ch] != 0 {
							t.Fatalf("%s: gpu%d chunk %d: chunk bit not cleared", name, g, ch)
						}
					}
				}
			}
		}
	}
}

func copyHost(dst, src *ir.HostArray) {
	copy(dst.F32, src.F32)
	copy(dst.F64, src.F64)
	copy(dst.I32, src.I32)
}

func transfersEqual(a, b []sim.Transfer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSyncReplicatedSerialFallbackMatchesParallel pins that a
// replicated sync and the settling of its relays leave the same storage
// on one processor and on several (disjoint writes), under the race
// detector.
func TestSyncReplicatedSerialFallbackMatchesParallel(t *testing.T) {
	const ngpus, n = 4, 2048
	run := func(procs int) *arrayState {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := newPerfRuntime(t, ngpus, Options{ChunkBytes: 512})
		st := newPerfArray(t, r, "a", cc.TFloat, n)
		fillHost(rand.New(rand.NewSource(3)), st.host)
		loadReplicas(t, r, st, true)
		for g := 0; g < ngpus; g++ {
			lo := int64(g) * n / ngpus
			hi := int64(g+1) * n / ngpus
			for p := lo; p < hi; p++ {
				ir.StoreAs(&st.copies[g].data, p, float64(g+1)*100+float64(p%31))
			}
			markDirty(st.copies[g], lo, hi)
		}
		r.syncReplicated(st, r.mach.GPUs())
		sim.FanOut(ngpus, func(_, g int) { st.copies[g].catchUp(0, n) })
		return st
	}
	a, b := run(ngpus), run(1)
	for g := 0; g < ngpus; g++ {
		for p := int64(0); p < n; p++ {
			if ir.LoadAs[float64](&a.copies[g].data, p) != ir.LoadAs[float64](&b.copies[g].data, p) {
				t.Fatalf("gpu%d element %d: parallel %v, serial %v", g, p, ir.LoadAs[float64](&a.copies[g].data, p), ir.LoadAs[float64](&b.copies[g].data, p))
			}
		}
	}
}

// TestCopyJobMatchesLegacyLoad checks the deferred bulk copy against
// the per-element loop, device buffer against device buffer, for every
// element type, the plain layout and the 2-D layout transform at row
// widths 1, 3, 64 and 128 and one row holding the whole copy (computeNeed
// transforms a residency only when the width divides it).
func TestCopyJobMatchesLegacyLoad(t *testing.T) {
	const n = 4096
	for _, typ := range []cc.ElemType{cc.TFloat, cc.TDouble, cc.TInt} {
		for _, width := range []int64{0, 1, 3, 64, 128, n} {
			r := newPerfRuntime(t, 2, Options{})
			size := int64(n)
			if width == 3 {
				size = n - n%3
			}
			st := newPerfArray(t, r, "a", typ, size)
			fillHost(rand.New(rand.NewSource(11)), st.host)
			nd := need{lo: 0, hi: size - 1, contentIn: true, coreLo: 0, coreHi: -1, transform: width > 0, width: width}
			cNew, cOld := st.copies[0], st.copies[1]
			if err := cNew.realloc(nd, true); err != nil {
				t.Fatal(err)
			}
			if err := cOld.realloc(nd, true); err != nil {
				t.Fatal(err)
			}
			cNew.valid, cOld.valid = true, true
			copyJob{st: st, c: cNew, lo: nd.lo, hi: nd.hi}.run()
			legacyLoadContent(st, cOld, nd.lo, nd.hi)
			if !reflect.DeepEqual(cNew.data, cOld.data) {
				t.Fatalf("%v width %d: the job's device buffer differs from the element loop's", typ, width)
			}
		}
	}
}

// TestPrepareLoadDefersContent pins the split contract: prepareLoad
// performs allocation and accounting but ships no content until the
// returned job runs.
func TestPrepareLoadDefersContent(t *testing.T) {
	const n = 256
	r := newPerfRuntime(t, 1, Options{})
	st := newPerfArray(t, r, "a", cc.TFloat, n)
	for i := range st.host.F32 {
		st.host.F32[i] = float32(i + 1)
	}
	nd := need{lo: 0, hi: n - 1, contentIn: true, coreLo: 0, coreHi: -1}
	transfers, job, err := r.prepareLoad(st, st.copies[0], nd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(transfers) != 1 || transfers[0].Kind != sim.HostToDevice {
		t.Fatalf("transfers = %v, want one H2D record", transfers)
	}
	if job.c == nil {
		t.Fatal("no copy job returned for a content-bearing reload")
	}
	for _, v := range st.copies[0].data.F32 {
		if v != 0 {
			t.Fatal("content shipped before the job ran")
		}
	}
	job.run()
	for i, v := range st.copies[0].data.F32 {
		if v != float32(i+1) {
			t.Fatalf("element %d = %v after job, want %v", i, v, float32(i+1))
		}
	}
}

// --- plan cache ---

func perfKernel(id int, decl *cc.VarDecl, upper *int64) *ir.Kernel {
	return &ir.Kernel{
		ID:    id,
		Name:  "k",
		Lower: func(*ir.Env) int64 { return 0 },
		Upper: func(*ir.Env) int64 { return *upper },
		Arrays: []*ir.ArrayUse{
			{Decl: decl, Read: true},
		},
	}
}

func TestPlanCacheReuseAndInvalidation(t *testing.T) {
	const n = 1024
	r := newPerfRuntime(t, 4, Options{})
	st := newPerfArray(t, r, "a", cc.TFloat, n)
	upper := int64(n)
	k := perfKernel(1, st.decl, &upper)
	env := &ir.Env{}

	parts1, needs1 := r.resolvePlan(k, env, 4, 0, upper)
	parts2, needs2 := r.resolvePlan(k, env, 4, 0, upper)
	if &parts1[0] != &parts2[0] || &needs1[0][0] != &needs2[0][0] {
		t.Fatal("identical launch did not reuse the cached plan")
	}
	if len(parts1) != 4 || needs1[0][0].hi != st.n-1 {
		t.Fatalf("bad plan: parts=%v needs[0][0]=%+v", parts1, needs1[0][0])
	}

	// bumpHost-style epoch advance invalidates.
	r.hostEpoch++
	_, needs3 := r.resolvePlan(k, env, 4, 0, upper)
	if &needs3[0][0] == &needs2[0][0] {
		t.Fatal("epoch advance did not invalidate the plan")
	}

	// Changed loop bounds invalidate.
	upper = n / 2
	parts4, _ := r.resolvePlan(k, env, 4, 0, upper)
	if parts4[3].hi != n/2 {
		t.Fatalf("stale partition after bound change: %v", parts4)
	}

	// A different GPU count (degradation rung) is a different key, and
	// both plans stay valid side by side.
	parts5, _ := r.resolvePlan(k, env, 2, 0, upper)
	if len(parts5) != 2 {
		t.Fatalf("ngpus=2 plan has %d parts", len(parts5))
	}
	parts6, _ := r.resolvePlan(k, env, 4, 0, upper)
	if &parts6[0] != &parts4[0] {
		t.Fatal("ngpus=4 plan evicted by the ngpus=2 resolution")
	}

	// Reference always recomputes.
	r.opts.Reference = true
	parts7, _ := r.resolvePlan(k, env, 4, 0, upper)
	if &parts7[0] == &parts6[0] {
		t.Fatal("Reference served a cached plan")
	}
}

func TestPlanCacheScalarValidation(t *testing.T) {
	// A stride-form localaccess whose stride reads a host scalar: the
	// cached plan must be revalidated against the evaluated scalar, not
	// just the epoch (scalar assignments do not bump the epoch).
	const n = 1200
	r := newPerfRuntime(t, 3, Options{})
	st := newPerfArray(t, r, "a", cc.TFloat, n)
	stride := int64(1)
	k := &ir.Kernel{
		ID:      2,
		Name:    "k",
		LoopVar: &cc.VarDecl{Name: "i"},
		Lower:   func(*ir.Env) int64 { return 0 },
		Upper:   func(*ir.Env) int64 { return 100 },
		Arrays: []*ir.ArrayUse{{
			Decl: st.decl, Read: true,
			Local: &ir.LocalFootprint{
				HasStride: true,
				Stride:    func(*ir.Env) int64 { return stride },
				Left:      func(*ir.Env) int64 { return 0 },
				Right:     func(*ir.Env) int64 { return stride - 1 },
			},
		}},
	}
	env := &ir.Env{}
	_, needs1 := r.resolvePlan(k, env, 3, 0, 100)
	itHi := needs1[0][0].hi + 1 // stride 1, right 0: hi = itHi - 1
	stride = 4
	_, needs2 := r.resolvePlan(k, env, 3, 0, 100)
	if &needs2[0][0] == &needs1[0][0] {
		t.Fatal("scalar change did not invalidate the plan")
	}
	if want := 4*itHi - 1 + 3; needs2[0][0].hi != want { // hi = s*itHi - 1 + right
		t.Fatalf("stride-4 footprint = %+v, want hi %d", needs2[0][0], want)
	}
}

// --- allocation budget ---

// TestSteadyStateAllocBudget pins that the reused scratch keeps the
// per-superstep hot paths allocation-free once warm (on one processor,
// which testing.AllocsPerRun pins; with processors to spare each fan-out additionally pays its scaffolding,
// bounded in GOMAXPROCS, not in GPUs).
func TestSteadyStateAllocBudget(t *testing.T) {
	const ngpus = 4
	const n = 64 << 10
	r := newPerfRuntime(t, ngpus, Options{})
	st := newPerfArray(t, r, "a", cc.TFloat, n)
	fillHost(rand.New(rand.NewSource(5)), st.host)
	loadReplicas(t, r, st, true)
	var dirtyT, chunkT [][]uint8
	for g := 0; g < ngpus; g++ {
		markDirty(st.copies[g], int64(g)*n/ngpus, int64(g+1)*n/ngpus)
		dirtyT = append(dirtyT, append([]uint8(nil), st.copies[g].dirty...))
		chunkT = append(chunkT, append([]uint8(nil), st.copies[g].chunkDirty...))
	}
	sync := func() {
		for g := 0; g < ngpus; g++ {
			copy(st.copies[g].dirty, dirtyT[g])
			copy(st.copies[g].chunkDirty, chunkT[g])
		}
		r.syncReplicated(st, r.mach.GPUs())
	}
	sync() // warm the scratch
	// The only steady-state allocations left are the per-stage fan-out
	// closures (scan, clear) — no per-element, per-transfer or per-relay
	// allocation survives.
	if avg := testing.AllocsPerRun(10, sync); avg > 3 {
		t.Errorf("serial syncReplicated allocates %.1f objects per superstep, want <= 3", avg)
	}
	// Marked the way a unit-step store's bulk marking does, the span list
	// is reused from superstep to superstep.
	spans := func() {
		for g := 0; g < ngpus; g++ {
			markDirtyAffine(st.copies[g], int64(g)*n/ngpus, int64(g+1)*n/ngpus-1, n/ngpus)
		}
		r.syncReplicated(st, r.mach.GPUs())
	}
	spans()
	if avg := testing.AllocsPerRun(10, spans); avg > 3 {
		t.Errorf("serial syncReplicated of spans allocates %.1f objects per superstep, want <= 3", avg)
	}

	jobs := r.jobScratchFor(ngpus)
	for g := 0; g < ngpus; g++ {
		jobs[g] = append(jobs[g], copyJob{st: st, c: st.copies[g], lo: 0, hi: n - 1})
	}
	if avg := testing.AllocsPerRun(10, func() { r.runCopyJobs(jobs) }); avg > 1 {
		t.Errorf("serial runCopyJobs allocates %.1f objects per launch, want <= 1 (the fan-out closure)", avg)
	}

	// With processors to spare, each fan-out (scan, clear) adds its own
	// closures, counter and wait group, and at worst one goroutine record
	// per processor; nothing per GPU.
	for _, procs := range []int{2, 4} {
		if avg, limit := allocsPerRunAt(procs, 20, sync), float64(3*(procs+5)); avg > limit {
			t.Errorf("syncReplicated on %d processors allocates %.1f objects per superstep, want <= %v", procs, avg, limit)
		}
	}
}

// allocsPerRunAt is testing.AllocsPerRun at a chosen GOMAXPROCS (the
// testing package's pins it to 1, where sim.FanOut spawns nothing).
func allocsPerRunAt(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f() // warm up
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / float64(runs)
}

// --- the wall-clock benchmark gate ---

// benchLoaderState builds the 4-GPU, 1M-element replica set the gate
// benches run over.
func benchLoaderState(b *testing.B, opts Options) (*Runtime, *arrayState) {
	b.Helper()
	const ngpus = 4
	const n = 1 << 20
	r := newPerfRuntime(b, ngpus, opts)
	st := newPerfArray(b, r, "a", cc.TFloat, n)
	fillHost(rand.New(rand.NewSource(1)), st.host)
	loadReplicas(b, r, st, true)
	return r, st
}

// BenchmarkIteratedStencilLoader measures one loader superstep of an
// iterated multi-GPU stencil: re-shipping a 1M-element array onto 4
// GPUs (the per-launch content movement an iterated kernel pays when
// host content changed). legacy is the pre-PR per-element serial loop;
// optimized is the deferred bulk copy fanned out per GPU.
func BenchmarkIteratedStencilLoader(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		_, st := benchLoaderState(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for g := range st.copies {
				legacyLoadContent(st, st.copies[g], 0, st.n-1)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		r, st := benchLoaderState(b, Options{})
		jobs := r.jobScratchFor(len(st.copies))
		for g := range st.copies {
			jobs[g] = append(jobs[g], copyJob{st: st, c: st.copies[g], lo: 0, hi: st.n - 1})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.runCopyJobs(jobs)
		}
	})
}

// BenchmarkReplicatedWriteDiff measures one replicated-write
// communication superstep on 4 GPUs × 1M elements, each GPU having
// written its quarter (the BSP steady state of a replicated written
// array). legacy re-scans the dirty bytes once per destination and
// copies every dirty element into every other replica; optimized
// extracts runs once per source with word scans and records them as
// relays on the other replicas, moving no element (a reader catches up
// what it reads before its launch: BenchmarkReplBulk times that); spans
// marks each quarter as one span and reads the runs from it.
func BenchmarkReplicatedWriteDiff(b *testing.B) {
	const ngpus = 4
	const n = 1 << 20
	prepare := func(b *testing.B, opts Options) (*Runtime, *arrayState, [][]uint8, [][]uint8) {
		r := newPerfRuntime(b, ngpus, opts)
		st := newPerfArray(b, r, "a", cc.TFloat, n)
		fillHost(rand.New(rand.NewSource(1)), st.host)
		loadReplicas(b, r, st, true)
		var dirtyT, chunkT [][]uint8
		for g := 0; g < ngpus; g++ {
			markDirty(st.copies[g], int64(g)*n/ngpus, int64(g+1)*n/ngpus)
			dirtyT = append(dirtyT, append([]uint8(nil), st.copies[g].dirty...))
			chunkT = append(chunkT, append([]uint8(nil), st.copies[g].chunkDirty...))
		}
		return r, st, dirtyT, chunkT
	}
	restore := func(st *arrayState, dirtyT, chunkT [][]uint8) {
		for g := 0; g < ngpus; g++ {
			copy(st.copies[g].dirty, dirtyT[g])
			copy(st.copies[g].chunkDirty, chunkT[g])
		}
	}
	b.Run("legacy", func(b *testing.B) {
		_, st, dirtyT, chunkT := prepare(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			restore(st, dirtyT, chunkT)
			b.StartTimer()
			legacySyncReplicated(st, ngpus, false)
		}
	})
	b.Run("optimized", func(b *testing.B) {
		r, st, dirtyT, chunkT := prepare(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			restore(st, dirtyT, chunkT)
			b.StartTimer()
			r.syncReplicated(st, r.mach.GPUs())
		}
	})
	// Each quarter marked as a unit-step store's bulk marking does: a
	// span, no bytes. The marking is timed too: it is the launch's.
	b.Run("spans", func(b *testing.B) {
		r, st, _, _ := prepare(b, Options{})
		for g := 0; g < ngpus; g++ {
			st.copies[g].clearDirty()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for g := 0; g < ngpus; g++ {
				markDirtyAffine(st.copies[g], int64(g)*n/ngpus, int64(g+1)*n/ngpus-1, n/ngpus)
			}
			r.syncReplicated(st, r.mach.GPUs())
		}
	})
}

// BenchmarkLaunchPlanResolve measures the per-launch plan cost an
// iterated kernel pays: legacy recomputes partition + needs every
// launch, optimized serves the validated cached plan.
func BenchmarkLaunchPlanResolve(b *testing.B) {
	const n = 1 << 20
	build := func(b *testing.B, opts Options) (*Runtime, *ir.Kernel, *ir.Env) {
		r := newPerfRuntime(b, 4, opts)
		st := newPerfArray(b, r, "a", cc.TFloat, n)
		stride := int64(1)
		k := &ir.Kernel{
			ID:      3,
			Name:    "k",
			LoopVar: &cc.VarDecl{Name: "i"},
			Lower:   func(*ir.Env) int64 { return 0 },
			Upper:   func(*ir.Env) int64 { return n },
			Arrays: []*ir.ArrayUse{{
				Decl: st.decl, Read: true,
				Local: &ir.LocalFootprint{
					HasStride: true,
					Stride:    func(*ir.Env) int64 { return stride },
					Left:      func(*ir.Env) int64 { return 0 },
					Right:     func(*ir.Env) int64 { return 0 },
				},
			}},
		}
		return r, k, &ir.Env{}
	}
	b.Run("legacy", func(b *testing.B) {
		r, k, env := build(b, Options{Reference: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.resolvePlan(k, env, 4, 0, n)
		}
	})
	b.Run("optimized", func(b *testing.B) {
		r, k, env := build(b, Options{})
		r.resolvePlan(k, env, 4, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.resolvePlan(k, env, 4, 0, n)
		}
	})
}
