package rt

import (
	"math/rand"
	"slices"
	"testing"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// relayModel is a relay list element by element: the source of each of
// n elements, -1 where there is none.
func relayModel(rs []relay, n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	for _, x := range rs {
		for p := x.lo; p < x.hi; p++ {
			m[p] = x.src
		}
	}
	return m
}

// randomRelays is a sorted, disjoint relay list over [0,n) with sources
// in [0,4), neighbours sometimes touching with the same source.
func randomRelays(rng *rand.Rand, n int64) []relay {
	var rs []relay
	for p := int64(rng.Intn(8)); p < n; {
		hi := min(p+1+int64(rng.Intn(20)), n)
		rs = append(rs, relay{p, hi, rng.Intn(4)})
		p = hi + int64(rng.Intn(3)*rng.Intn(10))
	}
	return rs
}

// checkRelayList fails unless rs is sorted, disjoint, free of empty
// relays and of touching neighbours from one source.
func checkRelayList(t *testing.T, rs []relay) {
	t.Helper()
	for i, x := range rs {
		if x.lo >= x.hi || i > 0 && (rs[i-1].hi > x.lo || rs[i-1].hi == x.lo && rs[i-1].src == x.src) {
			t.Fatalf("relay list %v is not sorted, disjoint and coalesced at %d", rs, i)
		}
	}
}

// TestRelayListsMatchPerElement holds the relay list operations to a
// per-element model: overlay (the record stage, and the first-claim
// merge with self -1), catchUp (which copies exactly the relayed
// elements it meets and keeps the rest) and relayReader, in random and
// in ascending order.
func TestRelayListsMatchPerElement(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		under, over := randomRelays(rng, n), randomRelays(rng, n)
		self := rng.Intn(5) - 1
		want := relayModel(under, n)
		for _, o := range over {
			for p := o.lo; p < o.hi; p++ {
				want[p] = o.src
				if o.src == self {
					want[p] = -1
				}
			}
		}
		got := overlay(nil, slices.Clone(under), over, self)
		checkRelayList(t, got)
		if m := relayModel(got, n); !slices.Equal(m, want) {
			t.Fatalf("trial %d: overlay(%v, %v, %d) = %v\nper element %v\nwant        %v", trial, under, over, self, got, m, want)
		}
	}

	// Four copies of one float array: copy g holds 1000*g + p at p.
	st := &arrayState{n: n, elemSize: 4}
	for g := 0; g < 4; g++ {
		c := &gpuCopy{st: st, g: g, valid: true, lo: 0, hi: n - 1, data: ir.HostArray{F32: make([]float32, n)}}
		for p := range c.data.F32 {
			c.data.F32[p] = float32(1000*g + p)
		}
		st.copies = append(st.copies, c)
	}
	c := st.copies[0]
	for trial := 0; trial < 500; trial++ {
		for p := range c.data.F32 {
			c.data.F32[p] = float32(p)
		}
		c.relays = nil
		for _, x := range randomRelays(rng, n) {
			if x.src != 0 {
				c.relays = appendRelay(c.relays, x)
			}
		}
		before := relayModel(c.relays, n)
		rd := relayReader{c: c}
		for k, p := range append(rng.Perm(n), rng.Perm(n)...) {
			if k >= n {
				p = k - n // the second pass reads in ascending order
			}
			if got, want := rd.src(int64(p)), st.copies[max(before[p], 0)]; got != want {
				t.Fatalf("relayReader.src(%d) over %v = GPU%d, want GPU%d", p, c.relays, got.g, want.g)
			}
		}
		lo := int64(rng.Intn(n))
		hi := lo + int64(rng.Intn(n-int(lo)+1))
		epoch := c.wepoch
		c.catchUp(lo, hi)
		checkRelayList(t, c.relays)
		after, moved := relayModel(c.relays, n), false
		for p := range after {
			in := int64(p) >= lo && int64(p) < hi
			wantSrc, wantVal := before[p], float32(p)
			if in && before[p] >= 0 {
				wantSrc, wantVal, moved = -1, float32(1000*before[p]+p), true
			}
			if after[p] != wantSrc || c.data.F32[p] != wantVal {
				t.Fatalf("catchUp(%d, %d): element %d holds %v relayed from %d, want %v from %d", lo, hi, p, c.data.F32[p], after[p], wantVal, wantSrc)
			}
		}
		if moved != (c.wepoch != epoch) {
			t.Fatalf("catchUp(%d, %d) moved %v but bumped the write epoch %d → %d", lo, hi, moved, epoch, c.wepoch)
		}
	}
}

// TestRelayMovesOnlyWhatIsRead runs the benchmark's repl_bulk shape — the
// replicated ping-pong stencil over 1 Mi floats on the desktop, 8 steps —
// and counts the elements relay catch-ups moved. The first kernel of a
// step reads one element past each end of its GPU's partition, the second
// only what its own GPU wrote, so the catch-ups move a few elements per
// GPU and launch; a copy that applied every dirty run at the sync moved
// the other GPU's half, n/2 elements per GPU and launch. The region's
// copyout gathers one replica's worth, n, through the relays. The arrays
// must be bit-identical to the reference run's and to one GPU's (the
// stencil computes each element alike whatever the partition).
func TestRelayMovesOnlyWhatIsRead(t *testing.T) {
	const n, steps = 1 << 20, 8
	run := func(spec sim.MachineSpec, opts Options) (*Runtime, *ir.Instance) {
		_, inst := buildSpecInstance(t, ReplPingPongSrc, map[string]float64{"n": n, "steps": steps})
		mach, err := sim.NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		return r, inst
	}
	r, inst := run(sim.Desktop(), Options{})
	var caught int64
	for _, st := range r.arrays {
		if st == nil {
			continue
		}
		for _, c := range st.copies {
			caught += c.caughtUp
		}
	}
	gpus, launches := int64(r.mach.NumGPUs()), int64(r.rep.KernelLaunches)
	t.Logf("%d GPUs, %d launches: catch-ups moved %d elements, the copyout gathered %d; applying every run would move %d",
		gpus, launches, caught, n, gpus*launches*n/2)
	if caught == 0 || caught > 4*gpus*launches {
		t.Errorf("catch-ups moved %d elements, want 1 to %d (4 per GPU and launch)", caught, 4*gpus*launches)
	}
	for _, other := range []struct {
		name string
		spec sim.MachineSpec
		opts Options
	}{
		{"the reference", sim.Desktop(), Options{Reference: true}},
		{"one GPU", sim.Desktop().WithGPUs(1), Options{}},
	} {
		_, want := run(other.spec, other.opts)
		for i, a := range want.Arrays {
			if !slices.Equal(a.F32, inst.Arrays[i].F32) {
				t.Errorf("array %s differs from %s's", a.Decl.Name, other.name)
			}
		}
	}
}

// BenchmarkReplBulk times the benchmark's repl_bulk shape launch by
// launch: eight steps of the replicated ping-pong stencil over 1 Mi floats
// on the desktop under the async schedule, then the gather of a that the
// region's copyout makes, both arrays resident throughout — so the
// record, the catch-ups and the gather through the relays are all inside
// the timing (ns/op is one eight-step run). `make phaseb-ab
// BENCH=ReplBulk` compares two revisions on its specialized leg.
func BenchmarkReplBulk(b *testing.B) {
	b.Run("specialized", func(b *testing.B) {
		const steps = 8
		mod, inst := buildSpecInstance(b, ReplPingPongSrc, map[string]float64{"n": 1 << 20, "steps": steps})
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			b.Fatal(err)
		}
		r := New(mach, Options{Async: true})
		r.inst = inst
		step := func() {
			for _, k := range mod.Kernels {
				if err := r.Launch(k, inst.Env); err != nil {
					b.Fatal(err)
				}
			}
		}
		step()
		for _, k := range mod.Kernels {
			for _, use := range k.Arrays {
				r.state(use.Decl).present = true
			}
		}
		a, err := inst.Array("a")
		if err != nil {
			b.Fatal(err)
		}
		st := r.state(a.Decl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < steps; s++ {
				step()
			}
			if _, err := r.gatherToHost(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestConsumersSettleRelays drives launches one by one and looks at the
// relays each consumer leaves: a replicated write leaves relays on every
// array it wrote; a reductiontoarray target and an array a launch places
// as partitions are settled before the launch; an array read at a
// literal-affine index keeps its relays outside the read envelope, the
// int index array the prover scans included (its first walk may read
// stale elements there, which only widens its interval). Every array
// then reads, through its relays, what the one-GPU run computes.
func TestConsumersSettleRelays(t *testing.T) {
	const src = `
int n;
int ix_[n];
float x_[n], y_[n], h_[n], a[n], c[n], w[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        ix_[i] = (i * 7) % n;
        a[i] = x_[i] * 2.0;
        h_[i] = x_[i];
        w[i] = x_[i] + 1.0;
    }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        y_[i] = x_[ix_[i]] + w[i];
    }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: h_[i])
        h_[i] += 1.0;
    }
    #pragma acc localaccess(a) stride(1, 1, 1)
    #pragma acc localaccess(c) stride(1)
    #pragma acc parallel loop
    for (i = 1; i < n - 1; i++) {
        c[i] = a[i - 1] + a[i + 1];
    }
}
`
	run := func(gpus int) (*Runtime, *ir.Instance, []*ir.Kernel) {
		mod, inst := buildSpecInstance(t, src, map[string]float64{"n": 3000})
		mach, err := sim.NewMachine(sim.Desktop().WithGPUs(gpus))
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		r.inst = inst
		for _, a := range inst.Arrays {
			r.state(a.Decl).present = true // as inside a data region
		}
		return r, inst, mod.Kernels
	}
	r, inst, ks := run(4)
	relayed := func(name string) int {
		a, err := inst.Array(name)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, c := range r.state(a.Decl).copies {
			n += len(c.relays)
		}
		return n
	}
	launch := func(k int) {
		if err := r.Launch(ks[k], inst.Env); err != nil {
			t.Fatal(err)
		}
	}
	launch(0)
	for _, name := range []string{"ix_", "a", "h_", "w"} {
		if relayed(name) == 0 {
			t.Fatalf("a replicated write of %s left no relays", name)
		}
	}
	launch(1)
	for _, name := range []string{"ix_", "w"} {
		if relayed(name) == 0 {
			t.Errorf("%s, read at i alone, was caught up beyond its read envelope", name)
		}
	}
	// Each GPU's chunk reads ix_ only where that GPU wrote it, so the
	// catch-ups move nothing; catching it up whole moved (G-1)/G of it
	// into every copy.
	ix, err := inst.Array("ix_")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.state(ix.Decl).copies {
		if c.caughtUp != 0 {
			t.Errorf("ix_ on GPU%d: catch-ups moved %d elements outside its read envelope", c.g, c.caughtUp)
		}
	}
	launch(2)
	if n := relayed("h_"); n != 0 {
		t.Errorf("the reductiontoarray target keeps %d relays after its merge", n)
	}
	launch(3)
	if n := relayed("a"); n != 0 {
		t.Errorf("the array placed as partitions keeps %d relays after the launch", n)
	}
	one, oneInst, oneKs := run(1)
	for k := range oneKs {
		if err := one.Launch(oneKs[k], oneInst.Env); err != nil {
			t.Fatal(err)
		}
	}
	for ai, a := range inst.Arrays {
		want := one.state(oneInst.Arrays[ai].Decl).copies[0]
		if !want.valid {
			t.Fatalf("%s is not resident on the one GPU", a.Decl.Name)
		}
		for _, c := range r.state(a.Decl).copies {
			rd := relayReader{c: c}
			for i := max(c.lo, want.lo); c.valid && i <= min(c.hi, want.hi); i++ {
				p := c.phys(i)
				if got, want := ir.LoadAs[float64](&rd.src(p).data, p), ir.LoadAs[float64](&want.data, want.phys(i)); got != want {
					t.Fatalf("%s[%d] on GPU%d reads %v through its relays, want %v", a.Decl.Name, i, c.g, got, want)
				}
			}
		}
	}
}
