package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,oomgpu=1,oomalloc=5,shrink=0.5,transfail=0.2,transcap=4")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{Seed: 7, OOMGPU: 1, OOMAlloc: 5, MemShrink: 0.5, TransferFailRate: 0.2, TransferFailCap: 4}
	if *p != want {
		t.Errorf("plan = %+v, want %+v", *p, want)
	}
	if !p.Active() {
		t.Error("plan should be active")
	}
	if rt, err := ParseFaultPlan(p.String()); err != nil || *rt != want {
		t.Errorf("round trip: %+v, %v", rt, err)
	}
	for _, bad := range []string{"seed", "seed=x", "shrink=2", "shrink=0", "transfail=1.5", "bogus=1", "losenode=0", "losenode=-1", "losenode=x"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) should fail", bad)
		}
	}
	empty, err := ParseFaultPlan("")
	if err != nil || empty.Active() {
		t.Errorf("empty spec must parse to an inactive plan (%+v, %v)", empty, err)
	}
}

func TestLoseNodeDrainsItsGPUs(t *testing.T) {
	p, err := ParseFaultPlan("losenode=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.LoseNode != 1 || !p.Active() {
		t.Fatalf("plan = %+v, want active losenode=1", *p)
	}
	if rt, err := ParseFaultPlan(p.String()); err != nil || *rt != *p {
		t.Errorf("round trip: %+v, %v", rt, err)
	}

	mach, err := NewMachine(Cluster(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	mach.InjectFaults(p)
	// Node 0's GPUs allocate normally.
	for g := 0; g < 2; g++ {
		if _, _, err := Alloc[float32](mach.GPU(g), "a", MemUser, 16, false); err != nil {
			t.Fatalf("gpu%d (node 0) alloc: %v", g, err)
		}
	}
	// Node 1's GPUs refuse every allocation, persistently — a lost
	// node never comes back (unlike the one-shot injected OOM).
	for g := 2; g < 4; g++ {
		for i := 0; i < 3; i++ {
			_, _, err := Alloc[float32](mach.GPU(g), "b", MemUser, 16, false)
			var lost *NodeLostError
			if !errors.As(err, &lost) {
				t.Fatalf("gpu%d alloc %d: want NodeLostError, got %v", g, i, err)
			}
			if lost.Node != 1 || lost.GPU != g {
				t.Errorf("lost = %+v, want node 1 gpu %d", lost, g)
			}
		}
	}

	// A losenode index beyond the machine's node count is a no-op.
	clean, _ := NewMachine(Cluster(2, 2))
	clean.InjectFaults(&FaultPlan{LoseNode: 5})
	for g := 0; g < 4; g++ {
		if _, _, err := Alloc[float32](clean.GPU(g), "c", MemUser, 16, false); err != nil {
			t.Fatalf("gpu%d alloc under out-of-range losenode: %v", g, err)
		}
	}
}

func TestInjectedOOMIsOneShot(t *testing.T) {
	mach, err := NewMachine(Desktop())
	if err != nil {
		t.Fatal(err)
	}
	mach.InjectFaults(&FaultPlan{OOMGPU: 1, OOMAlloc: 3})
	g0, g1 := mach.GPU(0), mach.GPU(1)

	// GPU0 is unaffected.
	for i := 0; i < 5; i++ {
		if _, _, err := Alloc[float32](g0, "a", MemUser, 16, false); err != nil {
			t.Fatalf("gpu0 alloc %d: %v", i, err)
		}
	}
	// GPU1 fails exactly on its 3rd allocation, then recovers.
	for i := 1; i <= 5; i++ {
		_, _, err := Alloc[float32](g1, "b", MemUser, 16, false)
		if i == 3 {
			var oom *OutOfMemoryError
			if !errors.As(err, &oom) {
				t.Fatalf("alloc 3 should inject OOM, got %v", err)
			}
			if !oom.Injected || oom.DeviceID != 1 {
				t.Errorf("oom = %+v, want injected on device 1", oom)
			}
			continue
		}
		if err != nil {
			t.Fatalf("gpu1 alloc %d: %v", i, err)
		}
	}
	// The injected failure must not disturb accounting.
	if got := g1.UsedBytes(); got != 4*16*4 {
		t.Errorf("gpu1 used %d bytes, want %d", got, 4*16*4)
	}
}

func TestMemShrinkForcesGenuineOOM(t *testing.T) {
	spec := Desktop()
	mach, _ := NewMachine(spec)
	mach.InjectFaults(&FaultPlan{MemShrink: 1e-7})
	g := mach.GPU(0)
	if g.Spec.MemBytes >= spec.GPU.MemBytes {
		t.Fatalf("capacity not shrunk: %d", g.Spec.MemBytes)
	}
	_, _, err := Alloc[float64](g, "big", MemUser, int(spec.GPU.MemBytes/8), false)
	var oom *OutOfMemoryError
	if !errors.As(err, &oom) || oom.Injected {
		t.Fatalf("want genuine OOM, got %v", err)
	}
}

// TestRefusedAllocMakesNoHostSlice pins that Alloc reserves simulated
// capacity before it makes the backing slice: a request the device
// refuses costs no host memory, on every rung of the OOM ladder and for
// any accd request larger than the simulated GPU.
func TestRefusedAllocMakesNoHostSlice(t *testing.T) {
	spec := Desktop()
	mach, _ := NewMachine(spec)
	mach.InjectFaults(&FaultPlan{MemShrink: 1e-7})
	g := mach.GPU(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Alloc[float64](g, "big", MemUser, int(spec.GPU.MemBytes/8), false)
	runtime.ReadMemStats(&after)
	var oom *OutOfMemoryError
	if !errors.As(err, &oom) || oom.Injected {
		t.Fatalf("want genuine OOM, got %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Errorf("a refused %d-byte request allocated %d bytes on the host", oom.Requested, delta)
	}
	if g.UsedBytes() != 0 {
		t.Errorf("the refused request left %d bytes reserved", g.UsedBytes())
	}

	// A refused request neither takes from nor adds to the free list,
	// whether capacity or the fault plan refuses it. A shape no other
	// test allocates is shelved first, on a machine that has room.
	const n = 3001
	key := shape{reflect.TypeFor[[]float64](), n}
	roomy, _ := NewMachine(spec)
	b, _, err := Alloc[float64](roomy.GPU(0), "shelved", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := roomy.GPU(0).Free(b); err != nil {
		t.Fatal(err)
	}
	injected, _ := NewMachine(spec)
	injected.InjectFaults(&FaultPlan{OOMGPU: 0, OOMAlloc: 1})
	for _, dev := range []*Device{g, injected.GPU(0)} {
		had, bytes := shelved(key), recycledBytes()
		if _, _, err := Alloc[float64](dev, "refused", MemUser, n, false); !errors.As(err, &oom) {
			t.Fatalf("%s: want OOM, got %v", dev, err)
		}
		if got := shelved(key); got != had || recycledBytes() != bytes {
			t.Errorf("%s: a refused request moved the free list: %d slices of its shape (was %d), %d bytes (was %d)",
				dev, got, had, recycledBytes(), bytes)
		}
	}
	// The injected fault was one-shot: the same request now takes the
	// shelved slice.
	had := shelved(key)
	if _, _, err := Alloc[float64](injected.GPU(0), "taken", MemUser, n, false); err != nil {
		t.Fatal(err)
	}
	if got := shelved(key); got != had-1 {
		t.Errorf("an admitted request left %d slices of its shape on the list, want %d", got, had-1)
	}
}

func TestTransferFailuresAreDeterministicAndBounded(t *testing.T) {
	draw := func() []bool {
		mach, _ := NewMachine(Desktop())
		mach.InjectFaults(&FaultPlan{Seed: 42, TransferFailRate: 0.9, TransferFailCap: 3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = mach.TransferAttemptFails()
		}
		return out
	}
	a, b := draw(), draw()
	fails, consec, maxConsec := 0, 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream is not deterministic at draw %d", i)
		}
		if a[i] {
			fails++
			consec++
			if consec > maxConsec {
				maxConsec = consec
			}
		} else {
			consec = 0
		}
	}
	if fails == 0 {
		t.Error("rate 0.9 should inject some failures")
	}
	if maxConsec > 3 {
		t.Errorf("cap 3 violated: %d consecutive failures", maxConsec)
	}
	// No plan: never fails.
	clean, _ := NewMachine(Desktop())
	if clean.TransferAttemptFails() {
		t.Error("unarmed machine must not fail transfers")
	}
}
