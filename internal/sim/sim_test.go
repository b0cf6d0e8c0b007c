package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMachineSpecValidate(t *testing.T) {
	for _, spec := range []MachineSpec{Desktop(), SupercomputerNode()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: unexpected validation error: %v", spec.Name, err)
		}
	}

	bad := Desktop()
	bad.NumGPUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("NumGPUs=0 should fail validation")
	}
	bad = Desktop()
	bad.GPU.GFLOPS = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative GFLOPS should fail validation")
	}
	bad = Desktop()
	bad.Bus.HostConcurrency = 2
	if err := bad.Validate(); err == nil {
		t.Error("HostConcurrency>1 should fail validation")
	}
	bad = Desktop()
	bad.CPU.Kind = KindGPU
	if err := bad.Validate(); err == nil {
		t.Error("CPU spec with GPU kind should fail validation")
	}
}

func TestNewMachine(t *testing.T) {
	m, err := NewMachine(Desktop())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if m.NumGPUs() != 2 {
		t.Fatalf("NumGPUs = %d, want 2", m.NumGPUs())
	}
	if m.CPU().Spec.Kind != KindCPU {
		t.Error("CPU device has wrong kind")
	}
	for i, g := range m.GPUs() {
		if g.ID != i {
			t.Errorf("GPU %d has ID %d", i, g.ID)
		}
	}
	if _, err := NewMachine(MachineSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestWithGPUs(t *testing.T) {
	spec := SupercomputerNode().WithGPUs(1)
	if spec.NumGPUs != 1 {
		t.Fatalf("WithGPUs(1) -> %d", spec.NumGPUs)
	}
	if SupercomputerNode().NumGPUs != 3 {
		t.Fatal("WithGPUs must not mutate the original")
	}
}

func TestDeviceAllocFree(t *testing.T) {
	m, err := NewMachine(Desktop())
	if err != nil {
		t.Fatal(err)
	}
	dev := m.GPU(0)
	buf, data, err := Alloc[float32](dev, "x", MemUser, 1000, false)
	if err != nil {
		t.Fatalf("Alloc[float32]: %v", err)
	}
	if len(data) != 1000 {
		t.Fatalf("len(data) = %d", len(data))
	}
	if got := dev.UsedBytes(); got != 4000 {
		t.Fatalf("UsedBytes = %d, want 4000", got)
	}
	if got := dev.UsedByClass(MemUser); got != 4000 {
		t.Fatalf("UsedByClass(User) = %d, want 4000", got)
	}
	if got := dev.UsedByClass(MemSystem); got != 0 {
		t.Fatalf("UsedByClass(System) = %d, want 0", got)
	}
	if err := dev.Free(buf); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := dev.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes after free = %d", got)
	}
	if err := dev.Free(buf); err == nil {
		t.Error("double free should error")
	}
}

func TestDeviceOutOfMemory(t *testing.T) {
	spec := Desktop()
	spec.GPU.MemBytes = 1024
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	dev := m.GPU(0)
	if _, _, err := Alloc[float32](dev, "big", MemUser, 1024, false); err == nil {
		t.Fatal("allocation beyond capacity should fail")
	} else {
		var oom *OutOfMemoryError
		if !errors.As(err, &oom) {
			t.Fatalf("want OutOfMemoryError, got %T: %v", err, err)
		}
		if oom.Requested != 4096 || oom.Capacity != 1024 {
			t.Fatalf("oom fields: %+v", oom)
		}
	}
	// Capacity not consumed by the failed allocation.
	if _, _, err := Alloc[int32](dev, "small", MemSystem, 10, false); err != nil {
		t.Fatalf("small alloc should fit: %v", err)
	}
}

func TestFreeWrongDevice(t *testing.T) {
	m, _ := NewMachine(Desktop())
	buf, _, err := Alloc[float32](m.GPU(0), "x", MemUser, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GPU(1).Free(buf); err == nil {
		t.Error("freeing on the wrong device should error")
	}
}

func TestAllocationsSnapshot(t *testing.T) {
	m, _ := NewMachine(Desktop())
	dev := m.GPU(0)
	Alloc[float32](dev, "small", MemUser, 10, false)
	Alloc[float32](dev, "large", MemSystem, 1000, false)
	allocs := dev.Allocations()
	if len(allocs) != 2 {
		t.Fatalf("len(allocs) = %d", len(allocs))
	}
	if allocs[0].Name != "large" {
		t.Errorf("want largest first, got %q", allocs[0].Name)
	}
}

func TestForWorkersCoversRangeExactlyOnce(t *testing.T) {
	m, _ := NewMachine(Desktop())
	for _, n := range []int{0, 1, 3, 4, 5, 1000, 1001} {
		seen := make([]int32, n)
		c, err := m.GPU(0).ForWorkers(n, nil, false, func(_, _, start, end int) (Counters, error) {
			for i := start; i < end; i++ {
				seen[i]++
			}
			return Counters{Iterations: int64(end - start)}, nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c.Iterations != int64(n) {
			t.Fatalf("n=%d: iterations=%d", n, c.Iterations)
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, s)
			}
		}
	}
}

func TestForWorkersPanicRecovered(t *testing.T) {
	m, _ := NewMachine(Desktop())
	for _, n := range []int{1, 100} { // one chunk on the caller, then a fan-out
		_, err := m.GPU(0).ForWorkers(n, nil, false, func(_, _, start, end int) (Counters, error) {
			panic("kernel bug")
		})
		if err == nil {
			t.Fatalf("n=%d: panic should surface as error", n)
		}
	}
}

// TestForWorkersStrands holds each strand to one goroutine for the whole
// call, strand 0 to the caller, and every strand below the chunk count:
// scratch a caller indexes by strand is never shared by two chunks at
// once.
func TestForWorkersStrands(t *testing.T) {
	m, _ := NewMachine(Desktop())
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			caller := goroutineID()
			var mu sync.Mutex
			owner := map[int]string{}
			const n = 1000
			nw := m.GPU(0).Spec.Workers
			_, err := m.GPU(0).ForWorkers(n, nil, false, func(s, _, _, _ int) (Counters, error) {
				id := goroutineID()
				mu.Lock()
				defer mu.Unlock()
				if s < 0 || s >= nw || s >= procs {
					t.Errorf("GOMAXPROCS %d: strand %d outside [0, %d)", procs, s, min(nw, procs))
				}
				if o, ok := owner[s]; ok && o != id {
					t.Errorf("GOMAXPROCS %d: strand %d ran on goroutines %s and %s", procs, s, o, id)
				}
				owner[s] = id
				if (s == 0) != (id == caller) {
					t.Errorf("GOMAXPROCS %d: strand %d ran on goroutine %s, caller is %s", procs, s, id, caller)
				}
				return Counters{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}()
	}
}

// TestFanOutOneProcessor pins the zero-spawn path: with one processor
// every index runs on the calling goroutine, in ascending order.
func TestFanOutOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goroutineID()
	var order []int
	FanOut(9, func(_, i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		order = append(order, i) // unsynchronized on purpose: -race flags a spawn
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v, want ascending", order)
		}
	}
	if len(order) != 9 {
		t.Fatalf("ran %d of 9 indices", len(order))
	}
}

// TestFanOutBounded runs more indices than processors: each index runs
// exactly once and never more than GOMAXPROCS at a time.
func TestFanOutBounded(t *testing.T) {
	const procs, n = 4, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var running, peak atomic.Int64
	seen := make([]atomic.Int32, n)
	FanOut(n, func(_, i int) {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		seen[i].Add(1)
		runtime.Gosched() // let the other goroutines overlap this index
		running.Add(-1)
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
	if p := peak.Load(); p > procs {
		t.Errorf("%d indices ran at once, GOMAXPROCS is %d", p, procs)
	}
	FanOut(0, func(_, _ int) { t.Error("fn called for n = 0") })
}

// TestFanOutCallerTakesPart holds every spawned goroutine until the
// calling goroutine has run an index, which then panics: the caller is
// one of the workers, and its panic reaches it only after the others
// have run every remaining index.
func TestFanOutCallerTakesPart(t *testing.T) {
	const n = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var callerRan atomic.Bool
	var done atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		caller := goroutineID()
		FanOut(n, func(_, i int) {
			if goroutineID() == caller {
				callerRan.Store(true)
				panic("boom")
			}
			for !callerRan.Load() {
				runtime.Gosched()
			}
			done.Add(1)
		})
	}()
	if got := done.Load(); got != n-1 {
		t.Errorf("%d of %d other indices had finished when FanOut returned", got, n-1)
	}
}

// goroutineID reads the current goroutine's number off its stack header
// ("goroutine 18 [running]:"); tests only.
func goroutineID() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

func TestKernelCostRoofline(t *testing.T) {
	spec := Desktop().GPU
	// Compute bound: 4e9 flops at 400 GFLOPS = 10ms (+launch).
	c := Counters{Flops: 4e9, BytesRead: 1000}
	got := spec.KernelCost(c, 1.0)
	want := 10*time.Millisecond + time.Duration(spec.LaunchOverheadUS*1000)*time.Nanosecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("compute-bound cost = %v, want ~%v", got, want)
	}
	// Memory bound: 1.1e9 bytes at 110 GB/s = 10ms.
	c = Counters{Flops: 100, BytesRead: 1.1e9}
	got = spec.KernelCost(c, 1.0)
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("memory-bound cost = %v, want ~%v", got, want)
	}
	// Efficiency halves throughput -> doubles variable part.
	slow := spec.KernelCost(c, 0.5)
	if slow <= got {
		t.Errorf("efficiency 0.5 should cost more: %v vs %v", slow, got)
	}
	// Invalid efficiency falls back to 1.
	if spec.KernelCost(c, 0) != got {
		t.Error("efficiency 0 should be treated as 1")
	}
}

func TestTransferTimeHostAggregation(t *testing.T) {
	bus := Desktop()
	one := bus.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: 55_000_000, Dst: 0}})
	// Same bytes split across two GPUs benefits from concurrency.
	two := bus.TransferTime([]Transfer{
		{Kind: HostToDevice, Bytes: 27_500_000, Dst: 0},
		{Kind: HostToDevice, Bytes: 27_500_000, Dst: 1},
	})
	if two >= one {
		t.Errorf("two-device DMA should be faster: one=%v two=%v", one, two)
	}
	if bus.TransferTime(nil) != 0 {
		t.Error("no transfers should cost 0")
	}
	if bus.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: 0}}) != 0 {
		t.Error("zero-byte transfers should cost 0")
	}
}

func TestTransferTimePeerPathVsStaged(t *testing.T) {
	desktop := Desktop()         // has P2P
	super := SupercomputerNode() // staged through host
	tr := []Transfer{{Kind: PeerToPeer, Bytes: 100_000_000, Src: 0, Dst: 1}}
	d := desktop.TransferTime(tr)
	s := super.TransferTime(tr)
	if s <= d {
		t.Errorf("staged peer transfer should be slower: desktop=%v super=%v", d, s)
	}
}

func TestCountersAdd(t *testing.T) {
	var c Counters
	if !c.IsZero() {
		t.Error("zero counters should report IsZero")
	}
	c.Add(Counters{Flops: 1, BytesRead: 2, BytesWritten: 3, Iterations: 4})
	c.Add(Counters{Flops: 10, BytesRead: 20, BytesWritten: 30, Iterations: 40})
	want := Counters{Flops: 11, BytesRead: 22, BytesWritten: 33, Iterations: 44}
	if c != want {
		t.Errorf("Add = %+v, want %+v", c, want)
	}
	if c.IsZero() {
		t.Error("non-zero counters should not report IsZero")
	}
}

// Property: transfer time is monotone in bytes and never negative.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	bus := Desktop()
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<30)), int64(b%(1<<30))
		if x > y {
			x, y = y, x
		}
		tx := bus.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: x, Dst: 0}})
		ty := bus.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: y, Dst: 0}})
		return tx >= 0 && tx <= ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: splitting one host transfer into two to the same device
// only adds latency, never reduces time below the single transfer.
func TestTransferSplitProperty(t *testing.T) {
	bus := SupercomputerNode()
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<28)), int64(b%(1<<28))
		whole := bus.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: x + y, Dst: 0}})
		split := bus.TransferTime([]Transfer{
			{Kind: HostToDevice, Bytes: x, Dst: 0},
			{Kind: HostToDevice, Bytes: y, Dst: 0},
		})
		return split >= whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceKindString(t *testing.T) {
	if KindCPU.String() != "CPU" || KindGPU.String() != "GPU" {
		t.Error("DeviceKind.String broken")
	}
	if DeviceKind(9).String() == "" {
		t.Error("unknown kind should still stringify")
	}
	if MemUser.String() != "User" || MemSystem.String() != "System" {
		t.Error("MemClass.String broken")
	}
	for _, k := range []TransferKind{HostToDevice, DeviceToHost, PeerToPeer} {
		if k.String() == "?" {
			t.Errorf("TransferKind %d should stringify", k)
		}
	}
}

func TestClusterSpec(t *testing.T) {
	c := Cluster(2, 2)
	if err := c.Validate(); err != nil {
		t.Fatalf("cluster validate: %v", err)
	}
	if c.NumGPUs != 4 || c.NodeCount() != 2 || c.GPUsPerNode() != 2 {
		t.Fatalf("cluster shape: %+v", c)
	}
	if c.NodeOf(0) != 0 || c.NodeOf(1) != 0 || c.NodeOf(2) != 1 || c.NodeOf(3) != 1 {
		t.Error("NodeOf mapping wrong")
	}
	if c.NodeOf(-1) != 0 {
		t.Error("host endpoint must map to node 0")
	}
	bad := Cluster(2, 2)
	bad.NumGPUs = 3
	if err := bad.Validate(); err == nil {
		t.Error("indivisible GPU count should fail")
	}
	bad = Cluster(2, 2)
	bad.Network.GBs = 0
	if err := bad.Validate(); err == nil {
		t.Error("missing network should fail")
	}
}

func TestClusterTransferTime(t *testing.T) {
	c := Cluster(2, 2)
	intra := c.TransferTime([]Transfer{{Kind: PeerToPeer, Bytes: 50_000_000, Src: 0, Dst: 1}})
	inter := c.TransferTime([]Transfer{{Kind: PeerToPeer, Bytes: 50_000_000, Src: 0, Dst: 2}})
	if inter <= intra {
		t.Errorf("inter-node peer transfer must be slower: intra=%v inter=%v", intra, inter)
	}
	// Host transfers to a remote node pay the network.
	local := c.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: 50_000_000, Dst: 0}})
	remote := c.TransferTime([]Transfer{{Kind: HostToDevice, Bytes: 50_000_000, Dst: 3}})
	if remote <= local {
		t.Errorf("remote-node load must be slower: local=%v remote=%v", local, remote)
	}
	// A single node is the cluster of one.
	d, d1 := Desktop(), Desktop()
	d1.Nodes = 1
	tr := []Transfer{{Kind: HostToDevice, Bytes: 10_000_000, Dst: 1}}
	if d.TransferTime(tr) != d1.TransferTime(tr) || d.TransferTime(tr) != refBusTransferTime(&d.Bus, tr) {
		t.Error("single node must match the bus model")
	}
	// Intra-node traffic on different nodes overlaps: loading both
	// nodes concurrently is faster than pushing everything to node 0
	// locally plus the network-staged remote half... compare two
	// same-node transfers vs split across nodes with tiny net cost.
	if c.TransferTime(nil) != 0 {
		t.Error("empty phase costs nothing")
	}
}

func TestAllocTypedVariants(t *testing.T) {
	m, _ := NewMachine(Desktop())
	dev := m.GPU(0)
	bufF64, f64, err := Alloc[float64](dev, "d", MemUser, 10, false)
	if err != nil || len(f64) != 10 || bufF64.Bytes != 80 {
		t.Fatalf("Alloc[float64]: %v %d", err, bufF64.Bytes)
	}
	bufI32, i32, err := Alloc[int32](dev, "l", MemUser, 10, false)
	if err != nil || len(i32) != 10 || bufI32.Bytes != 40 {
		t.Fatalf("Alloc[int32]: %v", err)
	}
	bufB, bs, err := Alloc[byte](dev, "b", MemSystem, 100, false)
	if err != nil || len(bs) != 100 || bufB.Bytes != 100 {
		t.Fatalf("Alloc[byte]: %v", err)
	}
	if bufB.Device() != dev {
		t.Error("Buffer.Device wrong")
	}
	if got := dev.UsedByClass(MemSystem); got != 100 {
		t.Errorf("system bytes = %d", got)
	}
}

func TestStringFormats(t *testing.T) {
	m, _ := NewMachine(Desktop())
	if s := m.String(); !strings.Contains(s, "Desktop Machine") || !strings.Contains(s, "2 x") {
		t.Errorf("machine string: %q", s)
	}
	if s := m.CPU().String(); !strings.Contains(s, "CPU (") {
		t.Errorf("cpu string: %q", s)
	}
	if s := m.GPU(1).String(); !strings.Contains(s, "GPU1") {
		t.Errorf("gpu string: %q", s)
	}
}

func TestSpecValidationEdges(t *testing.T) {
	bad := Desktop()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty machine name should fail")
	}
	bad = Desktop()
	bad.GPU.Name = ""
	if bad.Validate() == nil {
		t.Error("empty device name should fail")
	}
	bad = Desktop()
	bad.GPU.MemGBs = 0
	if bad.Validate() == nil {
		t.Error("zero bandwidth should fail")
	}
	bad = Desktop()
	bad.GPU.MemBytes = 0
	if bad.Validate() == nil {
		t.Error("GPU without memory capacity should fail")
	}
	bad = Desktop()
	bad.GPU.LaunchOverheadUS = -1
	if bad.Validate() == nil {
		t.Error("negative launch overhead should fail")
	}
	bad = Desktop()
	bad.GPU.Workers = 0
	if bad.Validate() == nil {
		t.Error("zero workers should fail")
	}
	bad = Desktop()
	bad.GPU.Kind = KindCPU
	if bad.Validate() == nil {
		t.Error("GPU spec with CPU kind should fail")
	}
	bad = Desktop()
	bad.Bus.HostLinkGBs = 0
	if bad.Validate() == nil {
		t.Error("zero host link should fail")
	}
	bad = Desktop()
	bad.Bus.PeerGBs = -1
	if bad.Validate() == nil {
		t.Error("negative peer bandwidth should fail")
	}
	bad = Desktop()
	bad.Bus.LatencyUS = -1
	if bad.Validate() == nil {
		t.Error("negative latency should fail")
	}
	badNet := Cluster(2, 2)
	badNet.Network.LatencyUS = -1
	if badNet.Validate() == nil {
		t.Error("negative network latency should fail")
	}
	bad = Desktop()
	bad.NumGPUs = 17
	if bad.Validate() == nil {
		t.Error("17 GPUs should fail")
	}
	if err := (&NetworkSpec{GBs: 1}).Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestNegativeAllocationRejected(t *testing.T) {
	m, _ := NewMachine(Desktop())
	if _, err := m.GPU(0).AllocBytes("neg", MemUser, -1); err == nil {
		t.Error("negative allocation should fail")
	}
}

// TestMemGenMovesWithAllocations holds Machine.MemGen to moving on every
// allocation and free that succeeds, on any device, and on nothing else:
// equal readings are how the runtime knows its memory sample would read
// the same sums.
func TestMemGenMovesWithAllocations(t *testing.T) {
	spec := Desktop().WithGPUs(2)
	spec.GPU.MemBytes = 1 << 20
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.MemGen()
	if gen != 0 {
		t.Fatalf("a new machine reads MemGen %d", gen)
	}
	step := func(what string, moved bool) {
		t.Helper()
		if now := m.MemGen(); (now != gen) != moved {
			t.Errorf("%s: MemGen %d → %d, want moved %v", what, gen, now, moved)
		}
		gen = m.MemGen()
	}
	b, err := m.GPU(1).AllocBytes("x", MemUser, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	step("alloc on GPU1", true)
	if _, err := m.GPU(0).AllocBytes("big", MemUser, 2<<20); err == nil {
		t.Fatal("an allocation past capacity succeeded")
	}
	step("refused alloc", false)
	m.GPU(0).UsedByClass(MemUser)
	step("a read", false)
	if err := m.GPU(1).Free(b); err != nil {
		t.Fatal(err)
	}
	step("free", true)
	if err := m.GPU(1).Free(b); err == nil {
		t.Fatal("a double free succeeded")
	}
	step("double free", false)
}
