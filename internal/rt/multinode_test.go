package rt_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// This file is the node-level differential battery for the multi-node
// distribution layer: the two-level partitioner, the NIC-aware comm
// hierarchy, the node-loss rung of the degradation ladder, and the
// degenerate-topology contract (a 1xN cluster must be bit-identical to
// today's N-GPU machine in every observable: arrays, reports, traces).

// TestDegenerateTopologyEquivalence pins the hard contract from the
// multi-node design: Cluster(1, N) differs from the flat N-GPU machine
// only in its name and its (unused) network description, so runs on the
// two specs must agree bit for bit — same arrays, same Report including
// every virtual-time stamp, and byte-identical Chrome traces — under
// both the synchronous and the async schedule.
func TestDegenerateTopologyEquivalence(t *testing.T) {
	flat := sim.SupercomputerNode()
	degen := sim.Cluster(1, 3)
	if degen.NodeCount() != 1 || degen.NumGPUs != flat.NumGPUs {
		t.Fatalf("degenerate spec %+v does not mirror %+v", degen, flat)
	}
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for _, async := range []bool{false, true} {
			p := genRandProg(rand.New(rand.NewSource(seed)))
			cfg := fmt.Sprintf("seed%d/async=%v", seed, async)
			run := func(spec sim.MachineSpec) (runResult, []byte) {
				tr := trace.New()
				res, err := p.runFull(t, spec, rt.Options{Async: async, Tracer: tr}, nil)
				if err != nil {
					t.Fatalf("%s on %s: %v\n%s", cfg, spec.Name, err, p.src)
				}
				return res, chromeBytes(t, tr)
			}
			want, wantTrace := run(flat)
			got, gotTrace := run(degen)
			compareI32(t, p.src, cfg, "out_", got.out, want.out)
			compareI32(t, p.src, cfg, "out2_", got.out2, want.out2)
			compareI32(t, p.src, cfg, "hist_", got.hist, want.hist)
			if got.total != want.total {
				t.Fatalf("%s: total = %g on %s, %g on %s\n%s",
					cfg, got.total, degen.Name, want.total, flat.Name, p.src)
			}
			if !reflect.DeepEqual(got.rep, want.rep) {
				t.Fatalf("%s: 1xN report diverges from flat N-GPU report:\n1xN:  %+v\nflat: %+v\n%s",
					cfg, got.rep, want.rep, p.src)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("%s: 1xN Chrome trace bytes differ from the flat machine's\n%s", cfg, p.src)
			}
		}
	}
}

// TestNodeLossDegradation arms the losenode fault on a 2x2 cluster and
// requires the degradation ladder to evacuate the lost node and finish
// the run on the surviving GPUs with results identical to the CPU
// reference — under both schedules, with the shadow auditor armed.
func TestNodeLossDegradation(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21}
	if testing.Short() {
		seeds = seeds[:3]
	}
	sawLoss := false
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})
		for _, async := range []bool{false, true} {
			cfg := fmt.Sprintf("seed%d/async=%v/losenode=1", seed, async)
			plan := &sim.FaultPlan{LoseNode: 1}
			opts := rt.Options{Async: async, Auditor: audit.New(audit.Options{})}
			res, err := p.runFull(t, sim.Cluster(2, 2), opts, plan)
			if err != nil {
				t.Fatalf("%s: %v\n%s", cfg, err, p.src)
			}
			compareI32(t, p.src, cfg, "out_", res.out, refOut)
			compareI32(t, p.src, cfg, "out2_", res.out2, refOut2)
			compareI32(t, p.src, cfg, "hist_", res.hist, refHist)
			if res.total != refTotal {
				t.Fatalf("%s: total = %g, want %g\n%s", cfg, res.total, refTotal, p.src)
			}
			if hasEventKind(res.rep, "node-loss") {
				sawLoss = true
				if res.rep.Fallbacks == 0 {
					t.Fatalf("%s: node-loss event without a fallback\n%s", cfg, p.src)
				}
			}
			assertDevicesEmpty(t, res.mach, cfg)
		}
	}
	if !sawLoss {
		t.Fatal("no seed exercised the node-loss rung; the corpus no longer covers it")
	}

	// A replicated stencil that reads past its GPU's partition, whose node
	// loss strikes when replicas on node 0 hold relays naming node 1's
	// GPUs: the first kernel writes both arrays, so every buffer the steps
	// use exists once it has loaded; the loss is armed then, through the
	// Interrupt hook, and found by the next allocation on node 1 — c's,
	// after the steps. The evacuation gathers a and b through the relays,
	// from the lost GPUs, and the run ends on node 0 with arrays
	// bit-identical to the fault-free run's.
	prog, err := cc.ParseProgram(`
int n, steps;
float a[n], b[n], c[n];
void main() {
    int i, s;
    #pragma acc data copy(a, b, c)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i] = a[i] + 1.0;
            b[i] = a[i] * 0.5;
        }
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n - 5; i++) {
                b[i] = 0.5 * a[i + 5] + 0.25 * a[i];
            }
            #pragma acc parallel loop
            for (i = 2; i < n; i++) {
                a[i] = b[i - 2] - 0.125 * a[i];
            }
        }
        #pragma acc parallel loop
        for (i = 0; i < n - 3; i++) {
            c[i] = a[i + 3] + b[i];
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i] = a[i] + c[i];
        }
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	runStencil := func(async, lose bool) (*rt.Report, *ir.Instance) {
		rng := rand.New(rand.NewSource(9))
		inst := rt.BindFilled(t, mod, ir.NewBindings().SetScalar("n", 3001).SetScalar("steps", 4), func(a *ir.HostArray) {
			for i := range a.F32 {
				a.F32[i] = rng.Float32()
			}
		})
		mach, err := sim.NewMachine(sim.Cluster(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		opts := rt.Options{Async: async, Auditor: audit.New(audit.Options{})}
		if lose {
			var arm sync.Once
			opts.Interrupt = func() error {
				if mach.GPU(3).UsedByClass(sim.MemUser) > 0 {
					arm.Do(func() { mach.InjectFaults(&sim.FaultPlan{LoseNode: 1}) })
				}
				return nil
			}
		}
		r := rt.New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatalf("replicated stencil, async=%v, node loss %v: %v", async, lose, err)
		}
		assertDevicesEmpty(t, mach, fmt.Sprintf("replicated stencil, async=%v, node loss %v", async, lose))
		return r.Report(), inst
	}
	for _, async := range []bool{false, true} {
		_, want := runStencil(async, false)
		rep, got := runStencil(async, true)
		if !hasEventKind(rep, "node-loss") {
			t.Fatalf("replicated stencil, async=%v: no node-loss event: %+v", async, rep.Events)
		}
		for i, a := range want.Arrays {
			if !reflect.DeepEqual(a.F32, got.Arrays[i].F32) {
				t.Fatalf("replicated stencil, async=%v: %s after the node loss differs from the fault-free run", async, a.Decl.Name)
			}
		}
	}
}

// TestNodeLossKeepsTraceWellFormed drains node 1 mid-run with the
// tracer attached: the evacuation gathers and the post-loss reschedule
// must still produce structurally valid traces on every lane.
func TestNodeLossKeepsTraceWellFormed(t *testing.T) {
	for _, seed := range []int64{1, 5, 13} {
		for _, async := range []bool{false, true} {
			p := genRandProg(rand.New(rand.NewSource(seed)))
			tr := trace.New()
			plan := &sim.FaultPlan{LoseNode: 1}
			_, err := p.runFull(t, sim.Cluster(2, 2), rt.Options{Async: async, Tracer: tr}, plan)
			if err != nil {
				t.Fatalf("seed %d async=%v: %v\n%s", seed, async, err, p.src)
			}
			checkTraceStructure(t, tr.Spans(), true, p.src)
		}
	}
}

// TestMultiNodeTraceLanes runs the corpus on a 2x2 cluster and checks
// the NIC-lane discipline: every transfer span tagged "nic" must cross
// a node boundary, "p2p" spans must stay inside one, and an async run
// must route its peer traffic onto per-node NIC lanes.
func TestMultiNodeTraceLanes(t *testing.T) {
	spec := sim.Cluster(2, 2)
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for _, async := range []bool{false, true} {
			p := genRandProg(rand.New(rand.NewSource(seed)))
			tr := trace.New()
			_, err := p.runFull(t, spec, rt.Options{Async: async, Tracer: tr}, nil)
			if err != nil {
				t.Fatalf("seed %d async=%v: %v\n%s", seed, async, err, p.src)
			}
			checkTraceStructure(t, tr.Spans(), false, p.src)
			nicSpans := 0
			for _, s := range tr.Spans() {
				if node, ok := trace.NICLaneNode(s.Lane); ok {
					nicSpans++
					if node < 0 || node >= spec.NodeCount() {
						t.Fatalf("seed %d async=%v: span %q on NIC lane for node %d (machine has %d)",
							seed, async, s.Name, node, spec.NodeCount())
					}
					if node != spec.NodeOf(s.Dst) {
						t.Fatalf("seed %d async=%v: span %q to GPU %d (node %d) on node %d's NIC lane",
							seed, async, s.Name, s.Dst, spec.NodeOf(s.Dst), node)
					}
				}
				switch s.Detail {
				case "nic":
					if !spec.CrossNode(s.Src, s.Dst) {
						t.Fatalf("seed %d async=%v: span %q (%d -> %d) tagged nic but stays on one node",
							seed, async, s.Name, s.Src, s.Dst)
					}
				case "p2p":
					if spec.CrossNode(s.Src, s.Dst) {
						t.Fatalf("seed %d async=%v: span %q (%d -> %d) tagged p2p but crosses nodes",
							seed, async, s.Name, s.Src, s.Dst)
					}
				}
			}
			if async && nicSpans == 0 {
				// The async scheduler routes every priced transfer over
				// the node fabrics; a program with arrays always loads
				// something, so an empty NIC timeline means the lanes
				// regressed.
				t.Fatalf("seed %d: async run on %s emitted no NIC-lane spans", seed, spec.Name)
			}
		}
	}
}

// multiNodeStencilSrc is the halo-bound configuration the node-level
// speedup gate measures — the ping-pong three-point stencil of the
// PR-6 gate with the sweep count lifted to a scalar, so the new
// variable is the machine: on a 2-node cluster (one GPU per node) the
// wide halo (stride(1, 2048, 2048)) crosses the NIC every sweep, and
// the async schedule must overlap those NIC pushes under the producing
// kernel exactly as it overlaps PCIe pushes on one node. At n=2^20 a
// sweep's kernel (~94us per launch) and its staged NIC halo batch
// (~105us) are nearly balanced — the regime where overlap pays — and
// 24 sweeps amortize the one-time copy-in/copy-out of the data region.
const multiNodeStencilSrc = `
int n;
int steps;
float a_[n], b_[n];
void main() {
    int i;
    int t;
    #pragma acc data copy(a_, b_)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a_) stride(1, 2048, 2048)
            #pragma acc localaccess(b_) stride(1, 2048, 2048)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                b_[i] = 0.25 * a_[max(i - 2048, 0)] + 0.5 * a_[i] + 0.25 * a_[min(i + 2048, n - 1)];
            }
            #pragma acc localaccess(b_) stride(1, 2048, 2048)
            #pragma acc localaccess(a_) stride(1, 2048, 2048)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a_[i] = 0.25 * b_[max(i - 2048, 0)] + 0.5 * b_[i] + 0.25 * b_[min(i + 2048, n - 1)];
            }
        }
    }
}
`

// runMultiNodeStencil executes the gate program on a 2-node cluster
// (one GPU per node, so every halo crosses the NIC) and returns the
// report.
func runMultiNodeStencil(t testing.TB, opts rt.Options) *rt.Report {
	t.Helper()
	tpl := specTemplate{name: "multinode-stencil", src: multiNodeStencilSrc}
	scalars := map[string]float64{"n": 1048576, "steps": 24}
	r, _, err := runSpecTemplate(t, tpl, scalars, 11, sim.Cluster(2, 1), opts)
	if err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	return r.Report()
}

// TestMultiNodeSpeedupGate enforces the node-level headline: on the
// halo-bound 2-node stencil the NIC-aware async schedule must beat the
// synchronous one by at least 1.2x, without changing what ran. Run
// under make bench-quick.
func TestMultiNodeSpeedupGate(t *testing.T) {
	syncRep := runMultiNodeStencil(t, rt.Options{})
	asyncRep := runMultiNodeStencil(t, rt.Options{Async: true})
	syncTotal, asyncTotal := syncRep.Total(), asyncRep.Total()
	if asyncTotal <= 0 {
		t.Fatalf("async makespan is %v", asyncTotal)
	}
	speedup := float64(syncTotal) / float64(asyncTotal)
	t.Logf("2-node halo-bound stencil: sync %v, async %v, speedup %.2fx", syncTotal, asyncTotal, speedup)
	if speedup < 1.2 {
		t.Fatalf("multi-node async speedup %.3fx < 1.2x gate (sync %v, async %v)", speedup, syncTotal, asyncTotal)
	}
	if got, want := reportModuloTime(asyncRep), reportModuloTime(syncRep); !reflect.DeepEqual(got, want) {
		t.Fatalf("gate config: async report diverges from sync modulo time:\nasync: %+v\nsync:  %+v", got, want)
	}
}
