package rt

import (
	"runtime"
	"testing"
	"time"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// ReplPingPongSrc is the replicated ping-pong stencil of the host-time
// benchmark's stencil_repl workload: no localaccess, so both arrays
// replicate and every launch ends in a dirty-chunk sync whose transfers
// all touch one array. Exported for the rt_test files.
const ReplPingPongSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc parallel loop gang vector
            for (i = 1; i < n - 1; i++) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
            #pragma acc parallel loop gang vector
            for (i = 1; i < n - 1; i++) {
                a[i] = b[i];
            }
        }
    }
}
`

// pingPong is the ping-pong pair in its steady state: both arrays
// resident as inside the data region, every cache and scratch warm, so
// step() costs what one time step of the iterated program costs.
type pingPong struct {
	r   *Runtime
	ks  []*ir.Kernel
	env *ir.Env
}

func newPingPong(tb testing.TB, spec sim.MachineSpec, opts Options) *pingPong {
	tb.Helper()
	mod, inst := buildSpecInstance(tb, ReplPingPongSrc, map[string]float64{"n": 4096, "steps": 1})
	mach, err := sim.NewMachine(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r := New(mach, opts)
	r.inst = inst
	p := &pingPong{r: r, ks: mod.Kernels, env: inst.Env}
	if len(p.ks) != 2 {
		tb.Fatalf("ping-pong source has %d kernels, want 2", len(p.ks))
	}
	p.step(tb)
	for _, k := range p.ks {
		for _, use := range k.Arrays {
			r.state(use.Decl).present = true
		}
	}
	// Enough steps to fill the hazard interval sets to their compaction
	// point, after which they stop growing.
	for i := 0; i < 2*defaultIntervalCap; i++ {
		p.step(tb)
	}
	if r.SpecStats().Hits == 0 {
		tb.Fatal("the ping-pong kernels never ran specialized")
	}
	return p
}

// step launches both kernels once.
func (p *pingPong) step(tb testing.TB) {
	for _, k := range p.ks {
		if err := p.r.Launch(k, p.env); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestLaunchSteadyStateAllocBudget bounds what one whole launch of the
// replicated ping-pong allocates on one processor, loader to scheduler:
// a handful of fan-out closures, and nothing that grows with the GPUs.
func TestLaunchSteadyStateAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perLaunch := func(spec sim.MachineSpec) float64 {
		p := newPingPong(t, spec, Options{Async: true})
		return testing.AllocsPerRun(20, func() { p.step(t) }) / float64(len(p.ks))
	}
	small, large := perLaunch(sim.Cluster(2, 2)), perLaunch(sim.Cluster(2, 4))
	t.Logf("objects per launch: %v on 2x2, %v on 2x4", small, large)
	if small > 8 { // measured: 4, the Phase B closure and the sync's scan, apply and clear
		t.Errorf("a steady-state launch on 2x2 allocates %v objects, budget 8", small)
	}
	if large != small {
		t.Errorf("allocations grow with the GPU count: %v per launch on 2x2, %v on 2x4", small, large)
	}
}

// BenchmarkLaunchOverhead times the steady-state launch of the
// replicated ping-pong pair (n = 4096 on a 2x2 cluster: the kernels are
// tiny, the per-launch runtime work is most of the time), under both
// schedules. Profile it with -cpuprofile/-memprofile.
func BenchmarkLaunchOverhead(b *testing.B) {
	for _, bc := range []struct {
		name  string
		async bool
	}{{"async", true}, {"sync", false}} {
		b.Run(bc.name, func(b *testing.B) {
			p := newPingPong(b, sim.Cluster(2, 2), Options{Async: bc.async})
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p.step(b)
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(p.ks)), "ns/launch")
		})
	}
}
