package rt_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// Report-invariance golden tests for the host-side performance layer
// (PR 3). The parallel loader copies, the word-parallel dirty diff and
// the launch-plan cache are wall-clock optimizations only: every
// virtual-time figure, transfer volume, launch count, peak-memory
// number and event stream must be bit-identical with the optimizations
// on, off, and under GOMAXPROCS=1. These tests pin that over the
// audited random-program corpus on every machine tier.

// invarianceConfig is one runtime configuration whose Report and
// outputs must match the default exactly. oneProc runs it at
// GOMAXPROCS=1, where every sim.FanOut is the ascending serial loop and
// starts no goroutine: the serial-order reference for the host fan-outs.
type invarianceConfig struct {
	name    string
	opts    rt.Options
	oneProc bool
}

func invarianceConfigs() []invarianceConfig {
	return []invarianceConfig{
		{name: "reference", opts: rt.Options{Reference: true}},
		{name: "one-proc", oneProc: true},
		{name: "all-serial", opts: rt.Options{Reference: true}, oneProc: true},
	}
}

func (c invarianceConfig) run(t testing.TB, p randProg, spec sim.MachineSpec, plan *sim.FaultPlan) (runResult, error) {
	if c.oneProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	return p.runFull(t, spec, c.opts, plan)
}

func checkRunsIdentical(t *testing.T, label, src string, want, got runResult) {
	t.Helper()
	if !reflect.DeepEqual(want.rep, got.rep) {
		t.Fatalf("%s: Report diverged from default options:\nwant %+v\ngot  %+v\n%s",
			label, want.rep, got.rep, src)
	}
	if !reflect.DeepEqual(want.out, got.out) || !reflect.DeepEqual(want.out2, got.out2) ||
		!reflect.DeepEqual(want.hist, got.hist) || want.total != got.total {
		t.Fatalf("%s: computed results diverged from default options\n%s", label, src)
	}
}

// restridedProg launches one kernel twice over the same bounds with a
// localaccess stride read from a host scalar that changed in between: the
// second launch's footprints differ from the cached plan's, which only
// the plan cache's scalar validation can see. No random program does this.
func restridedProg() randProg {
	const n = 600
	p := randProg{n: n, in: make([]int32, 2*n), idx: make([]int32, n), src: `
int n, k;
int in_[2 * n], out_[n];
int idx_[n];
int out2_[n];
int hist_[k];
int total;
void main() {
    int i, t, s;
    total = 0;
    #pragma acc data copyin(in_, idx_) copy(out_, out2_, hist_)
    {
        for (t = 0; t < 2; t++) {
            s = t + 1;
            #pragma acc localaccess(in_) stride(s)
            #pragma acc localaccess(out_) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                out_[i] = out_[i] + in_[s * i];
            }
        }
    }
}
`}
	for i := range p.in {
		p.in[i] = int32(i%97 - 40)
	}
	return p
}

func TestHostPerfReportInvariance(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if testing.Short() {
		seeds = seeds[:4]
	}
	specs := []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
	}
	progs := map[string]randProg{"restrided": restridedProg()}
	for _, seed := range seeds {
		progs[fmt.Sprintf("seed %d", seed)] = genRandProg(rand.New(rand.NewSource(seed)))
	}
	for name, p := range progs {
		for _, spec := range specs {
			ref, err := p.runFull(t, spec, rt.Options{}, nil)
			if err != nil {
				t.Fatalf("%s on %s: %v\n%s", name, spec.Name, err, p.src)
			}
			for _, cfg := range invarianceConfigs() {
				res, err := cfg.run(t, p, spec, nil)
				if err != nil {
					t.Fatalf("%s on %s (%s): %v\n%s", name, spec.Name, cfg.name, err, p.src)
				}
				label := fmt.Sprintf("%s on %s (%s)", name, spec.Name, cfg.name)
				checkRunsIdentical(t, label, p.src, ref, res)
			}
		}
	}
}

// TestHostPerfGOMAXPROCS1Invariance pins that the parallel paths are
// scheduling-independent: with the whole process pinned to one OS
// thread the fan-out goroutines interleave arbitrarily, yet the report
// and results must not move.
func TestHostPerfGOMAXPROCS1Invariance(t *testing.T) {
	seeds := []int64{1, 2, 3, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		spec := sim.SupercomputerNode()
		ref, err := p.runFull(t, spec, rt.Options{}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.src)
		}
		prev := runtime.GOMAXPROCS(1)
		res, err2 := p.runFull(t, spec, rt.Options{}, nil)
		runtime.GOMAXPROCS(prev)
		if err2 != nil {
			t.Fatalf("seed %d under GOMAXPROCS=1: %v\n%s", seed, err2, p.src)
		}
		checkRunsIdentical(t, fmt.Sprintf("seed %d GOMAXPROCS=1", seed), p.src, ref, res)
	}
}

// TestHostPerfInvarianceUnderFaults extends the invariance guarantee to
// fault-injected runs: the fault oracles consume randomness in
// allocation and transfer order, so this doubles as a regression test
// that the serial prepare pass preserved the legacy ordering exactly.
func TestHostPerfInvarianceUnderFaults(t *testing.T) {
	seeds := []int64{3, 8, 21}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		plan := &sim.FaultPlan{Seed: 20130700 + seed, TransferFailRate: 0.05}
		spec := sim.Desktop()
		ref, refErr := p.runFull(t, spec, rt.Options{}, plan)
		for _, cfg := range invarianceConfigs() {
			res, err := cfg.run(t, p, spec, plan)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("seed %d (%s): error divergence: default %v, variant %v\n%s",
					seed, cfg.name, refErr, err, p.src)
			}
			if !reflect.DeepEqual(ref.rep, res.rep) {
				t.Fatalf("seed %d (%s): faulted Report diverged\nwant %+v\ngot  %+v\n%s",
					seed, cfg.name, ref.rep, res.rep, p.src)
			}
			if refErr == nil {
				checkRunsIdentical(t, fmt.Sprintf("seed %d (%s) faulted", seed, cfg.name), p.src, ref, res)
			}
		}
	}
}
