package rt_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accmulti/internal/audit"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// This file is the differential schedule-equivalence harness for the
// async pipelined scheduler (sched.go). The contract under test: an
// async execution must produce bit-identical arrays and an identical
// Report except for time — same phase buckets, transfer volumes,
// launch counts, fault events (kinds and details), retries, fallbacks
// and memory peaks — because the scheduler only re-times steps, never
// reorders their functional effects.

// reportModuloTime returns a copy of the report with every
// time-carrying field normalized away: the async flag and makespan,
// and the event stamps (events fire at different simulated clocks
// under the overlapped schedule but must agree in kind, detail and
// order). Everything else must match exactly.
func reportModuloTime(rep *rt.Report) *rt.Report {
	c := *rep
	c.Async = false
	c.AsyncTime = 0
	c.Events = append([]rt.Event(nil), rep.Events...)
	for i := range c.Events {
		c.Events[i].Time = 0
	}
	return &c
}

// checkAsyncVsSync runs one generated program under the synchronous
// and the async schedule on every multi-GPU platform and asserts the
// equivalence contract. It also asserts async determinism: the host
// wall-clock ablations must reproduce the async report (including the
// makespan) bit for bit.
func checkAsyncVsSync(t testing.TB, p randProg) {
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
		sim.Cluster(2, 2),
		sim.Cluster(3, 2),
	} {
		sync, err := p.runFull(t, spec, rt.Options{}, nil)
		if err != nil {
			t.Fatalf("sync run on %s: %v\n%s", spec.Name, err, p.src)
		}
		async, err := p.runFull(t, spec, rt.Options{Async: true}, nil)
		if err != nil {
			t.Fatalf("async run on %s: %v\n%s", spec.Name, err, p.src)
		}
		cfg := spec.Name + "/async-vs-sync"
		compareI32(t, p.src, cfg, "out_", async.out, sync.out)
		compareI32(t, p.src, cfg, "out2_", async.out2, sync.out2)
		compareI32(t, p.src, cfg, "hist_", async.hist, sync.hist)
		if async.total != sync.total {
			t.Fatalf("on %s: async total = %g, sync %g\n%s", spec.Name, async.total, sync.total, p.src)
		}
		if !async.rep.Async {
			t.Fatalf("on %s: async report not flagged async", spec.Name)
		}
		if sync.rep.Total() > 0 && async.rep.AsyncTime <= 0 {
			t.Fatalf("on %s: async makespan %v with sync total %v\n%s",
				spec.Name, async.rep.AsyncTime, sync.rep.Total(), p.src)
		}
		if got, want := reportModuloTime(async.rep), reportModuloTime(sync.rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("on %s: async report diverges from sync modulo time:\nasync: %+v\nsync:  %+v\n%s",
				spec.Name, got, want, p.src)
		}

		// Async determinism: the wall-clock ablations must not move a
		// single virtual-time stamp of the overlapped schedule.
		for _, cfg := range []invarianceConfig{
			{name: "one-proc", opts: rt.Options{Async: true}, oneProc: true},
			{name: "reference", opts: rt.Options{Async: true, Reference: true}},
		} {
			again, err := cfg.run(t, p, spec, nil)
			if err != nil {
				t.Fatalf("async %s on %s: %v\n%s", cfg.name, spec.Name, err, p.src)
			}
			if again.rep.AsyncTime != async.rep.AsyncTime {
				t.Fatalf("on %s: async makespan not invariant under %s: %v vs %v\n%s",
					spec.Name, cfg.name, again.rep.AsyncTime, async.rep.AsyncTime, p.src)
			}
			compareI32(t, p.src, spec.Name+"/"+cfg.name, "out_", again.out, sync.out)
		}
	}
}

// FuzzAsyncVsSyncSchedule lets the fuzzer explore generator seeds;
// every program must satisfy the schedule-equivalence contract on
// every platform. Wired into make fuzz-smoke.
func FuzzAsyncVsSyncSchedule(f *testing.F) {
	for _, seed := range asyncFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAsyncVsSync(t, genRandProg(rand.New(rand.NewSource(seed))))
	})
}

// TestAsyncVsSyncSeedCorpus pins the differential check over the
// audited corpus seeds, so plain `go test` exercises the same programs
// the fuzzer starts from.
func TestAsyncVsSyncSeedCorpus(t *testing.T) {
	seeds := asyncCorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkAsyncVsSync(t, genRandProg(rand.New(rand.NewSource(seed))))
		})
	}
}

// TestAsyncAuditedCorpus arms the PR-1 shadow auditor over async runs
// of the corpus: every overlapped execution's intermediate device
// states must verify against the oracle, and the final results must
// match the CPU reference.
func TestAsyncAuditedCorpus(t *testing.T) {
	seeds := auditedSeeds
	if testing.Short() {
		seeds = seeds[:5]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genRandProg(rand.New(rand.NewSource(seed)))
			refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})
			for _, spec := range []sim.MachineSpec{
				sim.Desktop().WithGPUs(1),
				sim.Desktop(),
				sim.SupercomputerNode(),
				sim.Cluster(2, 2),
			} {
				opts := rt.Options{Async: true, Auditor: audit.New(audit.Options{})}
				out, out2, hist, total := p.run(t, spec, opts)
				compareI32(t, p.src, spec.Name+"/async-audited", "out_", out, refOut)
				compareI32(t, p.src, spec.Name+"/async-audited", "out2_", out2, refOut2)
				compareI32(t, p.src, spec.Name+"/async-audited", "hist_", hist, refHist)
				if total != refTotal {
					t.Fatalf("on %s: total = %g, want %g\n%s", spec.Name, total, refTotal, p.src)
				}
			}
		})
	}
}

// asyncStencilSrc is the communication-bound configuration the
// speedup gate measures: a ping-pong three-point stencil with a wide
// halo (stride(1, 2048, 2048)) over n=32768 float elements, repeated
// for several sweeps inside one data region. Per sweep the
// synchronous schedule pays the full kernel plus the full halo batch;
// the async schedule overlaps the halo pushes with the producing
// kernel (graded write completion) and the consuming kernel's far
// side, so the reported time per sweep approaches max(kernel, bus).
const asyncStencilSrc = `
int n;
float a_[n], b_[n];
void main() {
    int i;
    int t;
    #pragma acc data copy(a_, b_)
    {
        for (t = 0; t < 8; t++) {
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

// runAsyncStencil executes the gate program on the desktop machine
// (2 GPUs) and returns the report.
func runAsyncStencil(t testing.TB, opts rt.Options) *rt.Report {
	t.Helper()
	tpl := specTemplate{name: "async-stencil", src: asyncStencilSrc}
	r, _, err := runSpecTemplate(t, tpl, map[string]float64{"n": 32768}, 11, sim.Desktop(), opts)
	if err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	return r.Report()
}

// TestAsyncByteStabilityStress hammers the scheduler's concurrency
// seams (the Phase B goroutines feeding kernels(), the loader's
// host-parallel copies racing toward batch()) the way
// TestTraceByteStabilityStress does for the tracer: repeated runs of
// one seeded program under the async schedule must produce
// byte-identical Chrome traces, an unmoved makespan, and well-formed
// spans every time. make check runs it under -race as well.
func TestAsyncByteStabilityStress(t *testing.T) {
	reps := 8
	if testing.Short() {
		reps = 3
	}
	p := genRandProg(rand.New(rand.NewSource(8)))
	spec := sim.SupercomputerNode()
	var want []byte
	var wantMakespan time.Duration
	for i := 0; i < reps; i++ {
		tr := trace.New()
		res, err := p.runFull(t, spec, rt.Options{Async: true, Tracer: tr}, nil)
		if err != nil {
			t.Fatalf("rep %d: %v\n%s", i, err, p.src)
		}
		if err := trace.CheckWellFormed(tr.Spans()); err != nil {
			t.Fatalf("rep %d: %v\n%s", i, err, p.src)
		}
		got := chromeBytes(t, tr)
		if i == 0 {
			want, wantMakespan = got, res.rep.AsyncTime
			continue
		}
		if res.rep.AsyncTime != wantMakespan {
			t.Fatalf("rep %d: async makespan %v, rep 0 had %v\n%s", i, res.rep.AsyncTime, wantMakespan, p.src)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("rep %d: async trace bytes differ from rep 0\n%s", i, p.src)
		}
	}
}

// TestAsyncSpeedupGate enforces the PR's headline: the async schedule
// must improve reported simulated time by at least 1.2x on the
// halo-bound stencil configuration. Run under make bench-quick.
func TestAsyncSpeedupGate(t *testing.T) {
	syncRep := runAsyncStencil(t, rt.Options{})
	asyncRep := runAsyncStencil(t, rt.Options{Async: true})
	syncTotal, asyncTotal := syncRep.Total(), asyncRep.Total()
	if asyncTotal <= 0 {
		t.Fatalf("async makespan is %v", asyncTotal)
	}
	speedup := float64(syncTotal) / float64(asyncTotal)
	t.Logf("halo-bound stencil: sync %v, async %v, speedup %.2fx", syncTotal, asyncTotal, speedup)
	if speedup < 1.2 {
		t.Fatalf("async speedup %.3fx < 1.2x gate (sync %v, async %v)", speedup, syncTotal, asyncTotal)
	}
	// The overlap must not have changed what ran: buckets and volumes
	// stay the synchronous ones.
	if got, want := reportModuloTime(asyncRep), reportModuloTime(syncRep); !reflect.DeepEqual(got, want) {
		t.Fatalf("gate config: async report diverges from sync modulo time:\nasync: %+v\nsync:  %+v", got, want)
	}
}
