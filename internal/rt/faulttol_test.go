package rt_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// Mutation tests: each Sabotage flag plants one real communication bug
// (stale halos, diverging replicas, lost scatter writes) in a program
// crafted so the divergence location is exactly predictable, and the
// auditor must name the offending array, GPU and element range. The
// same programs pass cleanly without the sabotage, proving the auditor
// reacts to the planted bug and nothing else.

// mutationCase is one sabotage scenario with its expected divergence.
const mutationN = 100 // 2 desktop GPUs -> partitions [0,50) and [50,100)

var mutationCases = []struct {
	name     string
	src      string
	sabotage rt.Sabotage
	array    string
	gpu      int
	lo, hi   int64
}{
	{
		// out_ is replicated (no localaccess); GPU1's writes reach GPU0
		// only through dirty-chunk shipping. Dropping it leaves GPU0's
		// replica stale exactly on GPU1's partition.
		name: "dropped dirty chunks",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = in_[i] * 2 + 1;
        }
    }
}
`,
		sabotage: rt.Sabotage{DropDirtyChunks: true},
		array:    "out_", gpu: 0, lo: 50, hi: 99,
	},
	{
		// out2_ distributes; the reversing scatter makes every write
		// remote, so all content travels as miss records. Dropping the
		// delivery leaves GPU0's whole partition untouched.
		name: "dropped miss delivery",
		src: `
int n;
int in_[n], idx_[n], out2_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copy(out2_)
    {
        #pragma acc localaccess(in_) stride(1)
        #pragma acc localaccess(out2_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out2_[idx_[i]] = in_[i] * 2 + 1;
        }
    }
}
`,
		sabotage: rt.Sabotage{DropMissDelivery: true},
		array:    "out2_", gpu: 0, lo: 0, hi: 49,
	},
	{
		// b's halo-form localaccess keeps one ghost element per side
		// resident; only the overlap exchange refreshes it after the
		// neighbor writes its core. GPU0's ghost is element 50.
		name: "dropped halo exchange",
		src: `
int n;
int a[n], b[n];
void main() {
    int i;
    #pragma acc data copy(a) create(b)
    {
        #pragma acc localaccess(a) stride(1, 1, 1)
        #pragma acc localaccess(b) stride(1, 1, 1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i > 0 && i < n - 1) {
                b[i] = a[i - 1] + a[i] + a[i + 1];
            } else {
                b[i] = a[i];
            }
        }
    }
}
`,
		sabotage: rt.Sabotage{DropOverlapSync: true},
		array:    "b", gpu: 0, lo: 50, hi: 50,
	},
}

// runMutationSrc executes one mutation program on the 2-GPU desktop.
func runMutationSrc(t *testing.T, src string, sab *rt.Sabotage) error {
	t.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	bind := ir.NewBindings().SetScalar("n", mutationN)
	for _, name := range []string{"in_", "a"} {
		if d, ok := prog.Scope[name]; ok && d.IsArray {
			vals := make([]int32, mutationN)
			for i := range vals {
				vals[i] = int32(i + 1)
			}
			bind.SetArray(name, &ir.HostArray{Decl: d, I32: vals})
		}
	}
	if d, ok := prog.Scope["idx_"]; ok {
		vals := make([]int32, mutationN)
		for i := range vals {
			vals[i] = int32(mutationN - 1 - i) // every write lands remotely
		}
		bind.SetArray("idx_", &ir.HostArray{Decl: d, I32: vals})
	}
	inst, err := mod.Bind(bind)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	opts := rt.Options{Auditor: audit.New(audit.Options{}), Sabotage: sab}
	return rt.New(mach, opts).Run(inst)
}

func TestAuditorFlagsSabotagedCommunication(t *testing.T) {
	for _, tc := range mutationCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The program must be clean without the sabotage...
			if err := runMutationSrc(t, tc.src, nil); err != nil {
				t.Fatalf("clean run must pass the auditor: %v", err)
			}
			// ...and diverge at exactly the predicted location with it.
			err := runMutationSrc(t, tc.src, &tc.sabotage)
			div := errorsAsDivergence(t, err)
			if div.Array != tc.array || div.GPU != tc.gpu || div.Lo != tc.lo || div.Hi != tc.hi {
				t.Errorf("divergence = %s gpu%d [%d,%d], want %s gpu%d [%d,%d]\nfull: %v",
					div.Array, div.GPU, div.Lo, div.Hi, tc.array, tc.gpu, tc.lo, tc.hi, div)
			}
		})
	}
}

// TestFaultPlanEquivalence is the acceptance test for graceful
// degradation: with a seeded fault plan injecting a device OOM and
// transient transfer failures, the same programs must produce
// bit-identical results through the fallback ladder, with every retry
// and fallback recorded in the report.
func TestFaultPlanEquivalence(t *testing.T) {
	plan := &sim.FaultPlan{Seed: 7, OOMGPU: 1, OOMAlloc: 2, TransferFailRate: 0.2, TransferFailCap: 2}
	var fallbacks, retries int
	for _, seed := range []int64{11, 22, 33} {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})

		opts := rt.Options{Auditor: audit.New(audit.Options{})}
		res, err := p.runFull(t, sim.Desktop(), opts, plan)
		if err != nil {
			t.Fatalf("seed %d: faulted run must degrade, not fail: %v\n%s", seed, err, p.src)
		}
		compareI32(t, p.src, "faulted", "out_", res.out, refOut)
		compareI32(t, p.src, "faulted", "out2_", res.out2, refOut2)
		compareI32(t, p.src, "faulted", "hist_", res.hist, refHist)
		if res.total != refTotal {
			t.Fatalf("seed %d: total = %g, want %g", seed, res.total, refTotal)
		}
		fallbacks += res.rep.Fallbacks
		retries += res.rep.TransferRetries
		if res.rep.Fallbacks > 0 && !hasEventKind(res.rep, "oom-fallback") {
			t.Errorf("seed %d: %d fallbacks but no oom-fallback event", seed, res.rep.Fallbacks)
		}
		if res.rep.TransferRetries > 0 && !hasEventKind(res.rep, "transfer-retry") {
			t.Errorf("seed %d: %d retries but no transfer-retry event", seed, res.rep.TransferRetries)
		}
		// Degradation must not leak device memory either.
		assertDevicesEmpty(t, res.mach, fmt.Sprintf("seed %d", seed))
	}
	if fallbacks == 0 {
		t.Error("the OOM injection never triggered a fallback across the corpus")
	}
	if retries == 0 {
		t.Error("the transfer-failure injection never triggered a retry across the corpus")
	}
}

// TestFaultPlanAsyncEquivalence proves the degradation ladder fires
// identically under the pipelined scheduler: with the same seeded
// fault plan as TestFaultPlanEquivalence, an async run must degrade to
// the same bit-identical results as the sync run, with the same event
// log (kinds, details, order), the same retry and fallback counts, and
// the same bucket accounting — only the time stamps may move. The
// scheduler surfaces each failed attempt as a bus-time penalty but the
// error itself still travels the synchronous retry/fallback path.
//
// The Phase B engine is the second axis: a fault-armed run executes the
// specialized bodies like any other, and with them switched off
// (Reference) the same plan must fire at the same allocations
// and transfer attempts — whole report, time stamps included, and final
// arrays bit-identical on either schedule.
func TestFaultPlanAsyncEquivalence(t *testing.T) {
	plan := &sim.FaultPlan{Seed: 7, OOMGPU: 1, OOMAlloc: 2, TransferFailRate: 0.2, TransferFailCap: 2}
	var fallbacks, retries int
	var specHits int64
	for _, seed := range []int64{11, 22, 33} {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		refOut, refOut2, refHist, refTotal := p.run(t, sim.Desktop(), rt.Options{Mode: rt.ModeCPU})

		sync, err := p.runFull(t, sim.Desktop(), rt.Options{}, plan)
		if err != nil {
			t.Fatalf("seed %d: faulted sync run must degrade, not fail: %v\n%s", seed, err, p.src)
		}
		async, err := p.runFull(t, sim.Desktop(), rt.Options{Async: true, Auditor: audit.New(audit.Options{})}, plan)
		if err != nil {
			t.Fatalf("seed %d: faulted async run must degrade, not fail: %v\n%s", seed, err, p.src)
		}
		compareI32(t, p.src, "faulted-async", "out_", async.out, refOut)
		compareI32(t, p.src, "faulted-async", "out2_", async.out2, refOut2)
		compareI32(t, p.src, "faulted-async", "hist_", async.hist, refHist)
		if async.total != refTotal {
			t.Fatalf("seed %d: total = %g, want %g", seed, async.total, refTotal)
		}
		// The whole degradation story modulo time: same events in the
		// same order, same retries, fallbacks, buckets and volumes.
		if got, want := reportModuloTime(async.rep), reportModuloTime(sync.rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: faulted async report diverges from sync modulo time:\nasync: %+v\nsync:  %+v\n%s",
				seed, got, want, p.src)
		}
		for _, c := range []struct {
			label string
			fast  runResult
			opts  rt.Options
		}{
			{"sync", sync, rt.Options{Reference: true}},
			{"async", async, rt.Options{Async: true, Reference: true}},
		} {
			interp, err := p.runFull(t, sim.Desktop(), c.opts, plan)
			if err != nil {
				t.Fatalf("seed %d: faulted %s interpreter run must degrade, not fail: %v\n%s", seed, c.label, err, p.src)
			}
			checkRunsIdentical(t, fmt.Sprintf("seed %d faulted %s, specialized vs interpreter", seed, c.label), p.src, interp, c.fast)
			specHits += c.fast.runtime.SpecStats().Hits
		}
		fallbacks += async.rep.Fallbacks
		retries += async.rep.TransferRetries
		assertDevicesEmpty(t, async.mach, fmt.Sprintf("async seed %d", seed))
	}
	if specHits == 0 {
		t.Error("no fault-armed run reached the specialized executor")
	}
	if fallbacks == 0 {
		t.Error("the OOM injection never triggered a fallback under async")
	}
	if retries == 0 {
		t.Error("the transfer-failure injection never triggered a retry under async")
	}
}

// TestFaultPlanIsDeterministic re-runs one faulted program and demands
// identical reports: same retries, same fallbacks, same event log.
func TestFaultPlanIsDeterministic(t *testing.T) {
	plan := &sim.FaultPlan{Seed: 3, OOMGPU: 0, OOMAlloc: 3, TransferFailRate: 0.3, TransferFailCap: 2}
	p := genRandProg(rand.New(rand.NewSource(77)))
	one, err := p.runFull(t, sim.Desktop(), rt.Options{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	two, err := p.runFull(t, sim.Desktop(), rt.Options{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if one.rep.TransferRetries != two.rep.TransferRetries || one.rep.Fallbacks != two.rep.Fallbacks {
		t.Errorf("retries/fallbacks differ across identical runs: %d/%d vs %d/%d",
			one.rep.TransferRetries, one.rep.Fallbacks, two.rep.TransferRetries, two.rep.Fallbacks)
	}
	if len(one.rep.Events) != len(two.rep.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(one.rep.Events), len(two.rep.Events))
	}
	for i := range one.rep.Events {
		if one.rep.Events[i] != two.rep.Events[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, one.rep.Events[i], two.rep.Events[i])
		}
	}
	compareI32(t, p.src, "determinism", "out_", one.out, two.out)
}

// TestFaultFreeRunRecordsNoEvents holds Report.Events to fault
// handling: a fault-free run of the localaccess ping-pong stencil, which
// exchanges halos after every launch on more than one GPU, records no
// event on any machine under either schedule.
func TestFaultFreeRunRecordsNoEvents(t *testing.T) {
	tpl := specTemplate{name: "pingpong", src: pingpongSrc}
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop().WithGPUs(2),
		sim.Desktop().WithGPUs(4),
		sim.Cluster(2, 2),
	} {
		for _, async := range []bool{false, true} {
			r, _, err := runSpecTemplate(t, tpl, map[string]float64{"n": 4096}, 11, spec, rt.Options{Async: async})
			if err != nil {
				t.Fatalf("%s, async=%v: %v", spec.Name, async, err)
			}
			rep := r.Report()
			if spec.NumGPUs > 1 && rep.BytesP2P == 0 {
				t.Errorf("%s, async=%v: no halo exchanged", spec.Name, async)
			}
			if len(rep.Events) != 0 {
				t.Errorf("%s, async=%v: a fault-free run recorded %d event(s), first %+v",
					spec.Name, async, len(rep.Events), rep.Events[0])
			}
		}
	}
}

// TestOOMPathsLeakNoDeviceMemory pins the loader's OOM-path cleanup:
// whether the run degrades gracefully or fails hard, every byte of
// device memory must be back at zero once Run returns.
func TestOOMPathsLeakNoDeviceMemory(t *testing.T) {
	p := genRandProg(rand.New(rand.NewSource(55)))

	// Hard failure: degradation disabled, injected OOM becomes the
	// run's error, and the half-built copies must still be freed.
	plan := &sim.FaultPlan{OOMGPU: 1, OOMAlloc: 1}
	res, err := p.runFull(t, sim.Desktop(), rt.Options{DisableDegradation: true}, plan)
	if err == nil {
		t.Fatal("an injected OOM with degradation disabled must fail the run")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("error should surface the OOM: %v", err)
	}
	assertDevicesEmpty(t, res.mach, "hard failure")

	// Ladder exhaustion: a capacity shrink so severe that even one GPU
	// on replicas cannot hold the arrays.
	res, err = p.runFull(t, sim.Desktop(), rt.Options{}, &sim.FaultPlan{MemShrink: 1e-7})
	if err == nil {
		t.Fatal("a near-zero capacity must exhaust the fallback ladder")
	}
	assertDevicesEmpty(t, res.mach, "ladder exhaustion")
	if !hasEventKind(res.rep, "oom-giveup") {
		t.Error("ladder exhaustion must record an oom-giveup event")
	}
}

func hasEventKind(rep *rt.Report, kind string) bool {
	for _, ev := range rep.Events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

func assertDevicesEmpty(t *testing.T, mach *sim.Machine, context string) {
	t.Helper()
	for _, g := range mach.GPUs() {
		if used := g.UsedBytes(); used != 0 {
			t.Errorf("%s: GPU%d still pins %d device bytes after Run", context, g.ID, used)
		}
	}
}
