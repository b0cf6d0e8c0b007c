package rt_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Trace-layer invariance gates (PR 5). Tracing is an observer: arming
// a Tracer must not move a single bit of the Report, the Events, or
// the computed arrays, in any option configuration, and the emitted
// span stream itself must be byte-identical from run to run — that is
// what makes golden traces possible at all.

func chromeBytes(t testing.TB, tr *trace.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceReportInvariance(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:3]
	}
	specs := []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode()}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		for _, spec := range specs {
			ref, err := p.runFull(t, spec, rt.Options{}, nil)
			if err != nil {
				t.Fatalf("seed %d on %s: %v\n%s", seed, spec.Name, err, p.src)
			}

			// Tracing on: report and results bit-identical to tracing off.
			tr := trace.New()
			res, err := p.runFull(t, spec, rt.Options{Tracer: tr}, nil)
			if err != nil {
				t.Fatalf("seed %d on %s traced: %v\n%s", seed, spec.Name, err, p.src)
			}
			checkRunsIdentical(t, fmt.Sprintf("seed %d on %s traced", seed, spec.Name), p.src, ref, res)
			if err := trace.CheckWellFormed(tr.Spans()); err != nil {
				t.Fatalf("seed %d on %s: %v\n%s", seed, spec.Name, err, p.src)
			}

			// Same program, fresh tracer: byte-identical Chrome output.
			want := chromeBytes(t, tr)
			tr2 := trace.New()
			if _, err := p.runFull(t, spec, rt.Options{Tracer: tr2}, nil); err != nil {
				t.Fatalf("seed %d on %s traced rerun: %v\n%s", seed, spec.Name, err, p.src)
			}
			if !bytes.Equal(want, chromeBytes(t, tr2)) {
				t.Fatalf("seed %d on %s: trace bytes differ across identical runs\n%s",
					seed, spec.Name, p.src)
			}

			// Option matrix with tracing armed: the report still must not move.
			for _, cfg := range invarianceConfigs() {
				cfg.opts.Tracer = trace.New()
				res, err := cfg.run(t, p, spec, nil)
				if err != nil {
					t.Fatalf("seed %d on %s (%s traced): %v\n%s", seed, spec.Name, cfg.name, err, p.src)
				}
				checkRunsIdentical(t, fmt.Sprintf("seed %d on %s (%s traced)", seed, spec.Name, cfg.name),
					p.src, ref, res)
			}
		}
	}
}

// TestTraceGOMAXPROCS1ByteStability pins that span commit order is
// scheduling-independent: pinned to one OS thread, the Phase B
// goroutines interleave arbitrarily, yet the Chrome trace must be
// byte-identical to the free-running one.
func TestTraceGOMAXPROCS1ByteStability(t *testing.T) {
	seeds := []int64{2, 5, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		spec := sim.SupercomputerNode()
		run := func() ([]byte, runResult) {
			tr := trace.New()
			res, err := p.runFull(t, spec, rt.Options{Tracer: tr}, nil)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, p.src)
			}
			return chromeBytes(t, tr), res
		}
		wantBytes, wantRes := run()
		prev := runtime.GOMAXPROCS(1)
		gotBytes, gotRes := run()
		runtime.GOMAXPROCS(prev)
		checkRunsIdentical(t, fmt.Sprintf("seed %d GOMAXPROCS=1 traced", seed), p.src, wantRes, gotRes)
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("seed %d: trace bytes differ under GOMAXPROCS=1\n%s", seed, p.src)
		}
	}
}

// TestTraceByteStabilityStress is the regression test for the span
// interleaving bug: per-GPU goroutines used to commit spans in
// scheduler order, so repeated host-parallel runs produced different
// streams. It hammers one seeded program and demands byte-identical
// traces every time; make check runs it under -race as well.
func TestTraceByteStabilityStress(t *testing.T) {
	reps := 8
	if testing.Short() {
		reps = 3
	}
	p := genRandProg(rand.New(rand.NewSource(8)))
	spec := sim.SupercomputerNode()
	var want []byte
	for i := 0; i < reps; i++ {
		tr := trace.New()
		if _, err := p.runFull(t, spec, rt.Options{Tracer: tr}, nil); err != nil {
			t.Fatalf("rep %d: %v\n%s", i, err, p.src)
		}
		got := chromeBytes(t, tr)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("rep %d: trace bytes differ from rep 0\n%s", i, p.src)
		}
	}
}
