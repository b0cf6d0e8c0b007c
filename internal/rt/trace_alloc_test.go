package rt

import (
	"reflect"
	"testing"

	"accmulti/internal/trace"
)

// TestTraceDisabledAllocBudget is the tracing-off perf gate: with
// Options.Tracer nil every emission site reduces to one nil check, so
// a steady-state specialized launch must stay inside the same
// allocation budget TestSpecLaunchSteadyStateAllocBudget enforced
// before the tracing layer existed. Runs in make bench-quick.
func TestTraceDisabledAllocBudget(t *testing.T) {
	s := newSpecLaunchState(t, specSaxpySrc, map[string]float64{"n": 1 << 16, "a": 1.5}, Options{})
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.r.Launch(s.k, s.env); err != nil {
			t.Fatal(err)
		}
	})
	if h := s.r.SpecStats().Hits; h == 0 {
		t.Fatal("fast path never ran; budget would measure the interpreter")
	}
	ngpus := float64(s.r.mach.NumGPUs())
	if limit := 20*ngpus + 20; allocs > limit {
		t.Errorf("tracing-disabled steady-state launch allocates %v objects, budget %v", allocs, limit)
	}
}

// A traced launch must still produce the identical report (the tracer
// only observes), and its span stream must be non-empty and well
// formed in the steady state the alloc budget exercises.
func TestTraceEnabledLaunchObservesOnly(t *testing.T) {
	plain := newSpecLaunchState(t, specSaxpySrc, map[string]float64{"n": 1 << 12, "a": 1.5}, Options{})
	tr := trace.New()
	traced := newSpecLaunchState(t, specSaxpySrc, map[string]float64{"n": 1 << 12, "a": 1.5}, Options{Tracer: tr})
	for i := 0; i < 3; i++ {
		if err := plain.r.Launch(plain.k, plain.env); err != nil {
			t.Fatal(err)
		}
		if err := traced.r.Launch(traced.k, traced.env); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(traced.r.Report(), plain.r.Report()) {
		t.Errorf("traced report diverges:\n  got:  %+v\n  want: %+v", traced.r.Report(), plain.r.Report())
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("traced launches emitted no spans")
	}
	if err := trace.CheckWellFormed(spans); err != nil {
		t.Errorf("span stream not well-formed: %v", err)
	}
	var kernels int
	for _, s := range spans {
		if s.Kind == trace.KindSpecKernel {
			kernels++
		}
	}
	if kernels == 0 {
		t.Error("no spec-kernel spans despite the fast path running")
	}
}
