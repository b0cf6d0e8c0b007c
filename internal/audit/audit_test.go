package audit_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"accmulti/internal/audit"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// runAudited compiles, binds, and executes src under the auditor,
// returning the auditor, the instance, and the run error.
func runAudited(t *testing.T, src string, b *ir.Bindings, opts rt.Options) (*audit.Auditor, *ir.Instance, error) {
	t.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mod.Bind(b)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(sim.Desktop().WithGPUs(3))
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(audit.Options{})
	opts.Auditor = aud
	runtime := rt.New(mach, opts)
	return aud, inst, runtime.Run(inst)
}

const stencilSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1, 1, 1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0 && i < n - 1) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                } else {
                    b[i] = a[i];
                }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
    }
}
`

func stencilBindings() *ir.Bindings {
	b := ir.NewBindings().SetScalar("n", 512).SetScalar("steps", 4)
	arr := &ir.HostArray{F32: make([]float32, 512)}
	for i := range arr.F32 {
		arr.F32[i] = float32((i*7)%13) - 6
	}
	arr.F32[256] = 1000
	b.SetArray("a", arr)
	return b
}

// TestDivergencePrintsBits: a divergence whose values print alike (two
// NaNs of different payloads) also prints their bits.
func TestDivergencePrintsBits(t *testing.T) {
	e := &audit.DivergenceError{Context: "k", Array: "y", GPU: 0, Lo: 3, Hi: 3,
		Got: math.Float64frombits(0x7ff8000000000001), Want: math.Float64frombits(0x7ff8000000000002)}
	if msg := e.Error(); !strings.Contains(msg, "got NaN (0x7ff8000000000001), want NaN (0x7ff8000000000002)") {
		t.Errorf("%s: want both values' bits", msg)
	}
	e.Got, e.Want = 1, 2
	if msg := e.Error(); !strings.Contains(msg, "got 1, want 2 (t=") {
		t.Errorf("%s: values that print apart print no bits", msg)
	}
}

func TestAuditorPassesCleanRuns(t *testing.T) {
	srcs := map[string]struct {
		src string
		b   *ir.Bindings
	}{
		"stencil": {stencilSrc, stencilBindings()},
		"histogram": {`
int n, k;
int data[n];
int hist[k];

void main() {
    int i;
    #pragma acc data copyin(data) copy(hist)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int b;
            b = (data[i] % k + k) % k;
            #pragma acc reductiontoarray(+: hist[b])
            hist[b] += 1;
        }
    }
}
`, ir.NewBindings().SetScalar("n", 3000).SetScalar("k", 16)},
		"dotprod": {`
int n;
float x[n], y[n];
float dot;

void main() {
    int i;
    dot = 0.0;
    #pragma acc localaccess(x) stride(1)
    #pragma acc localaccess(y) stride(1)
    #pragma acc parallel loop reduction(+:dot)
    for (i = 0; i < n; i++) {
        dot += x[i] * y[i];
    }
}
`, ir.NewBindings().SetScalar("n", 2048)},
	}
	for name, tc := range srcs {
		t.Run(name, func(t *testing.T) {
			aud, _, err := runAudited(t, tc.src, tc.b, rt.Options{})
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if aud.Launches == 0 || aud.Checks == 0 {
				t.Errorf("auditor idle: launches=%d checks=%d", aud.Launches, aud.Checks)
			}
		})
	}
}

func TestAuditorCatchesDroppedHaloExchange(t *testing.T) {
	_, _, err := runAudited(t, stencilSrc, stencilBindings(), rt.Options{
		Sabotage: &rt.Sabotage{DropOverlapSync: true},
	})
	var div *audit.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("sabotaged run must diverge, got %v", err)
	}
	// The spike sits at element 256; with 3 GPUs over 512 elements the
	// stale halo shows up at a partition boundary on array a or b.
	if div.Array != "a" && div.Array != "b" {
		t.Errorf("divergence on %q, want the stencil arrays", div.Array)
	}
	if div.GPU < 0 {
		t.Errorf("divergence should name a GPU copy, got %d", div.GPU)
	}
	t.Logf("auditor reported: %v", div)
}
