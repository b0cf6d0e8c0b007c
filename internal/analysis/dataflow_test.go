package analysis

// Tests for the whole-program dataflow diagnostics (ACCV008-ACCV012),
// the deterministic diagnostic order, and the per-(writer, array)
// ACCV007 dedupe.

import (
	"strings"
	"testing"

	"accmulti/internal/diag"
)

func TestLoopCarriedStencil(t *testing.T) {
	res := vet(t, `int n;
float a[n];

void main() {
    int i;
    #pragma acc data copy(a)
    {
        #pragma acc parallel loop
        for (i = 1; i < n; i++) {
            a[i] = a[i - 1] * 0.5;
        }
    }
}
`)
	d := one(t, res, "ACCV008")
	if d.Severity != diag.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if d.Symbol != "a" {
		t.Errorf("symbol = %q, want a", d.Symbol)
	}
	if res.Safe() {
		t.Error("a loop-carried program must not be Safe")
	}
	// The raced array must not get distributability advice.
	if len(res.Diags.ByCode("ACCV012")) != 0 {
		t.Errorf("advisor proposed distributing a raced array: %v", res.Diags)
	}
}

func TestLoopIndependentInPlaceUpdateIsClean(t *testing.T) {
	res := vet(t, `int n;
float x[n], y[n];

void main() {
    int i;
    #pragma acc data copyin(x) copy(y)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            y[i] = y[i] * 2.0 + x[i];
        }
    }
}
`)
	if len(res.Diags.ByCode("ACCV008")) != 0 {
		t.Errorf("in-place same-element update flagged as loop-carried: %v", res.Diags)
	}
}

func TestLoopCarriedWAWOnDistributedArray(t *testing.T) {
	res := vet(t, `int n;
float a[2 * n + 2];

void main() {
    int i;
    #pragma acc data copy(a)
    {
        #pragma acc localaccess(a) stride(2, 0, 2)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[2 * i] = 1.0;
            a[2 * i + 2] = 2.0;
        }
    }
}
`)
	d := one(t, res, "ACCV008")
	if !strings.Contains(d.Message, "write conflict") {
		t.Errorf("message = %q, want a write-conflict report", d.Message)
	}
}

func TestIndirectScatterIsAnErrorWithIndependentFixit(t *testing.T) {
	res := vet(t, `int n;
float out[n], val[n];
int idx[n];

void main() {
    int i;
    #pragma acc data copyin(val, idx) copy(out)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out[idx[i]] = val[i];
        }
    }
}
`)
	d := one(t, res, "ACCV009")
	if d.Severity != diag.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if d.FixIt != "#pragma acc parallel loop independent" {
		t.Errorf("fixit = %q", d.FixIt)
	}
}

func TestIndependentDowngradesScatterToWarning(t *testing.T) {
	res := vet(t, `int n;
float out[n], val[n];
int idx[n];

void main() {
    int i;
    #pragma acc data copyin(val, idx) copy(out)
    {
        #pragma acc parallel loop independent
        for (i = 0; i < n; i++) {
            out[idx[i]] = val[i];
        }
    }
}
`)
	d := one(t, res, "ACCV009")
	if d.Severity != diag.Warning {
		t.Errorf("severity = %v, want warning under `independent`", d.Severity)
	}
	if res.Diags.HasErrors() {
		t.Errorf("asserted-independent scatter must not be an error: %v", res.Diags)
	}
}

func TestDeadDeviceWrite(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) create(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
    }
}
`)
	d := one(t, res, "ACCV010")
	if d.Severity != diag.Warning || d.Symbol != "b" {
		t.Errorf("got %v, want a warning about b", d)
	}
}

func TestCopyOutKeepsWriteLive(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copyout(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
    }
}
`)
	if len(res.Diags.ByCode("ACCV010")) != 0 {
		t.Errorf("copyout consumes the write; nothing is dead: %v", res.Diags)
	}
}

func TestLaterKernelKeepsWriteLive(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n], c[n];

void main() {
    int i;
    #pragma acc data copyin(a) create(b) copyout(c)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
        #pragma acc localaccess(b) stride(1)
        #pragma acc localaccess(c) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c[i] = b[i] + 1.0;
        }
    }
}
`)
	if len(res.Diags.ByCode("ACCV010")) != 0 {
		t.Errorf("the second kernel reads b; nothing is dead: %v", res.Diags)
	}
}

func TestOverwrittenDeviceWriteIsDead(t *testing.T) {
	// The first kernel's write to b is fully overwritten by the second
	// before anything consumes it.
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 1.0;
        }
    }
}
`)
	ds := res.Diags.ByCode("ACCV010")
	if len(ds) != 1 {
		t.Fatalf("want exactly one dead-write report (the first kernel), got %d: %v", len(ds), res.Diags)
	}
	if ds[0].Line != 12 {
		t.Errorf("line = %d, want 12 (the overwritten write)", ds[0].Line)
	}
}

func TestRedundantUpdateHost(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 1.0;
        }
        #pragma acc update host(a)
    }
}
`)
	d := one(t, res, "ACCV011")
	if d.Symbol != "a" {
		t.Errorf("symbol = %q, want a (the clean array)", d.Symbol)
	}
}

func TestRedundantUpdateDevice(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 1.0;
        }
        #pragma acc update device(a)
    }
}
`)
	d := one(t, res, "ACCV011")
	if !strings.Contains(d.Message, "update device") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestJustifiedUpdatePairIsClean(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 1.0;
        }
        #pragma acc update host(b)
        for (i = 0; i < n; i++) {
            a[i] = b[i] * 0.5;
        }
        #pragma acc update device(a)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 2.0;
        }
    }
}
`)
	if len(res.Diags.ByCode("ACCV011")) != 0 {
		t.Errorf("both updates move freshly written data: %v", res.Diags)
	}
}

func TestCleanCopyBackIsFlagged(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] + 1.0;
        }
    }
}
`)
	d := one(t, res, "ACCV011")
	if d.Symbol != "a" {
		t.Errorf("symbol = %q, want a (copied back but never written)", d.Symbol)
	}
	if d.FixIt != "copyin(a)" {
		t.Errorf("fixit = %q", d.FixIt)
	}
}

func TestDistributabilityAdvisor(t *testing.T) {
	res := vet(t, `int n;
float a[n], b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i] = i * 0.5;
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
    }
}
`)
	ds := res.Diags.ByCode("ACCV012")
	if len(ds) != 2 {
		t.Fatalf("want advisories for a and b, got %v", res.Diags)
	}
	if ds[0].FixIt != "#pragma acc localaccess(a) stride(1)" {
		t.Errorf("fixit = %q", ds[0].FixIt)
	}
	// The program-wide advisory subsumes the per-loop ACCV004 hint on a.
	if len(res.Diags.ByCode("ACCV004")) != 0 {
		t.Errorf("ACCV004 should be folded into ACCV012: %v", res.Diags)
	}
	if !res.Distributable["a"] || !res.Distributable["b"] {
		t.Errorf("Distributable = %v", res.Distributable)
	}
}

func TestAdvisorRespectsHalo(t *testing.T) {
	res := vet(t, `int n;
float a[n + 2], b[n + 2];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        for (i = 1; i < n + 1; i++) {
            a[i] = i * 0.5;
        }
        #pragma acc parallel loop
        for (i = 1; i < n + 1; i++) {
            b[i] = a[i - 1] + a[i + 1];
        }
    }
}
`)
	found := false
	for _, d := range res.Diags.ByCode("ACCV012") {
		if d.Symbol == "a" {
			found = true
			if d.FixIt != "#pragma acc localaccess(a) stride(1, 1)" {
				t.Errorf("fixit = %q, want the symmetric (1, 1) halo", d.FixIt)
			}
		}
	}
	if !found {
		t.Fatalf("no advisory for a: %v", res.Diags)
	}
}

func TestHaloExchangeDedupeAcrossReaders(t *testing.T) {
	// One distributed writer, two halo readers of the same array: the
	// exchange happens once per writer launch, so exactly one ACCV007
	// must be reported, anchored at the widest reader.
	res := vet(t, `int n;
float a[n + 2], b[n + 2], c[n + 2];

void main() {
    int i;
    #pragma acc data copy(a, b, c)
    {
        #pragma acc localaccess(a) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n + 1; i++) {
            a[i] = i * 1.0;
        }
        #pragma acc localaccess(a) stride(1, 1, 0)
        #pragma acc localaccess(b) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n + 1; i++) {
            b[i] = a[i - 1];
        }
        #pragma acc localaccess(a) stride(1, 1)
        #pragma acc localaccess(c) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n + 1; i++) {
            c[i] = a[i - 1] + a[i + 1];
        }
    }
}
`)
	d := one(t, res, "ACCV007")
	if !strings.Contains(d.Message, "halo (1, 1)") {
		t.Errorf("the widest reader's halo should win: %q", d.Message)
	}
	if !strings.Contains(d.Message, "reuse the same resident windows") {
		t.Errorf("the folded reader should be mentioned: %q", d.Message)
	}
}

func TestDiagnosticOrderIsDeterministic(t *testing.T) {
	// Loops spread over two regions plus dataflow findings: repeated
	// runs must render byte-identically (no map-order leakage).
	src := `int n;
float a[n], b[n], c[n], d[n];
int idx[n];

void main() {
    int i;
    #pragma acc data copyin(a, idx) copy(b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[idx[i]] = a[i];
        }
    }
    #pragma acc data copyin(b) copy(c, d)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c[i] = b[i] + 1.0;
        }
        #pragma acc update host(d)
    }
}
`
	var first string
	for run := 0; run < 20; run++ {
		res := vet(t, src)
		got := res.Diags.Format("prog.c")
		if run == 0 {
			first = got
			if first == "" {
				t.Fatal("expected diagnostics from this program")
			}
			continue
		}
		if got != first {
			t.Fatalf("run %d differs:\n--- got ---\n%s--- first ---\n%s", run, got, first)
		}
	}
}
