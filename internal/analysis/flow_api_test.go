package analysis_test

import (
	"testing"

	"accmulti/internal/analysis"
	"accmulti/internal/cc"
	"accmulti/internal/translator"
)

// The flow analyses' diagnostics are exercised exhaustively through
// analysis.Vet (dataflow_test.go); this file pins the contract the runtime
// cross-checks build on: VetAccess is usable on a bare ProgramAccess and
// reports the dependence graph with stable ordering.

const producerConsumerSrc = `int n;
float a[n];
float b[n];

void main() {
    int i;
    #pragma acc data copyin(a) copy(b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = a[i] * 2.0;
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b[i] = b[i] + 1.0;
        }
    }
}
`

func TestAnalyzeStandalone(t *testing.T) {
	prog, err := cc.ParseProgram(producerConsumerSrc)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := translator.AnalyzeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.VetAccess(pa)
	if res == nil {
		t.Fatal("VetAccess returned nil")
	}
	for _, d := range res.Diags {
		if d.Severity.String() == "error" {
			t.Fatalf("clean producer/consumer program got an error: %v", d)
		}
	}
	if len(pa.Loops) != 2 {
		t.Fatalf("expected 2 kernels, got %d", len(pa.Loops))
	}
	want := analysis.Dep{Array: "b", WriterLine: pa.Loops[0].Line, ReaderLine: pa.Loops[1].Line}
	found := false
	for _, d := range res.Deps {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing producer->consumer dep %+v in %+v", want, res.Deps)
	}
	// Deps come back sorted (array, writer line, reader line): the
	// order is part of the deterministic-output contract.
	for i := 1; i < len(res.Deps); i++ {
		p, q := res.Deps[i-1], res.Deps[i]
		if p.Array > q.Array ||
			(p.Array == q.Array && p.WriterLine > q.WriterLine) ||
			(p.Array == q.Array && p.WriterLine == q.WriterLine && p.ReaderLine > q.ReaderLine) {
			t.Fatalf("deps not sorted: %+v before %+v", p, q)
		}
	}
}
