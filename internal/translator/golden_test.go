package translator

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGeneratedSourceGolden pins the translator's CUDA-like output for
// a program exercising every emission feature: data regions, both
// localaccess forms, dirty-bit and miss-check annotations, reduction
// macros and update directives. Run with -update to regenerate after
// intentional emitter changes.
func TestGeneratedSourceGolden(t *testing.T) {
	src := `
int n, k, w;
float mat[n * w], out[n];
int key[n];
int hist[k];
float err;

void main() {
    int i;
    err = 0.0;
    #pragma acc data copyin(mat, key) copy(out, hist)
    {
        #pragma acc localaccess(mat) stride(w)
        #pragma acc localaccess(out) stride(1)
        #pragma acc parallel loop gang vector reduction(+:err)
        for (i = 0; i < n; i++) {
            int j, b;
            float s;
            s = 0.0;
            for (j = 0; j < w; j++) {
                s += mat[i * w + j];
            }
            out[i] = s;
            err += s * s;
            b = key[i] % k;
            #pragma acc reductiontoarray(+: hist[b])
            hist[b] += 1;
        }
        #pragma acc update host(out)
    }
}
`
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	got := mod.GeneratedSource

	golden := filepath.Join("testdata", "golden_emit.cu")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("generated source changed; run `go test ./internal/translator -run Golden -update` if intentional.\n--- got ---\n%s", got)
	}
}

// unicodeSource names its arrays with letters outside ASCII ("ªµ" is
// two runes in four bytes), so a rewrite that pads the array column by
// bytes rather than runes shows in the corpus golden. It also reaches
// the expression forms the apps leave out: casts, calls, the
// conditional, unary operators, exponent literals, while, else,
// break and continue.
const unicodeSource = `
int n, m;
float ªµ[n], êõ[n], a_name_longer_than_twelve[n];
int idx[n];
float top;
double d;
void main() {
    int i, j;
    top = 0.0;
    d = 1.5e-7;
    #pragma acc data copyin(ªµ, idx) copy(êõ, a_name_longer_than_twelve)
    {
        #pragma acc parallel loop reduction(max:top)
        for (i = 0; i < n; i++) {
            float t;
            t = (float)(ªµ[idx[i]]) * 1e-5 + 100000000.0 - 2.5e20;
            if (t > 0.5 && !(i % 2 == 0)) {
                êõ[i] = t > 1.0 ? sqrt(fabs(t)) : -t;
            } else {
                êõ[i] -= (double)(~i);
            }
            a_name_longer_than_twelve[i] = 3.0f;
            top = max(top, t);
        }
        j = 0;
        while (j < m) {
            j++;
            if (j > 3) {
                break;
            } else {
                continue;
            }
        }
        #pragma acc update host(êõ)
    }
}
`

// emitCorpus is the six apps, every shipped example and unicodeSource,
// parsed.
func emitCorpus(t *testing.T) (names []string, progs []*cc.Program) {
	t.Helper()
	add := func(name, src string) {
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, progs = append(names, name), append(progs, prog)
	}
	for _, app := range append(apps.All(), apps.Extended()...) {
		add("app "+app.Name, app.Source)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("examples/testdata/"+filepath.Base(f), string(src))
	}
	add("unicode", unicodeSource)
	return names, progs
}

// TestEmitCorpusGolden pins the emitted text of the six apps, every
// shipped example and unicodeSource, one after the other. Run with
// -update to regenerate after intentional emitter changes.
func TestEmitCorpusGolden(t *testing.T) {
	names, progs := emitCorpus(t)
	var b strings.Builder
	for i, prog := range progs {
		mod, err := Translate(prog)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		b.WriteString("//// " + names[i] + "\n")
		b.WriteString(mod.GeneratedSource)
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden_emit_corpus.cu")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("emitted corpus changed; run `go test ./internal/translator -run Golden -update` if intentional")
	}
}

// TestEmitAllocatesOnce holds Emit to one allocation, its builder's: the
// text is written straight into a builder sized from the source, with no
// string made for a piece of it. A pipeline of eight one-line kernels
// stands for the sources whose text is four times their length.
func TestEmitAllocatesOnce(t *testing.T) {
	names, progs := emitCorpus(t)
	var b strings.Builder
	b.WriteString("int n;\nfloat a0[n], a1[n], a2[n], a3[n], a4[n], a5[n], a6[n], a7[n], a8[n];\n")
	b.WriteString("void main() {\n    int i;\n    #pragma acc data copyin(a0) copyout(a8)\n    {\n")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i-1)
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i)
		b.WriteString("        #pragma acc parallel loop\n        for (i = 0; i < n; i++) {\n")
		fmt.Fprintf(&b, "            a%d[i] = a%d[i] * 1.25 + 0.50;\n        }\n", i, i-1)
	}
	b.WriteString("    }\n}\n")
	prog, err := cc.ParseProgram(b.String())
	if err != nil {
		t.Fatal(err)
	}
	names, progs = append(names, "pipeline8"), append(progs, prog)
	for i, prog := range progs {
		pa, err := AnalyzeProgram(prog)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		m, err := Lower(pa)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if n := testing.AllocsPerRun(20, func() { Emit(m, pa) }); n != 1 {
			t.Errorf("%s: Emit allocates %v times, want once", names[i], n)
		}
	}
}
