package translator

import (
	"strings"
	"testing"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

func translate(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Translate(prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return m
}

const mdLikeSrc = `
int natoms, maxn;
float pos[4 * natoms];
float force[4 * natoms];
int nbr[maxn * natoms];

void main() {
    int i;
    #pragma acc data copyin(pos, nbr) copyout(force)
    {
        #pragma acc localaccess(nbr) stride(maxn)
        #pragma acc localaccess(force) stride(4)
        #pragma acc parallel loop
        for (i = 0; i < natoms; i++) {
            int j, n;
            float fx;
            fx = 0.0;
            for (j = 0; j < maxn; j++) {
                n = nbr[maxn * i + j];
                fx += pos[4 * n] - pos[4 * i];
            }
            force[4 * i] = fx;
            force[4 * i + 1] = 0.0;
        }
    }
}
`

func TestTranslateMDLike(t *testing.T) {
	m := translate(t, mdLikeSrc)
	if len(m.Kernels) != 1 || len(m.Regions) != 1 {
		t.Fatalf("kernels=%d regions=%d", len(m.Kernels), len(m.Regions))
	}
	k := m.Kernels[0]
	if len(k.Arrays) != 3 {
		t.Fatalf("arrays = %d", len(k.Arrays))
	}
	uses := map[string]*ir.ArrayUse{}
	for _, u := range k.Arrays {
		uses[u.Decl.Name] = u
	}

	pos := uses["pos"]
	if pos.Local != nil || !pos.Read || pos.Written || !pos.IndirectRead {
		t.Errorf("pos use = %+v", pos)
	}
	nbr := uses["nbr"]
	if nbr.Local == nil || !nbr.Local.HasStride || nbr.Written {
		t.Errorf("nbr use = %+v", nbr)
	}
	if !nbr.Transform2D {
		t.Error("nbr should be eligible for the layout transform (read-only, strided localaccess)")
	}
	force := uses["force"]
	if force.Local == nil || !force.Written || force.Read {
		t.Errorf("force use = %+v", force)
	}
	if !force.WritesWithinLocal {
		t.Error("force writes 4*i and 4*i+1 with stride(4): miss checks must be elided")
	}
	if k.Efficiency >= 1.0 {
		t.Errorf("indirect pos reads must reduce efficiency, got %g", k.Efficiency)
	}
	if k.EfficiencyBaseline >= k.Efficiency {
		t.Errorf("baseline (no transform) must be cheaper-or-equal: %g vs %g", k.EfficiencyBaseline, k.Efficiency)
	}
}

func TestTranslateReductionAndScalars(t *testing.T) {
	m := translate(t, `
int n, k, nf;
float feat[n * nf], clusters[k * nf], newc[k * nf];
int member[n], count[k];

void main() {
    int i;
    float delta;
    delta = 0.0;
    #pragma acc localaccess(feat) stride(nf)
    #pragma acc localaccess(member) stride(1)
    #pragma acc parallel loop reduction(+:delta)
    for (i = 0; i < n; i++) {
        int f, best;
        best = 0;
        member[i] = best;
        delta += 1.0;
        for (f = 0; f < nf; f++) {
            #pragma acc reductiontoarray(+: newc[best * nf + f])
            newc[best * nf + f] += feat[i * nf + f];
        }
        #pragma acc reductiontoarray(+: count[best])
        count[best] += 1;
    }
}
`)
	k := m.Kernels[0]
	if !k.HasArrayReduction {
		t.Fatal("array reduction not detected")
	}
	if len(k.ScalarReds) != 1 || k.ScalarReds[0].Decl.Name != "delta" || k.ScalarReds[0].Op.String() != "+" {
		t.Fatalf("scalar reds = %+v", k.ScalarReds)
	}
	uses := map[string]*ir.ArrayUse{}
	for _, u := range k.Arrays {
		uses[u.Decl.Name] = u
	}
	if !uses["newc"].Reduced || uses["newc"].ReduceOp.String() != "+" {
		t.Errorf("newc use = %+v", uses["newc"])
	}
	if !uses["count"].Reduced {
		t.Errorf("count use = %+v", uses["count"])
	}
	if !uses["feat"].Transform2D {
		t.Error("feat (read-only, stride nf) should be transform eligible")
	}
	if uses["member"].Transform2D {
		t.Error("member is written; no transform")
	}
	if !uses["member"].WritesWithinLocal {
		t.Error("member[i] with stride(1) should elide miss checks")
	}
}

func TestTranslateBFSLike(t *testing.T) {
	m := translate(t, `
int nv, ne, level;
int off[nv + 1], edges[ne], cost[nv];
int changed;

void main() {
    int i;
    changed = 1;
    level = 0;
    while (changed) {
        changed = 0;
        #pragma acc localaccess(off) stride(1, 0, 1)
        #pragma acc localaccess(edges) bounds(off[i], off[i+1]-1)
        #pragma acc parallel loop reduction(|:changed)
        for (i = 0; i < nv; i++) {
            int e, n;
            if (cost[i] == level) {
                for (e = off[i]; e < off[i+1]; e++) {
                    n = edges[e];
                    if (cost[n] == 0 - 1) {
                        cost[n] = level + 1;
                        changed = 1;
                    }
                }
            }
        }
        level++;
    }
}
`)
	if len(m.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(m.Kernels))
	}
	k := m.Kernels[0]
	uses := map[string]*ir.ArrayUse{}
	for _, u := range k.Arrays {
		uses[u.Decl.Name] = u
	}
	if uses["off"].Local == nil || !uses["off"].Local.HasStride {
		t.Error("off should have a stride footprint")
	}
	if uses["edges"].Local == nil || uses["edges"].Local.HasStride {
		t.Error("edges should have a bounds footprint")
	}
	c := uses["cost"]
	if c.Local != nil || !c.Read || !c.Written || !c.IndirectRead {
		t.Errorf("cost use = %+v", c)
	}
	if c.WritesWithinLocal {
		t.Error("cost writes are irregular; miss elision must not apply")
	}
}

func TestGeneratedSource(t *testing.T) {
	m := translate(t, mdLikeSrc)
	src := m.GeneratedSource
	for _, want := range []string{
		"__global__ void main_L14",
		"blockIdx.x * blockDim.x + threadIdx.x",
		"distribution-based placement (localaccess)",
		"replica-based placement",
		"ACC_LOAD(nbr,",
		"ACC_STORE(force,",
		"miss check elided",
		"acc_load(",
		"acc_comm_sync()",
		"acc_data_enter()",
		"2-D layout transform",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q\n%s", want, src)
		}
	}
}

func TestGeneratedSourceDirtyBits(t *testing.T) {
	m := translate(t, `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { a[b[0] > 0.0 ? i : 0] = 1.0; }
}
`)
	if !strings.Contains(m.GeneratedSource, "dirty bits") {
		t.Errorf("replicated writes must show dirty-bit instrumentation:\n%s", m.GeneratedSource)
	}
}

func TestCanonicalLoopErrors(t *testing.T) {
	cases := []struct{ body, want string }{
		{"for (i = 0; i < n; i += 2) { a[i] = 1.0; }", "increment by 1"},
		{"for (i = 0; i > n; i++) { a[i] = 1.0; }", "condition must be"},
		{"for (i = 0; a[0] < 1.0; i++) { a[i] = 1.0; }", "condition must compare"},
		{"for (f = 0.0; f < 1.0; f += 1.0) { a[0] = f; }", "must be an int"},
		{"for (i = 0; i < (int)a[0]; i++) { a[i] = 1.0; }", "must not read arrays"},
	}
	for _, tc := range cases {
		src := "int n;\nfloat a[n];\nvoid main() {\nint i;\nfloat f;\n#pragma acc parallel loop\n" + tc.body + "\n}"
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Errorf("parse(%q): %v", tc.body, err)
			continue
		}
		if _, err := Translate(prog); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Translate(%q) error = %v, want %q", tc.body, err, tc.want)
		}
	}
}

func TestLocalAccessOnUnusedArray(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc localaccess(b) stride(1)
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { a[i] = 1.0; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(prog); err == nil || !strings.Contains(err.Error(), "never accesses") {
		t.Errorf("unused localaccess should fail: %v", err)
	}
}

func TestReducedAndWrittenConflict(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n;
float a[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: a[i])
        a[i] += 1.0;
        a[i] = 2.0;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(prog); err == nil || !strings.Contains(err.Error(), "both reduced and plainly written") {
		t.Errorf("conflicting uses should fail: %v", err)
	}
}

func TestLiteralAffine(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n, w;
float a[n], b[n];
void main() {
    int i;
    #pragma acc localaccess(a) stride(4, 0, 3)
    #pragma acc localaccess(b) stride(4, 0, 3)
    #pragma acc parallel loop
    for (i = 0; i < n / 4; i++) {
        a[4 * i] = 0.0;
        a[4 * i + 3] = 0.0;
        a[i * 2 + i * 2 + 6] = 0.0;
        b[4 * i] = 0.0;
        b[4 * i + 7] = 0.0;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The window is [4i, 4i+3+3] = [4i, 4i+6]: 4i, 4i+3 and 4i+6 (the right
	// edge) are inside, 4i+7 is one past it.
	if u := m.Kernels[0].Arrays[0]; !u.WritesWithinLocal {
		t.Errorf("all writes in range; elision expected: %+v", u)
	}
	if u := m.Kernels[0].Arrays[1]; u.WritesWithinLocal || u.WriteCoef != 4 || u.WriteOffLo != 0 || u.WriteOffHi != 7 {
		t.Errorf("a write one past the window keeps its miss check: %+v", u)
	}
}

func TestSymbolicStrideNotElided(t *testing.T) {
	m := translate(t, `
int n, w;
float a[n * w];
void main() {
    int i;
    #pragma acc localaccess(a) stride(w)
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { a[i * w] = 0.0; }
}
`)
	u := m.Kernels[0].Arrays[0]
	if u.WritesWithinLocal {
		t.Error("symbolic stride cannot be proven statically; no elision")
	}
	if u.Transform2D {
		t.Error("written arrays are not transform eligible")
	}
}

func TestEmitCoversAllConstructs(t *testing.T) {
	// A kernel using every statement/expression form the emitter
	// renders: while, ternary, casts, unary ops, break/continue,
	// builtins, nested ifs with else.
	m := translate(t, `
int n, w;
float a[n];
int b[n];
void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        while (w > 0) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                int j;
                float v;
                j = 0;
                while (j < 4) {
                    j++;
                    if (j == 2) { continue; }
                    if (j == 3) { break; }
                }
                v = (float)(b[i] % 3) * -1.5;
                if (v > 0.0) {
                    a[i] = v > 1.0 ? sqrt(v) : v;
                } else {
                    a[i] = fabs(v) + (double)w;
                }
                b[i] = !(b[i] == 0) + ~j;
            }
            w--;
            #pragma acc update host(a)
        }
    }
}
`)
	src := m.GeneratedSource
	for _, want := range []string{
		"while (", "continue;", "break;", "sqrt(", "fabs(",
		"? ", "(float)(", "(double)", "~(", "!(", "acc_update",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q\n%s", want, src)
		}
	}
}

func TestEmitCollapsedKernel(t *testing.T) {
	m := translate(t, `
int h, w;
float g[h * w];
void main() {
    int r, c;
    #pragma acc localaccess(g) stride(1)
    #pragma acc parallel loop collapse(2)
    for (r = 0; r < h; r++) {
        for (c = 0; c < w; c++) {
            g[r * w + c] = 0.0;
        }
    }
}
`)
	if !strings.Contains(m.GeneratedSource, "__flat_") {
		t.Errorf("collapsed kernel header missing flat variable:\n%s", m.GeneratedSource)
	}
}

func TestCollapseInsideDataRegionAndIf(t *testing.T) {
	// findLoop must locate parallel loops nested under host control
	// flow for emission.
	m := translate(t, `
int n, flag;
float a[n];
void main() {
    int i;
    if (flag > 0) {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = 1.0; }
    } else {
        while (flag < 0) {
            flag++;
        }
    }
}
`)
	if !strings.Contains(m.GeneratedSource, "__global__ void main_L") {
		t.Error("kernel not emitted for loop under host if")
	}
	if !strings.Contains(m.GeneratedSource, "ACC_STORE(a") {
		t.Errorf("kernel body missing:\n%s", m.GeneratedSource)
	}
}
