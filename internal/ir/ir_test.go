package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
)

// compileModule builds a Module for a directive-free program, which is
// enough to exercise the compiler and environment machinery without the
// translator.
func compileModule(t *testing.T, src string) *Module {
	t.Helper()
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	main, err := CompileStmt(prog.Main.Body, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := &Module{Prog: prog, Main: main, ArraySizes: make([]ExprI, prog.NumArrays)}
	for _, d := range prog.ArrayDecls() {
		sz, err := CompileExprI(d.Size)
		if err != nil {
			t.Fatalf("size: %v", err)
		}
		m.ArraySizes[d.Slot] = sz
	}
	return m
}

func run(t *testing.T, src string, b *Bindings) *Instance {
	t.Helper()
	m := compileModule(t, src)
	inst, err := m.Bind(b)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := inst.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return inst
}

func TestArithmeticSemantics(t *testing.T) {
	inst := run(t, `
int i, j;
float f, g;
double d;
void main() {
    i = 7 / 2;            // C int division
    j = -7 % 3;           // Go/C99 truncated remainder
    f = 7.0 / 2.0;
    g = (float)1.0e-45;   // float32 rounding at float vars
    d = 1.0e-45;
    i = i + (1 << 4);
    j = j + (i > 10 ? 100 : 200);
}
`, nil)
	checkScalar(t, inst, "i", 3+16)
	checkScalar(t, inst, "j", -1+100)
	checkScalar(t, inst, "f", 3.5)
	// Float vars round through float32: 1e-45 snaps to the nearest
	// float32 denormal, which differs from the double value.
	checkScalar(t, inst, "g", float64(float32(1.0e-45)))
	if v, _ := inst.ScalarF("d"); v != 1.0e-45 {
		t.Error("double must keep full precision")
	}
}

func checkScalar(t *testing.T, inst *Instance, name string, want float64) {
	t.Helper()
	got, err := inst.ScalarF(name)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%s = %g, want %g", name, got, want)
	}
}

func TestLoopsAndArrays(t *testing.T) {
	inst := run(t, `
int n;
float x[n], y[n];
int hist[4];
void main() {
    int i;
    float sum;
    for (i = 0; i < n; i++) { x[i] = (float)i; }
    for (i = 0; i < n; i++) { y[i] = 2.0 * x[i] + 1.0; }
    sum = 0.0;
    for (i = 0; i < n; i++) { sum += y[i]; }
    y[0] = sum;
    for (i = 0; i < n; i++) { hist[i % 4] += 1; }
}
`, NewBindings().SetScalar("n", 8))
	y, err := inst.Array("y")
	if err != nil {
		t.Fatal(err)
	}
	// sum of 2i+1 for i in 0..7 = 2*28+8 = 64.
	if y.F32[0] != 64 {
		t.Errorf("y[0] = %g, want 64", y.F32[0])
	}
	if y.F32[7] != 15 {
		t.Errorf("y[7] = %g, want 15", y.F32[7])
	}
	hist, _ := inst.Array("hist")
	for k := 0; k < 4; k++ {
		if hist.I32[k] != 2 {
			t.Errorf("hist[%d] = %d, want 2", k, hist.I32[k])
		}
	}
}

func TestWhileAndIf(t *testing.T) {
	inst := run(t, `
int n, steps;
void main() {
    int v;
    v = n;
    steps = 0;
    while (v != 1) {
        if (v % 2 == 0) { v /= 2; } else { v = 3 * v + 1; }
        steps++;
    }
}
`, NewBindings().SetScalar("n", 6))
	checkScalar(t, inst, "steps", 8) // Collatz(6) = 8 steps
}

func TestBuiltins(t *testing.T) {
	inst := run(t, `
float a, b, c, d;
int m;
void main() {
    a = sqrt(16.0);
    b = pow(2.0, 10.0);
    c = max(1.5, min(3.0, 2.5));
    d = fabs(0.0 - 7.25);
    m = max(3, 5) + min(3, 5) + abs(0 - 2);
}
`, nil)
	checkScalar(t, inst, "a", 4)
	checkScalar(t, inst, "b", 1024)
	checkScalar(t, inst, "c", 2.5)
	checkScalar(t, inst, "d", 7.25)
	checkScalar(t, inst, "m", 10)
}

func TestCountersAccumulate(t *testing.T) {
	inst := run(t, `
int n;
float x[n];
void main() {
    int i;
    for (i = 0; i < n; i++) { x[i] = x[i] * 2.0 + 1.0; }
}
`, NewBindings().SetScalar("n", 100))
	e := inst.Env
	if e.BytesRead != 400 || e.BytesWritten != 400 {
		t.Errorf("bytes = %d/%d, want 400/400", e.BytesRead, e.BytesWritten)
	}
	if e.Flops < 200 {
		t.Errorf("flops = %d, want >= 200", e.Flops)
	}
}

func TestBindErrors(t *testing.T) {
	m := compileModule(t, `
int n;
float x[n];
void main() { n = 0; }
`)
	if _, err := m.Bind(NewBindings().SetScalar("nope", 1)); err == nil {
		t.Error("unknown scalar should fail")
	}
	if _, err := m.Bind(NewBindings().SetScalar("x", 1)); err == nil {
		t.Error("binding array as scalar should fail")
	}
	if _, err := m.Bind(NewBindings().SetArray("nope", NewHostArray(&cc.VarDecl{Type: cc.TFloat}, 1))); err == nil {
		t.Error("unknown array should fail")
	}
	if _, err := m.Bind(NewBindings().SetScalar("n", 4).SetArray("x", NewHostArray(&cc.VarDecl{Type: cc.TFloat}, 3))); err == nil {
		t.Error("size mismatch should fail")
	}
	// A slice of another element type than the declaration's.
	for _, a := range []*HostArray{{I32: make([]int32, 4)}, {F64: make([]float64, 4)}} {
		_, err := m.Bind(NewBindings().SetScalar("n", 4).SetArray("x", a))
		if _, ok := err.(*BindError); !ok {
			t.Errorf("float array bound with %d int and %d double elements: %v, want a BindError", len(a.I32), len(a.F64), err)
		}
	}
	// An empty array with no slice takes the declaration's view.
	if inst, err := m.Bind(NewBindings().SetArray("x", &HostArray{})); err != nil || inst.Env.Views[inst.Arrays[0].Decl.Slot].F == nil {
		t.Errorf("empty float array without a slice: %v, want a float view", err)
	}
	if _, err := m.Bind(NewBindings().SetScalar("n", -1)); err == nil {
		t.Error("negative size should fail")
	}
	inst, err := m.Bind(NewBindings().SetScalar("n", 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Array("zz"); err == nil {
		t.Error("unknown array lookup should fail")
	}
	if _, err := inst.ScalarF("x"); err == nil {
		t.Error("ScalarF on array should fail")
	}
}

func TestEnvClone(t *testing.T) {
	e := &Env{Ints: []int64{1, 2}, Floats: []float64{3}, Views: make([]ArrayView, 1)}
	c := e.Clone()
	c.Ints[0] = 99
	c.Floats[0] = 99
	if e.Ints[0] != 1 || e.Floats[0] != 3 {
		t.Error("clone must not alias scalar tables")
	}
	if &c.Views[0] != &e.Views[0] {
		t.Error("clone shares the view table")
	}
	v2 := e.CloneWithViews(make([]ArrayView, 2))
	if len(v2.Views) != 2 {
		t.Error("CloneWithViews did not swap views")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestHostViewsTypesAndReduce(t *testing.T) {
	for _, typ := range []cc.ElemType{cc.TFloat, cc.TDouble, cc.TInt} {
		d := &cc.VarDecl{Name: "a", Type: typ, IsArray: true}
		a := NewHostArray(d, 10)
		if a.Len() != 10 || a.Bytes() != 10*typ.Size() {
			t.Errorf("%v: len/bytes wrong", typ)
		}
		v, e := a.View(), &Env{}
		if typ == cc.TInt {
			if v.F != nil {
				t.Errorf("%v: the view has a float half", typ)
			}
			v.I.Store(e, 4, 7)
			if v.I.Load(e, 4) != 7 {
				t.Errorf("%v: int roundtrip failed", typ)
			}
			v.I.Reduce(e, 4, 2, acc.RedMul)
			if v.I.Load(e, 4) != 14 {
				t.Errorf("%v: RedMul failed: %d", typ, v.I.Load(e, 4))
			}
			v.I.Reduce(e, 4, 1, acc.RedAdd)
			if got := v.I.Load(e, 4); got != 15 {
				t.Errorf("%v: reduce result = %d, want 15", typ, got)
			}
		} else {
			if v.I != nil {
				t.Errorf("%v: the view has an int half", typ)
			}
			v.F.Store(e, 3, 2.5)
			v.F.Reduce(e, 3, 1.5, acc.RedAdd)
			if got := v.F.Load(e, 3); got != 4.0 {
				t.Errorf("%v: reduce result = %g, want 4", typ, got)
			}
			v.F.Reduce(e, 3, 2, acc.RedMul)
			if got := v.F.Load(e, 3); got != 8.0 {
				t.Errorf("%v: RedMul result = %g, want 8", typ, got)
			}
		}
		if e.ReduceOps != 2 {
			t.Errorf("%v: ReduceOps = %d", typ, e.ReduceOps)
		}
		if (v.I == nil || v.I.Len() != 10) && (v.F == nil || v.F.Len() != 10) {
			t.Errorf("%v: view len wrong", typ)
		}
	}
}

func TestLocalFootprintStride(t *testing.T) {
	f := &LocalFootprint{
		HasStride: true,
		Stride:    func(*Env) int64 { return 4 },
		Left:      func(*Env) int64 { return 1 },
		Right:     func(*Env) int64 { return 2 },
	}
	e := &Env{Ints: make([]int64, 1)}
	lo, hi := f.Range(e, 0, 10, 20, 1000)
	if lo != 39 || hi != 81 {
		t.Errorf("range = [%d,%d], want [39,81]", lo, hi)
	}
	// Clamping.
	lo, hi = f.Range(e, 0, 0, 5, 10)
	if lo != 0 || hi != 9 {
		t.Errorf("clamped = [%d,%d], want [0,9]", lo, hi)
	}
	// Empty iteration range.
	if lo, hi = f.Range(e, 0, 5, 5, 10); hi >= lo {
		t.Errorf("empty range = [%d,%d]", lo, hi)
	}
}

func TestLocalFootprintBounds(t *testing.T) {
	// Bounds form reading off[i]..off[i+1]-1 with off = {0, 3, 7, 12}.
	off := []int64{0, 3, 7, 12}
	f := &LocalFootprint{
		Lower: func(e *Env) int64 { return off[e.Ints[0]] },
		Upper: func(e *Env) int64 { return off[e.Ints[0]+1] - 1 },
	}
	e := &Env{Ints: []int64{42}} // loop slot holds garbage; must be restored
	lo, hi := f.Range(e, 0, 1, 3, 100)
	if lo != 3 || hi != 11 {
		t.Errorf("range = [%d,%d], want [3,11]", lo, hi)
	}
	if e.Ints[0] != 42 {
		t.Error("Range must restore the loop slot")
	}
}

// TestBoundsFootprintScan holds the direct scan of `bounds(off[i],
// off[i+1]-1)` against the closure loop it replaces, on random non-
// monotone arrays with empty rows, values outside the array, a
// one-iteration range and the clamps; a shape the scan does not know, and
// an index outside the array, must leave the closure in charge.
func TestBoundsFootprintScan(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n, i, j, a, b, c, d;
int off[n + 1];
void main() { a = off[i]; b = off[i + 1] - 1; c = off[j] + 2; d = off[i / 2]; }
`)
	if err != nil {
		t.Fatal(err)
	}
	rhs := func(k int) cc.Expr { return prog.Main.Body.Stmts[k].(*cc.AssignStmt).RHS }
	const n = 40
	inst, err := (&Module{Prog: prog, ArraySizes: []ExprI{func(*Env) int64 { return n + 1 }}}).Bind(NewBindings())
	if err != nil {
		t.Fatal(err)
	}
	host, off, iSlot := inst.Env, inst.Arrays[0].I32, prog.Scope["i"].Slot
	for _, tc := range []struct {
		lower, upper int
		scanned      bool
	}{{0, 1, true}, {1, 0, true}, {0, 2, false}, {3, 1, false}} {
		fast, err := BoundsFootprint(rhs(tc.lower), rhs(tc.upper))
		if err != nil {
			t.Fatal(err)
		}
		if got := fast.lower != nil && fast.upper != nil && fast.lower.v == iSlot && fast.upper.v == iSlot; got != tc.scanned {
			t.Fatalf("bounds(%d, %d): scan shape recognized %v, want %v", tc.lower, tc.upper, got, tc.scanned)
		}
		slow := &LocalFootprint{Lower: fast.Lower, Upper: fast.Upper}
		rng := rand.New(rand.NewSource(int64(7 + tc.lower)))
		for round := 0; round < 300; round++ {
			for k := range off {
				off[k] = int32(rng.Intn(3*n) - n) // non-monotone, some outside [0, 2n)
			}
			itLo := int64(rng.Intn(n / 2))
			itHi := itLo + 1 + int64(rng.Intn(n/2-1)) // reads up to off[itHi]
			if round%5 == 0 {
				itHi = itLo + 1
			}
			host.Ints[iSlot] = 42
			wantLo, wantHi := slow.Range(host, iSlot, itLo, itHi, 2*n)
			gotLo, gotHi := fast.Range(host, iSlot, itLo, itHi, 2*n)
			if gotLo != wantLo || gotHi != wantHi || host.Ints[iSlot] != 42 {
				t.Fatalf("bounds(%d, %d) over [%d, %d): scan [%d, %d], closure loop [%d, %d], loop slot %d",
					tc.lower, tc.upper, itLo, itHi, gotLo, gotHi, wantLo, wantHi, host.Ints[iSlot])
			}
		}
	}
	// off[i+1] at i = n is outside the array: the scan declines, the
	// closure panics like any out-of-range host load.
	fp, _ := BoundsFootprint(rhs(0), rhs(1))
	mustPanic(t, func() { fp.Range(host, iSlot, n-1, n+1, 2*n) })
}

func TestCompileRejectsBareDirectives(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n;
float x[n];
void main() {
    #pragma acc data copy(x)
    { x[0] = 1.0; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileStmt(prog.Main.Body, nil); err == nil || !strings.Contains(err.Error(), "data region not allowed") {
		t.Errorf("data region without handler should fail: %v", err)
	}
}

func TestHandlersInvoked(t *testing.T) {
	prog, err := cc.ParseProgram(`
int n;
float x[n];
void main() {
    int i;
    #pragma acc data copy(x)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { x[i] = 1.0; }
        #pragma acc update host(x)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	h := &StmtHandlers{
		OnParallelFor: func(st *cc.ForStmt) (Stmt, error) {
			return func(*Env) error { events = append(events, "launch"); return nil }, nil
		},
		OnData: func(b *cc.Block, body Stmt) (Stmt, error) {
			return func(e *Env) error {
				events = append(events, "enter")
				if err := body(e); err != nil {
					return err
				}
				events = append(events, "exit")
				return nil
			}, nil
		},
		OnUpdate: func(u *cc.UpdateStmt) (Stmt, error) {
			return func(*Env) error { events = append(events, "update"); return nil }, nil
		},
	}
	main, err := CompileStmt(prog.Main.Body, h)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(prog)
	if err := main(env); err != nil {
		t.Fatal(err)
	}
	want := "enter launch update exit"
	if got := strings.Join(events, " "); got != want {
		t.Errorf("events = %q, want %q", got, want)
	}
}

// Property: compiled integer expressions match a reference evaluator
// for random (a, b) over a grammar of mixed operations.
func TestExprEquivalenceProperty(t *testing.T) {
	m := compileModule(t, `
int a, b, r;
void main() {
    r = (a + b) * 3 - (a / (b + 7)) + (a % (b + 7)) + max(a, b) + (a < b ? 1 : 0);
}
`)
	f := func(a8, b8 int8) bool {
		a, b := int64(a8), int64(b8)
		if b == -7 {
			return true
		}
		inst, err := m.Bind(NewBindings().SetScalar("a", float64(a)).SetScalar("b", float64(b)))
		if err != nil {
			return false
		}
		if err := inst.Run(nil); err != nil {
			return false
		}
		want := (a+b)*3 - a/(b+7) + a%(b+7) + max(a, b)
		if a < b {
			want++
		}
		got, _ := inst.ScalarF("r")
		return got == float64(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := compileModule(t, `
int n;
float x[n];
void main() { x[n] = 1.0; }
`)
	inst, err := m.Bind(NewBindings().SetScalar("n", 4))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { _ = inst.Run(nil) })
}
