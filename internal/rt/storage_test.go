package rt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strings"
	"testing"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// haloNaNSrc is the distributed ping-pong stencil with two elements at
// the middle partition boundary that no kernel writes: whatever a holds
// there stays in its owner's core, and the halo push sends it to the
// neighbour.
const haloNaNSrc = `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc localaccess(a) stride(1, 1, 1)
    #pragma acc localaccess(b) stride(1)
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
        if (i < n / 2 - 1 || i > n / 2) {
            a[i] = b[i];
        }
    }
}
`

// TestHaloMovesBits runs haloNaNSrc on a 2x2 cluster with signalling
// NaNs of both signs in a at the middle partition boundary, the last
// element of GPU1's core and the first of GPU2's. Every halo element of
// a must hold its owner's bits, and the gathered arrays must equal the
// one-GPU run's bit for bit: a halo pushed through float64 holds a
// quieted NaN, and the gather, which copies the partitions in GPU order,
// lets GPU2's halo overwrite GPU1's element.
func TestHaloMovesBits(t *testing.T) {
	const n, steps = 4096, 3
	snans := [2]uint32{0x7fa00001, 0xffb00002}
	run := func(spec sim.MachineSpec) (*Runtime, *ir.Instance) {
		mod, inst := buildSpecInstance(t, haloNaNSrc, map[string]float64{"n": n})
		a, err := inst.Array("a")
		if err != nil {
			t.Fatal(err)
		}
		a.F32[n/2-1], a.F32[n/2] = math.Float32frombits(snans[0]), math.Float32frombits(snans[1])
		mach, err := sim.NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		r.inst = inst
		for _, a := range inst.Arrays {
			r.state(a.Decl).present = true // as inside a data region
		}
		for s := 0; s < steps; s++ {
			for _, k := range mod.Kernels {
				if err := r.Launch(k, inst.Env); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r, inst
	}
	r, inst := run(sim.Cluster(2, 2))
	a, err := inst.Array("a")
	if err != nil {
		t.Fatal(err)
	}
	st := r.state(a.Decl)
	pushed := map[int64]bool{}
	for _, c := range st.copies {
		for i := c.lo; c.valid && i <= c.hi; i++ {
			if i >= c.coreLo && i <= c.coreHi {
				continue
			}
			for _, o := range st.copies {
				if o.valid && i >= o.coreLo && i <= o.coreHi {
					got, want := math.Float32bits(c.data.F32[c.phys(i)]), math.Float32bits(o.data.F32[o.phys(i)])
					if got != want {
						t.Errorf("a[%d] in GPU%d's halo holds %#08x, its owner GPU%d %#08x", i, c.g, got, o.g, want)
					}
					pushed[i] = true
				}
			}
		}
	}
	if !pushed[n/2-1] || !pushed[n/2] {
		t.Fatalf("no halo holds elements %d and %d: the partitions are not the ones the test places its NaNs at", n/2-1, n/2)
	}

	one, oneInst := run(sim.Desktop().WithGPUs(1))
	for ai, x := range inst.Arrays {
		ref := oneInst.Arrays[ai]
		for _, rr := range []*Runtime{r, one} {
			if _, err := rr.gatherToHost(rr.state(rr.inst.Arrays[ai].Decl)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range x.F32 {
			if got, want := math.Float32bits(x.F32[i]), math.Float32bits(ref.F32[i]); got != want {
				t.Errorf("%s[%d] gathers as %#08x on 2x2, %#08x on one GPU", x.Decl.Name, i, got, want)
			}
		}
	}
	if got := math.Float32bits(a.F32[n/2-1]); got != snans[0] {
		t.Errorf("a[%d] gathers as %#08x, want the signalling NaN %#08x it was bound with", n/2-1, got, snans[0])
	}
}

// TestElementSwitchLivesInIR keeps the element-type switches in
// internal/ir: no non-test file of internal/rt or internal/audit compares
// an F32/F64/I32 selector (or an f32/f64/i32 one) with nil. Every element
// they hold is in an ir.HostArray, which ir.LoadAs, ir.StoreAs,
// ir.CopyRange and ir.Transpose read and write.
func TestElementSwitchLivesInIR(t *testing.T) {
	fields := map[string]bool{"F32": true, "F64": true, "I32": true, "f32": true, "f64": true, "i32": true}
	files := 0
	for _, dir := range []string{".", "../audit"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files++
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || be.Op != token.EQL && be.Op != token.NEQ {
						return true
					}
					for _, side := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
						sel, isSel := side[0].(*ast.SelectorExpr)
						id, isIdent := side[1].(*ast.Ident)
						if isSel && isIdent && id.Name == "nil" && fields[sel.Sel.Name] {
							t.Errorf("%s: %s compared with nil: an element-type switch belongs in internal/ir", fset.Position(be.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d files of internal/rt and internal/audit", files)
	}
}
