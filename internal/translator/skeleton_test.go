package translator

import (
	"os"
	"path/filepath"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
)

// adjacentAndCollapsedSrc has two parallel loops on consecutive statement
// lines and a collapse(2) nest: a lookup by line would have nothing
// between the first two to tell them apart by.
const adjacentAndCollapsedSrc = `int n;
float a[n * n], b[n * n];
void main() {
    int i, j;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) a[i] = 0.0;
        #pragma acc parallel loop
        for (i = 0; i < n; i++) b[i] = 0.0;
        #pragma acc update host(a)
        #pragma acc parallel loop collapse(2)
        for (i = 0; i < n; i++) {
            for (j = 0; j < n; j++) { b[i * n + j] = a[i * n + j]; }
        }
    }
}
`

// TestSkeletonOrder: the skeleton's kernels, regions, updates and host
// nodes come out in source order, its tree names every loop and region
// exactly once, and the lowered module's kernels are the skeleton's
// loops, one for one.
func TestSkeletonOrder(t *testing.T) {
	sources := map[string]string{"adjacent+collapsed": adjacentAndCollapsedSrc}
	files, err := filepath.Glob("../../examples/*/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sources: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources[f] = string(src)
	}
	for _, a := range append(apps.All(), apps.Extended()...) {
		sources[a.Name] = a.Source
	}
	for name, src := range sources {
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, err := AnalyzeProgram(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var (
			loops   []*LoopAccess
			regions []*RegionInfo
			updates []int
		)
		var walk func(kids []*Node, loopLine int)
		walk = func(kids []*Node, loopLine int) {
			last := 0
			for i, n := range kids {
				// A for's post statement closes its loop's node with the
				// header's line; everything else only moves forward.
				if post := i == len(kids)-1 && n.Kind == NodeHost && n.Line == loopLine; !post && n.Line < last {
					t.Errorf("%s: node at line %d follows one at line %d", name, n.Line, last)
				}
				last = n.Line
				switch n.Kind {
				case NodeKernel:
					loops = append(loops, n.Loop)
				case NodeRegion:
					regions = append(regions, n.Region)
					walk(n.Kids, 0)
				case NodeUpdate:
					updates = append(updates, n.Line)
				case NodeHostLoop:
					walk(n.Kids, n.Line)
				case NodeBranch:
					walk(n.Kids, 0)
					walk(n.Else, 0)
				}
			}
		}
		walk(pa.Body, 0)

		if len(loops) != len(pa.Loops) || len(regions) != len(pa.Regions) {
			t.Fatalf("%s: tree has %d kernels and %d regions, lists have %d and %d",
				name, len(loops), len(regions), len(pa.Loops), len(pa.Regions))
		}
		for i, l := range pa.Loops {
			if loops[i] != l || l.ID != i || pa.kernels[l.For] != l {
				t.Errorf("%s: loop %d (line %d) is not the tree's kernel %d", name, i, l.Line, i)
			}
			if i > 0 && l.Line <= pa.Loops[i-1].Line {
				t.Errorf("%s: loops out of source order at line %d", name, l.Line)
			}
		}
		for i, r := range pa.Regions {
			if regions[i] != r {
				t.Errorf("%s: region %d (line %d) is not the tree's region %d", name, i, r.Line, i)
			}
		}
		for i := 1; i < len(updates); i++ {
			if updates[i] <= updates[i-1] {
				t.Errorf("%s: updates out of source order at line %d", name, updates[i])
			}
		}

		m, err := Lower(pa)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Kernels) != len(pa.Loops) || len(m.Regions) != len(pa.Regions) || len(m.Updates) != len(updates) {
			t.Fatalf("%s: module has %d kernels, %d regions, %d updates; skeleton %d, %d, %d", name,
				len(m.Kernels), len(m.Regions), len(m.Updates), len(pa.Loops), len(pa.Regions), len(updates))
		}
		for i, k := range m.Kernels {
			if l := pa.Loops[i]; k.ID != i || k.Line != l.Line || k.LoopVar.Name != l.LoopVar.Name {
				t.Errorf("%s: kernel %d (%s) is not loop %d (line %d)", name, k.ID, k.Name, i, l.Line)
			}
		}
	}
}
