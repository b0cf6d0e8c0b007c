package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"accmulti/internal/apps"
)

// pipelineSource is a k-kernel pipeline over k+1 arrays, each kernel
// reading the array the one before it wrote, under a data-dependent
// branch: a program whose array count grows with its kernel count while
// every kernel touches two arrays and has two arms.
func pipelineSource(k int) string {
	var b strings.Builder
	b.WriteString("int n;\nfloat a0[n]")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ", a%d[n]", i)
	}
	fmt.Fprintf(&b, ";\n\nvoid main() {\n    int i;\n    #pragma acc data copyin(a0) copyout(a%d) create(a1", k)
	for i := 2; i < k; i++ {
		fmt.Fprintf(&b, ", a%d", i)
	}
	b.WriteString(")\n    {\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i-1)
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i)
		b.WriteString("        #pragma acc parallel loop\n        for (i = 0; i < n; i++) {\n")
		fmt.Fprintf(&b, "            if (a%d[i] > 0.5) {\n                a%d[i] = a%d[i] * %d.5 + 0.25;\n", i-1, i, i-1, i%7)
		fmt.Fprintf(&b, "            } else {\n                a%d[i] = 0.0;\n            }\n        }\n", i)
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// compileBytes is the fewest bytes, over a few rounds, that compiling src
// the way accd does allocates: Compile, Vet, Stats and GeneratedSource.
func compileBytes(t *testing.T, src string) uint64 {
	t.Helper()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Vet(); err != nil {
			t.Fatal(err)
		}
		_ = prog.Stats()
		_ = prog.GeneratedSource()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCompileScalesWithKernels holds a compile's allocation to what its
// kernels need: per kernel, a 128-kernel pipeline may allocate at most
// 10 % more than a 32-kernel one, although it declares four times the
// arrays. A table sized by the program's arrays once per kernel makes
// the cost per kernel grow with the kernel count.
func TestCompileScalesWithKernels(t *testing.T) {
	per := func(k int) float64 { return float64(compileBytes(t, pipelineSource(k))) / float64(k) }
	b32, b128 := per(32), per(128)
	t.Logf("bytes per kernel: %.0f at 32 kernels, %.0f at 128 (ratio %.3f)", b32, b128, b128/b32)
	if b128 > 1.1*b32 {
		t.Errorf("a 128-kernel pipeline allocates %.0f bytes per kernel, more than 1.1 × the %.0f of a 32-kernel one", b128, b32)
	}
}

// TestStatsCountsDistinctArrays holds Stats to counting each array once
// per property, by name, over the apps and the example sources.
func TestStatsCountsDistinctArrays(t *testing.T) {
	srcs := map[string]string{"pipeline": pipelineSource(8)}
	for _, app := range append(apps.All(), apps.Extended()...) {
		srcs[app.Name] = app.Source
	}
	files, _ := filepath.Glob("../../examples/*/*.c")
	if len(files) == 0 {
		t.Fatal("no example sources")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(b)
	}
	for name, src := range srcs {
		prog, err := Compile(src)
		if err != nil {
			continue // a vet example the translator refuses
		}
		inLoops, local, reds := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, k := range prog.Module.Kernels {
			for _, u := range k.Arrays {
				inLoops[u.Decl.Name] = true
				if u.Local != nil {
					local[u.Decl.Name] = true
				}
				if u.Reduced {
					reds[u.Decl.Name] = true
				}
			}
		}
		want := Stats{ParallelLoops: len(prog.Module.Kernels), ArraysInLoops: len(inLoops), LocalAccessArrays: len(local), ReductionArrays: len(reds)}
		if got := prog.Stats(); got != want {
			t.Errorf("%s: Stats %+v, want %+v", name, got, want)
		}
	}
}
