package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// TestGeneratedSourceIndependentOfRuns pins that the CUDA-like text is a
// function of the source alone, so rendering it on first request (not in
// Compile, which leaves the Module's field empty) changes no byte: for
// every app and every example, the text of
// a program asked right after Compile equals the text of one asked after
// it ran on the desktop and on a 2x2 cluster under both schedules, and
// equals the field translator.Translate fills. Sixteen goroutines asking
// one fresh program at once all get that text.
func TestGeneratedSourceIndependentOfRuns(t *testing.T) {
	type program struct {
		name, src string
		bind      func() *ir.Bindings
	}
	var progs []program
	for _, app := range append(apps.All(), apps.Extended()...) {
		app := app
		progs = append(progs, program{app.Name, app.Source, func() *ir.Bindings {
			in, err := app.Generate(0.001, 1)
			if err != nil {
				t.Fatal(err)
			}
			return in.Bindings
		}})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scalars := goldenPrograms[filepath.Base(path)].scalars
		progs = append(progs, program{filepath.Base(path), string(raw), func() *ir.Bindings {
			b := ir.NewBindings()
			for k, v := range scalars {
				b.SetScalar(k, v)
			}
			return b
		}})
	}

	compile := func(t *testing.T, src string) *Program {
		t.Helper()
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			first := compile(t, pr.src)
			if first.Module.GeneratedSource != "" {
				t.Error("Compile rendered the text into the Module")
			}
			want := first.GeneratedSource()
			if want == "" {
				t.Fatal("empty generated source")
			}

			ran := compile(t, pr.src)
			for _, spec := range []sim.MachineSpec{sim.Desktop(), sim.Cluster(2, 2)} {
				for _, async := range []bool{true, false} {
					if _, err := ran.Run(pr.bind(), Config{Machine: spec, Options: rt.Options{Async: async}}); err != nil {
						t.Fatalf("%s, async=%v: %v", spec.Name, async, err)
					}
				}
			}
			if got := ran.GeneratedSource(); got != want {
				t.Errorf("text after the runs differs from the text right after Compile:\n%s\n----\n%s", got, want)
			}

			parsed, err := cc.ParseProgram(pr.src)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := translator.Translate(parsed)
			if err != nil {
				t.Fatal(err)
			}
			if mod.GeneratedSource != want {
				t.Errorf("translator.Translate's text differs from Program.GeneratedSource")
			}

			shared := compile(t, pr.src)
			got := make([]string, 16)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = shared.GeneratedSource()
				}(i)
			}
			wg.Wait()
			for i, s := range got {
				if s != want {
					t.Fatalf("goroutine %d got a different text", i)
				}
			}
		})
	}
}
