package apps

import (
	"testing"

	"accmulti/internal/core"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// runApp compiles, generates a small input, runs under cfg and
// verifies against the Go reference.
func runApp(t *testing.T, app *App, scale float64, cfg core.Config) *core.Result {
	t.Helper()
	prog, err := core.Compile(app.Source)
	if err != nil {
		t.Fatalf("%s: compile: %v", app.Name, err)
	}
	in, err := app.Generate(scale, 42)
	if err != nil {
		t.Fatalf("%s: generate: %v", app.Name, err)
	}
	res, err := prog.Run(in.Bindings, cfg)
	if err != nil {
		t.Fatalf("%s: run: %v", app.Name, err)
	}
	if err := in.Verify(res.Instance); err != nil {
		t.Fatalf("%s: verify: %v", app.Name, err)
	}
	return res
}

func smallScale(app *App) float64 {
	switch app.Name {
	case "MD":
		return 0.03
	case "KMEANS":
		return 0.004
	default: // BFS
		return 0.002
	}
}

func TestAppsVerifyAllModesDesktop(t *testing.T) {
	for _, app := range All() {
		for _, mode := range []rt.Mode{rt.ModeCPU, rt.ModeBaseline, rt.ModeCUDA, rt.ModeMultiGPU} {
			cfg := core.Config{Machine: sim.Desktop(), Options: rt.Options{Mode: mode}}
			res := runApp(t, app, smallScale(app), cfg)
			if res.Report.KernelTime <= 0 {
				t.Errorf("%s/%v: no kernel time accounted", app.Name, mode)
			}
		}
	}
}

func TestAppsVerifySupercomputer3GPU(t *testing.T) {
	for _, app := range All() {
		cfg := core.Config{Machine: sim.SupercomputerNode()}
		res := runApp(t, app, smallScale(app), cfg)
		if app.Name == "BFS" && res.Report.BytesP2P == 0 {
			t.Error("BFS on 3 GPUs must produce inter-GPU traffic")
		}
		if app.Name == "MD" && res.Report.BytesP2P != 0 {
			t.Errorf("MD needs no inter-GPU communication, saw %d bytes", res.Report.BytesP2P)
		}
	}
}

func TestTableIICharacteristics(t *testing.T) {
	// The paper's Table II columns B (parallel loops) and D
	// (localaccess arrays / arrays in loops).
	want := map[string]struct {
		loops, local, arrays int
	}{
		"MD":     {loops: 1, local: 2, arrays: 3},
		"KMEANS": {loops: 2, local: 2, arrays: 5},
		"BFS":    {loops: 1, local: 2, arrays: 3},
	}
	for _, app := range All() {
		prog, err := core.Compile(app.Source)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		s := prog.Stats()
		w := want[app.Name]
		if s.ParallelLoops != w.loops || s.LocalAccessArrays != w.local || s.ArraysInLoops != w.arrays {
			t.Errorf("%s: stats = %+v, want %+v", app.Name, s, w)
		}
	}
}

func TestKernelExecutionCounts(t *testing.T) {
	// Table II column C: MD 1, KMEANS 74, BFS 10.
	want := map[string]int{"MD": 1, "KMEANS": 74, "BFS": 10}
	for _, app := range All() {
		res := runApp(t, app, smallScale(app), core.Config{Machine: sim.Desktop()})
		if got := res.Report.KernelLaunches; got != want[app.Name] {
			t.Errorf("%s: kernel executions = %d, want %d", app.Name, got, want[app.Name])
		}
	}
}

func TestDeviceMemoryPaperScale(t *testing.T) {
	// Table II column A at scale 1.0, against the paper's numbers
	// (MD 39.8 MB, KMEANS 69.2 MB, BFS 444.9 MB) within 15%: a question
	// about sizes, asked of the sizes (Shape) — nothing is generated or
	// allocated.
	want := map[string]float64{"MD": 39.8e6, "KMEANS": 69.2e6, "BFS": 444.9e6}
	for _, app := range All() {
		prog, err := core.Compile(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.DeviceMemoryUsage(prog, app.Shape(1.0))
		if err != nil {
			t.Fatal(err)
		}
		w := want[app.Name]
		if ratio := float64(got) / w; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: device memory = %.1f MB, paper %.1f MB (ratio %.2f)",
				app.Name, float64(got)/1e6, w/1e6, ratio)
		}
	}
}

// TestShapeMatchesGenerate pins Shape to the generators: every scalar it
// gives is the one Generate binds, for any seed — but SPMV's nnz, drawn
// by the seed, of which it is the upper bound — and they are all the
// scalars the array sizes read (the footprints agree).
func TestShapeMatchesGenerate(t *testing.T) {
	for _, app := range append(All(), Extended()...) {
		prog, err := core.Compile(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{0.00001, 0.002, 0.01} {
			shape := app.Shape(scale)
			want, err := core.DeviceMemoryUsage(prog, shape)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				in, err := app.Generate(scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range shape.Scalars {
					got := in.Bindings.Scalars[name]
					if bound := app.Name == "SPMV" && name == "nnz"; got != v && !(bound && got < v) {
						t.Errorf("%s %gx seed %d: Shape says %s = %g, Generate bound %g", app.Name, scale, seed, name, v, got)
					}
				}
				if got, err := core.DeviceMemoryUsage(prog, in.Bindings); err != nil || got != want && !(app.Name == "SPMV" && got < want) {
					t.Errorf("%s %gx seed %d: footprint %d bytes (%v), Shape's %d", app.Name, scale, seed, got, err, want)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MD", "KMEANS", "BFS"} {
		a, err := ByName(name)
		if err != nil || a.Name != name {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestBFSLevelCount(t *testing.T) {
	in, err := BFS().Generate(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = in
	// The generator promises bfsLayers productive levels; the kernel
	// execution count test above checks the 10-execution property.
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, app := range All() {
		a, err := app.Generate(0.002, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := app.Generate(0.002, 99)
		if err != nil {
			t.Fatal(err)
		}
		if a.Desc != b.Desc {
			t.Errorf("%s: generator not deterministic", app.Name)
		}
	}
}
