package rt

import (
	"testing"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// Paper-app coverage of the specialized executor (PR 8): the apps'
// gather / guarded-store / reduction-to-array kernels must take the
// fast path, bit-identically, and beat the interpreter.

func appInstance(tb testing.TB, name string, scale float64) (*ir.Module, *ir.Instance, *apps.Input) {
	tb.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := cc.ParseProgram(app.Source)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := app.Generate(scale, 42)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := mod.Bind(in.Bindings)
	if err != nil {
		tb.Fatal(err)
	}
	return mod, inst, in
}

// TestPaperAppSpecCoverage pins that every kernel of MD, KMEANS and
// BFS compiles a KernelSpec and that full runs are dominated by fast-
// path chunks (no silent wholesale fallback), with results verified
// against the Go reference.
// appPhaseBWall runs one full app instance and returns the wall-clock
// time its runtime spent inside Phase B kernel fan-outs, best of three
// runs (fresh instance each run: apps mutate their bindings).
func appPhaseBWall(t *testing.T, name string, scale float64, opts Options) time.Duration {
	t.Helper()
	best := time.Duration(0)
	for run := 0; run < 3; run++ {
		_, inst, in := appInstance(t, name, scale)
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(inst); err != nil {
			t.Fatal(err)
		}
		if d := r.PhaseBWall(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestPaperAppSpeedupGate enforces the acceptance bar on the paper's
// own applications: specialized Phase B must beat the instrumented
// interpreter at desktop scale, with results verified against the Go
// reference on both sides. Every loop of the three runs inside the tile
// body: MD's sentinel-guarded gather in a uniform inner loop, KMEANS's
// nested loops over a layout-transformed matrix with its
// reductiontoarray loop in lockstep, BFS's sparse guard in lockstep and
// its scattering edge loop as flat tiles. The floors are 0.7 x the lowest
// of three readings on the development box (MD 9.9-11.0x, BFS 4.4-5.3x;
// KMEANS, at the 0.01 scale that keeps its interpreter side to a second a
// run — at 0.1 it read 28.2-33.4x and took 41 s of the gate's 50 —,
// 18.3-22.4x over five; the specialized side slows more than the
// interpreter in disturbed stretches, BFS by a quarter); which body ran is
// pinned by counts (TestBFSRunsTiled, TestAppTrips). Skipped in -short
// mode: wall-clock ratios under -race are noise, not signal.
func TestPaperAppSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate: skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		scale float64
		floor float64
	}{
		{"KMEANS", 0.01, 12.8},
		{"MD", 0.25, 7},
		{"BFS", 0.04, 3.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacy := appPhaseBWall(t, tc.name, tc.scale, Options{Reference: true})
			fast := appPhaseBWall(t, tc.name, tc.scale, Options{})
			speedup := float64(legacy) / float64(fast)
			t.Logf("%s: legacy %v, specialized %v, speedup %.1fx", tc.name, legacy, fast, speedup)
			if speedup < tc.floor {
				t.Errorf("%s: Phase-B speedup %.2fx below the %gx gate", tc.name, speedup, tc.floor)
			}
		})
	}
}

// TestAppTileClassification pins that every kernel of the six apps
// compiles to tiles: MD, KMEANS and NBODY (uniform inner loops), SPMV (a
// lockstep prefix and suffix around a CSR loop that runs as flat tiles),
// BFS (the guard in lockstep, the scattering edge loop as flat tiles) and
// HOTSPOT2D, whose bodies are nothing but one loop with a store in it
// (flat tiles; its chunks fall back "miss" at launch all the same).
func TestAppTileClassification(t *testing.T) {
	for _, app := range []string{"MD", "KMEANS", "NBODY", "SPMV", "BFS", "HOTSPOT2D"} {
		mod, _, _ := appInstance(t, app, 0.001)
		for _, k := range mod.Kernels {
			if k.Spec == nil || k.Spec.VecBody == nil {
				t.Errorf("%s: kernel %s has no tiled body (%q)", app, k.Name, k.SpecReason)
			}
		}
	}
}

// TestAppTrips pins where the inner-loop trips of the tiled apps run: in
// lockstep (the KMEANS reductiontoarray loop is injective in its
// variable), or as flat tiles (the CSR loops of BFS and SPMV) of which, on
// BFS, few are cut short by a store an earlier flat lane made to an
// element a later one loads. Every iteration of every chunk runs tiled.
func TestAppTrips(t *testing.T) {
	for _, tc := range []struct {
		app     string
		scale   float64
		maxCuts int64
	}{
		{"MD", 0.01, 0}, {"KMEANS", 0.004, 0}, {"NBODY", 0.02, 0}, {"SPMV", 0.01, 0}, {"BFS", 0.01, bfsFlatCutsMax},
	} {
		_, inst, in := appInstance(t, tc.app, tc.scale)
		mach, err := sim.NewMachine(sim.Desktop())
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, Options{})
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(inst); err != nil {
			t.Fatal(err)
		}
		st := r.SpecStats()
		t.Logf("%s %gx: %d tiled iterations, %d flat cuts, %d hazard lanes", tc.app, tc.scale, st.TiledIters, st.FlatCuts, st.HazardLanes)
		if iters := r.Report().Counters.Iterations; st.TiledIters != iters || st.FlatCuts > tc.maxCuts {
			t.Errorf("%s: %d of %d iterations tiled, %d flat cuts (want <= %d)", tc.app, st.TiledIters, iters, st.FlatCuts, tc.maxCuts)
		}
	}
}

// bfsFlatCutsMax is twice the flat tiles BFS 0.01x on desktop cut at a
// hazard when TestAppTrips was written (388; 398 since a window hit
// starts the next tile instead of the per-iteration body).
const bfsFlatCutsMax = 2 * 388

func TestPaperAppSpecCoverage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{
		{"MD", 0.02},
		{"KMEANS", 0.02},
		{"BFS", 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod, inst, in := appInstance(t, tc.name, tc.scale)
			for _, k := range mod.Kernels {
				if k.Spec == nil {
					t.Errorf("kernel %s has no KernelSpec (reason %q)", k.Name, k.SpecReason)
				}
			}
			mach, err := sim.NewMachine(sim.Desktop())
			if err != nil {
				t.Fatal(err)
			}
			r := New(mach, Options{})
			if err := r.Run(inst); err != nil {
				t.Fatal(err)
			}
			if err := in.Verify(inst); err != nil {
				t.Fatal(err)
			}
			st := r.SpecStats()
			hits, falls := st.Hits, st.Fallbacks
			t.Logf("%s: spec hits %d, fallbacks %d %v rejects %v", tc.name, hits, falls, st.FallbackReasons, st.Rejects)
			if hits == 0 {
				t.Errorf("%s: the specialized executor never ran", tc.name)
			}
			if falls > hits {
				t.Errorf("%s: fallbacks (%d) dominate hits (%d)", tc.name, falls, hits)
			}
		})
	}
}
