package apps

import (
	"strings"
	"testing"

	"accmulti/internal/core"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

func TestExtendedRegistry(t *testing.T) {
	ext := Extended()
	if len(ext) != 3 || ext[0].Name != "SPMV" || ext[1].Name != "HOTSPOT2D" || ext[2].Name != "NBODY" {
		t.Fatalf("extended = %v", ext)
	}
	for _, name := range []string{"SPMV", "HOTSPOT2D", "NBODY"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	// The error for an unknown name lists every app there is.
	_, err := ByName("NOPE")
	if err == nil {
		t.Fatal("ByName(NOPE): no error")
	}
	for _, a := range append(All(), ext...) {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("ByName(NOPE) error %q does not name %s", err, a.Name)
		}
	}
}

func TestSpMVVerifiesAcrossConfigs(t *testing.T) {
	app := SpMV()
	for _, cfg := range []core.Config{
		{Machine: sim.Desktop().WithGPUs(1)},
		{Machine: sim.Desktop()},
		{Machine: sim.SupercomputerNode()},
		{Machine: sim.Desktop(), Options: rt.Options{Mode: rt.ModeCPU}},
		{Machine: sim.Desktop(), Options: rt.Options{DisableDistribution: true}},
	} {
		res := runApp(t, app, 0.01, cfg)
		// 10 iterations over unchanged operands: one kernel, 10 execs.
		if res.Report.KernelLaunches != 10 {
			t.Errorf("spmv launches = %d, want 10", res.Report.KernelLaunches)
		}
	}
}

func TestSpMVReloadSkipPaysOff(t *testing.T) {
	app := SpMV()
	prog, err := core.Compile(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts rt.Options) int64 {
		in, err := app.Generate(0.02, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(in.Bindings, core.Config{Machine: sim.Desktop(), Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.BytesH2D
	}
	skip := run(rt.Options{})
	reload := run(rt.Options{DisableReloadSkip: true})
	if skip*5 > reload {
		t.Errorf("10-iteration SpMV should amortize loads: skip=%d reload=%d", skip, reload)
	}
}

func TestHotSpotVerifiesAcrossConfigs(t *testing.T) {
	app := HotSpot()
	for _, cfg := range []core.Config{
		{Machine: sim.Desktop().WithGPUs(1)},
		{Machine: sim.Desktop()},
		{Machine: sim.SupercomputerNode()},
		{Machine: sim.Desktop(), Options: rt.Options{Mode: rt.ModeCPU}},
	} {
		res := runApp(t, app, 0.02, cfg)
		if res.Report.KernelLaunches != 2*hotspotSteps {
			t.Errorf("hotspot launches = %d, want %d", res.Report.KernelLaunches, 2*hotspotSteps)
		}
	}
}

func TestHotSpotHaloTrafficSmall(t *testing.T) {
	// The halo exchange should move ghost rows, not whole partitions:
	// per step and direction one row of w floats per neighbor pair.
	app := HotSpot()
	prog, err := core.Compile(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	in, err := app.Generate(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(in.Bindings, core.Config{Machine: sim.Desktop()})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(res.Instance); err != nil {
		t.Fatal(err)
	}
	if res.Report.BytesP2P == 0 {
		t.Fatal("hotspot on 2 GPUs needs halo exchange")
	}
	// Ghost rows are a tiny fraction of the loaded grid.
	if res.Report.BytesP2P*20 > res.Report.BytesH2D {
		t.Errorf("halo traffic should be small: P2P=%d H2D=%d",
			res.Report.BytesP2P, res.Report.BytesH2D)
	}
}

func TestNBodyVerifiesAcrossConfigs(t *testing.T) {
	app := NBody()
	for _, cfg := range []core.Config{
		{Machine: sim.Desktop().WithGPUs(1)},
		{Machine: sim.Desktop()},
		{Machine: sim.SupercomputerNode()},
		{Machine: sim.Desktop(), Options: rt.Options{Mode: rt.ModeCPU}},
	} {
		res := runApp(t, app, 0.05, cfg)
		if res.Report.BytesP2P != 0 {
			t.Errorf("nbody needs no inter-GPU communication, saw %d bytes", res.Report.BytesP2P)
		}
	}
}

func TestNBodyScalesOnCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8192-body all-pairs kernels")
	}
	// Compute grows n^2, staging n: N-body should beat the single node
	// on a 2x3 cluster, unlike the communication-bound apps.
	app := NBody()
	prog, err := core.Compile(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec sim.MachineSpec) *rt.Report {
		in, err := app.Generate(1.0, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(in.Bindings, core.Config{Machine: spec})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	oneNode := run(sim.SupercomputerNode())
	cluster := run(sim.Cluster(2, 3))
	if cluster.Total() >= oneNode.Total() {
		t.Errorf("n-body should scale across nodes: 1x3=%v 2x3=%v",
			oneNode.Total(), cluster.Total())
	}
}

// TestAllAppsVerifyAcrossMachines runs the six applications, small, on
// the desktop, the supercomputer node and a 2x2 cluster: whichever
// kernel body each launch takes (lockstep tiles, per-iteration,
// interpreter) the results must match the plain-Go references.
func TestAllAppsVerifyAcrossMachines(t *testing.T) {
	scales := map[string]float64{"MD": 0.03, "KMEANS": 0.004, "BFS": 0.002, "SPMV": 0.02, "HOTSPOT2D": 0.02, "NBODY": 0.03}
	for _, app := range append(All(), Extended()...) {
		for _, m := range []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode(), sim.Cluster(2, 2)} {
			runApp(t, app, scales[app.Name], core.Config{Machine: m})
		}
	}
}
