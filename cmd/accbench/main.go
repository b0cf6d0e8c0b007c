// Command accbench regenerates the paper's evaluation: Table I,
// Table II, Figures 7-9, and the ablation studies.
//
// Usage:
//
//	accbench [-scale f] [-apps MD,KMEANS,BFS,SPMV,HOTSPOT2D,NBODY] [-verify] [-seed n] [targets...]
//
// Targets: table1 table2 fig7 fig8 fig9 ablations cluster async node
// loadtest all (default: all; loadtest is opt-in — it measures real
// elapsed host time, not simulated time, so it only runs when asked
// for: the warm-vs-cold accd service study sized with
// -lt-workers/-lt-requests; node is the cluster-topology sync-vs-async
// study). Host time by workload and by layer, judged run against run,
// is the job of the benchmark/ package (`make bench-host`), not of
// these studies. The Proposal
// configurations run under the pipelined scheduler unless -no-async
// asks for the paper's bulk-synchronous schedule; the async target
// compares the two over the shipped example apps.
// -scale multiplies the per-app default benchmark scales (fractions of
// the paper's input sizes chosen so the functional simulation finishes
// in minutes); -scale with appname=frac pairs in -appscale pins exact
// fractions.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// benchmark run for host-side performance work:
//
//	accbench -cpuprofile cpu.out fig7
//	go tool pprof cpu.out
//
// -trace and -metrics collect the deterministic runtime trace across
// every measured configuration (one Chrome trace process per
// app/machine/mode point) and the aggregate metrics registry:
//
//	accbench -trace eval.trace.json -metrics eval.metrics.json fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"accmulti/internal/bench"
	"accmulti/internal/cliutil"
)

func main() {
	var rf cliutil.RunFlags
	var (
		scale      = flag.Float64("scale", 1.0, "multiplier on the per-app default bench scales")
		appScale   = flag.String("appscale", "", "per-app input fractions, e.g. MD=1.0,BFS=0.05")
		appsFlag   = flag.String("apps", "", "comma-separated subset of MD,KMEANS,BFS,SPMV,HOTSPOT2D,NBODY (default: MD,KMEANS,BFS)")
		verify     = flag.Bool("verify", false, "verify every run against the Go references")
		seed       = flag.Int64("seed", 0, "input generator seed (0 = default)")
		jsonOut    = flag.Bool("json", false, "emit the selected sections as JSON instead of text")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		ltWorkers  = flag.Int("lt-workers", 0, "loadtest: concurrent clients (0 = default)")
		ltRequests = flag.Int("lt-requests", 0, "loadtest: requests per phase (0 = default)")
	)
	rf.RegisterAblations(flag.CommandLine)
	rf.RegisterSinks(flag.CommandLine)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed, Verify: *verify, Reference: rf.Reference, Async: !rf.NoAsync}
	if tracer := rf.NewTracer(); tracer != nil {
		cfg.Trace = tracer
		defer func() {
			if err := rf.WriteSinks(tracer); err != nil {
				fatal(err)
			}
		}()
	}
	if *appsFlag != "" {
		cfg.Apps = strings.Split(*appsFlag, ",")
	}
	if *appScale != "" {
		cfg.AppScale = map[string]float64{}
		for _, kv := range strings.Split(*appScale, ",") {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				fatal(fmt.Errorf("bad -appscale entry %q (want APP=fraction)", kv))
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -appscale entry %q: %v", kv, err))
			}
			cfg.AppScale[name] = f
		}
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]

	var (
		figRes    *bench.Results
		table2    []bench.Table2Row
		ablations []bench.AblationRow
		cluster   []bench.ClusterRow
		asyncRows []bench.AsyncRow
		nodeRows  []bench.NodeRow
		loadtest  *bench.LoadTestReport
		err       error
	)
	if all || want["table2"] {
		if table2, err = bench.Table2(cfg); err != nil {
			fatal(err)
		}
	}
	if all || want["fig7"] || want["fig8"] || want["fig9"] {
		if figRes, err = bench.RunAll(cfg); err != nil {
			fatal(err)
		}
	}
	if all || want["ablations"] {
		if ablations, err = bench.Ablations(cfg); err != nil {
			fatal(err)
		}
	}
	if all || want["cluster"] {
		if cluster, err = bench.ClusterStudy(cfg); err != nil {
			fatal(err)
		}
	}
	if all || want["async"] {
		if asyncRows, err = bench.AsyncStudy(cfg); err != nil {
			fatal(err)
		}
	}
	if all || want["node"] {
		if nodeRows, err = bench.NodeStudy(cfg); err != nil {
			fatal(err)
		}
	}
	if want["loadtest"] { // opt-in: measures real time, not simulated
		ltCfg := bench.LoadTestConfig{Workers: *ltWorkers, Requests: *ltRequests, Seed: *seed}
		if loadtest, err = bench.LoadTest(ltCfg); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if err := bench.WriteJSON(os.Stdout, figRes, table2, ablations, cluster, asyncRows, nodeRows, loadtest); err != nil {
			fatal(err)
		}
		return
	}

	if all || want["table1"] {
		bench.RenderTable1(os.Stdout)
		fmt.Println()
	}
	if table2 != nil {
		bench.RenderTable2(os.Stdout, table2)
		fmt.Println()
	}
	if figRes != nil {
		if all || want["fig7"] {
			bench.RenderFig7(os.Stdout, figRes)
			fmt.Println()
			head := figRes.Headline()
			fmt.Printf("Headline: best Proposal speedups vs OpenMP: %.2fx (%s), %.2fx (%s)\n\n",
				head["Desktop Machine"], "Desktop Machine",
				head["Supercomputer Node"], "Supercomputer Node")
		}
		if all || want["fig8"] {
			bench.RenderFig8(os.Stdout, figRes)
			fmt.Println()
		}
		if all || want["fig9"] {
			bench.RenderFig9(os.Stdout, figRes)
			fmt.Println()
		}
	}
	if ablations != nil {
		bench.RenderAblations(os.Stdout, ablations)
		fmt.Println()
	}
	if cluster != nil {
		bench.RenderCluster(os.Stdout, cluster)
		fmt.Println()
	}
	if asyncRows != nil {
		bench.RenderAsync(os.Stdout, asyncRows)
		fmt.Println()
	}
	if nodeRows != nil {
		bench.RenderNode(os.Stdout, nodeRows)
		fmt.Println()
	}
	if loadtest != nil {
		bench.RenderLoadTest(os.Stdout, loadtest)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accbench:", err)
	os.Exit(1)
}
