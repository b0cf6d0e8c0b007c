// Command benchmark is the repository's one host-time benchmark: five
// workloads, the end-to-end metrics a user of accrun, accc or accd
// sees, and a traced pass that splits host time by layer from outside,
// by timing calls on the layers' public functions. See README.md.
//
//	go run ./benchmark -workload apps_kernel -seed 1 [-seconds 20] [-trace 1]
//	go run ./benchmark compare a.jsonl b.jsonl
//	go run ./benchmark manifest [layers]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is the frozen length of one run (BENCHMARK.json
// run_seconds): long enough for at least 100 ops of every workload on
// the 2-core reference box.
const defaultSeconds = 20

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

func main() {
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	case len(os.Args) > 1 && os.Args[1] == "manifest":
		os.Exit(manifestMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the one schema every run of every workload appends to the
// runs file; compare reads two such files.
type record struct {
	Schema     int     `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"git_commit"`
	Ops        int     `json:"ops"`
	Rounds     int     `json:"rounds"`
	verdict
	// FailShare is failed ÷ attempted; a failed op has no latency and
	// misses every bound.
	FailShare float64 `json:"fail_share"`
	// HostSlowdown is the median over the rounds of how many times slower
	// than on the quiet reference box the reference loop ran, and
	// RawOpMSP50 the median op time as the clock read it: what the time
	// metrics were corrected from.
	HostSlowdown float64 `json:"host_slowdown"`
	RawOpMSP50   float64 `json:"raw_op_ms_p50"`
	// SimOffenders lists the program rows whose simulated statistics
	// differed between ops of this run.
	SimOffenders []string `json:"sim_offenders,omitempty"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// corrupt and quick are hooks of main_test.go. corrupt spoils what
	// the output checks compare against, so that every op must fail;
	// quick sets up once, warms up with one round and repeats each
	// traced variant once.
	corrupt, quick bool
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (apps_kernel, stencil_repl, stencil_dist, compile_cold, serve_mixed)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and the request shuffle")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "wall-clock budget of the measured loop")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = end-to-end metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for runs.jsonl and <workload>.spans.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "usage: benchmark -workload <name> -seed <n> [-seconds <s>] [-trace 0|1]")
		return 2
	}
	cfg.trace = trace == 1
	return execute(cfg, stdout, stderr)
}

// execute runs the benchmark, appends the run to the runs file and
// prints the verdict line. It exits non-zero when the run could not be
// made or any op failed its output check.
func execute(cfg runConfig, stdout, stderr io.Writer) int {
	rec, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := appendRecord(cfg.outDir, rec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rec.verdict)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d ops failed their output check\n", rec.Failed, rec.Attempted)
		return 1
	}
	return 0
}

// runBenchmark sets up, measures and reports one run. The returned
// record is complete even when ops failed; only a harness error (the
// workload could not be set up at all) is an error.
func runBenchmark(cfg runConfig, out io.Writer) (*record, error) {
	spec, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	procs := pinProcs()
	rec := &record{Schema: 1, Workload: spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: procs, NProc: runtime.NumCPU(), Commit: gitCommit()}

	// Set-up, several times over: its time is a metric of its own so
	// that work moved out of the ops shows, and one sample is too noisy.
	// The last one built is the one measured.
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats && (i == 0 || !cfg.quick); i++ {
		w = nil
		runtime.GC()
		ref0, t0 := refLoop(), time.Now()
		if w, err = spec.build(buildOptions{seed: cfg.seed, quick: cfg.quick}); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", spec.name, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds()/hostFactor(hostSlowdown(ref0, refLoop()), spec.share))
	}
	*w.hooks() = testHooks{corrupt: cfg.corrupt, quick: cfg.quick}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	defs := endToEndDefs
	var values map[string]float64
	var res *passResult
	if cfg.trace {
		defs = perLayerDefs
		res, values, err = tracedPass(w, spec.share, budget, filepath.Join(cfg.outDir, spec.name+".spans.json"))
	} else if res, err = runPass(w, spec.share, budget, nil); err == nil {
		values = endToEnd(res, setups)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	_, rec.SimOffenders = res.simDistinct()

	rec.Ops, rec.Rounds = len(res.lat), res.rounds
	rec.HostSlowdown = medianF(res.slowdowns)
	raw := make([]float64, len(res.lat))
	for i, d := range res.lat {
		raw[i] = ms(d)
	}
	rec.RawOpMSP50 = medianF(raw)
	rec.Attempted, rec.Failed = res.attempted, res.failed
	rec.Correct = res.failed == 0
	rec.FailShare = float64(res.failed) / float64(res.attempted)
	rec.Metrics = map[string]metricValue{}
	fmt.Fprintf(out, "workload %s  seed %d  %s  ops %d  rounds %d  go %s  GOMAXPROCS %d  commit %s\n",
		spec.name, cfg.seed, passName(cfg.trace), rec.Ops, rec.Rounds, rec.GoVersion, procs, rec.Commit)
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s %s\n", d.Name, v, d.Unit, clockTag(d))
	}
	fmt.Fprintf(out, "  the reference loop ran %.3g times slower than on the quiet reference box (median); op_ms_p50 as the clock read it: %.6g\n",
		rec.HostSlowdown, rec.RawOpMSP50)
	fmt.Fprintf(out, "  %-34s %16.6g %-6s (%d of %d ops failed)\n", "fail_share", rec.FailShare, "ratio", rec.Failed, rec.Attempted)
	for _, o := range rec.SimOffenders {
		fmt.Fprintf(out, "  simulated statistics differ between ops: %s\n", o)
	}
	if res.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", res.firstErr)
	}
	return rec, nil
}

// tracedPass spends a quarter of the budget untraced, so that the cost
// of tracing is itself a number, half on the op taken apart into spans,
// and then runs the workload's variants. It returns the traced ops
// (with the untraced segment's failures counted in) and every
// per-layer metric, and writes the spans to spanFile.
func tracedPass(w workload, share float64, budget time.Duration, spanFile string) (*passResult, layerMetrics, error) {
	bare, err := runPass(w, share, budget/4, nil)
	if err != nil {
		return nil, nil, err
	}
	log := newSpanLog()
	gc0, pause0 := gcStats()
	res, err := runPass(w, share, budget/2, log)
	if err != nil {
		return nil, nil, err
	}
	gc1, pause1 := gcStats()
	lm := layerMetrics{}
	if res.failed == 0 {
		if err := w.extras(log, lm); err != nil {
			return nil, nil, fmt.Errorf("traced variants: %w", err)
		}
	}
	ops := float64(len(res.lat))
	lm["bench.trace_overhead_pct"] = 100 * (medianF(res.adj)/medianF(bare.adj) - 1)
	sort.Float64s(bare.adj)
	lm["bench.op_ms_p90"] = quantile(bare.adj, 0.9)
	lm["bench.peak_rss_mb"] = peakRSSMB()
	lm["bench.gc_cycles_per_op"] = float64(gc1-gc0) / ops
	lm["bench.gc_pause_ms_per_op"] = ms(pause1-pause0) / ops
	distinct, _ := res.simDistinct()
	lm["rt.sim_distinct"] = float64(distinct)
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, nil, err
	}
	if err := log.write(spanFile); err != nil {
		return nil, nil, err
	}
	res.attempted += bare.attempted
	res.failed += bare.failed
	if res.firstErr == nil {
		res.firstErr = bare.firstErr
	}
	return res, lm, nil
}

func passName(traced bool) string {
	if traced {
		return "traced pass"
	}
	return "end-to-end pass"
}

func clockTag(d metricDef) string {
	if d.Clock == "" {
		return ""
	}
	return "[" + d.Clock + "]"
}

func appendRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifest is BENCHMARK.json as the run contract defines it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWL  `json:"workloads"`
	EndToEnd   []manifestE2E `json:"end_to_end"`
	PerLayer   []manifestPL  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPL struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestPL{d.Name, d.Unit, d.Better})
	}
	return m
}

// manifestMain prints BENCHMARK.json, or with "layers" the per-layer
// table with definitions and predictions (benchmark/layers.json).
func manifestMain(args []string, stdout, stderr io.Writer) int {
	var v any = buildManifest()
	if len(args) == 1 && args[0] == "layers" {
		v = struct {
			EndToEnd []metricDef `json:"end_to_end"`
			PerLayer []metricDef `json:"per_layer"`
		}{endToEndDefs, perLayerDefs}
	} else if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: benchmark manifest [layers]")
		return 2
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
