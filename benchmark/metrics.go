package main

import "strings"

// metricDef names one metric. BENCHMARK.json and layers.json are
// printed from these tables (go run ./benchmark manifest), and the
// test holds the committed files to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Clock is "host" (wall or CPU of this process) or "simulated"
	// (the modelled machine, from rt.Report). The two are never mixed.
	Clock string `json:"clock,omitempty"`
	// Exact marks a count that must repeat bit for bit between runs of
	// one commit with one seed; compare reports any difference.
	Exact bool   `json:"exact,omitempty"`
	Def   string `json:"definition,omitempty"`
	// Moves and On are the prediction written down before measuring:
	// which end-to-end metric this one should move, on which workload.
	Moves string `json:"moves,omitempty"`
	On    string `json:"on,omitempty"`
}

const (
	lower, higher = "lower", "higher"
	host, simClk  = "host", "simulated"
)

// endToEndDefs are what a user of accrun, accc or accd sees. All are
// host clock, measured with tracing off. A bound is the share of the
// parent's median by which the metric may worsen before a change
// counts as a regression; README "Bounds from data" has the measured
// spreads they were set from. The four time metrics have the host
// factor of their round or set-up divided out (refloop.go).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Clock: host,
		Def: "median of five complete set-ups in the run (inputs from the seed, expected outputs, warm-up rounds), each with its host factor divided out"},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.25, Clock: host,
		Def: "median over the whole run of op wall time with the round's host factor divided out"},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Clock: host,
		Def: "ops divided by the wall time of the measured intervals, each with its round's host factor divided out"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25, Clock: host,
		Def: "process user+system CPU over the measured intervals per op, each with its round's host factor divided out"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: lower, Bound: 0.03, Clock: host,
		Def: "heap bytes allocated over the measured intervals, per op"},
}

// programRows are the <p> of the per-row metric names.
var (
	appRows     = []string{"MD", "KMEANS", "BFS"}
	replRows    = []string{"repl_small", "repl_bulk"}
	distRows    = []string{"dist_small", "dist_small_sync", "dist_bulk"}
	stencilRows = append(append([]string{}, replRows...), distRows...)
	programRows = append(append([]string{}, appRows...), stencilRows...)
)

func rowWorkload(row string) string {
	switch {
	case strings.HasPrefix(row, "repl_"):
		return "stencil_repl"
	case strings.HasPrefix(row, "dist_"):
		return "stencil_dist"
	}
	return "apps_kernel"
}

// perLayerDefs are the metrics of the traced pass. A metric that does
// not apply to a workload reads 0 there.
var perLayerDefs = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		timeMoves  = "op_ms_p50, cpu_ms_per_op"
		compileOn  = "compile_cold; serve_mixed through its cold share; under 1 % elsewhere"
		countMoves = "none: must not move under a host-only change"
		progOn     = "apps_kernel, stencil_repl, stencil_dist"
	)
	d := []metricDef{
		{Name: "cc.lex_ms", Unit: "ms", Better: lower, Clock: host, Def: "cc.Lex over every source of the op (a second lex, beside the one ParseProgram makes)", Moves: timeMoves, On: compileOn},
		{Name: "cc.parse_ms", Unit: "ms", Better: lower, Clock: host, Def: "cc.ParseProgram (lex, parse, directives, sema) over every source of the op", Moves: timeMoves, On: compileOn},
		{Name: "cc.src_kb_per_s", Unit: "kB/s", Better: higher, Clock: host, Def: "source kB through cc.ParseProgram per second", Moves: timeMoves, On: compileOn},
		{Name: "cc.tokens", Unit: "count", Better: lower, Exact: true, Def: "tokens cc.Lex returns for the op's sources", Moves: countMoves, On: compileOn},
		{Name: "translator.translate_ms", Unit: "ms", Better: lower, Clock: host, Def: "translator.Translate, ir.BuildKernelSpec included", Moves: timeMoves, On: "compile_cold"},
		{Name: "translator.kernels", Unit: "count", Better: lower, Exact: true, Def: "kernels in the translated modules of the op", Moves: countMoves, On: "compile_cold"},
		{Name: "translator.spec_kernels", Unit: "count", Better: higher, Exact: true, Def: "of those, kernels with a specialized executor (Kernel.Spec != nil)", Moves: countMoves, On: "compile_cold"},
		{Name: "translator.gen_src_kb", Unit: "kB", Better: lower, Exact: true, Def: "size of the generated CUDA-like source", Moves: countMoves, On: "compile_cold"},
		{Name: "analysis.vet_ms", Unit: "ms", Better: lower, Clock: host, Def: "analysis.Vet over every source of the op", Moves: timeMoves, On: "compile_cold; vetted serve_mixed requests"},
		{Name: "analysis.diags", Unit: "count", Better: lower, Exact: true, Def: "diagnostics accvet reports for the op's sources", Moves: countMoves, On: "compile_cold"},
	}
	for _, app := range appRows {
		d = append(d, metricDef{Name: "apps.generate_ms." + app, Unit: "ms", Better: lower, Clock: host,
			Def: "App.Generate of the " + app + " input in the last set-up", Moves: "setup_s", On: "apps_kernel"})
	}
	d = append(d,
		metricDef{Name: "sim.machine_new_ms", Unit: "ms", Better: lower, Clock: host, Def: "sim.NewMachine per op (serve_mixed: median build of the machines the mix leases, a pool miss)", Moves: "op_ms_p50", On: "stencil_repl, stencil_dist (2x2 build); serve_mixed (pool miss)"},
		metricDef{Name: "sim.bytes_h2d", Unit: "B", Better: lower, Clock: simClk, Exact: true, Def: "Report.BytesH2D per op", Moves: countMoves, On: progOn},
		metricDef{Name: "sim.bytes_d2h", Unit: "B", Better: lower, Clock: simClk, Exact: true, Def: "Report.BytesD2H per op", Moves: countMoves, On: progOn},
		metricDef{Name: "sim.bytes_p2p", Unit: "B", Better: lower, Clock: simClk, Exact: true, Def: "Report.BytesP2P per op", Moves: countMoves, On: progOn},
		metricDef{Name: "sim.flops", Unit: "count", Better: lower, Clock: simClk, Exact: true, Def: "Report.Counters.Flops per op", Moves: countMoves, On: progOn},
		metricDef{Name: "sim.iterations", Unit: "count", Better: lower, Clock: simClk, Exact: true, Def: "Report.Counters.Iterations per op: the simulated events host time is compared against", Moves: countMoves, On: progOn},
		metricDef{Name: "sim.ms_per_op", Unit: "ms", Better: lower, Clock: simClk, Def: "sum of Report.Total() per op (the issue's sim_ms_per_op: 0 on compile_cold and identical from run to run, so not an end-to-end metric under the run contract); a host-only change must leave it within 1e-4", Moves: countMoves, On: progOn},
		metricDef{Name: "ir.bind_ms", Unit: "ms", Better: lower, Clock: host, Def: "ir.Module.Bind per op", Moves: "op_ms_p50", On: progOn},
	)
	for _, p := range programRows {
		d = append(d, metricDef{Name: "ir.kernel_ns_per_iter." + p, Unit: "ns", Better: lower, Clock: host,
			Def:   "PhaseBWall divided by Report.Counters.Iterations: host time per simulated event",
			Moves: timeMoves, On: rowWorkload(p) + " (predicted flat on stencil_repl small rows)"})
	}
	for _, m := range []struct{ name, def string }{
		{"rt.run_ms.", "rt.New + Runtime.Run + Report"},
		{"rt.phase_b_ms.", "Runtime.PhaseBWall: kernel fan-out inside the run"},
		{"rt.outside_b_ms.", "run minus Phase B: loader, dirty diff/apply, comm, plan cache, scheduler, host statements"},
	} {
		for _, p := range programRows {
			d = append(d, metricDef{Name: m.name + p, Unit: "ms", Better: lower, Clock: host, Def: m.def,
				Moves: timeMoves, On: rowWorkload(p)})
		}
	}
	for _, p := range stencilRows {
		d = append(d, metricDef{Name: "rt.us_per_launch." + p, Unit: "us", Better: lower, Clock: host,
			Def: "rt.run_ms divided by rt.launches of the row", Moves: "op_ms_p50", On: rowWorkload(p)})
	}
	d = append(d,
		metricDef{Name: "rt.async_overlay_ms", Unit: "ms", Better: lower, Clock: host, Def: "rt.run_ms.dist_small minus rt.run_ms.dist_small_sync: host cost of the async re-timing overlay", Moves: "op_ms_p50", On: "stencil_dist"},
		metricDef{Name: "rt.launches", Unit: "count", Better: lower, Clock: simClk, Exact: true, Def: "Report.KernelLaunches per op", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.spec_hits", Unit: "count", Better: higher, Exact: true, Def: "Runtime.SpecHits per op", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.spec_fallbacks", Unit: "count", Better: lower, Exact: true, Def: "Runtime.SpecFallbacks per op", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.fused_launches", Unit: "count", Better: higher, Exact: true, Def: "Runtime.FusedLaunches per op", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.sim_kernel_ms", Unit: "ms", Better: lower, Clock: simClk, Exact: true, Def: "Report.KernelTime per op (Fig. 8 KERNELS)", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.sim_cpugpu_ms", Unit: "ms", Better: lower, Clock: simClk, Exact: true, Def: "Report.CPUGPUTime per op (Fig. 8 CPU-GPU)", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.sim_gpugpu_ms", Unit: "ms", Better: lower, Clock: simClk, Exact: true, Def: "Report.GPUGPUTime per op (Fig. 8 GPU-GPU)", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.reloads", Unit: "count", Better: lower, Exact: true, Def: "loader.reloads of a tracer-attached run of every row", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.reload_skips", Unit: "count", Better: higher, Exact: true, Def: "loader.reload_skips of the same runs", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.plan_hits", Unit: "count", Better: higher, Exact: true, Def: "plan.hits of the same runs", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.plan_misses", Unit: "count", Better: lower, Exact: true, Def: "plan.misses of the same runs", Moves: countMoves, On: progOn},
		metricDef{Name: "rt.sim_distinct", Unit: "count", Better: lower, Def: "most distinct simulated-statistics tuples one program row (or one hot accd request) produced across ops; 1 when deterministic", Moves: "none: a correctness finding", On: "all but compile_cold"},
		metricDef{Name: "trace.on_overhead_pct", Unit: "%", Better: lower, Clock: host, Def: "the workload's first row with Config.Trace set against bare, medians of alternating runs", Moves: "none: tracing is off end to end; ROADMAP budget 10 %", On: "stencil_dist (dist_small)"},
		metricDef{Name: "trace.spans", Unit: "count", Better: lower, Exact: true, Def: "spans a tracer collects over one run of every row", Moves: countMoves, On: "stencil_dist"},
		metricDef{Name: "trace.write_chrome_ms", Unit: "ms", Better: lower, Clock: host, Def: "trace.WriteChrome of those spans", Moves: "none", On: "stencil_dist"},
		metricDef{Name: "audit.on_ratio", Unit: "ratio", Better: lower, Clock: host, Def: "the workload's first row with Config.Audit set against bare (the auditor swaps in the interpreter)", Moves: "none: the row ROADMAP item 3 must shrink", On: "stencil_repl (repl_small)"},
	)
	for _, kind := range serveKinds {
		d = append(d, metricDef{Name: "serve.req_ms_p50." + kind, Unit: "ms", Better: lower, Clock: host,
			Def: "median latency of " + kind + " requests", Moves: "op_ms_p50, op_ms_p90, ops_per_s", On: "serve_mixed"})
	}
	const serveMoves = "op_ms_p50, op_ms_p90, ops_per_s"
	d = append(d,
		metricDef{Name: "serve.req_ms_p99", Unit: "ms", Better: lower, Clock: host, Def: "99th percentile latency over all requests", Moves: "op_ms_p90", On: "serve_mixed"},
		metricDef{Name: "serve.cache_hits", Unit: "count", Better: higher, Exact: true, Def: "cache.hit per round, from GET /v1/metrics", Moves: countMoves, On: "serve_mixed"},
		metricDef{Name: "serve.cache_misses", Unit: "count", Better: lower, Exact: true, Def: "cache.miss per round", Moves: countMoves, On: "serve_mixed"},
		metricDef{Name: "serve.cache_evictions", Unit: "count", Better: lower, Exact: true, Def: "cache.evict per round", Moves: countMoves, On: "serve_mixed"},
		metricDef{Name: "serve.pool_create", Unit: "count", Better: lower, Def: "pool.create per round (depends on how the clients interleave)", Moves: serveMoves, On: "serve_mixed"},
		metricDef{Name: "serve.pool_reuse", Unit: "count", Better: higher, Def: "pool.reuse per round", Moves: serveMoves, On: "serve_mixed"},
		metricDef{Name: "serve.queue_wait_us_mean", Unit: "us", Better: lower, Clock: host, Def: "mean of the queue.wait_us histogram: rises before throughput flattens", Moves: "op_ms_p90", On: "serve_mixed"},
		metricDef{Name: "serve.run_service_us_mean", Unit: "us", Better: lower, Clock: host, Def: "mean of the run.service_us histogram", Moves: serveMoves, On: "serve_mixed"},
		metricDef{Name: "serve.cache_get_us", Unit: "us", Better: lower, Clock: host, Def: "Server.Cache().GetOrCompile on a hot source: hash and lookup", Moves: serveMoves, On: "serve_mixed"},
		metricDef{Name: "serve.resp_kb_per_op", Unit: "kB", Better: lower, Exact: true, Def: "reply bytes per request", Moves: countMoves, On: "serve_mixed"},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Clock: host, Def: "op_ms_p50 of the traced segment against the untraced segment of the same run", Moves: "none: sanity of the harness", On: "all"},
		metricDef{Name: "bench.op_ms_p90", Unit: "ms", Better: lower, Clock: host, Def: "90th percentile op wall time, host factor divided out, over the untraced segment (the issue's end-to-end op_ms_p90, demoted: it does not repeat within a tenth on the reference box)", Moves: "none: reported, not bounded", On: "all"},
		metricDef{Name: "bench.peak_rss_mb", Unit: "MB", Better: lower, Clock: host, Def: "peak resident set of the process at exit (the issue's end-to-end peak_rss_mb, demoted: on compile_cold it is 15 or 28 MB from run to run, as the collector's pacing falls)", Moves: "none: reported, not bounded", On: "all"},
		metricDef{Name: "bench.span_coverage_pct", Unit: "%", Better: higher, Clock: host, Def: "share of the op spans that their child spans account for", Moves: "none: sanity of the harness", On: "all"},
		metricDef{Name: "bench.gc_cycles_per_op", Unit: "count", Better: lower, Clock: host, Def: "garbage collections over the traced segment, per op", Moves: "cpu_ms_per_op, op_ms_p90", On: "all"},
		metricDef{Name: "bench.gc_pause_ms_per_op", Unit: "ms", Better: lower, Clock: host, Def: "stop-the-world pause over the traced segment, per op", Moves: "op_ms_p90", On: "all"},
	)
	return d
}
