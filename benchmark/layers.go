package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"accmulti/internal/analysis"
	"accmulti/internal/cc"
	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
	"accmulti/internal/translator"
)

// This file is the traced pass: every call the benchmark makes on a
// single layer's public function is here, each inside a span. Nothing
// in the end-to-end pass depends on it, so when a refactor moves one
// of these functions only the per-layer numbers need repair.

// layerMetrics collects the per-layer metrics of one traced run.
type layerMetrics map[string]float64

// layerState is what a workload keeps for the traced pass: the exact
// counts of its latest op (whole op and per program row) and set-up
// timings.
type layerState struct {
	generate  map[string]time.Duration
	opCounts  map[string]int64
	rowCounts map[string]map[string]int64
}

func (s *layerState) noteGenerate(app string, d time.Duration) {
	if s.generate == nil {
		s.generate = map[string]time.Duration{}
	}
	s.generate[app] = d
}

func (s *layerState) resetCounts() {
	s.opCounts = map[string]int64{}
	s.rowCounts = map[string]map[string]int64{}
}

func (s *layerState) count(row, name string, v int64) {
	s.opCounts[name] += v
	if s.rowCounts[row] == nil {
		s.rowCounts[row] = map[string]int64{}
	}
	s.rowCounts[row][name] += v
}

// tracedCompile is core.Compile taken apart: lex (a second time, on
// its own, since ParseProgram lexes internally), parse, translate.
func (s *layerState) tracedCompile(log *spanLog, op int, row, src string) (*cc.Program, *ir.Module, error) {
	id := log.begin("cc.lex", row, op)
	toks, err := cc.Lex(src)
	log.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = log.begin("cc.parse", row, op)
	prog, err := cc.ParseProgram(src)
	log.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = log.begin("translator.translate", row, op)
	mod, err := translator.Translate(prog)
	log.end(id)
	if err != nil {
		return nil, nil, err
	}
	spec := 0
	for _, k := range mod.Kernels {
		if k.Spec != nil {
			spec++
		}
	}
	s.count(row, "cc.tokens", int64(len(toks)))
	s.count(row, "cc.src_bytes", int64(len(src)))
	s.count(row, "translator.kernels", int64(len(mod.Kernels)))
	s.count(row, "translator.spec_kernels", int64(spec))
	s.count(row, "translator.gen_src_bytes", int64(len(mod.GeneratedSource)))
	return prog, mod, nil
}

// tracedRun is Program.Run taken apart: machine, bind, runtime.
func (s *layerState) tracedRun(log *spanLog, op int, r *progRow, mod *ir.Module) error {
	id := log.begin("sim.machine_new", r.name, op)
	mach, err := sim.NewMachine(r.machine)
	log.end(id)
	if err != nil {
		return err
	}
	id = log.begin("ir.bind", r.name, op)
	inst, err := mod.Bind(r.bind)
	log.end(id)
	if err != nil {
		return err
	}
	id = log.begin("rt.run", r.name, op)
	run := rt.New(mach, r.opts)
	err = run.Run(inst)
	rep := run.Report()
	log.end(id)
	if err != nil {
		return err
	}
	log.synthetic("rt.phase_b", r.name, id, run.PhaseBWall())
	r.inst, r.rep = inst, rep
	r.specTuple = fmt.Sprintf(" spec=%d/%d fused=%d", run.SpecHits(), run.SpecFallbacks(), run.FusedLaunches())

	s.count(r.name, "sim.bytes_h2d", rep.BytesH2D)
	s.count(r.name, "sim.bytes_d2h", rep.BytesD2H)
	s.count(r.name, "sim.bytes_p2p", rep.BytesP2P)
	s.count(r.name, "sim.flops", rep.Counters.Flops)
	s.count(r.name, "sim.iterations", rep.Counters.Iterations)
	s.count(r.name, "sim.total_ns", int64(rep.Total()))
	s.count(r.name, "rt.launches", int64(rep.KernelLaunches))
	s.count(r.name, "rt.spec_hits", run.SpecHits())
	s.count(r.name, "rt.spec_fallbacks", run.SpecFallbacks())
	s.count(r.name, "rt.fused_launches", int64(run.FusedLaunches()))
	s.count(r.name, "rt.sim_kernel_ns", int64(rep.KernelTime))
	s.count(r.name, "rt.sim_cpugpu_ns", int64(rep.CPUGPUTime))
	s.count(r.name, "rt.sim_gpugpu_ns", int64(rep.GPUGPUTime))
	return nil
}

func (w *progWorkload) runTraced(log *spanLog, lat []time.Duration) []time.Duration {
	w.resetCounts()
	t0 := time.Now()
	op := log.begin("op", "", -1)
	for _, r := range w.rows {
		_, mod, err := w.tracedCompile(log, op, r.name, r.source)
		if err == nil {
			err = w.tracedRun(log, op, r, mod)
		}
		r.err = err
	}
	log.end(op)
	return append(lat, time.Since(t0))
}

// setCommon fills the metrics every workload derives the same way from
// its spans and the exact counts of its latest op.
func (s *layerState) setCommon(log *spanLog, lm layerMetrics) {
	lm["cc.lex_ms"] = log.medianMS("cc.lex", "", false)
	lm["cc.parse_ms"] = log.medianMS("cc.parse", "", false)
	if p := lm["cc.parse_ms"]; p > 0 {
		lm["cc.src_kb_per_s"] = float64(s.opCounts["cc.src_bytes"]) / 1e3 / (p / 1e3)
	}
	lm["cc.tokens"] = float64(s.opCounts["cc.tokens"])
	lm["translator.translate_ms"] = log.medianMS("translator.translate", "", false)
	lm["translator.kernels"] = float64(s.opCounts["translator.kernels"])
	lm["translator.spec_kernels"] = float64(s.opCounts["translator.spec_kernels"])
	lm["translator.gen_src_kb"] = float64(s.opCounts["translator.gen_src_bytes"]) / 1e3
	lm["analysis.vet_ms"] = log.medianMS("analysis.vet", "", false)
	lm["analysis.diags"] = float64(s.opCounts["analysis.diags"])
	lm["sim.machine_new_ms"] = log.medianMS("sim.machine_new", "", false)
	lm["ir.bind_ms"] = log.medianMS("ir.bind", "", false)
	for app, d := range s.generate {
		lm["apps.generate_ms."+app] = ms(d)
	}
	for _, name := range []string{"sim.bytes_h2d", "sim.bytes_d2h", "sim.bytes_p2p", "sim.flops", "sim.iterations",
		"rt.launches", "rt.spec_hits", "rt.spec_fallbacks", "rt.fused_launches"} {
		lm[name] = float64(s.opCounts[name])
	}
	lm["sim.ms_per_op"] = float64(s.opCounts["sim.total_ns"]) / 1e6
	lm["rt.sim_kernel_ms"] = float64(s.opCounts["rt.sim_kernel_ns"]) / 1e6
	lm["rt.sim_cpugpu_ms"] = float64(s.opCounts["rt.sim_cpugpu_ns"]) / 1e6
	lm["rt.sim_gpugpu_ms"] = float64(s.opCounts["rt.sim_gpugpu_ns"]) / 1e6
	lm["bench.span_coverage_pct"] = log.coveragePct()
}

// Repetitions of the variant runs in extras: enough for a median, few
// enough that the traced run stays as long as the untraced one.
const (
	variantReps = 5
	auditReps   = 2
)

func (w *progWorkload) extras(log *spanLog, lm layerMetrics) error {
	w.setCommon(log, lm)
	for _, r := range w.rows {
		run := log.medianMS("rt.run", r.name, false)
		phaseB := log.medianMS("rt.phase_b", r.name, false)
		lm["rt.run_ms."+r.name] = run
		lm["rt.phase_b_ms."+r.name] = phaseB
		lm["rt.outside_b_ms."+r.name] = log.medianMS("rt.run", r.name, true)
		if it := w.rowCounts[r.name]["sim.iterations"]; it > 0 {
			lm["ir.kernel_ns_per_iter."+r.name] = phaseB * 1e6 / float64(it)
		}
		if n := w.rowCounts[r.name]["rt.launches"]; n > 0 && r.stencil {
			lm["rt.us_per_launch."+r.name] = run * 1e3 / float64(n)
		}
	}
	if a, s := lm["rt.run_ms.dist_small"], lm["rt.run_ms.dist_small_sync"]; a > 0 && s > 0 {
		lm["rt.async_overlay_ms"] = a - s
	}

	// Tracer attached: the counts only a trace.Tracer sees, the cost of
	// rendering its spans, and what attaching it costs the run.
	var spans, reloads, skips, hits, misses int64
	var chrome time.Duration
	for _, r := range w.rows {
		tr := trace.New()
		if _, err := w.variant(r, core.Config{Trace: tr}); err != nil {
			return fmt.Errorf("%s with tracer: %w", r.name, err)
		}
		m := tr.Metrics()
		spans += int64(len(tr.Spans()))
		reloads += m.Counter("loader.reloads")
		skips += m.Counter("loader.reload_skips")
		hits += m.Counter("plan.hits")
		misses += m.Counter("plan.misses")
		t0 := time.Now()
		if err := trace.WriteChrome(io.Discard, tr); err != nil {
			return err
		}
		chrome += time.Since(t0)
	}
	lm["trace.spans"] = float64(spans)
	lm["rt.reloads"], lm["rt.reload_skips"] = float64(reloads), float64(skips)
	lm["rt.plan_hits"], lm["rt.plan_misses"] = float64(hits), float64(misses)
	lm["trace.write_chrome_ms"] = ms(chrome)

	// Observer cost on the workload's first row, bare and observed runs
	// alternating so that drift hits both alike.
	first := w.rows[0]
	var bare, traced, audited []float64
	for i := 0; i < repeats(w.quick, variantReps); i++ {
		d, err := w.variant(first, core.Config{})
		if err != nil {
			return err
		}
		bare = append(bare, ms(d))
		if d, err = w.variant(first, core.Config{Trace: trace.New()}); err != nil {
			return err
		}
		traced = append(traced, ms(d))
		if i < repeats(w.quick, auditReps) {
			if d, err = w.variant(first, core.Config{Audit: true}); err != nil {
				return fmt.Errorf("%s with auditor: %w", first.name, err)
			}
			audited = append(audited, ms(d))
		}
	}
	lm["trace.on_overhead_pct"] = 100 * (medianF(traced)/medianF(bare) - 1)
	lm["audit.on_ratio"] = medianF(audited) / medianF(bare)
	return nil
}

// variant runs one row once more through core with an observer set in
// cfg, on a fresh input copy, and returns how long the run took.
func (w *progWorkload) variant(r *progRow, cfg core.Config) (time.Duration, error) {
	prog, err := core.Compile(r.source)
	if err != nil {
		return 0, err
	}
	cfg.Machine, cfg.Options = r.machine, r.opts
	bind := cloneBindings(r.input)
	t0 := time.Now()
	_, err = prog.Run(bind, cfg)
	return time.Since(t0), err
}

func (w *compileWorkload) runTraced(log *spanLog, lat []time.Duration) []time.Duration {
	w.resetCounts()
	t0 := time.Now()
	op := log.begin("op", "", -1)
	for _, u := range w.units {
		prog, mod, err := w.tracedCompile(log, op, u.name, u.source)
		if err != nil {
			u.err = err
			continue
		}
		id := log.begin("analysis.vet", u.name, op)
		vet, err := analysis.Vet(prog)
		log.end(id)
		if err != nil {
			u.err = err
			continue
		}
		id = log.begin("diag.format", u.name, op)
		u.loops, u.genLen = len(mod.Kernels), len(mod.GeneratedSource)
		u.errors = vet.Diags.HasErrors()
		u.diag = vet.Diags.Format(u.name)
		log.end(id)
		w.count(u.name, "analysis.diags", int64(len(vet.Diags)))
	}
	log.end(op)
	return append(lat, time.Since(t0))
}

func (w *compileWorkload) extras(log *spanLog, lm layerMetrics) error {
	w.setCommon(log, lm)
	return nil
}

// serveLayerState is the traced pass's side of serve_mixed: the
// service counters as they stood before the first traced round.
type serveLayerState struct {
	metrics0     *serviceMetrics
	tracedRounds int
}

// serviceMetrics is the body of GET /v1/metrics.
type serviceMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Sum int64 `json:"sum"`
		N   int64 `json:"n"`
	} `json:"histograms"`
}

func (w *serveWorkload) readMetrics() (*serviceMetrics, error) {
	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", rec.Code)
	}
	var m serviceMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return &m, nil
}

func (w *serveWorkload) runTraced(log *spanLog, lat []time.Duration) []time.Duration {
	if w.metrics0 == nil {
		m, err := w.readMetrics()
		if err != nil {
			panic(err) // the handler answered every warm-up request
		}
		w.metrics0 = m
	}
	w.tracedRounds++
	return w.runRound(log, lat)
}

func (w *serveWorkload) extras(log *spanLog, lm layerMetrics) error {
	m1, err := w.readMetrics()
	if err != nil {
		return err
	}
	m0, rounds := w.metrics0, float64(w.tracedRounds)
	perRound := func(name string) float64 { return float64(m1.Counters[name]-m0.Counters[name]) / rounds }
	lm["serve.cache_hits"] = perRound("cache.hit")
	lm["serve.cache_misses"] = perRound("cache.miss")
	lm["serve.cache_evictions"] = perRound("cache.evict")
	lm["serve.pool_create"] = perRound("pool.create")
	lm["serve.pool_reuse"] = perRound("pool.reuse")
	mean := func(name string) float64 {
		h0, h1 := m0.Histograms[name], m1.Histograms[name]
		if h1.N == h0.N {
			return 0
		}
		return float64(h1.Sum-h0.Sum) / float64(h1.N-h0.N)
	}
	lm["serve.queue_wait_us_mean"] = mean("queue.wait_us")
	lm["serve.run_service_us_mean"] = mean("run.service_us")

	var all []float64
	for _, kind := range serveKinds {
		v := log.perOp("serve.request", kind, false)
		lm["serve.req_ms_p50."+kind] = medianF(v)
		all = append(all, v...)
	}
	sort.Float64s(all)
	lm["serve.req_ms_p99"] = quantile(all, 0.99)
	// Every round has the same composition, so the last one stands for all.
	var respBytes int
	for _, body := range w.resps {
		respBytes += len(body)
	}
	lm["serve.resp_kb_per_op"] = float64(respBytes) / 1e3 / float64(len(w.slots))

	// A direct cache probe on a hot source (MD): hash + lookup, no HTTP.
	const probes = 2000
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		if _, hit := w.server.Cache().GetOrCompile(w.hotSource); !hit {
			return fmt.Errorf("hot source missed the cache")
		}
	}
	lm["serve.cache_get_us"] = float64(time.Since(t0).Microseconds()) / probes

	// What a pool miss costs: building the machines the mix leases.
	var builds []float64
	for i := 0; i < 20; i++ {
		for _, name := range []string{"desktop", "2x2"} {
			t0 := time.Now()
			if _, err := sim.NewMachine(mustMachine(name)); err != nil {
				return err
			}
			builds = append(builds, ms(time.Since(t0)))
		}
	}
	lm["sim.machine_new_ms"] = medianF(builds)
	lm["bench.span_coverage_pct"] = log.coveragePct()
	return nil
}

// gcStats reads the collector's cycle count and total pause.
func gcStats() (cycles uint32, pause time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}
