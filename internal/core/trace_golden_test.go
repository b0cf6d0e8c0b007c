package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"accmulti/internal/analysis"
	"accmulti/internal/apps"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/trace"
)

// Golden Chrome traces for three representative programs. Each .trace.json
// under examples/ is exactly what -trace writes for the pinned binding, so
// any change to the loader, the comm manager, the launch path or the cost
// model that moves a single span must regenerate the golden and explain the
// move in the diff:
//
//	go test ./internal/core -run TestTraceGolden -update-trace-goldens
var updateTraceGoldens = flag.Bool("update-trace-goldens", false,
	"rewrite the examples/*.trace.json golden files")

// embeddedSource extracts the backquoted `const source` program from an
// example's main.go, so the goldens track the shipped examples verbatim.
func embeddedSource(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "const source = `"
	s := string(data)
	i := strings.Index(s, marker)
	if i < 0 {
		t.Fatalf("%s: no embedded source", path)
	}
	rest := s[i+len(marker):]
	j := strings.Index(rest, "`")
	if j < 0 {
		t.Fatalf("%s: unterminated embedded source", path)
	}
	return rest[:j]
}

// traceCases pin one program per subsystem flavor: the 4-GPU megaelement
// stencil (halo exchanges, the acceptance-criteria trace), kmeans
// (reductiontoarray hierarchies), and the vet showcase exchange program.
func traceCases(t *testing.T) []struct {
	name   string
	golden string
	run    func(t *testing.T, tr *trace.Tracer) *Result
} {
	exDir := filepath.Join("..", "..", "examples")
	stencilSrc := embeddedSource(t, filepath.Join(exDir, "stencil1d", "main.go"))
	kmeansSrc := embeddedSource(t, filepath.Join(exDir, "kmeans", "main.go"))
	exchangeFile := filepath.Join(exDir, "vet", "stencil_exchange.c")

	return []struct {
		name   string
		golden string
		run    func(t *testing.T, tr *trace.Tracer) *Result
	}{
		{
			name:   "stencil1d",
			golden: filepath.Join(exDir, "stencil1d", "stencil1d.trace.json"),
			run: func(t *testing.T, tr *trace.Tracer) *Result {
				const n, steps = 1 << 20, 3
				prog, err := Compile(stencilSrc)
				if err != nil {
					t.Fatal(err)
				}
				a := &ir.HostArray{F32: make([]float32, n)}
				a.F32[n/2] = 1000
				bind := ir.NewBindings().
					SetScalar("n", n).SetScalar("steps", steps).SetArray("a", a)
				res, err := prog.Run(bind, Config{Machine: sim.Desktop().WithGPUs(4), Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		},
		{
			// The same stencil binding under the pipelined scheduler:
			// the golden pins the overlapped schedule itself — halo
			// pushes departing at graded-write fractions of the
			// producing kernel, consuming kernels starting as soon as
			// their ghost cells land, GPUs running skewed.
			name:   "stencil1d-async",
			golden: filepath.Join(exDir, "stencil1d", "stencil1d.async.trace.json"),
			run: func(t *testing.T, tr *trace.Tracer) *Result {
				const n, steps = 1 << 20, 3
				prog, err := Compile(stencilSrc)
				if err != nil {
					t.Fatal(err)
				}
				a := &ir.HostArray{F32: make([]float32, n)}
				a.F32[n/2] = 1000
				bind := ir.NewBindings().
					SetScalar("n", n).SetScalar("steps", steps).SetArray("a", a)
				res, err := prog.Run(bind, Config{
					Machine: sim.Desktop().WithGPUs(4), Trace: tr,
					Options: rt.Options{Async: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		},
		{
			// The same stencil on a 2-node x 2-GPU cluster: the golden
			// pins the node-level trace layout — halo pushes on the
			// per-node NIC lanes, labeled "nic" when they cross the
			// network and "p2p" when they stay inside a node, and
			// copy-ins to node 1 tagged with the NIC path.
			name:   "stencil1d-2x2",
			golden: filepath.Join(exDir, "stencil1d", "stencil1d.2x2.trace.json"),
			run: func(t *testing.T, tr *trace.Tracer) *Result {
				const n, steps = 1 << 20, 3
				prog, err := Compile(stencilSrc)
				if err != nil {
					t.Fatal(err)
				}
				a := &ir.HostArray{F32: make([]float32, n)}
				a.F32[n/2] = 1000
				bind := ir.NewBindings().
					SetScalar("n", n).SetScalar("steps", steps).SetArray("a", a)
				res, err := prog.Run(bind, Config{Machine: sim.Cluster(2, 2), Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		},
		{
			name:   "kmeans",
			golden: filepath.Join(exDir, "kmeans", "kmeans.trace.json"),
			run: func(t *testing.T, tr *trace.Tracer) *Result {
				const n, nf, k, iters = 2000, 4, 3, 2
				prog, err := Compile(kmeansSrc)
				if err != nil {
					t.Fatal(err)
				}
				feat := &ir.HostArray{F32: make([]float32, n*nf)}
				for i := range feat.F32 {
					// Deterministic pseudo-data; no RNG so the binding is a constant.
					feat.F32[i] = float32((i*2654435761)%1000) / 250
				}
				clusters := &ir.HostArray{F32: make([]float32, k*nf)}
				copy(clusters.F32, feat.F32[:k*nf])
				member := &ir.HostArray{I32: make([]int32, n)}
				bind := ir.NewBindings().
					SetScalar("n", n).SetScalar("nf", nf).SetScalar("k", k).SetScalar("iters", iters).
					SetArray("feat", feat).SetArray("clusters", clusters).SetArray("member", member)
				res, err := prog.Run(bind, Config{Machine: sim.Desktop(), Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		},
		{
			name:   "stencil_exchange",
			golden: filepath.Join(exDir, "vet", "stencil_exchange.trace.json"),
			run: func(t *testing.T, tr *trace.Tracer) *Result {
				res, err := runExchange(exchangeFile, sim.Desktop().WithGPUs(4), rt.Options{}, tr)
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		},
	}
}

// runExchange runs examples/vet/stencil_exchange.c at n=256 on the given
// machine; shared with the metrics cross-checks below.
func runExchange(path string, spec sim.MachineSpec, opts rt.Options, tr *trace.Tracer) (*Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := Compile(string(src))
	if err != nil {
		return nil, err
	}
	const n = 256
	a := &ir.HostArray{F32: make([]float32, n)}
	b := &ir.HostArray{F32: make([]float32, n)}
	for i := 0; i < n; i++ {
		a.F32[i] = float32(i % 17)
	}
	bind := ir.NewBindings().SetScalar("n", n).SetArray("a", a).SetArray("b", b)
	return prog.Run(bind, Config{Machine: spec, Options: opts, Trace: tr})
}

func chromeTrace(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceGolden(t *testing.T) {
	for _, tc := range traceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			tc.run(t, tr)
			got := chromeTrace(t, tr)

			// Determinism first: a second run must reproduce the bytes.
			tr2 := trace.New()
			tc.run(t, tr2)
			if !bytes.Equal(got, chromeTrace(t, tr2)) {
				t.Fatal("trace bytes differ across two identical runs; golden comparison would be meaningless")
			}
			if err := trace.CheckWellFormed(tr.Spans()); err != nil {
				t.Fatal(err)
			}

			if *updateTraceGoldens {
				if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes, %d spans)", tc.golden, len(got), len(tr.Spans()))
				return
			}

			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update-trace-goldens to create): %v", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			// Bytes moved: report the first divergent span, not a wall of JSON.
			wantSpans, perr := trace.ParseChrome(want)
			if perr != nil {
				t.Fatalf("golden unparsable: %v", perr)
			}
			gotSpans, perr := trace.ParseChrome(got)
			if perr != nil {
				t.Fatalf("generated trace unparsable: %v", perr)
			}
			if diff := trace.DiffSpans(gotSpans, wantSpans); diff != "" {
				t.Fatalf("trace diverged from golden %s:\n%s", tc.golden, diff)
			}
			t.Fatalf("trace bytes diverged from golden %s with identical span structure (header or metadata change?)", tc.golden)
		})
	}
}

// TestTraceMetricsCrossCheck ties the three observability layers
// together on the vet showcase program: the metrics registry must agree
// with the Report's transfer accounting, the spec counters must agree
// with the runtime's own, and the halo-exchange spans must realize
// exactly the exchanges the static analyzer predicts via ACCV007.
func TestTraceMetricsCrossCheck(t *testing.T) {
	const gpus = 4
	path := filepath.Join("..", "..", "examples", "vet", "stencil_exchange.c")
	tr := trace.New()
	res, err := runExchange(path, sim.Desktop().WithGPUs(gpus), rt.Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics()

	// Metrics vs Report transfer totals.
	if got, want := m.Counter("bytes.h2d"), res.Report.BytesH2D; got != want {
		t.Errorf("bytes.h2d metric = %d, Report.BytesH2D = %d", got, want)
	}
	if got, want := m.Counter("bytes.d2h"), res.Report.BytesD2H; got != want {
		t.Errorf("bytes.d2h metric = %d, Report.BytesD2H = %d", got, want)
	}
	if got, want := m.Counter("bytes.p2p"), res.Report.BytesP2P; got != want {
		t.Errorf("bytes.p2p metric = %d, Report.BytesP2P = %d", got, want)
	}

	// Spec counters vs the runtime's own bookkeeping: every spec.*
	// metric equals its SpecStats field, and no other spec.* key exists.
	stats := res.Runtime.SpecStats()
	checkSpecMetrics(t, "stencil_exchange", m, stats)
	// No tile of a stencil watches a window (TestObserversKeepTheBody
	// holds the metric against the count on BFS, where it is non-zero).
	if stats.TiledIters == 0 || stats.HazardLanes != 0 {
		t.Errorf("SpecStats = %+v, want tiled iterations and no hazard lanes", stats)
	}

	// Scheduler counters: the synchronous schedule has no scheduler, so
	// neither exists; under async every priced batch issues as at least
	// one sub-batch, and a batch the hazards serialise shows as many.
	var syncJSON bytes.Buffer
	if err := m.WriteJSON(&syncJSON); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(syncJSON.Bytes(), []byte("sched.")) {
		t.Errorf("synchronous run recorded scheduler metrics:\n%s", syncJSON.Bytes())
	}
	atr := trace.New()
	if _, err := runExchange(path, sim.Desktop().WithGPUs(gpus), rt.Options{Async: true}, atr); err != nil {
		t.Fatal(err)
	}
	batches, subs := atr.Metrics().Counter("sched.batches"), atr.Metrics().Counter("sched.sub_batches")
	if batches == 0 || subs < batches {
		t.Errorf("async run: sched.batches = %d, sched.sub_batches = %d, want 0 < batches <= sub_batches", batches, subs)
	}

	// Halo spans vs the ACCV007 predictions. The vetter predicts an
	// exchange for exactly the arrays written distributed and re-read
	// with a halo footprint; the trace must show halo-exchange spans for
	// exactly those arrays and no others.
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	vet, err := prog.Vet()
	if err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`array "([^"]+)"`)
	predicted := map[string]bool{}
	for _, d := range vet.Diags.ByCode("ACCV007") {
		mm := nameRe.FindStringSubmatch(d.Message)
		if mm == nil {
			t.Fatalf("ACCV007 message without array name: %s", d.Message)
		}
		predicted[mm[1]] = true
	}
	if len(predicted) != 2 {
		t.Fatalf("expected ACCV007 for both stencil arrays, got %v", predicted)
	}
	haloCount := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindHalo {
			haloCount[s.Name]++
		}
	}
	for name := range haloCount {
		if !predicted[name] {
			t.Errorf("halo-exchange spans for %q, but no ACCV007 prediction", name)
		}
	}
	for name := range predicted {
		if haloCount[name] == 0 {
			t.Errorf("ACCV007 predicts an exchange for %q, but the trace has no halo-exchange spans", name)
		}
	}
	// The program iterates 10 times with two sweeps. Array "a" (written
	// by the second sweep, halo-read by the first) exchanges after each
	// of its 10 writer launches; "b" (written first, halo-read second)
	// has no resident halo windows yet on iteration 0, so it exchanges
	// only 9 times. Each exchange round moves both boundary elements of
	// every adjacent GPU pair: 2*(gpus-1) spans.
	perRound := 2 * (gpus - 1)
	if got, want := haloCount["a"], 10*perRound; got != want {
		t.Errorf(`halo spans for "a" = %d, ACCV007 predicts %d (10 rounds x %d)`, got, want, perRound)
	}
	if got, want := haloCount["b"], 9*perRound; got != want {
		t.Errorf(`halo spans for "b" = %d, ACCV007 predicts %d (9 rounds x %d)`, got, want, perRound)
	}
}

// TestMultiNodeTraceMetricsCrossCheck re-runs the showcase program on a
// 2-node x 2-GPU cluster and ties the static prediction to the node
// topology: analysis.ExchangeTransfers gives the per-round transfer
// count and how many of those must cross the network, and the trace's
// halo spans must realize exactly that split — "nic"-tagged spans for
// the node-boundary pair, unmarked or "p2p" spans inside a node. The
// runtime's halo-exchange events must report the same inter-node count.
func TestMultiNodeTraceMetricsCrossCheck(t *testing.T) {
	const nodes, gpus = 2, 4
	spec := sim.Cluster(nodes, gpus/nodes)
	path := filepath.Join("..", "..", "examples", "vet", "stencil_exchange.c")
	tr := trace.New()
	res, err := runExchange(path, spec, rt.Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}

	perRound, interPerRound := analysis.ExchangeTransfers(nodes, gpus)
	rounds := map[string]int{"a": 10, "b": 9} // see TestTraceMetricsCrossCheck
	haloCount := map[string]int{}
	nicCount := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindHalo {
			continue
		}
		haloCount[s.Name]++
		if s.Detail == "nic" {
			nicCount[s.Name]++
			if !spec.CrossNode(s.Src, s.Dst) {
				t.Errorf("halo span %q (%d -> %d) tagged nic inside one node", s.Name, s.Src, s.Dst)
			}
		} else if spec.CrossNode(s.Src, s.Dst) {
			t.Errorf("halo span %q (%d -> %d) crosses nodes without the nic tag", s.Name, s.Src, s.Dst)
		}
	}
	for name, r := range rounds {
		if got, want := haloCount[name], r*perRound; got != want {
			t.Errorf("halo spans for %q = %d, ExchangeTransfers predicts %d (%d rounds x %d)",
				name, got, want, r, perRound)
		}
		if got, want := nicCount[name], r*interPerRound; got != want {
			t.Errorf("nic-tagged halo spans for %q = %d, ExchangeTransfers predicts %d (%d rounds x %d)",
				name, got, want, r, interPerRound)
		}
	}

	// The runtime's own halo-exchange events report the inter-node count
	// the comm manager actually scheduled; summed, it must equal the
	// nic-tagged span population.
	interRe := regexp.MustCompile(`\((\d+) inter-node\)`)
	eventInter := 0
	for _, ev := range res.Report.Events {
		if ev.Kind != "halo-exchange" {
			continue
		}
		mm := interRe.FindStringSubmatch(ev.Detail)
		if mm == nil {
			t.Fatalf("multi-node halo-exchange event without inter-node count: %s", ev.Detail)
		}
		n, _ := strconv.Atoi(mm[1])
		eventInter += n
	}
	wantInter := 0
	for _, n := range nicCount {
		wantInter += n
	}
	if eventInter != wantInter {
		t.Errorf("halo-exchange events report %d inter-node transfers, trace has %d nic-tagged halo spans",
			eventInter, wantInter)
	}
}

// checkSpecMetrics holds the tracer's spec.* counters against the
// run's SpecStats: the same keys (a key only when non-zero) and values.
func checkSpecMetrics(t *testing.T, label string, m *trace.Metrics, st rt.SpecStats) {
	t.Helper()
	want := map[string]int64{
		"spec.hits": st.Hits, "spec.fallbacks": st.Fallbacks, "spec.split_pieces": st.SplitPieces,
		"spec.tiled_iters": st.TiledIters, "spec.hazard_lanes": st.HazardLanes, "spec.flat_cuts": st.FlatCuts,
	}
	for prefix, by := range map[string]map[string]int64{
		"spec.fallbacks.": st.FallbackReasons, "spec.reject.": st.Rejects,
	} {
		for reason, n := range by {
			want[prefix+reason] = n
		}
	}
	for key, n := range want {
		if n == 0 {
			delete(want, key)
		}
	}
	var dump bytes.Buffer
	if err := m.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(dump.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for key, n := range doc.Counters {
		if strings.HasPrefix(key, "spec.") {
			got[key] = n
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: spec.* metrics %v, SpecStats says %v", label, got, want)
	}
}

// TestObserversKeepTheBody pins that neither an observer nor the
// schedule changes which kernel body runs: MD (gathers in lockstep
// tiles), KMEANS (lockstep tiles for both kernels, the center update's
// store under an arm on replicated arrays marking from the arm's lanes)
// and BFS (tiles whose flat loop now and then stores into the tile's own
// window) count the same SpecStats — hits, fallbacks, tiled iterations,
// hazard lanes, flat cuts, rejects and split pieces — bare on the
// synchronous schedule, with the span tracer,
// under the shadow auditor, with a fault plan armed (its rate never
// fires), on the async schedule and with all of them at once; the
// tracer's metrics agree with the runtime's counts.
func TestObserversKeepTheBody(t *testing.T) {
	for name, scale := range map[string]float64{"MD": 0.03, "KMEANS": 0.004, "BFS": 0.002} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg Config) *rt.Runtime {
			in, err := app.Generate(scale, 42)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Run(in.Bindings, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Runtime
		}
		bare := run(Config{}).SpecStats()
		if bare.TiledIters == 0 || name == "BFS" && bare.HazardLanes == 0 {
			t.Fatalf("%s ran %d iterations in tiles, %d hazard lanes; test premise broken", name, bare.TiledIters, bare.HazardLanes)
		}
		tr := trace.New()
		// The oracle compares KMEANS' clusters bit for bit, and they derive
		// from float32 sums the GPUs associate in another order: the shadow
		// auditor refuses that app on every engine, so MD stands in for it.
		audited := name != "KMEANS"
		armed := &sim.FaultPlan{Seed: 1, TransferFailRate: 1e-12}
		for label, r := range map[string]*rt.Runtime{
			"tracer":     run(Config{Trace: tr}),
			"auditor":    run(Config{Audit: audited}),
			"fault plan": run(Config{Faults: armed}),
			"async":      run(Config{Options: rt.Options{Async: true}}),
			"everything": run(Config{Audit: audited, Trace: trace.New(), Faults: armed,
				Options: rt.Options{Async: true}}),
		} {
			if got := r.SpecStats(); !reflect.DeepEqual(got, bare) {
				t.Errorf("%s with %s: %+v; bare: %+v", name, label, got, bare)
			}
		}
		checkSpecMetrics(t, name, tr.Metrics(), bare)
	}
}
