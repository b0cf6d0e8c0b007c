package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/serve"
)

// serve_mixed: a closed loop of clients against an in-process accd
// handler. Callers of accd are CI and build clients that wait for a
// reply before sending the next request, hence closed loop. The
// requests and replies are the service's JSON wire format, spelled out
// here so that the benchmark depends on the protocol and not on the
// Go types behind it.

type arrayPayload struct {
	F32 []float32 `json:"f32,omitempty"`
}

type genSpec struct {
	App   string  `json:"app"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

type runReq struct {
	Source       string                   `json:"source"`
	Machine      string                   `json:"machine,omitempty"`
	Scalars      map[string]float64       `json:"scalars,omitempty"`
	Arrays       map[string]*arrayPayload `json:"arrays,omitempty"`
	Generator    *genSpec                 `json:"generator,omitempty"`
	Vet          bool                     `json:"vet,omitempty"`
	ReturnArrays []string                 `json:"return_arrays,omitempty"`
}

type compileReq struct {
	Source string `json:"source"`
	Vet    bool   `json:"vet,omitempty"`
}

// reply is the union of the fields the checks read from any response.
type reply struct {
	Digests map[string]string        `json:"digests"`
	Arrays  map[string]*arrayPayload `json:"arrays"`
	Stats   struct{ ParallelLoops int }
	Error   struct {
		Code string `json:"code"`
	} `json:"error"`
}

// The request kinds and how many slots of a round each takes. One
// round is the unit the exact per-round counts are taken over.
const (
	kindRunHot      = "run_hot"
	kindRunCold     = "run_cold"
	kindCompileHot  = "compile_hot"
	kindCompileCold = "compile_cold"
	kindRejected    = "rejected"
	kindInline      = "inline"

	// serveClients is the number of closed-loop clients and of accd run
	// slots: min(processors, 4), as a deployment would size them, which
	// is one on the single processor the runs are pinned to. More
	// clients than processors only adds the Go scheduler's interleaving
	// to every latency (op_ms_p50 then spreads 15 % from seed to seed).
	serveClients = benchProcs

	inlineN, inlineSteps = 16 << 10, 2
	// warmColdCompiles fills the program cache (256 entries by default)
	// before the first measured round, so that every round evicts.
	warmColdCompiles = 300
)

var serveKinds = []string{kindRunHot, kindRunCold, kindCompileHot, kindCompileCold, kindRejected, kindInline}

// roundMix is the share of each kind in a 200-request round: 50 % hot
// runs, 15 % hot compiles, 15 % cold runs, 10 % cold compiles, 5 %
// rejected, 5 % inline payloads.
var roundMix = map[string]int{
	kindRunHot: 100, kindCompileHot: 30, kindRunCold: 30,
	kindCompileCold: 20, kindRejected: 10, kindInline: 10,
}

// serveEntry is one distinct request of the corpus and what its reply
// must be.
type serveEntry struct {
	name       string // kind and position in the corpus, e.g. "run_hot/2"
	kind, path string
	run        *runReq
	compile    *compileReq
	body       []byte // marshaled once; cold kinds re-marshal with a salt

	wantStatus  int
	wantCode    string
	wantDigests map[string]string
	wantArray   []float32
	wantLoops   int
	// okBody is the last reply that passed every check. accd's replies
	// are pure functions of the request, so an identical reply passes
	// again without being decoded again.
	okBody []byte
}

func (e *serveEntry) cold() bool { return e.kind == kindRunCold || e.kind == kindCompileCold }

// salted re-marshals the entry with a comment that changes the content
// hash and nothing else.
func (e *serveEntry) salted(salt string) ([]byte, error) {
	if e.compile != nil {
		r := *e.compile
		r.Source = salt + r.Source
		return json.Marshal(&r)
	}
	r := *e.run
	r.Source = salt + r.Source
	return json.Marshal(&r)
}

type serveWorkload struct {
	handler http.Handler
	server  *serve.Server
	clients int
	slots   []*serveEntry // one round, in its seeded order
	// hotSource is a source every round compiles hot (MD), for the
	// traced pass's direct cache probe.
	hotSource string
	seed      int64
	salts     int
	testHooks

	bodies [][]byte
	codes  []int
	resps  [][]byte
	serveLayerState
}

// digestOf hashes an array the way accd documents its digests: SHA-256
// over the raw little-endian contents.
func digestOf(a *ir.HostArray) string {
	h := sha256.New()
	var buf [8]byte
	switch {
	case a.F32 != nil:
		for _, v := range a.F32 {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
	case a.F64 != nil:
		for _, v := range a.F64 {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
			h.Write(buf[:8])
		}
	default:
		for _, v := range a.I32 {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serialDigests runs a request's program once through core, serially,
// and returns the digests accd must reproduce. check, when set, first
// holds the run itself to a plain-Go reference.
func serialDigests(src, machine string, b *ir.Bindings, check func(*ir.Instance) error) (map[string]string, error) {
	prog, err := core.Compile(src)
	if err != nil {
		return nil, err
	}
	res, err := prog.Run(b, core.Config{Machine: mustMachine(machine), Options: rt.Options{Async: true}})
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(res.Instance); err != nil {
			return nil, fmt.Errorf("serial run fails its reference: %w", err)
		}
	}
	out := map[string]string{}
	for _, a := range res.Instance.Arrays {
		out[a.Decl.Name] = digestOf(a)
	}
	return out, nil
}

func buildServeMixed(o buildOptions) (workload, error) {
	seed := o.seed
	rng := rand.New(rand.NewSource(seed))
	srv := serve.New(serve.Config{Concurrency: serveClients})
	w := &serveWorkload{handler: srv.Handler(), server: srv, clients: serveClients, seed: seed}

	byKind := map[string][]*serveEntry{}
	add := func(e *serveEntry) error {
		var err error
		if e.run != nil {
			e.path = "/v1/run"
			e.body, err = json.Marshal(e.run)
		} else {
			e.path = "/v1/compile"
			e.body, err = json.Marshal(e.compile)
		}
		e.name = fmt.Sprintf("%s/%d", e.kind, len(byKind[e.kind]))
		byKind[e.kind] = append(byKind[e.kind], e)
		return err
	}
	stencilRun := func(kind, machine string, n, steps int, ret bool) error {
		a0 := stencilInput(rng, n)
		want := stencilRef(a0, steps)
		b := ir.NewBindings().SetScalar("n", float64(n)).SetScalar("steps", float64(steps)).
			SetArray("a", &ir.HostArray{F32: append([]float32(nil), a0...)})
		digests, err := serialDigests(distStencilSrc, machine, b, func(inst *ir.Instance) error {
			got, err := inst.Array("a")
			if err != nil {
				return err
			}
			return equalF32(got.F32, want)
		})
		if err != nil {
			return err
		}
		e := &serveEntry{kind: kind, wantStatus: http.StatusOK, wantDigests: digests,
			run: &runReq{Source: distStencilSrc, Machine: machine, Vet: true,
				Scalars: map[string]float64{"n": float64(n), "steps": float64(steps)},
				Arrays:  map[string]*arrayPayload{"a": {F32: a0}}}}
		if ret {
			e.run.ReturnArrays = []string{"a"}
			e.wantArray = want
		}
		return add(e)
	}
	pipelineRun := func(kind string, k, n int) error {
		mul, add2 := pipelineCoefs(rng, k)
		src := pipelineSrc(k, mul, add2)
		a0 := stencilInput(rng, n)
		want := pipelineRef(a0, mul, add2)
		last := fmt.Sprintf("a%d", k)
		b := ir.NewBindings().SetScalar("n", float64(n)).
			SetArray("a0", &ir.HostArray{F32: append([]float32(nil), a0...)})
		digests, err := serialDigests(src, "desktop", b, func(inst *ir.Instance) error {
			got, err := inst.Array(last)
			if err != nil {
				return err
			}
			return equalF32(got.F32, want)
		})
		if err != nil {
			return err
		}
		return add(&serveEntry{kind: kind, wantStatus: http.StatusOK, wantDigests: digests,
			run: &runReq{Source: src, Vet: true, Scalars: map[string]float64{"n": float64(n)},
				Arrays: map[string]*arrayPayload{"a0": {F32: a0}}}})
	}
	appRun := func(name string, scale float64, vet bool, scalars map[string]float64) error {
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		in, err := app.Generate(scale, seed)
		if err != nil {
			return err
		}
		check := in.Verify
		for k, v := range scalars {
			in.Bindings.SetScalar(k, v)
			check = nil // the generator's reference holds for its own scalars only
		}
		digests, err := serialDigests(app.Source, "desktop", in.Bindings, check)
		if err != nil {
			return err
		}
		return add(&serveEntry{kind: kindRunHot, wantStatus: http.StatusOK, wantDigests: digests,
			run: &runReq{Source: app.Source, Vet: vet, Scalars: scalars,
				Generator: &genSpec{App: name, Scale: scale, Seed: seed}}})
	}
	compileOnly := func(kind, src string, loops int) error {
		return add(&serveEntry{kind: kind, wantStatus: http.StatusOK, wantLoops: loops,
			compile: &compileReq{Source: src, Vet: true}})
	}
	pipelineCompile := func(kind string, k int) error {
		mul, add2 := pipelineCoefs(rng, k)
		return compileOnly(kind, pipelineSrc(k, mul, add2), k)
	}

	steps := []func() error{
		// Hot runs: short programs whose cost is what the cache cannot
		// save: bindings, queue, pool lease, run, digests, encode. BFS
		// runs without the vet gate: accvet (correctly) refuses to prove
		// its data-dependent gather. KMEANS is cut to one iteration.
		func() error { return stencilRun(kindRunHot, "desktop", 128, 2, false) },
		func() error { return stencilRun(kindRunHot, "2x2", 256, 1, false) },
		func() error { return appRun("MD", 0.0001, true, nil) },
		func() error { return appRun("KMEANS", 0.00002, true, map[string]float64{"iters": 1}) },
		func() error { return appRun("BFS", 0.00001, false, nil) },
		func() error { return pipelineRun(kindRunHot, 8, 32) },
		// Cold runs: the same shapes under a fresh content hash.
		func() error { return stencilRun(kindRunCold, "desktop", 128, 2, false) },
		func() error { return pipelineRun(kindRunCold, 8, 32) },
		// Inline: a 64 Ki-float array in, the same array back.
		func() error { return stencilRun(kindInline, "desktop", inlineN, inlineSteps, true) },
	}
	for _, k := range []int{24, 32, 48, 64, 96, 128} {
		k := k
		steps = append(steps, func() error { return pipelineCompile(kindCompileHot, k) })
	}
	for _, k := range []int{16, 24, 32} {
		k := k
		steps = append(steps, func() error { return pipelineCompile(kindCompileCold, k) })
	}
	for _, name := range []string{"MD", "KMEANS"} {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		loops := bytes.Count([]byte(app.Source), []byte("parallel loop"))
		steps = append(steps, func() error { return compileOnly(kindCompileHot, app.Source, loops) })
		if name == "MD" {
			w.hotSource = app.Source
			steps = append(steps, func() error { return compileOnly(kindCompileCold, app.Source, loops) })
		}
	}
	steps = append(steps,
		func() error {
			return add(&serveEntry{kind: kindRejected, wantStatus: http.StatusUnprocessableEntity, wantCode: "vet_rejected",
				run: &runReq{Source: vetBadSrc, Vet: true, Scalars: map[string]float64{"n": 64}}})
		},
		func() error {
			return add(&serveEntry{kind: kindRejected, wantStatus: http.StatusUnprocessableEntity, wantCode: "compile_error",
				run: &runReq{Source: noParseSrc}})
		})
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}

	for _, kind := range serveKinds {
		entries := byKind[kind]
		for i := 0; i < roundMix[kind]; i++ {
			w.slots = append(w.slots, entries[i%len(entries)])
		}
	}
	rng.Shuffle(len(w.slots), func(i, j int) { w.slots[i], w.slots[j] = w.slots[j], w.slots[i] })
	n := len(w.slots)
	w.bodies, w.codes, w.resps = make([][]byte, n), make([]int, n), make([][]byte, n)

	// Warm-up: every hot entry once, serially; enough cold compiles to
	// fill the cache; then one whole round.
	for _, kind := range []string{kindRunHot, kindCompileHot, kindRejected, kindInline} {
		for _, e := range byKind[kind] {
			if code, body := w.send(e.path, e.body); code != e.wantStatus {
				return nil, fmt.Errorf("warm-up %s: status %d: %s", kind, code, body)
			}
		}
	}
	filler := byKind[kindCompileCold][0]
	for i := 0; i < warmColdCompiles; i++ {
		body, err := filler.salted(w.nextSalt())
		if err != nil {
			return nil, err
		}
		if code, reply := w.send(filler.path, body); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up cold compile: status %d: %s", code, reply)
		}
	}
	return w, warm(w, repeats(o.quick, 1))
}

func (w *serveWorkload) nextSalt() string {
	w.salts++
	return fmt.Sprintf("/* salt %d-%d */\n", w.seed, w.salts)
}

func (w *serveWorkload) send(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func (w *serveWorkload) prepare() error {
	for i, e := range w.slots {
		w.codes[i], w.resps[i] = 0, nil
		if !e.cold() {
			w.bodies[i] = e.body
			continue
		}
		body, err := e.salted(w.nextSalt())
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	return nil
}

func (w *serveWorkload) run(lat []time.Duration) []time.Duration { return w.runRound(nil, lat) }

// runRound drains the round's slots from w.clients goroutines, each
// sending its next request only when the previous reply is in.
func (w *serveWorkload) runRound(log *spanLog, lat []time.Duration) []time.Duration {
	took := make([]time.Duration, len(w.slots))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.slots) {
					return
				}
				e := w.slots[i]
				id := log.begin("serve.request", e.kind, -1)
				t0 := time.Now()
				w.codes[i], w.resps[i] = w.send(e.path, w.bodies[i])
				took[i] = time.Since(t0)
				log.end(id)
			}
		}()
	}
	wg.Wait()
	return append(lat, took...)
}

func (w *serveWorkload) verify() (attempted, failed int, firstErr error) {
	for i, e := range w.slots {
		attempted++
		if err := e.checkReply(w.codes[i], w.resps[i], w.corrupt); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s request %d: %w", e.kind, i, err)
			}
		}
	}
	return attempted, failed, firstErr
}

func (e *serveEntry) checkReply(code int, body []byte, corrupt bool) error {
	wantStatus := e.wantStatus
	if corrupt {
		wantStatus++
	}
	if code != wantStatus {
		return fmt.Errorf("status %d, want %d: %.200s", code, wantStatus, body)
	}
	if bytes.Equal(body, e.okBody) {
		return nil
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	switch {
	case e.wantCode != "" && r.Error.Code != e.wantCode:
		return fmt.Errorf("error code %q, want %q", r.Error.Code, e.wantCode)
	case e.compile != nil && r.Stats.ParallelLoops != e.wantLoops:
		return fmt.Errorf("%d parallel loops, want %d", r.Stats.ParallelLoops, e.wantLoops)
	}
	for name, want := range e.wantDigests {
		if r.Digests[name] != want {
			return fmt.Errorf("digest of %s is %s, want %s (serial core run)", name, r.Digests[name], want)
		}
	}
	if e.wantArray != nil {
		got := r.Arrays["a"]
		if got == nil {
			return fmt.Errorf("array a missing from the reply")
		}
		if err := equalF32(got.F32, e.wantArray); err != nil {
			return fmt.Errorf("returned array a: %w", err)
		}
	}
	e.okBody = body
	return nil
}

// simStats returns the reply of every hot run request: accd promises
// replies that are pure functions of the request, simulated report
// included, so one request must draw one reply on every round.
func (w *serveWorkload) simStats() map[string]string {
	out := map[string]string{}
	for i, e := range w.slots {
		if e.kind == kindRunHot {
			out[e.name] = string(w.resps[i])
		}
	}
	return out
}
