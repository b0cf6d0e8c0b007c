package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// stencilSrc is a multi-launch iterated stencil: enough kernel
// launches per request that interrupt polls and queueing are
// exercised, still fast at small n.
const stencilSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0 && i < n - 1) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                } else {
                    b[i] = a[i];
                }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
    }
}
`

// reduceSrc exercises the reduction path and scalar results.
const reduceSrc = `
int n;
float x[n], out[n];
float total;

void main() {
    int i;
    total = 0.0;
    #pragma acc data copyin(x) copyout(out)
    {
        #pragma acc localaccess(x) stride(1)
        #pragma acc localaccess(out) stride(1)
        #pragma acc parallel loop reduction(+:total)
        for (i = 0; i < n; i++) {
            out[i] = x[i] * x[i];
            total += out[i];
        }
    }
}
`

// vetBadSrc reads b[i+1] under a stride(1) localaccess — accvet
// rejects it with an error-severity ACCV001.
const vetBadSrc = `
int n;
float a[n];
float b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        #pragma acc localaccess(b) stride(1)
        for (i = 0; i < n; i++) {
            a[i] = b[i + 1];
        }
    }
}
`

func post(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mixedCorpus is the equivalence gate's request mix: stencil and
// reduction kernels at several sizes, generator-driven paper apps, a
// vet-rejected source and a source that does not compile.
func mixedCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	add := func(r *RunRequest) { corpus = append(corpus, marshal(t, r)) }

	add(&RunRequest{Source: stencilSrc, Scalars: map[string]float64{"n": 64, "steps": 4}})
	add(&RunRequest{Source: stencilSrc, Scalars: map[string]float64{"n": 128, "steps": 2},
		Machine: "super", ReturnArrays: []string{"a"}})
	add(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 96},
		Arrays: map[string]*ArrayPayload{"x": {F32: seq32(96)}}})
	add(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 48}, Mode: "openmp"})
	add(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 48},
		Options: RunOptions{NoAsync: true}})
	add(&RunRequest{Source: stencilSrc, Generator: nil, Vet: true,
		Scalars: map[string]float64{"n": 32, "steps": 1}})
	add(&RunRequest{Source: vetBadSrc, Vet: true, Scalars: map[string]float64{"n": 32}})
	add(&RunRequest{Source: "int n void main() { }"})
	add(&RunRequest{Source: stencilSrc + "/* variant */", Scalars: map[string]float64{"n": 64, "steps": 3}})
	md, err := apps.ByName("MD")
	if err != nil {
		t.Fatal(err)
	}
	add(&RunRequest{Source: md.Source, Generator: &GeneratorSpec{App: "MD", Scale: 0.002, Seed: 7}})
	return corpus
}

func seq32(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(i%7) * 0.5
	}
	return s
}

// seeded32 is n floats drawn from seed.
func seeded32(n, seed int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32((i*7919+seed*104729)%1000) / 8
	}
	return s
}

type verdict struct {
	code int
	body string
}

// hostileCorpus is what a client that means harm sends: each request with
// the status and error code accd must answer it with. The run of the last
// one panics under panicGate.
func hostileCorpus(t testing.TB) (bodies [][]byte, want []verdict) {
	add := func(r *RunRequest, code int, errCode string) {
		bodies = append(bodies, marshal(t, r))
		want = append(want, verdict{code, errCode})
	}
	// One kernel iteration that never leaves its inner loop, a host loop
	// that never ends, a parenthesis bomb, arrays no machine holds.
	add(&RunRequest{TimeoutMS: 50, Source: "float a[4];\nvoid main(){ int i; int j; float s;\n#pragma acc parallel loop\n" +
		"for (i = 0; i < 4; i++) { s = 0.0; for (j = 0; j < 2000000000; j++) { s += 1.0; } a[i] = s; } }"},
		http.StatusGatewayTimeout, "timeout")
	add(&RunRequest{TimeoutMS: 50, Source: "int x;\nvoid main(){ x = 0; while (1) { x = x + 1; } }"},
		http.StatusGatewayTimeout, "timeout")
	add(&RunRequest{Source: "int x;\nvoid main(){ x = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + "; }"},
		http.StatusUnprocessableEntity, "compile_error")
	add(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 1e10}}, http.StatusBadRequest, "bad_request")
	add(&RunRequest{Source: hostOnlySrc, Scalars: map[string]float64{"n": 1e10}}, http.StatusBadRequest, "bad_request")
	add(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 62}}, http.StatusInternalServerError, "internal")
	return bodies, want
}

func panicGate(r *RunRequest) {
	if r.Scalars["n"] == 62 {
		panic("gate blew up")
	}
}

// TestServeEquivalenceUnderLoad is the exact-validation gate: every
// response under >=256-way concurrency must be bit-identical to the
// same request served serially by a fresh server — whatever else is in
// flight: the hostile corpus runs beside the well-formed one, each of its
// requests answered with its own structured error, and afterwards no run
// slot is held, nothing is queued and every panic was contained. Run under
// -race this also stresses the shared Program/cache/scheduler state.
func TestServeEquivalenceUnderLoad(t *testing.T) {
	corpus := mixedCorpus(t)
	// A run whose results are not finite is a well-formed one.
	corpus = append(corpus, marshal(t, &RunRequest{Source: "float t;\nvoid main(){ t = 0.0; t /= 0.0; }"}))
	// The stencil at two seeds: one shape, two inputs, so the device
	// storage one request frees serves the other while both are in
	// flight.
	for _, seed := range []int{1, 2} {
		corpus = append(corpus, marshal(t, &RunRequest{Source: stencilSrc, Scalars: map[string]float64{"n": 256, "steps": 3},
			Arrays: map[string]*ArrayPayload{"a": {F32: seeded32(256, seed)}}, ReturnArrays: []string{"a", "b"}}))
	}

	// Serial baseline on its own server instance.
	baseline := make([]verdict, len(corpus))
	serial := New(Config{})
	for i, body := range corpus {
		rec := post(t, serial.Handler(), "/v1/run", body)
		baseline[i] = verdict{rec.Code, rec.Body.String()}
	}
	// Sanity: the corpus covers success, compile failure and vet
	// rejection, or the equivalence claim is hollow.
	counts := map[int]int{}
	for _, v := range baseline {
		counts[v.code]++
	}
	if counts[http.StatusOK] == 0 || counts[http.StatusUnprocessableEntity] < 2 {
		t.Fatalf("corpus verdict mix too narrow: %v", counts)
	}

	const workers = 256
	loaded := New(Config{runGate: panicGate})
	h := loaded.Handler()
	var wg sync.WaitGroup
	errc := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				i := (w + k*workers/2) % len(corpus)
				rec := post(t, h, "/v1/run", corpus[i])
				if rec.Code != baseline[i].code {
					errc <- fmt.Errorf("worker %d req %d: status %d, serial %d (body %.200s)",
						w, i, rec.Code, baseline[i].code, rec.Body.String())
					return
				}
				if rec.Body.String() != baseline[i].body {
					errc <- fmt.Errorf("worker %d req %d: body diverged from serial baseline", w, i)
					return
				}
			}
		}(w)
	}
	hostile, want := hostileCorpus(t)
	const rounds = 3
	for i := range hostile {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				rec := post(t, h, "/v1/run", hostile[i])
				var eresp ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil || rec.Code != want[i].code || eresp.Error.Code != want[i].body {
					errc <- fmt.Errorf("hostile req %d: status %d, body %.200s; want %d %s", i, rec.Code, rec.Body.String(), want[i].code, want[i].body)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	waitLoad(t, h, 0, 0)
	c := counters(t, h)
	if c["run.panic"] != rounds {
		t.Errorf("want %d contained panics: %v", rounds, c)
	}
}

func TestRunEndpointBasics(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	// Success with scalar results, digests and a returned array.
	body := marshal(t, &RunRequest{
		Source:       reduceSrc,
		Scalars:      map[string]float64{"n": 8},
		Arrays:       map[string]*ArrayPayload{"x": {F32: []float32{1, 2, 3, 4, 5, 6, 7, 8}}},
		ReturnArrays: []string{"out"},
	})
	rec := post(t, h, "/v1/run", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Accd-Cache") != "miss" {
		t.Errorf("first request cache header = %q", rec.Header().Get("X-Accd-Cache"))
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scalars["total"] != 204 { // sum of squares of 1..8
		t.Errorf("total = %g, want 204", resp.Scalars["total"])
	}
	if resp.Arrays["out"] == nil || resp.Arrays["out"].F32[2] != 9 {
		t.Errorf("returned array wrong: %+v", resp.Arrays["out"])
	}
	if len(resp.Digests) != 2 {
		t.Errorf("digests = %v, want x and out", resp.Digests)
	}

	// Second request hits the cache.
	rec = post(t, h, "/v1/run", body)
	if rec.Header().Get("X-Accd-Cache") != "hit" {
		t.Errorf("second request cache header = %q", rec.Header().Get("X-Accd-Cache"))
	}

	// Malformed JSON and unknown fields are 400s.
	if rec := post(t, h, "/v1/run", []byte("{")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", rec.Code)
	}
	if rec := post(t, h, "/v1/run", []byte(`{"sauce":"x"}`)); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", rec.Code)
	}

	// Compile failure is a structured 422.
	rec = post(t, h, "/v1/run", marshal(t, &RunRequest{Source: "int n void main() { }"}))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("compile error: status %d", rec.Code)
	}
	var eresp ErrorResponse
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if eresp.Error.Code != "compile_error" {
		t.Errorf("error code = %q", eresp.Error.Code)
	}

	// So is a source nested past the parser's budget (it used to end the
	// process with a stack overflow): a positioned compile error.
	bomb := "int x;\nvoid main() { x = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + "; }"
	rec = post(t, h, "/v1/compile", marshal(t, &CompileRequest{Source: bomb}))
	eresp = ErrorResponse{}
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if rec.Code != http.StatusUnprocessableEntity || eresp.Error.Code != "compile_error" ||
		!strings.Contains(eresp.Error.Message, "line 2:1019: expression nested deeper than") {
		t.Errorf("nested source: status %d, error %+v", rec.Code, eresp.Error)
	}

	// Vet rejection carries the diagnostics.
	rec = post(t, h, "/v1/run", marshal(t, &RunRequest{
		Source: vetBadSrc, Vet: true, Scalars: map[string]float64{"n": 16},
	}))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("vet rejection: status %d: %s", rec.Code, rec.Body.String())
	}
	eresp = ErrorResponse{}
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if eresp.Error.Code != "vet_rejected" {
		t.Errorf("error code = %q", eresp.Error.Code)
	}
	if !strings.Contains(string(eresp.Error.Diagnostics), "ACCV001") {
		t.Errorf("diagnostics missing ACCV001: %s", eresp.Error.Diagnostics)
	}

	// Unknown machine/mode/app, and machines the simulator does not
	// build (more than 16 GPUs), are 400s.
	for _, r := range []*RunRequest{
		{Source: reduceSrc, Machine: "laptop"},
		{Source: reduceSrc, GPUs: 17},
		{Source: reduceSrc, Machine: "5x4"},
		{Source: reduceSrc, Mode: "warp"},
		{Source: reduceSrc, Generator: &GeneratorSpec{App: "DOOM"}},
		{Source: reduceSrc, Arrays: map[string]*ArrayPayload{"nope": {F32: []float32{1}}}},
		{Source: reduceSrc, Faults: "shrink=nope"},
	} {
		if rec := post(t, h, "/v1/run", marshal(t, r)); rec.Code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", r, rec.Code)
		}
	}
}

func TestCompileEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rec := post(t, h, "/v1/compile", marshal(t, &CompileRequest{Source: reduceSrc, Vet: true, EmitSource: true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != CacheKey(reduceSrc, CompilerFingerprint) {
		t.Error("response key is not the content hash")
	}
	if resp.GeneratedSource == "" {
		t.Error("emit_source returned nothing")
	}
	// The compile endpoint warms the run cache.
	rec = post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}}))
	if rec.Header().Get("X-Accd-Cache") != "hit" {
		t.Errorf("run after compile: cache header = %q", rec.Header().Get("X-Accd-Cache"))
	}
}

// TestBodyIsOneJSONValue: a request body is one JSON value and nothing
// but whitespace after it. Anything else after the value, garbage or a
// second value, is a 400 on both endpoints; trailing whitespace is not.
func TestBodyIsOneJSONValue(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/compile", marshal(t, &CompileRequest{Source: reduceSrc})},
		{"/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}})},
	} {
		if rec := post(t, h, tc.path, append(tc.body, " \n\t\r\n"...)); rec.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d: %s", tc.path, rec.Code, rec.Body.String())
		}
		for _, tail := range []string{` this is not json`, `{"source": 7}`, "\n]", ` 1`} {
			rec := post(t, h, tc.path, append(append([]byte(nil), tc.body...), tail...))
			var reply ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusBadRequest || reply.Error.Code != "bad_request" {
				t.Errorf("%s followed by %q: status %d: %s", tc.path, tail, rec.Code, rec.Body.String())
			} else if !strings.Contains(reply.Error.Message, "after top-level value") {
				t.Errorf("%s followed by %q: message %q", tc.path, tail, reply.Error.Message)
			}
		}
	}
}

// gatedServer builds a server whose runs block on the returned gate
// after admission — the deterministic way to hold a run slot while a
// test observes overload or drain behaviour. Requests with n == 63
// (the gate marker) block until the gate closes.
func gatedServer(cfg Config) (*Server, chan struct{}) {
	gate := make(chan struct{})
	cfg.runGate = func(r *RunRequest) {
		if r.Scalars["n"] == 63 {
			<-gate
		}
	}
	return New(cfg), gate
}

func gatedBody(t *testing.T) []byte {
	return marshal(t, &RunRequest{
		Source:  stencilSrc,
		Scalars: map[string]float64{"n": 63, "steps": 2},
	})
}

// waitLoad polls /healthz until the scheduler shows the wanted load.
func waitLoad(t testing.TB, h http.Handler, running, queued int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Running int `json:"running"`
			Queued  int `json:"queued"`
		}
		rec := get(t, h, "/healthz")
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil &&
			st.Running == running && st.Queued == queued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("load never reached (%d running, %d queued)", running, queued)
}

func TestOverloadReturns429(t *testing.T) {
	s, gate := gatedServer(Config{Concurrency: 1, QueueDepth: -1})
	h := s.Handler()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, h, "/v1/run", gatedBody(t)) }()
	waitLoad(t, h, 1, 0)

	rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}}))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eresp ErrorResponse
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if eresp.Error.Code != "overloaded" {
		t.Errorf("error code = %q", eresp.Error.Code)
	}
	close(gate)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRequestTimeoutDuringRun also pins that a run cut by its deadline
// frees its device buffers, and so hands their storage to the next
// allocation of its shape, only once every kernel worker has returned: the
// next request of the same shape, served from that storage, replies byte
// for byte as a fresh server does.
func TestRequestTimeoutDuringRun(t *testing.T) {
	next := marshal(t, &RunRequest{
		Source:       stencilSrc,
		Scalars:      map[string]float64{"n": 4096, "steps": 2},
		Arrays:       map[string]*ArrayPayload{"a": {F32: seeded32(4096, 3)}},
		ReturnArrays: []string{"a", "b"},
	})
	baseline := post(t, New(Config{}).Handler(), "/v1/run", next)
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", baseline.Code, baseline.Body.String())
	}

	s := New(Config{Concurrency: 1})
	h := s.Handler()
	body := marshal(t, &RunRequest{
		Source:    stencilSrc,
		Scalars:   map[string]float64{"n": 4096, "steps": 2000},
		TimeoutMS: 1,
	})
	rec := post(t, h, "/v1/run", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var eresp ErrorResponse
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if eresp.Error.Code != "timeout" || !strings.Contains(eresp.Error.Message, "during the run") {
		t.Errorf("error = %+v, want a timeout during the run", eresp.Error)
	}
	if c := counters(t, h); c["run.timeout"] != 1 {
		t.Errorf("counters after the cut run: %v", c)
	}
	rec = post(t, h, "/v1/run", next)
	if rec.Code != baseline.Code || rec.Body.String() != baseline.Body.String() {
		t.Errorf("the request after the cut run: status %d, body %.200s; want the fresh server's %d", rec.Code, rec.Body.String(), baseline.Code)
	}
}

// TestFaultedRunSharesNothing pins that a fault plan reaches only the run
// that asked for it: on one server, a request with "shrink=0.5", sent
// again and again, then the same request without faults, each reply byte
// for byte what a fresh server answers. A machine shared between requests
// would lose half its device memory to every faulted one; forty halvings
// leave less than the request's arrays.
func TestFaultedRunSharesNothing(t *testing.T) {
	req := &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 64},
		Arrays: map[string]*ArrayPayload{"x": {F32: seeded32(64, 1)}}, ReturnArrays: []string{"out"}}
	clean := marshal(t, req)
	req.Faults = "shrink=0.5"
	faulted := marshal(t, req)
	fresh := func(body []byte) *httptest.ResponseRecorder {
		return post(t, New(Config{}).Handler(), "/v1/run", body)
	}
	wantFaulted, wantClean := fresh(faulted), fresh(clean)
	if wantFaulted.Code != http.StatusOK || wantClean.Code != http.StatusOK {
		t.Fatalf("fresh servers: status %d and %d", wantFaulted.Code, wantClean.Code)
	}

	h := New(Config{Concurrency: 1}).Handler()
	for i := 0; i < 40; i++ {
		if rec := post(t, h, "/v1/run", faulted); rec.Code != wantFaulted.Code || rec.Body.String() != wantFaulted.Body.String() {
			t.Fatalf("faulted request %d: status %d, body %.200s; want the fresh server's", i, rec.Code, rec.Body.String())
		}
	}
	if rec := post(t, h, "/v1/run", clean); rec.Code != wantClean.Code || rec.Body.String() != wantClean.Body.String() {
		t.Errorf("the request after the faulted ones: status %d, body %.200s; want the fresh server's", rec.Code, rec.Body.String())
	}
}

// replyNumber is a JSON number in a reply: one that follows a ':', ','
// or '['. A digit inside a string (a digest) follows none of them.
var replyNumber = regexp.MustCompile(`([:,\[])-?[0-9][0-9.eE+-]*`)

// TestReplySizeIndependentOfSteps holds a run's reply to what the run
// states once: the 2x2 dist stencil exchanges halos at every step, and
// its reply at 1 000 steps is its reply at 1 step but for the digits of
// its scalars, times and counters.
func TestReplySizeIndependentOfSteps(t *testing.T) {
	h := New(Config{}).Handler()
	reply := func(steps float64) []byte {
		rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: stencilSrc, Machine: "2x2",
			Scalars: map[string]float64{"n": 4096, "steps": steps}}))
		if rec.Code != http.StatusOK {
			t.Fatalf("steps %g: status %d: %.200s", steps, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	one, many := reply(1), reply(1000)
	t.Logf("reply: %d B at 1 step, %d B at 1000", len(one), len(many))
	if bytes.Contains(many, []byte("halo-exchange")) {
		t.Errorf("reply names a halo exchange: %.300s", many)
	}
	if a, b := replyNumber.ReplaceAll(one, []byte("${1}0")), replyNumber.ReplaceAll(many, []byte("${1}0")); !bytes.Equal(a, b) {
		t.Errorf("with every number read as 0, the replies differ:\n1 step:     %s\n1000 steps: %.2000s", a, b)
	}
}

// hostOnlySrc sizes an array only the host program touches: Bind
// allocates it all the same.
const hostOnlySrc = `int n;
float big[n];
float a[8];
void main() {
    int i;
    big[0] = 1;
    #pragma acc parallel loop
    for (i = 0; i < 8; i++) { a[i] = i; }
}
`

// TestOversizedFootprintRefused pins that sizes a client picks are held
// to the machine's device memory before anything is allocated for them: a
// generator scale (BFS 200x is 89 GB of graph) is refused on its Shape,
// Generate never runs, and a scalar that sizes a 40 GB array likewise —
// one a kernel touches, or one only the host program does.
func TestOversizedFootprintRefused(t *testing.T) {
	h := New(Config{}).Handler()
	bfs, err := apps.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]*RunRequest{
		"generator scale": {Source: bfs.Source, Generator: &GeneratorSpec{App: "BFS", Scale: 200, Seed: 1}},
		"scalar":          {Source: reduceSrc, Scalars: map[string]float64{"n": 1e10}},
		"host-only array": {Source: hostOnlySrc, Scalars: map[string]float64{"n": 1e10}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := post(t, h, "/v1/run", marshal(t, req))
		runtime.ReadMemStats(&after)
		var eresp ErrorResponse
		json.Unmarshal(rec.Body.Bytes(), &eresp)
		if rec.Code != http.StatusBadRequest || !strings.Contains(eresp.Error.Message, "the machine's devices hold") {
			t.Errorf("%s: status %d, %q; want 400 naming the device memory", name, rec.Code, eresp.Error.Message)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 8 {
			t.Errorf("%s: refusing allocated %d MB", name, mb)
		}
	}
}

// TestTimeoutEndsHostLoop pins that a host loop which never reaches a
// directive cannot hold a run slot past its deadline.
func TestTimeoutEndsHostLoop(t *testing.T) {
	checkTimeoutEndsRun(t, "int x;\nvoid main(){ x = 0; while (1) { x = x + 1; } }", false)
}

// endlessKernelSrc is one kernel launch with an enormous trip count.
const endlessKernelSrc = "float s;\nvoid main(){ int i; s = 0.0;\n#pragma acc parallel loop reduction(+:s)\n" +
	"for (i = 0; i < 100000000000; i++) { s += 1.0; } }"

// TestTimeoutEndsKernel pins the same of one kernel launch with an
// enormous trip count.
func TestTimeoutEndsKernel(t *testing.T) {
	checkTimeoutEndsRun(t, endlessKernelSrc, false)
}

// TestTimeoutEndsAuditedRun pins the same of that launch under the shadow
// auditor, whose sequential oracle runs the whole launch before the
// runtime touches it.
func TestTimeoutEndsAuditedRun(t *testing.T) {
	checkTimeoutEndsRun(t, endlessKernelSrc, true)
}

// TestTimeoutEndsInnerLoop pins the same of a launch of four iterations,
// each of which never leaves its inner loop.
func TestTimeoutEndsInnerLoop(t *testing.T) {
	checkTimeoutEndsRun(t, "float a[4];\nvoid main(){ int i; int j; float s;\n#pragma acc parallel loop\n"+
		"for (i = 0; i < 4; i++) { s = 0.0; for (j = 0; j < 2000000000; j++) { s += 1.0; } a[i] = s; } }", false)
}

// checkTimeoutEndsRun posts a program that never ends with a 50 ms
// deadline, audited or not: the request answers 504, no run is in flight
// afterwards, and the next request is served.
func checkTimeoutEndsRun(t *testing.T, src string, audit bool) {
	s := New(Config{Concurrency: 1})
	h := s.Handler()
	rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: src, TimeoutMS: 50, Options: RunOptions{Audit: audit}}))
	var eresp ErrorResponse
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if rec.Code != http.StatusGatewayTimeout || eresp.Error.Code != "timeout" {
		t.Fatalf("status %d code %q, want 504 timeout: %s", rec.Code, eresp.Error.Code, rec.Body.String())
	}
	waitLoad(t, h, 0, 0)
	if rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}})); rec.Code != http.StatusOK {
		t.Fatalf("request after the timeout: status %d: %s", rec.Code, rec.Body.String())
	}
	if c := counters(t, h); c["run.timeout"] != 1 || c["run.ok"] != 1 {
		t.Errorf("counters after the timeout: %v", c)
	}
}

// TestGracefulDrain pins the shutdown contract: in-flight requests
// finish with their normal responses, queued requests get the
// structured shutting_down error, new requests are refused, and Drain
// returns once the last run leaves.
func TestGracefulDrain(t *testing.T) {
	s, gate := gatedServer(Config{Concurrency: 1, QueueDepth: 8})
	h := s.Handler()

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflight <- post(t, h, "/v1/run", gatedBody(t)) }()
	waitLoad(t, h, 1, 0)
	queuedCh := make(chan *httptest.ResponseRecorder, 1)
	go func() { queuedCh <- post(t, h, "/v1/run", gatedBody(t)) }()
	waitLoad(t, h, 1, 1)

	// Drain flushes the queued request immediately; the in-flight one
	// is released once the queued 503 has been observed.
	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(ctx) }()

	rec := <-queuedCh
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var eresp ErrorResponse
	json.Unmarshal(rec.Body.Bytes(), &eresp)
	if eresp.Error.Code != "shutting_down" {
		t.Errorf("queued request error code = %q", eresp.Error.Code)
	}

	close(gate)
	if rec := <-inflight; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	rec = post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}}))
	post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}}))
	rec := get(t, h, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	body := rec.Body.String()
	for _, counter := range []string{"cache.hit", "cache.miss", "run.ok"} {
		if !strings.Contains(body, counter) {
			t.Errorf("metrics missing %q:\n%s", counter, body)
		}
	}
}

// outOfRangeSrc stores past the end of its array: the run fails, the
// program compiles.
const outOfRangeSrc = `
int n;
float a[n];

void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        a[i + n] = 1.0;
    }
}
`

// counters reads the service counters off /v1/metrics.
func counters(t testing.TB, h http.Handler) map[string]int64 {
	t.Helper()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m.Counters
}

// TestRunPanicContained pins that a panic below the handler costs one
// request, not the daemon: the client gets a 500 JSON body, the slot is
// released, and the next request is served normally.
func TestRunPanicContained(t *testing.T) {
	s := New(Config{Concurrency: 1, runGate: func(r *RunRequest) {
		if r.Scalars["n"] == 62 {
			panic("gate blew up")
		}
	}})
	h := s.Handler()
	rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 62}}))
	var eresp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil {
		t.Fatalf("reply is not JSON: %v: %s", err, rec.Body.String())
	}
	if rec.Code != http.StatusInternalServerError || eresp.Error.Code != "internal" {
		t.Fatalf("status %d code %q, want 500 internal: %s", rec.Code, eresp.Error.Code, rec.Body.String())
	}
	waitLoad(t, h, 0, 0)
	if rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}})); rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d: %s", rec.Code, rec.Body.String())
	}
	if c := counters(t, h); c["run.panic"] != 1 || c["run.ok"] != 1 {
		t.Errorf("counters after the panic: %v", c)
	}
}

// TestUndeclaredReturnArrayNeverAdmitted pins that a return_arrays name
// the program does not declare as a global array is a 400 before
// admission: with the one run slot held and no queue, the reply is still
// the 400 and not a 429, the run gate never sees the request, and no run
// or queue counter moves.
func TestUndeclaredReturnArrayNeverAdmitted(t *testing.T) {
	gate := make(chan struct{})
	var gated atomic.Int64
	s := New(Config{Concurrency: 1, QueueDepth: -1, runGate: func(r *RunRequest) {
		gated.Add(1)
		if r.Scalars["n"] == 63 {
			<-gate
		}
	}})
	h := s.Handler()
	held := make(chan int, 1)
	go func() {
		held <- post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 63}})).Code
	}()
	waitLoad(t, h, 1, 0)
	for _, names := range [][]string{{""}, {"nope"}, {"out", "total"}, {"n"}} {
		rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 8}, ReturnArrays: names}))
		var eresp ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil {
			t.Fatalf("return_arrays %q: reply is not JSON: %v: %s", names, err, rec.Body.String())
		}
		if rec.Code != http.StatusBadRequest || eresp.Error.Code != "bad_request" {
			t.Errorf("return_arrays %q: status %d code %q, want 400 bad_request: %s", names, rec.Code, eresp.Error.Code, rec.Body.String())
		}
	}
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Errorf("held request: status %d, want 200", code)
	}
	waitLoad(t, h, 0, 0)
	if n := gated.Load(); n != 1 {
		t.Errorf("the run gate saw %d requests, want only the held one", n)
	}
	c := counters(t, h)
	for name, want := range map[string]int64{"run.ok": 1, "run.error": 0, "run.timeout": 0, "run.panic": 0, "queue.rejected": 0, "queue.canceled": 0} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d (counters: %v)", name, c[name], want, c)
		}
	}
}

// TestRunOutcomesCounted pins the slot accounting: after a burst with one
// request of every fate, each request that was granted a run slot is
// counted in exactly one of run.ok, run.error, run.timeout and run.panic,
// the two that never got one in the queue's rejected and canceled, and
// no slot is held.
func TestRunOutcomesCounted(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Concurrency: 1, QueueDepth: 1, runGate: func(r *RunRequest) {
		switch r.Scalars["n"] {
		case 63:
			<-gate
		case 62:
			panic("gate blew up")
		}
	}})
	h := s.Handler()
	run := func(r *RunRequest) int { return post(t, h, "/v1/run", marshal(t, r)).Code }
	small := map[string]float64{"n": 8}

	held := make(chan int, 1)
	go func() { held <- run(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 63}}) }()
	waitLoad(t, h, 1, 0)
	queued := make(chan int, 1)
	go func() { queued <- run(&RunRequest{Source: reduceSrc, Scalars: small, TimeoutMS: 200}) }()
	waitLoad(t, h, 1, 1)
	if code := run(&RunRequest{Source: reduceSrc, Scalars: small}); code != http.StatusTooManyRequests {
		t.Errorf("queue full: status %d, want 429", code)
	}
	if code := <-queued; code != http.StatusGatewayTimeout {
		t.Errorf("canceled while queued: status %d, want 504", code)
	}
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Errorf("held request: status %d, want 200", code)
	}
	if code := run(&RunRequest{Source: outOfRangeSrc, Scalars: small}); code != http.StatusUnprocessableEntity {
		t.Errorf("run error: status %d, want 422", code)
	}
	if code := run(&RunRequest{Source: "int x;\nvoid main(){ x = 0; while (1) { x = x + 1; } }", TimeoutMS: 50}); code != http.StatusGatewayTimeout {
		t.Errorf("timeout: status %d, want 504", code)
	}
	if code := run(&RunRequest{Source: reduceSrc, Scalars: map[string]float64{"n": 62}}); code != http.StatusInternalServerError {
		t.Errorf("panic: status %d, want 500", code)
	}

	waitLoad(t, h, 0, 0)
	c := counters(t, h)
	for _, name := range []string{"run.ok", "run.error", "run.timeout", "run.panic", "queue.rejected", "queue.canceled"} {
		if c[name] != 1 {
			t.Errorf("%s = %d, want 1 (counters: %v)", name, c[name], c)
		}
	}
}

// TestNonFiniteResultsEncode pins that a run whose results JSON has no
// number for is still a 200 with a deterministic body: NaN and the
// infinities travel as the strings "NaN", "+Inf" and "-Inf" in place of
// the number, scalars and inlined arrays of both float widths alike, and
// the digests are those of a serial core run.
// TestAuditedNaNRequest posts an audited run whose every result is NaN:
// a 200 whose array reads NaN, not an audit divergence.
func TestAuditedNaNRequest(t *testing.T) {
	const src = `int n;
float x[n], y[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        y[i] = (x[i] - x[i]) / (x[i] - x[i]);
    }
}
`
	h := New(Config{Concurrency: 1}).Handler()
	rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: src, Scalars: map[string]float64{"n": 64},
		ReturnArrays: []string{"y"}, Options: RunOptions{Audit: true}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct{ Arrays map[string]map[string][]any }
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.String())
	}
	if y := got.Arrays["y"]["f32"]; len(y) != 64 || y[0] != "NaN" || y[63] != "NaN" {
		t.Errorf("y: %v, want 64 NaNs", y)
	}
}

func TestNonFiniteResultsEncode(t *testing.T) {
	const src = `float t; double u, w;
float a[4]; double b[4];
void main() {
    int i;
    t = 0.0; t /= 0.0;
    u = 1.0; u /= 0.0;
    w = 0.1;
    #pragma acc parallel loop
    for (i = 0; i < 4; i++) {
        a[i] = (1.0 - i) / 0.0;
        b[i] = (i - 1.0) / 0.0;
    }
}
`
	h := New(Config{Concurrency: 1}).Handler()
	rec := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: src, ReturnArrays: []string{"a", "b"}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Scalars map[string]any
		Arrays  map[string]map[string][]any
		Digests map[string]string
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.String())
	}
	want := []any{"+Inf", "NaN", "-Inf", "-Inf"}
	if got.Scalars["t"] != "NaN" || got.Scalars["u"] != "+Inf" || got.Scalars["w"] != 0.1 ||
		!reflect.DeepEqual(got.Arrays["a"]["f32"], want) ||
		!reflect.DeepEqual(got.Arrays["b"]["f64"], []any{"-Inf", "NaN", "+Inf", "+Inf"}) {
		t.Errorf("scalars %v arrays %v", got.Scalars, got.Arrays)
	}
	// The fallback encoding keeps the plain one's field order.
	at := -1
	for _, key := range []string{`"report":`, `"scalars":`, `"digests":`, `"arrays":`} {
		if next := strings.Index(rec.Body.String(), key); next <= at {
			t.Errorf("%s out of order in %s", key, rec.Body.String())
		} else {
			at = next
		}
	}
	prog, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(ir.NewBindings(), core.Config{Machine: sim.Desktop(), Options: rt.Options{Async: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Instance.Arrays {
		if d := digest(a); got.Digests[a.Decl.Name] != d {
			t.Errorf("digest of %s is %s, a serial core run's is %s", a.Decl.Name, got.Digests[a.Decl.Name], d)
		}
	}
	// The reply stays a pure function of the request.
	if again := post(t, h, "/v1/run", marshal(t, &RunRequest{Source: src, ReturnArrays: []string{"a", "b"}})); !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
		t.Errorf("second reply differs:\n%s\n%s", rec.Body.String(), again.Body.String())
	}
}

// BenchmarkRunRequest sends a small reduction (reduceSrc at n = 64) through
// the handler, its program cached: the fixed cost of a run request, which
// BenchmarkInlineRequest's 16 Ki-float body hides.
func BenchmarkRunRequest(b *testing.B) {
	for _, machine := range []string{"desktop", "2x2"} {
		b.Run(machine, func(b *testing.B) {
			body := marshal(b, &RunRequest{Source: reduceSrc, Machine: machine, Scalars: map[string]float64{"n": 64},
				Arrays: map[string]*ArrayPayload{"x": {F32: seeded32(64, 1)}}})
			h := New(Config{}).Handler()
			if rec := post(b, h, "/v1/run", body); rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, "/v1/run", body)
			}
		})
	}
}
