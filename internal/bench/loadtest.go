package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/serve"
)

// Load test for the accd service: drive an in-process server with a
// mixed concurrent workload (the paper apps at tiny generated scales,
// iterated stencils on both machines, a multi-kernel pipeline family,
// compile-only requests, and sources the vet gate or the parser
// rejects) and measure throughput plus latency percentiles twice —
// once with every request compiling cold, once against a warm program
// cache. The warm/cold throughput ratio is the headline: it is the
// structural win of the content-hash cache, not a micro-optimization.

// LoadTestConfig sizes the load test.
type LoadTestConfig struct {
	// Workers is the number of concurrent clients (default 64).
	Workers int
	// Requests is the request count per phase (default 512).
	Requests int
	// Concurrency overrides the server's run slots (0 = default).
	Concurrency int
	// Seed drives the generator-based requests.
	Seed int64
}

func (c LoadTestConfig) withDefaults() LoadTestConfig {
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.Requests <= 0 {
		c.Requests = 512
	}
	return c
}

// LoadPhase is one measured phase of the load test.
type LoadPhase struct {
	// Phase is "cold" (every request compiles) or "warm" (cache hits).
	Phase string
	// Requests, OK, Rejected, Errors partition the responses: OK is
	// 2xx, Rejected the expected structured 422s of the broken corpus
	// entries, Errors everything unexpected.
	Requests, OK, Rejected, Errors int
	// WallMS is the phase's elapsed host time in milliseconds.
	WallMS float64
	// Throughput is requests per second of wall time.
	Throughput float64
	// P50US / P99US are request-latency percentiles in microseconds.
	P50US, P99US int64
	// CacheHits / CacheMisses count the X-Accd-Cache verdicts.
	CacheHits, CacheMisses int
}

// LoadTestReport is the load test's result bundle.
type LoadTestReport struct {
	Workers, Requests int
	Cold, Warm        LoadPhase
	// WarmColdRatio is the headline: warm-cache throughput over
	// cold-cache throughput.
	WarmColdRatio float64
}

// loadReq is one corpus entry. path is the endpoint ("/v1/run" or
// "/v1/compile"); exactly one of req/creq is set and carries the
// source, so the cold phase can rebuild the body with a per-request
// salt comment, defeating the cache without changing semantics.
type loadReq struct {
	name   string
	path   string
	body   []byte
	wantOK bool
	req    *serve.RunRequest
	creq   *serve.CompileRequest
}

const loadStencilSrc = `
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

// pipelineSrc builds a k-kernel pipeline over tiny arrays: each kernel
// reads its predecessor's output, so compile, translation and the
// dataflow-vet pass all scale with k while the run stays trivial. This
// is the compile-bound end of the service mix — the requests the
// program cache helps most.
func pipelineSrc(k int) string {
	var b bytes.Buffer
	b.WriteString("int n;\nfloat a0[n]")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ", a%d[n]", i)
	}
	b.WriteString(";\n\nvoid main() {\n    int i;\n")
	b.WriteString("    #pragma acc data copyin(a0) copyout(a" + fmt.Sprint(k) + ")")
	if k > 1 {
		b.WriteString(" create(a1")
		for i := 2; i < k; i++ {
			fmt.Fprintf(&b, ", a%d", i)
		}
		b.WriteString(")")
	}
	b.WriteString("\n    {\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i-1)
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i)
		b.WriteString("        #pragma acc parallel loop\n")
		fmt.Fprintf(&b, "        for (i = 0; i < n; i++) {\n")
		fmt.Fprintf(&b, "            a%d[i] = a%d[i] * %d.5 + %d.0;\n", i, i-1, i, i)
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

const loadVetBadSrc = `
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

// loadCorpus builds the mixed request mix: the three paper apps at
// tiny generated scales, the iterated stencil at two sizes, a run of
// the pipeline family, compile-only requests (the pipeline family at
// larger kernel counts plus two app sources), a source accvet
// rejects, and a source that does not compile. Requests that vet pay
// the full cold pipeline (parse, translate, directive verification)
// while a warm request pays none of it.
func loadCorpus(seed int64) ([]loadReq, error) {
	var corpus []loadReq
	add := func(name string, r *serve.RunRequest, wantOK bool) error {
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		corpus = append(corpus, loadReq{name: name, path: "/v1/run", body: body, wantOK: wantOK, req: r})
		return nil
	}
	addCompile := func(name string, r *serve.CompileRequest) error {
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		corpus = append(corpus, loadReq{name: name, path: "/v1/compile", body: body, wantOK: true, creq: r})
		return nil
	}
	// BFS runs without the vet gate: its data-dependent gather is
	// exactly what the static verifier (correctly) refuses to prove.
	// The service mix is short requests: tiny generated instances (and
	// KMEANS trimmed to one Lloyd iteration via its iters scalar), so
	// the per-request cost is dominated by what the cache can save.
	for _, a := range []struct {
		name    string
		scale   float64
		vet     bool
		scalars map[string]float64
	}{
		{"MD", 0.0001, true, nil},
		{"KMEANS", 0.00002, true, map[string]float64{"iters": 1}},
		{"BFS", 0.00001, false, nil},
	} {
		app, err := apps.ByName(a.name)
		if err != nil {
			return nil, err
		}
		if err := add(a.name, &serve.RunRequest{
			Source:    app.Source,
			Vet:       a.vet,
			Generator: &serve.GeneratorSpec{App: a.name, Scale: a.scale, Seed: seed},
			Scalars:   a.scalars,
		}, true); err != nil {
			return nil, err
		}
	}
	if err := add("stencil1d", &serve.RunRequest{
		Source: loadStencilSrc, Vet: true,
		Scalars: map[string]float64{"n": 128, "steps": 2},
	}, true); err != nil {
		return nil, err
	}
	if err := add("stencil1d-wide", &serve.RunRequest{
		Source: loadStencilSrc, Vet: true, Machine: "super",
		Scalars: map[string]float64{"n": 256, "steps": 1},
	}, true); err != nil {
		return nil, err
	}
	for _, k := range []int{8} {
		if err := add(fmt.Sprintf("pipeline%d", k), &serve.RunRequest{
			Source: pipelineSrc(k), Vet: true,
			Scalars: map[string]float64{"n": 32},
		}, true); err != nil {
			return nil, err
		}
	}
	// Compile-only traffic: CI-style clients that want the content-hash
	// key and the accvet diagnostics without executing anything. These
	// are the purest cache win — a warm request is a single map lookup.
	for _, k := range []int{24, 32, 48, 64, 96, 128} {
		if err := addCompile(fmt.Sprintf("compile-pipeline%d", k),
			&serve.CompileRequest{Source: pipelineSrc(k), Vet: true}); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"MD", "KMEANS"} {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := addCompile("compile-"+name, &serve.CompileRequest{Source: app.Source, Vet: true}); err != nil {
			return nil, err
		}
	}
	if err := add("vet-rejected", &serve.RunRequest{
		Source: loadVetBadSrc, Vet: true,
		Scalars: map[string]float64{"n": 64},
	}, false); err != nil {
		return nil, err
	}
	if err := add("no-compile", &serve.RunRequest{
		Source: "int n void main() { }",
	}, false); err != nil {
		return nil, err
	}
	return corpus, nil
}

// saltBody rebuilds a corpus request with a distinct block comment so
// its cache key is unique while its semantics are untouched.
func saltBody(c loadReq, i int) ([]byte, error) {
	salt := fmt.Sprintf("/* salt%d */\n", i)
	if c.creq != nil {
		salted := *c.creq
		salted.Source = salt + c.creq.Source
		return json.Marshal(salted)
	}
	salted := *c.req
	salted.Source = salt + c.req.Source
	return json.Marshal(salted)
}

// runPhase fires total requests at the handler from cfg.Workers
// concurrent clients. bodyFor picks the request body by index.
func runPhase(name string, cfg LoadTestConfig, h http.Handler,
	corpus []loadReq, bodyFor func(i int) ([]byte, error)) (LoadPhase, error) {

	total := cfg.Requests
	latencies := make([]int64, total)
	codes := make([]int, total)
	hits := make([]bool, total)
	var next atomic.Int64
	var firstErr atomic.Value

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				body, err := bodyFor(i)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				req := httptest.NewRequest("POST", corpus[i%len(corpus)].path, bytes.NewReader(body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				latencies[i] = time.Since(t0).Microseconds()
				codes[i] = rec.Code
				hits[i] = rec.Header().Get("X-Accd-Cache") == "hit"
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return LoadPhase{}, err
	}

	p := LoadPhase{Phase: name, Requests: total}
	for i := 0; i < total; i++ {
		want := corpus[i%len(corpus)].wantOK
		switch {
		case codes[i] == http.StatusOK && want:
			p.OK++
		case codes[i] == http.StatusUnprocessableEntity && !want:
			p.Rejected++
		default:
			p.Errors++
		}
		if hits[i] {
			p.CacheHits++
		} else {
			p.CacheMisses++
		}
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	p.P50US = latencies[total/2]
	p.P99US = latencies[total*99/100]
	p.WallMS = float64(wall) / float64(time.Millisecond)
	p.Throughput = float64(total) / wall.Seconds()
	return p, nil
}

// LoadTest measures the accd service cold (every request compiles its
// own salted source) and warm (the cache already holds every distinct
// program), returning both phases and the warm/cold throughput ratio.
func LoadTest(cfg LoadTestConfig) (*LoadTestReport, error) {
	cfg = cfg.withDefaults()
	corpus, err := loadCorpus(cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Cold: a fresh server with room to never evict, every body salted
	// to a unique cache key — each request pays the full compile+vet.
	coldSrv := serve.New(serve.Config{
		CacheEntries: cfg.Requests + len(corpus) + 1,
		Concurrency:  cfg.Concurrency,
	})
	cold, err := runPhase("cold", cfg, coldSrv.Handler(), corpus, func(i int) ([]byte, error) {
		return saltBody(corpus[i%len(corpus)], i)
	})
	if err != nil {
		return nil, err
	}

	// Warm: a fresh server warmed with one serial pass over the
	// distinct programs, then the same request volume — all hits.
	warmSrv := serve.New(serve.Config{Concurrency: cfg.Concurrency})
	for _, c := range corpus {
		req := httptest.NewRequest("POST", c.path, bytes.NewReader(c.body))
		warmSrv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
	warm, err := runPhase("warm", cfg, warmSrv.Handler(), corpus, func(i int) ([]byte, error) {
		return corpus[i%len(corpus)].body, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &LoadTestReport{
		Workers:  cfg.Workers,
		Requests: cfg.Requests,
		Cold:     cold,
		Warm:     warm,
	}
	if cold.Throughput > 0 {
		rep.WarmColdRatio = warm.Throughput / cold.Throughput
	}
	return rep, nil
}

// RenderLoadTest prints the load-test report as text.
func RenderLoadTest(w io.Writer, r *LoadTestReport) {
	fmt.Fprintf(w, "accd load test: %d requests per phase, %d concurrent clients\n",
		r.Requests, r.Workers)
	fmt.Fprintf(w, "%-6s %9s %9s %7s %10s %12s %10s %10s %6s %6s\n",
		"phase", "req/s", "wall ms", "ok", "rejected", "errors", "p50 us", "p99 us", "hit", "miss")
	for _, p := range []LoadPhase{r.Cold, r.Warm} {
		fmt.Fprintf(w, "%-6s %9.0f %9.1f %7d %10d %12d %10d %10d %6d %6d\n",
			p.Phase, p.Throughput, p.WallMS, p.OK, p.Rejected, p.Errors,
			p.P50US, p.P99US, p.CacheHits, p.CacheMisses)
	}
	fmt.Fprintf(w, "Headline: warm-cache throughput %.1fx cold-cache\n", r.WarmColdRatio)
}
