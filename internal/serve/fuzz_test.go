package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"accmulti/internal/apps"
	"accmulti/internal/core"
	"accmulti/internal/ir"
)

// fuzzHostBytes is what the request's arrays would take on the host, 0
// when the server refuses the request before it allocates anything (the
// source does not compile, the bindings do not fit it). The fuzzer runs on
// shared machines: it is the harness, not the server, that keeps an
// input's arrays small (accd admits up to the machine's device memory).
func fuzzHostBytes(req *RunRequest) int64 {
	prog, err := core.Compile(req.Source)
	if err != nil {
		return 0
	}
	b := ir.NewBindings()
	if g := req.Generator; g != nil {
		app, err := apps.ByName(g.App)
		if err != nil {
			return 0
		}
		b = app.Shape(g.Scale)
	}
	for name, v := range req.Scalars {
		b.SetScalar(name, v)
	}
	bytes, err := prog.Module.ArrayBytes(b)
	if err != nil {
		return 0
	}
	var total int64
	for _, n := range bytes {
		if total += n; total < 0 {
			return 1 << 62
		}
	}
	return total
}

// FuzzServeRequest throws arbitrary request bodies carrying arbitrary
// source text at an in-process server, on both endpoints. Whatever comes
// in, the handler must not panic, must answer with a well-formed JSON body
// inside the request's deadline (plus slack for a loaded box), and must
// leave no run slot held, nothing queued and no run panicked.
func FuzzServeRequest(f *testing.F) {
	bodies := mixedCorpus(f)
	for _, src := range []string{
		"int x;\nvoid main(){ x = 0; while (1) { x = x + 1; } }",
		"float s;\nvoid main(){ int i; s = 0.0;\n#pragma acc parallel loop reduction(+:s)\nfor (i = 0; i < 100000000000; i++) { s += 1.0; } }",
	} {
		bodies = append(bodies, marshal(f, &RunRequest{Source: src}))
	}
	for _, body := range bodies {
		var req RunRequest
		if err := json.Unmarshal(body, &req); err != nil {
			f.Fatal(err)
		}
		f.Add(body, req.Source, false)
	}
	f.Add(marshal(f, &CompileRequest{Vet: true, EmitSource: true}), stencilSrc, true)
	f.Add([]byte(`{"source": 1, "gpus": "two"}`), "", false)
	f.Add([]byte(`not json`), reduceSrc, true)

	const timeoutMS, slack = 50, 10 * time.Second
	f.Fuzz(func(t *testing.T, body []byte, source string, compile bool) {
		// A server per input: what one input covers does not depend on
		// what the cache kept of the ones before it.
		s := New(Config{Concurrency: 2})
		h := s.Handler()
		path := "/v1/run"
		if compile {
			path = "/v1/compile"
		}
		// A body that decodes as a run request is sent with the fuzzed
		// source, a short deadline and sizes the box can afford; anything
		// else goes as it is (a 400).
		var req RunRequest
		if !compile && json.Unmarshal(body, &req) == nil {
			req.Source, req.TimeoutMS = source, timeoutMS
			if g := req.Generator; g != nil && !(g.Scale > 0 && g.Scale <= 0.002) {
				g.Scale = 0.002
			}
			if fuzzHostBytes(&req) > 1<<20 {
				t.Skip("arrays too large for the fuzzer")
			}
			body = marshal(t, &req)
		}

		began := time.Now()
		rec := post(t, h, path, body)
		if late := time.Since(began) - timeoutMS*time.Millisecond; late > slack {
			t.Fatalf("replied %v after the deadline: %s", late, body)
		}
		var reply map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d, body is not a JSON object: %v: %q", rec.Code, err, rec.Body.String())
		}
		if _, isErr := reply["error"]; isErr == (rec.Code == http.StatusOK) {
			t.Fatalf("status %d with body %s", rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("internal error: %s", rec.Body.String())
		}

		if running, queued := s.sched.load(); running != 0 || queued != 0 {
			t.Fatalf("%d running, %d queued after the reply", running, queued)
		}
		if c := counters(t, h); c["run.panic"] != 0 {
			t.Errorf("a run panicked: %v", c)
		}
	})
}
