package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// reply is the status and error message a client sees; the message is
// empty on a 200.
type reply struct {
	code int
	msg  string
}

// TestRequestWireBehaviour pins what a client sees for the bodies a
// decoder is most likely to get wrong, on both endpoints: a body past the
// size limit in each of its three shapes, a truncated or empty body, a
// top-level value that is not an object, a key that only matches a field
// once case is folded, an unknown or a duplicate field, null for every
// field, and a mistyped field before a malformed list. A reply with code
// 0 is not sent (the row does not apply to that endpoint).
func TestRequestWireBehaviour(t *testing.T) {
	src := string(marshal(t, reduceSrc))
	// with builds a run body that runs, plus the given members.
	with := func(members string) string {
		return `{"source":` + src + `,"scalars":{"n":8}` + members + `}`
	}
	const limit = 64
	pad := strings.Repeat(" ", 2*limit)
	for _, tc := range []struct {
		name         string
		body         string
		limit        int64
		run, compile reply
	}{
		{"limit/whitespace-past", `{"source":"int"}` + pad, limit,
			reply{400, "http: request body too large"}, reply{400, "http: request body too large"}},
		{"limit/syntax-before", `{"source":"int"]` + pad, limit,
			reply{400, "invalid character ']' after object key:value pair"}, reply{400, "invalid character ']' after object key:value pair"}},
		{"limit/value-cut", `{"source":"` + strings.Repeat("x", 2*limit) + `"}`, limit,
			reply{400, "http: request body too large"}, reply{400, "http: request body too large"}},
		{"truncated", `{"source":"int"`, 0,
			reply{400, "unexpected EOF"}, reply{400, "unexpected EOF"}},
		{"empty", ``, 0,
			reply{400, "EOF"}, reply{400, "EOF"}},
		{"top/array", `[{"source":"int"}]`, 0,
			reply{400, "json: cannot unmarshal array into Go value of type serve.RunRequest"}, reply{400, "json: cannot unmarshal array into Go value of type serve.CompileRequest"}},
		{"top/number", `7`, 0,
			reply{400, "json: cannot unmarshal number into Go value of type serve.RunRequest"}, reply{400, "json: cannot unmarshal number into Go value of type serve.CompileRequest"}},
		{"top/string", `"int"`, 0,
			reply{400, "json: cannot unmarshal string into Go value of type serve.RunRequest"}, reply{400, "json: cannot unmarshal string into Go value of type serve.CompileRequest"}},
		{"key/case-folded", `{"Source":"int"}`, 0,
			reply{422, "cc: line 1: expected variable name, found end of file"}, reply{422, "cc: line 1: expected variable name, found end of file"}},
		{"key/unknown", `{"source":"int","bogus":1}`, 0,
			reply{400, `json: unknown field "bogus"`}, reply{400, `json: unknown field "bogus"`}},
		{"key/duplicate", `{"source":"x","source":"int"}`, 0,
			reply{422, "cc: line 1: expected variable name, found end of file"}, reply{422, "cc: line 1: expected variable name, found end of file"}},
		{"null/source", `{"source":null}`, 0,
			reply{422, "cc: line 1: program has no void main()"}, reply{422, "cc: line 1: program has no void main()"}},
		{"null/vet", `{"source":` + src + `,"vet":null}`, 0, reply{200, ""}, reply{200, ""}},
		{"null/emit_source", `{"source":` + src + `,"emit_source":null}`, 0,
			reply{400, `json: unknown field "emit_source"`}, reply{200, ""}},
		{"null/machine", with(`,"machine":null`), 0, reply{200, ""}, reply{}},
		{"null/gpus", with(`,"gpus":null`), 0, reply{200, ""}, reply{}},
		{"null/mode", with(`,"mode":null`), 0, reply{200, ""}, reply{}},
		{"null/scalars", `{"source":` + src + `,"scalars":null}`, 0, reply{200, ""}, reply{}},
		{"null/scalar", `{"source":` + src + `,"scalars":{"n":null}}`, 0, reply{200, ""}, reply{}},
		{"null/arrays", with(`,"arrays":null`), 0, reply{200, ""}, reply{}},
		{"null/array", with(`,"arrays":{"x":null}`), 0,
			reply{400, `array "x": exactly one of f32/f64/i32 must be set`}, reply{}},
		{"null/list", with(`,"arrays":{"x":{"f32":null}}`), 0,
			reply{400, `array "x": exactly one of f32/f64/i32 must be set`}, reply{}},
		{"null/element", with(`,"arrays":{"x":{"f32":[1,null,3,4,5,6,7,8]}}`), 0, reply{200, ""}, reply{}},
		{"null/generator", with(`,"generator":null`), 0, reply{200, ""}, reply{}},
		{"null/generator-app", with(`,"generator":{"app":null}`), 0,
			reply{400, `apps: unknown application "" (have MD, KMEANS, BFS, SPMV, HOTSPOT2D, NBODY)`}, reply{}},
		{"null/options", with(`,"options":null`), 0, reply{200, ""}, reply{}},
		{"null/option", with(`,"options":{"audit":null}`), 0, reply{200, ""}, reply{}},
		{"null/faults", with(`,"faults":null`), 0, reply{200, ""}, reply{}},
		{"null/return_arrays", with(`,"return_arrays":null`), 0, reply{200, ""}, reply{}},
		// A name the program does not declare is refused before admission.
		{"null/return_array", with(`,"return_arrays":[null]`), 0,
			reply{400, `return_arrays: no global array "" in program`}, reply{}},
		{"null/timeout_ms", with(`,"timeout_ms":null`), 0, reply{200, ""}, reply{}},
		// A mistyped field, then a malformed list: the first fault is named.
		{"mistyped-then-list", `{"source":1,"arrays":{"x":{"f32":[1,"2"]}}}`, 0,
			reply{400, "json: cannot unmarshal number into Go struct field RunRequest.source of type string"},
			reply{400, "json: cannot unmarshal number into Go struct field CompileRequest.source of type string"}},
	} {
		for _, ep := range []struct {
			path string
			want reply
		}{{"/v1/run", tc.run}, {"/v1/compile", tc.compile}} {
			if ep.want.code == 0 {
				continue
			}
			h := New(Config{MaxBodyBytes: tc.limit}).Handler()
			rec := post(t, h, ep.path, []byte(tc.body))
			got := reply{code: rec.Code}
			if rec.Code != http.StatusOK {
				var e ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("%s %s: status %d, body %q: %v", tc.name, ep.path, rec.Code, rec.Body.String(), err)
				}
				got.msg = e.Error.Message
			}
			if got != ep.want {
				t.Errorf("%s %s: got reply{%d, %q}, want reply{%d, %q}", tc.name, ep.path, got.code, got.msg, ep.want.code, ep.want.msg)
			}
		}
	}
}
