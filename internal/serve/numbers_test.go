package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"accmulti/internal/core"
)

// FuzzArrayPayloadDecode decodes an arbitrary `arrays` value through
// Numbers and through a mirror of plain slices by encoding/json. Both
// accept it or both refuse it. Accepted, every list is nil in both or in
// neither and equal bit for bit. Refused, the error text is the same, but
// for the one case Numbers.UnmarshalJSON states: where encoding/json names
// a fault outside the lists, Numbers may name a later list's fault.
func FuzzArrayPayloadDecode(f *testing.F) {
	for _, seed := range []string{
		`{"a":{"f32":[]}}`, `{"a":{"f64":[ ]},"b":{"i32":[]}}`,
		`null`, `{"a":null}`, `{"a":{"f32":null}}`, `{"a":{"f32":[1],"f32":null}}`,
		"{\"a\":{\"f32\":[ 1 ,\n2,\t3\r\n , 4 ]}}",
		`{"a":{"f32":[-0,0]},"b":{"f64":[-0,-0.0]},"c":{"i32":[-0]}}`,
		`{"a":{"f64":[1e3,1E-3,-2.5e+10,6.02214076e23,5e-324,1.7976931348623157e308]}}`,
		`{"a":{"f32":[3.4028235e38,1e-46,1.17549435e-38,0.1]}}`,
		`{"a":{"f32":[1e39]}}`, `{"a":{"f64":[1e309]}}`,
		`{"a":{"i32":[2147483647,-2147483648]}}`, `{"a":{"i32":[2147483648]}}`,
		`{"a":{"i32":[1.5]}}`, `{"a":{"i32":[1e2]}}`,
		`{"a":{"f32":["1,2,3"]}}`, `{"a":{"f32":[1,"2,3",4]}}`, `{"a":{"i32":",,,"}}`,
		`{"a":{"f32":[[1,2],[3]]}}`, `{"a":{"f32":[1,[2]]}}`, `{"a":{"f64":[1,{"x":[2,3]}]}}`,
		`{"a":{"f32":[1],"f64":[2],"i32":[3]}}`, `{"a":{"f32":[1,2],"f32":[3]}}`,
		`{"a":{"f32":[1,true,false]}}`, `{"a":[1,2]}`, `{"a":5,"b":{"f32":["x"]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got map[string]*ArrayPayload
		gerr := json.Unmarshal(data, &got)
		type ArrayPayload struct {
			F32 []float32 `json:"f32,omitempty"`
			F64 []float64 `json:"f64,omitempty"`
			I32 []int32   `json:"i32,omitempty"`
		}
		var want map[string]*ArrayPayload
		werr := json.Unmarshal(data, &want)

		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: Numbers says %v, encoding/json %v", data, gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() && (listFault(werr) || !listFault(gerr)) {
				t.Fatalf("%q: error text\n got %v\nwant %v", data, gerr, werr)
			}
			return
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%q: decoded %v, want %v", data, got, want)
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok || (g == nil) != (w == nil) {
				t.Fatalf("%q: array %q: decoded %v, want %v", data, name, g, w)
			}
			if w == nil {
				continue
			}
			sameBits(t, name+".f32", g.F32, w.F32, func(v float32) uint64 { return uint64(math.Float32bits(v)) })
			sameBits(t, name+".f64", g.F64, w.F64, math.Float64bits)
			sameBits(t, name+".i32", g.I32, w.I32, func(v int32) uint64 { return uint64(uint32(v)) })
		}
	})
}

// listFault reports whether err is encoding/json's refusal of an inline
// list: a type error inside an ArrayPayload field.
func listFault(err error) bool {
	var te *json.UnmarshalTypeError
	return errors.As(err, &te) && te.Struct == "ArrayPayload"
}

func sameBits[T float32 | float64 | int32](t *testing.T, name string, got Numbers[T], want []T, bits func(T) uint64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: decoded %v (nil %v), want %v (nil %v)", name, got, got == nil, want, want == nil)
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("%s[%d]: decoded %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestHostileListAllocatesNoMore: a list that is not plain numbers costs
// Numbers no allocation sized by what it holds before it goes to
// encoding/json. 64 MiB of commas inside one string would make a slice of
// 64 Mi elements if the commas sized it; encoding/json makes none, and
// neither may Numbers. A list of a million numbers ended by a string costs
// what encoding/json's own decoding of it costs.
func TestHostileListAllocatesNoMore(t *testing.T) {
	size := 64 << 20
	if testing.Short() {
		size = 4 << 20
	}
	type plain struct {
		F32 []float32 `json:"f32,omitempty"`
	}
	for _, body := range [][]byte{
		[]byte(`{"a":{"f32":["` + strings.Repeat(",", size) + `"]}}`),
		[]byte(`{"a":{"f32":[` + strings.Repeat("1,", 1<<20) + `"x"]}}`),
	} {
		allocated := func(v any) (uint64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := json.Unmarshal(body, v)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, err
		}
		got, gerr := allocated(&map[string]*ArrayPayload{})
		want, werr := allocated(&map[string]*plain{})
		if gerr == nil || werr == nil {
			t.Fatalf("hostile list accepted: %v, %v", gerr, werr)
		}
		t.Logf("%.20q…: Numbers allocated %d bytes, encoding/json %d", body, got, want)
		// The slack is a decoder's own state, not a per-element cost.
		if got > want+64<<10 {
			t.Errorf("%.20q…: Numbers allocated %d bytes, encoding/json %d", body, got, want)
		}
	}
}

// inlineRequest is serve_mixed's inline request: the iterated stencil on
// the desktop over 16 Ki floats sent in the body and returned in the
// reply.
func inlineRequest(tb testing.TB) []byte {
	const n = 16 << 10
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(rng.Intn(4096)) * 0.25
	}
	return marshal(tb, &RunRequest{Source: stencilSrc, Vet: true,
		Scalars:      map[string]float64{"n": n, "steps": 2},
		Arrays:       map[string]*ArrayPayload{"a": {F32: a}},
		ReturnArrays: []string{"a"}})
}

// BenchmarkInlineRequest sends the inline request through the handler
// (ns/op) and, in the same loop, times decoding its body and encoding its
// reply on their own: decode-ms/op and encode-ms/op, the two host costs
// of the request that grow with the array.
func BenchmarkInlineRequest(b *testing.B) {
	body := inlineRequest(b)
	h := New(Config{}).Handler()
	if rec := post(b, h, "/v1/run", body); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var req RunRequest
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		b.Fatal(err)
	}
	prog, err := core.Compile(req.Source)
	if err != nil {
		b.Fatal(err)
	}
	bind, _, err := buildBindings(&req, prog, math.MaxInt64)
	if err != nil {
		b.Fatal(err)
	}
	res, err := prog.Run(bind, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := buildResponse(&req, res.Instance, res.Report)
	if err != nil {
		b.Fatal(err)
	}
	var decode, encode time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, h, "/v1/run", body)
		t0 := time.Now()
		var req RunRequest
		if err := decodeBody(bytes.NewReader(body), &req); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := resp.body(); err != nil {
			b.Fatal(err)
		}
		decode, encode = decode+t1.Sub(t0), encode+time.Since(t1)
	}
	b.ReportMetric(float64(decode.Microseconds())/1e3/float64(b.N), "decode-ms/op")
	b.ReportMetric(float64(encode.Microseconds())/1e3/float64(b.N), "encode-ms/op")
}
