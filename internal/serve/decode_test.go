package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"accmulti/internal/core"
)

// referenceDecode is the request decoder before the walk: encoding/json's
// Decoder over the body, unknown fields refused, then nothing but
// whitespace allowed after the value. Every request type holds plain
// slices, so this is encoding/json alone.
func referenceDecode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := io.MultiReader(dec.Buffered(), body)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		if tail := bytes.TrimLeft(buf[:n], " \t\r\n"); len(tail) > 0 {
			return fmt.Errorf("invalid character %q after top-level value", tail[0])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// errCut is the read error of a body cut short in FuzzArrayPayloadDecode.
var errCut = errors.New("connection reset")

// FuzzArrayPayloadDecode decodes an arbitrary body as a run request and as
// a compile request, through decodeBody and through referenceDecode, whole
// and cut halfway by a read error. Both accept it or both refuse it.
// Refused, the error text is the same. Accepted, every value is equal bit
// for bit, and every list, map and pointer is nil in both or in neither.
func FuzzArrayPayloadDecode(f *testing.F) {
	// The inline-list shapes, as the arrays of a run request.
	for _, arrays := range []string{
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
		f.Add([]byte(`{"source":"","arrays":` + arrays + `}`))
	}
	for _, body := range []string{
		// Keys: case folded, unknown, twice, twice in a map.
		`{"Source":"x"}`, `{"source":"x","SOURCE":"y"}`, `{"source":"x","bogus":1}`,
		`{"source":"a","source":"b"}`, `{"scalars":{"n":1,"n":2}}`, `{"arrays":{"a":{},"a":{"f32":[1]}}}`,
		`{"options":{"audit":true,"Audit":false}}`, `{"generator":{"app":"MD","app":"BFS"}}`,
		`{"scalars":{"n":1},"scalars":{"m":2}}`, `{"generator":{"app":"MD"},"generator":{"seed":1}}`,
		`{"arrays":{"a":{"f32":[1]}},"arrays":{"b":{"i32":[2]}}}`, `{"return_arrays":["a"],"return_arrays":[]}`,
		// null anywhere.
		`{"source":null}`, `{"gpus":null}`, `{"scalars":{"n":null}}`, `{"generator":null}`,
		`{"generator":{"seed":null}}`, `{"options":{"no_async":null}}`, `{"return_arrays":[null]}`,
		`{"return_arrays":null}`, `{"arrays":{"a":{"f32":[1,null]}}}`, `null`,
		// Numbers outside JSON's grammar, which strconv takes.
		`{"scalars":{"n":Inf}}`, `{"scalars":{"n":NaN}}`, `{"scalars":{"n":0x1p3}}`, `{"scalars":{"n":1_0}}`,
		`{"scalars":{"n":+1}}`, `{"scalars":{"n":.5}}`, `{"scalars":{"n":01}}`, `{"scalars":{"n":1.}}`,
		`{"scalars":{"n":1e}}`, `{"scalars":{"n":-}}`, `{"arrays":{"a":{"f64":[Inf,1]}}}`,
		`{"arrays":{"a":{"f64":[0x1p3]}}}`, `{"arrays":{"a":{"i32":[01]}}}`, `{"arrays":{"a":{"f32":[.5]}}}`,
		`{"arrays":{"a":{"f32":[1,,2]}}}`, `{"arrays":{"a":{"f32":[1,]}}}`, `{"arrays":{"a":{"f32":[,]}}}`,
		`{"arrays":{"a":{"f32":[1 2]}}}`, `{"arrays":{"a":{"f32":[1`,
		// Integer fields: a fraction, an exponent, out of range.
		`{"gpus":1.0}`, `{"gpus":1e2}`, `{"gpus":2147483648}`, `{"gpus":9223372036854775808}`,
		`{"seed":1.0}`, `{"generator":{"seed":1e2,"scale":1e2}}`, `{"generator":{"seed":-9223372036854775808}}`,
		`{"timeout_ms":1.5}`, `{"timeout_ms":-0}`, `{"arrays":{"a":{"i32":[1.0]}}}`,
		`{"scalars":{"n":1e309}}`, `{"generator":{"scale":-1e400}}`, `{"scalars":{"n":2.5e-324}}`,
		// Short decimals at the edges of a float's exact case.
		`{"arrays":{"a":{"f32":[0.00000002157,0.000000000057,0.00000000001,1.0000000001,0.1234567891,8388607.5,838860.75,8388608,0.3]}}}`,
		`{"arrays":{"a":{"f64":[0.000000000000000001,4503599627370495.5,4503599627370496,1234567890123456789,0.3]}}}`,
		`{"scalars":{"a":-0.0000000000000000001,"b":9999999999999999999,"c":99999999999999999999}}`,
		`{"arrays":{"a":{"i32":[-0,2147483647,-2147483648,-2147483649,0000]}}}`,
		// Strings: the escapes Go's marshaller writes, every short escape,
		// surrogate pairs, lone surrogates, invalid UTF-8, a raw control byte.
		`{"source":"a \u003c b \u003e c \u0026 d \u2028 \u2029 é"}`,
		`{"source":"\"\\\/\b\f\n\r\t \u0000 \u00e9 \u00E9 \uffff \ufffd"}`,
		`{"source":"\ud83d\ude00"}`, `{"source":"\ud83d"}`, `{"source":"\ude00x"}`, `{"source":"\ud83dA"}`,
		"{\"source\":\"\xff\"}", "{\"source\":\"\xed\xa0\x80\"}", "{\"source\":\"\xef\xbf\xbd\"}",
		"{\"source\":\"a\tb\"}", "{\"source\":\"a\x7fb\"}", `{"source":"\x"}`, `{"source":"\u12"}`, `{"source":"\u12g4"}`,
		`{"scalars":{"\ud83d\ude00":1}}`, `{"scalars":{"😀":1}}`, `{"scalars":{"\udc00":1}}`, "{\"scalars\":{\"\xc3\":1}}",
		`{"scalars":{"n":1,"n":2}}`, `{"source":"x"}`, `{"return_arrays":["a","b"]}`,
		// Empty lists, maps and objects against missing ones.
		`{"return_arrays":[]}`, `{"scalars":{}}`, `{"arrays":{}}`, `{"arrays":{"a":{}}}`,
		`{"generator":{}}`, `{"options":{}}`, `{}`, ` {} `,
		// Everything once, and whitespace everywhere.
		"\t{ \"source\" : \"int x;\" , \"machine\" : \"2x2\" , \"gpus\" : 0 , \"mode\" : \"openmp\" ,\r\n" +
			" \"scalars\" : { \"n\" : 8 , \"m\" : -1.5e3 } , \"arrays\" : { \"x\" : { \"f64\" : [ 1 , 2 ] } } ,\n" +
			" \"generator\" : { \"app\" : \"MD\" , \"scale\" : 0.001 , \"seed\" : 7 } , \"vet\" : true ,\n" +
			" \"options\" : { \"no_async\" : false , \"balance_load\" : true , \"audit\" : true } ,\n" +
			" \"faults\" : \"seed=1\" , \"return_arrays\" : [ \"x\" , \"y\" ] , \"timeout_ms\" : 50 }\n",
		`{"source":"x","vet":true,"emit_source":false}`, `{"vet":tru}`, `{"vet":truex}`, `{"vet":1}`,
		// Not an object, or not one value.
		``, ` `, `[]`, `7`, `"x"`, `true`, `{"source":"x"} x`, `{"source":"x"}{}`, `{"source":"x"`, `{"source"}`,
		`{"source":"x",}`, `{,}`, "\xef\xbb\xbf{}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The body whole with its length, whole with no length, and cut
		// by a read error halfway through its length said more.
		for _, tc := range []struct {
			cut  bool
			size int64
		}{{false, int64(len(data))}, {false, -1}, {true, int64(len(data))}} {
			body := func() io.Reader {
				if !tc.cut {
					return bytes.NewReader(data)
				}
				return io.MultiReader(bytes.NewReader(data[:len(data)/2]), failing{errCut})
			}
			var run, wantRun RunRequest
			sameDecode(t, data, tc.cut, decodeBody(body(), tc.size, &run), referenceDecode(body(), &wantRun), run, wantRun)
			var compile, wantCompile CompileRequest
			sameDecode(t, data, tc.cut, decodeBody(body(), tc.size, &compile), referenceDecode(body(), &wantCompile), compile, wantCompile)
		}
	})
}

// sameDecode fails t unless decodeBody and referenceDecode agree.
func sameDecode(t *testing.T, data []byte, cut bool, gerr, werr error, got, want any) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q (cut %v) as %T: decodeBody says %v, encoding/json %v", data, cut, want, gerr, werr)
	}
	if werr == nil {
		sameBits(t, fmt.Sprintf("%q as %T", data, want), reflect.ValueOf(got), reflect.ValueOf(want))
	}
}

// sameBits fails t unless got and want hold the same values bit for bit,
// with each pointer, slice and map nil in both or in neither.
func sameBits(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch want.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if got.IsNil() != want.IsNil() || want.Kind() != reflect.Pointer && got.Len() != want.Len() {
			t.Fatalf("%s: decoded %v (nil %v), want %v (nil %v)", path, got, got.IsNil(), want, want.IsNil())
		}
	}
	switch want.Kind() {
	case reflect.Pointer:
		if !want.IsNil() {
			sameBits(t, path, got.Elem(), want.Elem())
		}
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			sameBits(t, path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < want.Len(); i++ {
			sameBits(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case reflect.Map:
		for _, k := range want.MapKeys() {
			g := got.MapIndex(k)
			if !g.IsValid() {
				t.Fatalf("%s: no key %q", path, k)
			}
			sameBits(t, fmt.Sprintf("%s[%q]", path, k), g, want.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Fatalf("%s: decoded %v, want %v", path, got, want)
		}
	default:
		if !got.Equal(want) {
			t.Fatalf("%s: decoded %v, want %v", path, got, want)
		}
	}
}

// TestWalkTakesMarshalledBodies: what encoding/json writes for a request
// is decoded by the walk, not handed to encoding/json: the load-test mix,
// the inline request, every field at once, and text with the escapes Go's
// marshaller writes (<, >, & and U+2028 as \u escapes) and with
// multi-byte UTF-8. The values are encoding/json's.
func TestWalkTakesMarshalledBodies(t *testing.T) {
	text := "a <b> & c\u2028 é \"q\" \\ \t\n ∑ 😀 \x7f"
	bodies := append(mixedCorpus(t), inlineRequest(t),
		marshal(t, &RunRequest{Source: text, Machine: "2x2:nic=1G", GPUs: 3, Mode: "cuda",
			Scalars: map[string]float64{"n": 8, text: -0.0, "big": 1e300, "tiny": 5e-324, "pi": math.Pi},
			Arrays: map[string]*ArrayPayload{
				"f": {F32: []float32{0, -1.5, 0.1, 3.4028235e38, 1e-45, 16777217, 0.33333334}},
				"d": {F64: []float64{math.Pi, -0.0, 1e22, 1e23, 123456789.125, 4.9e-324}},
				"i": {I32: []int32{0, -1, math.MaxInt32, math.MinInt32}},
				"e": {F32: []float32{}}},
			Generator: &GeneratorSpec{App: "MD", Scale: 0.002, Seed: -7}, Vet: true,
			Options: RunOptions{NoAsync: true, BalanceLoad: true, Audit: true}, Faults: "seed=1",
			ReturnArrays: []string{"f", text}, TimeoutMS: math.MaxInt64}))
	for _, body := range bodies {
		var got, want RunRequest
		if !walk(body, &got) {
			t.Fatalf("the walk refused %.200s", body)
		}
		if err := referenceDecode(bytes.NewReader(body), &want); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("%.60s", body), reflect.ValueOf(got), reflect.ValueOf(want))
	}
	body := marshal(t, &CompileRequest{Source: text, Vet: true, EmitSource: true})
	var got, want CompileRequest
	if !walk(body, &got) {
		t.Fatalf("the walk refused %s", body)
	}
	if err := referenceDecode(bytes.NewReader(body), &want); err != nil {
		t.Fatal(err)
	}
	sameBits(t, string(body), reflect.ValueOf(got), reflect.ValueOf(want))
}

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileListAllocatesNoMore: a body whose inline list is not plain
// numbers costs decodeBody no allocation sized by what the list holds
// before it goes to encoding/json. 64 MiB of commas inside one string
// would make a slice of 64 Mi elements if the commas sized it, and so
// would 64 MiB of commas with no numbers between them; encoding/json
// makes neither. A list of a million numbers ended by a string costs what
// encoding/json's own decoding of it costs. Each shape may cost what
// referenceDecode costs plus the body's length, the buffer it is read
// into, plus a fixed slack: the readCap bytes read before the declared
// length is trusted, and 64 KiB of a decoder's own state.
func TestHostileListAllocatesNoMore(t *testing.T) {
	const slack = readCap + 64<<10
	size := 64 << 20
	if testing.Short() {
		size = 4 << 20
	}
	for _, body := range [][]byte{
		[]byte(`{"source":"","arrays":{"a":{"f32":["` + strings.Repeat(",", size) + `"]}}}`),
		[]byte(`{"source":"","arrays":{"a":{"f64":[` + strings.Repeat(" ,", size/2) + `1]}}}`),
		[]byte(`{"source":"","arrays":{"a":{"f32":[` + strings.Repeat("1,", 1<<20) + `"x"]}}}`),
	} {
		var gerr, werr error
		got := allocated(func() { gerr = decodeBody(bytes.NewReader(body), int64(len(body)), &RunRequest{}) })
		want := allocated(func() { werr = referenceDecode(bytes.NewReader(body), &RunRequest{}) })
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%.40q…: decodeBody says %v, encoding/json %v", body, gerr, werr)
		}
		t.Logf("%.40q… (%d bytes): decodeBody allocated %d bytes, encoding/json %d", body, len(body), got, want)
		if got > want+uint64(len(body))+slack {
			t.Errorf("%.40q…: decodeBody allocated %d bytes, encoding/json %d, the body %d", body, got, want, len(body))
		}
	}
}

// TestContentLengthAllocatesNothing: a Content-Length is a claim, not
// bytes. A request that claims 64 MiB and carries 20 bytes costs accd
// no more than readCap and the work of those 20 bytes.
func TestContentLengthAllocatesNothing(t *testing.T) {
	h := New(Config{}).Handler()
	body := []byte(`{"source":"int x;"}`)
	var rec *httptest.ResponseRecorder
	got := allocated(func() {
		req := httptest.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
		req.ContentLength = 64 << 20
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	})
	t.Logf("%d-byte body claiming 64 MiB: status %d, %d bytes allocated", len(body), rec.Code, got)
	if rec.Code == http.StatusInternalServerError || got >= 2<<20 {
		t.Errorf("%d-byte body claiming 64 MiB: status %d, %d bytes allocated, want under 2 MiB", len(body), rec.Code, got)
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
// of the request that grow with the array. decode-kb/op is what one
// decode allocates.
func BenchmarkInlineRequest(b *testing.B) {
	body := inlineRequest(b)
	size := int64(len(body))
	h := New(Config{}).Handler()
	if rec := post(b, h, "/v1/run", body); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var req RunRequest
	if err := decodeBody(bytes.NewReader(body), size, &req); err != nil {
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
		if err := decodeBody(bytes.NewReader(body), size, &req); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := resp.body(); err != nil {
			b.Fatal(err)
		}
		decode, encode = decode+t1.Sub(t0), encode+time.Since(t1)
	}
	b.StopTimer()
	const rounds = 10
	kb := allocated(func() {
		for i := 0; i < rounds; i++ {
			decodeBody(bytes.NewReader(body), size, &RunRequest{})
		}
	})
	b.ReportMetric(float64(decode.Microseconds())/1e3/float64(b.N), "decode-ms/op")
	b.ReportMetric(float64(encode.Microseconds())/1e3/float64(b.N), "encode-ms/op")
	b.ReportMetric(float64(kb)/1e3/rounds, "decode-kb/op")
}
