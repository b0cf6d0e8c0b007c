package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/core"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
)

// RunRequest is the /v1/run request body. A request fully determines
// its response body: machine, mode, bindings and options are all
// explicit, and the simulated execution is deterministic, so equal
// requests yield bit-identical response bodies no matter the load.
type RunRequest struct {
	// Source is the OpenACC C program.
	Source string `json:"source"`
	// Machine selects the platform: "desktop" (default), "super", or
	// a cluster topology in the NxM[:key=val]* grammar shared with the
	// CLIs (e.g. "2x4", "2x2:nic=1G:niclat=10", "2x4:base=desktop").
	// A topology fixes the GPU count, so it rejects a GPUs override.
	Machine string `json:"machine,omitempty"`
	// GPUs overrides the platform GPU count (0 = platform default).
	GPUs int `json:"gpus,omitempty"`
	// Mode selects the execution strategy: "proposal" (default),
	// "openmp", "baseline" or "cuda".
	Mode string `json:"mode,omitempty"`
	// Scalars bind global scalar parameters by name.
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Arrays bind global arrays inline; the payload type must match
	// the program's declaration. Omitted arrays start zeroed.
	Arrays map[string]*ArrayPayload `json:"arrays,omitempty"`
	// Generator, when set, builds the bindings server-side from one of
	// the named benchmark input generators (MD, KMEANS, BFS, ...);
	// explicit Scalars/Arrays are then layered on top.
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// Vet runs the accvet directive checks first; a source with
	// error-severity diagnostics is rejected (422) without running.
	Vet bool `json:"vet,omitempty"`
	// Options are the runtime ablation switches.
	Options RunOptions `json:"options,omitempty"`
	// Faults arms a deterministic fault plan (sim.ParseFaultPlan
	// syntax) on the run's own machine.
	Faults string `json:"faults,omitempty"`
	// ReturnArrays lists arrays whose final contents are inlined in
	// the response. Digests of every array are always included.
	ReturnArrays []string `json:"return_arrays,omitempty"`
	// TimeoutMS bounds the request's total time in the service,
	// queueing included (0 = the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunOptions mirrors the runtime ablation switches of the CLIs.
type RunOptions struct {
	NoAsync     bool `json:"no_async,omitempty"`
	BalanceLoad bool `json:"balance_load,omitempty"`
	// Audit verifies every device copy against the sequential shadow
	// oracle during the run (slower; error 422 on divergence).
	Audit bool `json:"audit,omitempty"`
}

// GeneratorSpec names a server-side input generator.
type GeneratorSpec struct {
	// App is the benchmark application name (MD, KMEANS, BFS, SPMV,
	// HOTSPOT2D, NBODY).
	App string `json:"app"`
	// Scale is the fraction of the paper's input size (0 = the app's
	// default benchmark scale).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives the generator deterministically.
	Seed int64 `json:"seed,omitempty"`
}

// ArrayPayload carries one array's contents; exactly one field is set,
// matching the program's declared element type.
type ArrayPayload struct {
	F32 []float32 `json:"f32,omitempty"`
	F64 []float64 `json:"f64,omitempty"`
	I32 []int32   `json:"i32,omitempty"`
}

// RunResponse is the /v1/run success body. Field order is fixed and
// every value derives from the deterministic simulation, so the
// marshaled body is byte-stable.
type RunResponse struct {
	// Report is the runtime's accounting (virtual times, bytes,
	// memory peaks, events).
	Report *rt.Report `json:"report"`
	// Scalars are the final values of every global scalar.
	Scalars map[string]float64 `json:"scalars"`
	// Digests holds the SHA-256 of each array's raw little-endian
	// contents — the exact-equivalence handle for every array without
	// shipping the data.
	Digests map[string]string `json:"digests"`
	// Arrays inlines the contents of the requested return_arrays.
	Arrays map[string]*ArrayPayload `json:"arrays,omitempty"`
}

// body is the reply's JSON. JSON has no number for a NaN or an infinity
// and encoding/json refuses one; a run that divides by zero still gets its
// reply, and the same one every time: the body is then encoded again with
// such a value as the string "NaN", "+Inf" or "-Inf" in the number's
// place, every finite value as before.
func (r *RunResponse) body() ([]byte, error) {
	data, err := json.Marshal(r)
	var nonFinite *json.UnsupportedValueError
	if !errors.As(err, &nonFinite) {
		return data, err
	}
	type array struct {
		F32 []loose[float32] `json:"f32,omitempty"`
		F64 []loose[float64] `json:"f64,omitempty"`
		I32 []int32          `json:"i32,omitempty"`
	}
	arrays := map[string]array{}
	for name, p := range r.Arrays {
		arrays[name] = array{loosen(p.F32), loosen(p.F64), p.I32}
	}
	scalars := map[string]loose[float64]{}
	for name, v := range r.Scalars {
		scalars[name] = loose[float64]{v}
	}
	return json.Marshal(struct {
		Report  *rt.Report                `json:"report"`
		Scalars map[string]loose[float64] `json:"scalars"`
		Digests map[string]string         `json:"digests"`
		Arrays  map[string]array          `json:"arrays,omitempty"`
	}{r.Report, scalars, r.Digests, arrays})
}

// loose is a float of a reply that need not be finite (RunResponse.body).
type loose[T float32 | float64] struct{ v T }

func (l loose[T]) MarshalJSON() ([]byte, error) {
	if f := float64(l.v); math.IsNaN(f) || math.IsInf(f, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 64)), nil
	}
	return json.Marshal(l.v)
}

func loosen[T float32 | float64](vs []T) []loose[T] {
	out := make([]loose[T], len(vs))
	for i, v := range vs {
		out[i] = loose[T]{v}
	}
	return out
}

// ErrorResponse is the structured error body of every non-2xx reply.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable error.
type ErrorDetail struct {
	// Code is one of: bad_request, compile_error, vet_rejected,
	// run_error, timeout, overloaded, shutting_down, internal.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Diagnostics is the accvet diagnostic array (vet_rejected only).
	Diagnostics json.RawMessage `json:"diagnostics,omitempty"`
}

// buildBindings materializes the request's bindings — generator first,
// then explicit scalars and arrays layered on top, the program's
// declarations type-checking inline arrays — and their device-memory
// footprint (the admission weight), refusing bindings whose arrays take
// more than limit: the scalars are the client's, and a generator or a
// bind would allocate what they say — Bind every array, those only the
// host program touches too.
func buildBindings(req *RunRequest, prog *core.Program, limit int64) (*ir.Bindings, int64, error) {
	admit := func(b *ir.Bindings) (int64, error) {
		footprint, err := core.DeviceMemoryUsage(prog, b)
		if err != nil {
			return 0, err
		}
		bytes, _ := prog.Module.ArrayBytes(b) // b passed DeviceMemoryUsage's
		var all int64
		for _, n := range bytes {
			if all = all + n; all < 0 {
				all = math.MaxInt64
				break
			}
		}
		if all > limit {
			err = fmt.Errorf("the program's arrays take %d bytes; the machine's devices hold %d", all, limit)
		}
		return footprint, err
	}
	b := ir.NewBindings()
	if g := req.Generator; g != nil {
		app, err := apps.ByName(g.App)
		if err != nil {
			return nil, 0, err
		}
		scale := g.Scale
		if scale <= 0 {
			scale = app.DefaultScale
		}
		// The sizes first, with the request's scalars over them as they
		// will be over the input: Generate runs only on a scale admitted.
		shape := app.Shape(scale)
		for name, v := range req.Scalars {
			shape.SetScalar(name, v)
		}
		if _, err := admit(shape); err != nil {
			return nil, 0, err
		}
		in, err := app.Generate(scale, g.Seed)
		if err != nil {
			return nil, 0, err
		}
		b = in.Bindings
	}
	for name, v := range req.Scalars {
		b.SetScalar(name, v)
	}
	for name, p := range req.Arrays {
		d, ok := prog.Source.Scope[name]
		if !ok || !d.IsArray {
			return nil, 0, fmt.Errorf("no global array %q in program", name)
		}
		a, err := p.toHostArray(d)
		if err != nil {
			return nil, 0, err
		}
		b.SetArray(name, a)
	}
	footprint, err := admit(b)
	return b, footprint, err
}

// checkReturnArrays refuses a return_arrays name that is not one of the
// program's global arrays, which the run could not return.
func checkReturnArrays(req *RunRequest, prog *core.Program) error {
	for _, name := range req.ReturnArrays {
		if d, ok := prog.Source.Scope[name]; !ok || !d.IsArray {
			return fmt.Errorf("return_arrays: no global array %q in program", name)
		}
	}
	return nil
}

func (p *ArrayPayload) toHostArray(d *cc.VarDecl) (*ir.HostArray, error) {
	if p == nil { // "a": null sets no list either
		p = &ArrayPayload{}
	}
	set := 0
	if p.F32 != nil {
		set++
	}
	if p.F64 != nil {
		set++
	}
	if p.I32 != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("array %q: exactly one of f32/f64/i32 must be set", d.Name)
	}
	a := &ir.HostArray{Decl: d}
	switch d.Type {
	case cc.TFloat:
		if p.F32 == nil {
			return nil, fmt.Errorf("array %q is float; bind it with f32", d.Name)
		}
		a.F32 = p.F32
	case cc.TDouble:
		if p.F64 == nil {
			return nil, fmt.Errorf("array %q is double; bind it with f64", d.Name)
		}
		a.F64 = p.F64
	default:
		if p.I32 == nil {
			return nil, fmt.Errorf("array %q is int; bind it with i32", d.Name)
		}
		a.I32 = p.I32
	}
	return a, nil
}

// payloadFor snapshots a host array into a response payload.
func payloadFor(a *ir.HostArray) *ArrayPayload {
	return &ArrayPayload{F32: a.F32, F64: a.F64, I32: a.I32}
}

// digest hashes an array's contents as raw little-endian bytes: the
// hash of each element's bits, first to last, 4 bytes an int or a float
// and 8 a double. The bytes are encoded a block at a time into one
// buffer, so the hash sees one Write per block, not one per element.
func digest(a *ir.HostArray) string {
	h := sha256.New()
	var buf [digestBlock]byte
	b := buf[:0]
	switch {
	case a.F32 != nil:
		for _, v := range a.F32 {
			if len(b) == digestBlock {
				h.Write(b)
				b = b[:0]
			}
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	case a.F64 != nil:
		for _, v := range a.F64 {
			if len(b) == digestBlock {
				h.Write(b)
				b = b[:0]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	default:
		for _, v := range a.I32 {
			if len(b) == digestBlock {
				h.Write(b)
				b = b[:0]
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// digestBlock is the size of digest's buffer, a multiple of every
// element size.
const digestBlock = 4096

// buildResponse assembles the deterministic success body.
func buildResponse(req *RunRequest, inst *ir.Instance, rep *rt.Report) (*RunResponse, error) {
	resp := &RunResponse{
		Report:  rep,
		Scalars: map[string]float64{},
		Digests: map[string]string{},
	}
	prog := inst.Module.Prog
	for name, d := range prog.Scope {
		if !d.Global || d.IsArray {
			continue
		}
		v, err := inst.ScalarF(name)
		if err != nil {
			return nil, err
		}
		resp.Scalars[name] = v
	}
	for _, d := range prog.ArrayDecls() {
		resp.Digests[d.Name] = digest(inst.Arrays[d.Slot])
	}
	for _, name := range req.ReturnArrays {
		a, err := inst.Array(name)
		if err != nil {
			return nil, err
		}
		if resp.Arrays == nil {
			resp.Arrays = map[string]*ArrayPayload{}
		}
		resp.Arrays[name] = payloadFor(a)
	}
	return resp, nil
}
