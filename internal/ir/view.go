package ir

import (
	"fmt"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
)

// View is how compiled code touches one array whose lanes are S: int64
// for an int array, float64 for a float or double one. The runtime
// chooses the implementation per array and device: plain host storage, a
// replicated device copy with dirty-bit instrumentation, a distributed
// partition with remote-write buffering, or a reduction lane. All
// implementations count the bytes they move through the Env.
//
// Index errors panic (like an illegal address on a real GPU) and are
// recovered and reported by the kernel runner.
type View[S Num] interface {
	// Load reads element i.
	Load(e *Env, i int64) S
	// Store writes element i.
	Store(e *Env, i int64, x S)
	// Reduce applies op at element i (a reductiontoarray update).
	Reduce(e *Env, i int64, x S, op acc.RedOp)
	// Len is the logical (whole-array) element count.
	Len() int64
}

// ArrayView is one array's entry of the view table: the view of its lane
// type, the other one nil. A compiled access picks its half when it is
// built, never when it runs.
type ArrayView struct {
	I View[int64]
	F View[float64]
}

// HostArray is an array in host memory, bound by the embedding program.
// Exactly one of F32/F64/I32 is non-nil, matching the declared type.
type HostArray struct {
	Decl *cc.VarDecl
	F32  []float32
	F64  []float64
	I32  []int32
}

// NewHostArray allocates host storage for a declaration.
func NewHostArray(decl *cc.VarDecl, n int64) *HostArray {
	a := &HostArray{Decl: decl}
	switch decl.Type {
	case cc.TFloat:
		a.F32 = make([]float32, n)
	case cc.TDouble:
		a.F64 = make([]float64, n)
	default:
		a.I32 = make([]int32, n)
	}
	return a
}

// elemType is the element type of a's populated slice; ok is false when
// none is (an empty array may hold three nil slices).
func (a *HostArray) elemType() (t cc.ElemType, ok bool) {
	switch {
	case a.F32 != nil:
		return cc.TFloat, true
	case a.F64 != nil:
		return cc.TDouble, true
	case a.I32 != nil:
		return cc.TInt, true
	}
	return cc.TInt, false
}

// Len returns the element count.
func (a *HostArray) Len() int64 {
	switch {
	case a.F32 != nil:
		return int64(len(a.F32))
	case a.F64 != nil:
		return int64(len(a.F64))
	default:
		return int64(len(a.I32))
	}
}

// Bytes returns the storage size.
func (a *HostArray) Bytes() int64 { return a.Len() * a.Decl.Type.Size() }

// The host mirror and every device copy of an array hold their elements
// in a HostArray, and these four functions are the only code that picks
// the populated slice: a load or a store of one element as a lane type,
// the bit-exact copy of a range between two storages of one array, and
// the transpose that fills a column-major copy.

// LoadAs reads element i of a as an S.
func LoadAs[S Num](a *HostArray, i int64) S {
	switch {
	case a.F32 != nil:
		return S(a.F32[i])
	case a.F64 != nil:
		return S(a.F64[i])
	}
	return S(a.I32[i])
}

// StoreAs writes x to element i of a, converted to the element type. A
// float lane that held a float element was widened on its load, which
// quiets a signalling NaN.
func StoreAs[S Num](a *HostArray, i int64, x S) {
	switch {
	case a.F32 != nil:
		a.F32[i] = float32(x)
	case a.F64 != nil:
		a.F64[i] = float64(x)
	default:
		a.I32[i] = int32(x)
	}
}

// CopyRange copies the n elements of src from si to dst from di, bit for
// bit; the two storages hold one element type.
func CopyRange(dst *HostArray, di int64, src *HostArray, si, n int64) {
	switch {
	case src.F32 != nil:
		copy(dst.F32[di:di+n], src.F32[si:si+n])
	case src.F64 != nil:
		copy(dst.F64[di:di+n], src.F64[si:si+n])
	default:
		copy(dst.I32[di:di+n], src.I32[si:si+n])
	}
}

// Transpose stores the rows×width elements of src from si, row-major,
// column-major into dst: the element at row, col goes to col*rows + row.
func Transpose(dst, src *HostArray, si, rows, width int64) {
	switch {
	case src.F32 != nil:
		transpose(dst.F32, src.F32[si:], rows, width)
	case src.F64 != nil:
		transpose(dst.F64, src.F64[si:], rows, width)
	default:
		transpose(dst.I32, src.I32[si:], rows, width)
	}
}

func transpose[T elem](dst, src []T, rows, width int64) {
	for row := int64(0); row < rows; row++ {
		for col, x := range src[row*width : (row+1)*width] {
			dst[int64(col)*rows+row] = x
		}
	}
}

// View returns a direct view over the host storage (used by host code
// and by the OpenMP baseline, which accesses host memory in place).
func (a *HostArray) View() ArrayView {
	t, ok := a.elemType()
	if !ok && a.Decl != nil {
		t = a.Decl.Type
	}
	switch t {
	case cc.TFloat:
		return ArrayView{F: &hostView[float32, float64]{a.F32, 4}}
	case cc.TDouble:
		return ArrayView{F: &hostView[float64, float64]{a.F64, 8}}
	}
	return ArrayView{I: &hostView[int32, int64]{a.I32, 4}}
}

// hostView is the view of host storage with elements T and lanes S.
type hostView[T elem, S Num] struct {
	s    []T
	size int64
}

func (v *hostView[T, S]) Load(e *Env, i int64) S {
	e.BytesRead += v.size
	return S(v.s[i])
}

func (v *hostView[T, S]) Store(e *Env, i int64, x S) {
	e.BytesWritten += v.size
	v.s[i] = T(x)
}

func (v *hostView[T, S]) Reduce(e *Env, i int64, x S, op acc.RedOp) {
	e.ReduceOps++
	e.BytesRead += v.size
	e.BytesWritten += v.size
	v.s[i] = T(acc.Apply(op, S(v.s[i]), x))
}

func (v *hostView[T, S]) Len() int64 { return int64(len(v.s)) }

// Bindings maps declared global arrays and scalars to the host values
// supplied by the embedding program.
type Bindings struct {
	// Scalars maps global scalar names to their values (int scalars
	// take the truncated value).
	Scalars map[string]float64
	// Arrays maps global array names to host storage. Arrays omitted
	// here are allocated (zeroed) at bind time (Instance.Made), and the
	// runtime takes them for zeros until the program writes them: content
	// meant for an array goes in here, not into the instance after Bind.
	Arrays map[string]*HostArray
}

// NewBindings returns an empty binding set.
func NewBindings() *Bindings {
	return &Bindings{Scalars: map[string]float64{}, Arrays: map[string]*HostArray{}}
}

// SetScalar binds a global scalar parameter.
func (b *Bindings) SetScalar(name string, v float64) *Bindings {
	b.Scalars[name] = v
	return b
}

// SetArray binds a global array parameter.
func (b *Bindings) SetArray(name string, a *HostArray) *Bindings {
	b.Arrays[name] = a
	return b
}

// BindError reports an inconsistent binding.
type BindError struct{ Msg string }

func (e *BindError) Error() string { return "ir: bind: " + e.Msg }

func bindErrf(format string, args ...any) error {
	return &BindError{Msg: fmt.Sprintf(format, args...)}
}
