package ir

import (
	"fmt"
	"math"
	"slices"

	"accmulti/internal/cc"
)

// LocalFootprint is the compiled form of a localaccess directive: it
// lets the runtime compute which part of the array a range of
// iterations may read.
type LocalFootprint struct {
	// HasStride selects the affine form.
	HasStride bool
	// Stride, Left, Right are evaluated once per kernel launch on the
	// host environment (they may reference host scalars such as nf).
	Stride, Left, Right ExprI
	// Lower, Upper are evaluated per iteration with the induction
	// variable stored in its slot (bounds form).
	Lower, Upper ExprI
	// lower, upper, when both set, say what Lower and Upper compute, so
	// that Range can read it off the host array (BoundsFootprint).
	lower, upper *boundScan
}

// boundScan is a bounds-form expression of the shape arr[v + off] + add:
// a host int array read at a literal distance from an int scalar (for
// Range to use it, the induction variable), plus a literal. It is the
// shape of every bounds() in the apps, the examples and the test
// templates (`bounds(off[i], off[i+1]-1)`).
type boundScan struct {
	arr, v   int
	off, add int64
}

// BoundsFootprint compiles the bounds form of a localaccess directive.
func BoundsFootprint(lower, upper cc.Expr) (*LocalFootprint, error) {
	f := &LocalFootprint{lower: matchBoundScan(lower), upper: matchBoundScan(upper)}
	var err error
	if f.Lower, err = CompileExprI(lower); err != nil {
		return nil, err
	}
	if f.Upper, err = CompileExprI(upper); err != nil {
		return nil, err
	}
	return f, nil
}

// litOffset splits e into x + k with an int literal k (x is e, k zero,
// when e is no such sum or difference).
func litOffset(e cc.Expr) (x cc.Expr, k int64) {
	b, ok := e.(*cc.BinaryExpr)
	if !ok || b.Op != "+" && b.Op != "-" {
		return e, 0
	}
	if lit, ok := b.Y.(*cc.NumLit); ok && !lit.IsFloat {
		if b.Op == "-" {
			return b.X, -lit.I
		}
		return b.X, lit.I
	}
	if lit, ok := b.X.(*cc.NumLit); ok && !lit.IsFloat && b.Op == "+" {
		return b.Y, lit.I
	}
	return e, 0
}

func matchBoundScan(e cc.Expr) *boundScan {
	x, add := litOffset(foldExpr(e))
	ld, ok := x.(*cc.IndexExpr)
	if !ok || ld.Array.Type != cc.TInt {
		return nil
	}
	iv, off := litOffset(foldExpr(ld.Index))
	id, ok := iv.(*cc.Ident)
	if !ok || id.Decl.IsArray || id.Decl.Type != cc.TInt {
		return nil
	}
	return &boundScan{arr: ld.Array.Slot, v: id.Decl.Slot, off: off, add: add}
}

// values returns arr[it + off] for it in [itLo, itHi), itHi > itLo. ok is
// false where the closure must speak: no such shape, another variable, a
// view that is not the host's int array, or an index outside it (the
// closure then fails as it always did).
func (b *boundScan) values(host *Env, loopSlot int, itLo, itHi int64) (vals []int32, ok bool) {
	if b == nil || b.v != loopSlot {
		return nil, false
	}
	view, isHost := host.Views[b.arr].(*hostI32)
	if !isHost || itLo+b.off < 0 || itHi+b.off > int64(len(view.a.I32)) {
		return nil, false
	}
	return view.a.I32[itLo+b.off : itHi+b.off], true
}

// scanBounds is the bounds form's loop over [itLo, itHi), itHi > itLo,
// read off the host arrays: the least Lower and the greatest Upper.
func (f *LocalFootprint) scanBounds(host *Env, loopSlot int, itLo, itHi int64) (lo, hi int64, ok bool) {
	lows, okL := f.lower.values(host, loopSlot, itLo, itHi)
	ups, okU := f.upper.values(host, loopSlot, itLo, itHi)
	if !okL || !okU {
		return 0, 0, false
	}
	return int64(slices.Min(lows)) + f.lower.add, int64(slices.Max(ups)) + f.upper.add, true
}

// Range computes the inclusive element range [lo, hi] read by
// iterations [itLo, itHi) of the loop, clamped to [0, n). The host
// environment is used for evaluation; for the bounds form the
// induction variable slot is temporarily rewritten. An empty iteration
// range returns (0, -1).
func (f *LocalFootprint) Range(host *Env, loopSlot int, itLo, itHi, n int64) (int64, int64) {
	if itHi <= itLo {
		return 0, -1
	}
	var lo, hi int64
	var ok bool
	if f.HasStride {
		s := f.Stride(host)
		l := f.Left(host)
		r := f.Right(host)
		lo = s*itLo - l
		hi = s*itHi - 1 + r
	} else if lo, hi, ok = f.scanBounds(host, loopSlot, itLo, itHi); !ok {
		saved := host.Ints[loopSlot]
		lo, hi = int64(1)<<62, int64(-1)<<62
		for i := itLo; i < itHi; i++ {
			host.Ints[loopSlot] = i
			if v := f.Lower(host); v < lo {
				lo = v
			}
			if v := f.Upper(host); v > hi {
				hi = v
			}
		}
		host.Ints[loopSlot] = saved
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi < lo {
		return 0, -1
	}
	return lo, hi
}

// ArrayUse is the per-kernel, per-array entry of the paper's "array
// configuration information": access classification, localaccess
// footprint, reduction role and optimization eligibility.
type ArrayUse struct {
	// Decl identifies the array.
	Decl *cc.VarDecl
	// Read/Written/Reduced classify the kernel's accesses.
	Read, Written, Reduced bool
	// ReduceOp is the reductiontoarray operator when Reduced.
	ReduceOp ReduceOp
	// Local is the compiled localaccess footprint, nil when absent.
	Local *LocalFootprint
	// AffineRead reports that every read index is affine in the
	// induction variable (a*i + b with loop-invariant a, b).
	AffineRead bool
	// IndirectRead reports at least one read index that depends on
	// another array's contents.
	IndirectRead bool
	// WritesWithinLocal reports that static analysis proved every
	// write index lies inside the localaccess footprint, so the
	// translator elides the per-store miss check (paper §IV-D2).
	WritesWithinLocal bool
	// WriteCoef and WriteOffLo/WriteOffHi describe the literal-affine
	// write envelope: every write index is WriteCoef*i + C with
	// C in [WriteOffLo, WriteOffHi]. WriteCoef is -1 when the writes
	// are not uniformly affine. The runtime uses the envelope to
	// compute each GPU's "core" (owned) range and exchange halo
	// overlaps of distributed arrays after the kernel.
	WriteCoef, WriteOffLo, WriteOffHi int64
	// StridedRead marks per-iteration row-major access to a logically
	// 2-D array (localaccess stride wider than one element): the
	// uncoalesced pattern the layout transform repairs.
	StridedRead bool
	// Transform2D marks the array for the coalescing layout transform
	// (read-only across the whole module + StridedRead).
	Transform2D bool
	// Width is the logical row width used by the layout transform
	// (the localaccess stride), evaluated on the host environment.
	Width ExprI
}

// Kernel is one translated parallel loop.
type Kernel struct {
	// ID indexes the kernel within its module.
	ID int
	// Name is a human-readable label, e.g. "main_L12".
	Name string
	// Line is the loop's source line.
	Line int
	// LoopVar is the induction variable.
	LoopVar *cc.VarDecl
	// Lower/Upper give the iteration space [Lower, Upper), evaluated
	// on the host environment at launch.
	Lower, Upper ExprI
	// Body executes one iteration; the runner stores the iteration
	// index in LoopVar's slot first.
	Body Stmt
	// Arrays lists every array the kernel touches, in slot order.
	Arrays []*ArrayUse
	// ScalarReds lists the loop's scalar reduction clauses.
	ScalarReds []cc.Reduction
	// Efficiency is the cost model's memory-coalescing factor in
	// (0, 1], derived from the access patterns.
	Efficiency float64
	// EfficiencyBaseline is the factor without the paper's layout
	// transform (stock-compiler and ablation pricing).
	EfficiencyBaseline float64
	// CPUEfficiency is the host-side factor for the OpenMP baseline:
	// regular streaming kernels vectorize (1.0); kernels with
	// data-dependent gathers defeat SIMD and prefetching.
	CPUEfficiency float64
	// HasArrayReduction reports any reductiontoarray statement.
	HasArrayReduction bool
	// Spec is the kernel's specialized direct-slice form, or nil when
	// the body is not eligible (see BuildKernelSpec). The runtime
	// decides per launch whether the fast path may actually run.
	Spec *KernelSpec
	// SpecReason categorizes why Spec is nil ("branch", "intrinsic",
	// "loop", "induction", "shape"); empty when Spec is present. The
	// runtime surfaces it in the per-reason fallback metrics.
	SpecReason string
	// SerialWorkers marks a kernel that loads from an array it also
	// stores to through a data-dependent index (BFS: `if (cost[w] < 0)
	// cost[w] = ...`). Two workers of one device can then both pass the
	// test for the same element, and how many do depends on their
	// interleaving — so would the work counters. Every engine runs such
	// a kernel's workers in worker order on one goroutine per device.
	SerialWorkers bool
}

// Use returns the ArrayUse for a declaration, if the kernel touches it.
func (k *Kernel) Use(d *cc.VarDecl) *ArrayUse {
	for _, u := range k.Arrays {
		if u.Decl == d {
			return u
		}
	}
	return nil
}

// DataRegion is one structured data region.
type DataRegion struct {
	ID   int
	Line int
	Args []cc.DataArg
}

// UpdateOp is one update directive.
type UpdateOp struct {
	Line     int
	ToHost   []*cc.VarDecl
	ToDevice []*cc.VarDecl
}

// Module is a fully translated program: compiled host main, kernels,
// data regions, and the generated CUDA-like source for inspection.
type Module struct {
	// Prog is the analyzed source program.
	Prog *cc.Program
	// Kernels are the translated parallel loops, in source order.
	Kernels []*Kernel
	// Regions are the data regions, in source order.
	Regions []*DataRegion
	// Updates are the update directives, in source order.
	Updates []*UpdateOp
	// Main is the compiled host program.
	Main Stmt
	// GeneratedSource is the CUDA-like code the translator emits,
	// mirroring the paper's source-to-source output.
	GeneratedSource string
	// ArraySizes computes each array's element count (by slot) from
	// the host environment.
	ArraySizes []ExprI
}

// Instance is a module bound to concrete inputs: a host environment
// with scalars set and host arrays attached.
type Instance struct {
	Module *Module
	// Env is the host environment.
	Env *Env
	// Arrays holds the bound host arrays, indexed by array slot.
	Arrays []*HostArray
}

// sizes binds b's global scalars into a fresh host environment,
// evaluates every array's element count (by slot) in it and holds b's
// arrays to them: everything Bind checks, nothing allocated.
func (m *Module) sizes(b *Bindings) (*Env, []int64, error) {
	env := NewEnv(m.Prog)
	// Bind scalars first: array sizes may reference them.
	for name, v := range b.Scalars {
		d, ok := m.Prog.Scope[name]
		if !ok || !d.Global {
			return nil, nil, bindErrf("no global scalar %q in program", name)
		}
		if d.IsArray {
			return nil, nil, bindErrf("%q is an array; bind it with SetArray", name)
		}
		if d.Type == cc.TInt {
			env.SetI(d, int64(v))
		} else {
			env.SetF(d, v)
		}
	}
	lens := make([]int64, m.Prog.NumArrays)
	for _, d := range m.Prog.ArrayDecls() {
		n := m.ArraySizes[d.Slot](env)
		if n < 0 || n > math.MaxInt64/8 {
			return nil, nil, bindErrf("array %q has size %d", d.Name, n)
		}
		if a, supplied := b.Arrays[d.Name]; supplied && a.Len() != n {
			return nil, nil, bindErrf("array %q bound with %d elements, program declares %d", d.Name, a.Len(), n)
		}
		lens[d.Slot] = n
	}
	for name := range b.Arrays {
		if d, ok := m.Prog.Scope[name]; !ok || !d.IsArray {
			return nil, nil, bindErrf("no global array %q in program", name)
		}
	}
	return env, lens, nil
}

// ArrayBytes is the storage size of every array (by slot) an instance
// bound with b would have, with Bind's checks and without allocating any:
// what an admission check can afford to ask before an input is generated.
func (m *Module) ArrayBytes(b *Bindings) ([]int64, error) {
	if b == nil {
		b = NewBindings()
	}
	_, lens, err := m.sizes(b)
	if err != nil {
		return nil, err
	}
	for _, d := range m.Prog.ArrayDecls() {
		lens[d.Slot] *= d.Type.Size()
	}
	return lens, nil
}

// Bind creates an execution instance: global scalars take their bound
// values, array sizes are evaluated, and host arrays are attached
// (allocated zeroed when not supplied).
func (m *Module) Bind(b *Bindings) (*Instance, error) {
	if b == nil {
		b = NewBindings()
	}
	env, lens, err := m.sizes(b)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Module: m, Env: env, Arrays: make([]*HostArray, m.Prog.NumArrays)}
	for _, d := range m.Prog.ArrayDecls() {
		a, supplied := b.Arrays[d.Name]
		if !supplied {
			a = NewHostArray(d, lens[d.Slot])
		} else if a.Decl == nil {
			a.Decl = d
		}
		inst.Arrays[d.Slot] = a
		env.Views[d.Slot] = a.View()
	}
	return inst, nil
}

// Run executes the host program with the given runtime hooks.
func (inst *Instance) Run(h Hooks) error {
	inst.Env.H = h
	defer func() { inst.Env.H = nil }()
	return inst.Module.Main(inst.Env)
}

// Array returns the bound host array by name.
func (inst *Instance) Array(name string) (*HostArray, error) {
	d, ok := inst.Module.Prog.Scope[name]
	if !ok || !d.IsArray {
		return nil, fmt.Errorf("ir: no array %q in program", name)
	}
	return inst.Arrays[d.Slot], nil
}

// ScalarF returns a scalar's current value by name.
func (inst *Instance) ScalarF(name string) (float64, error) {
	d, ok := inst.Module.Prog.Scope[name]
	if !ok || d.IsArray {
		return 0, fmt.Errorf("ir: no scalar %q in program", name)
	}
	if d.Type == cc.TInt {
		return float64(inst.Env.GetI(d)), nil
	}
	return inst.Env.GetF(d), nil
}
