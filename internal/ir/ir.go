// Package ir is the executable intermediate representation produced by
// the translator. A parallel loop becomes a Kernel whose body is a tree
// of Go closures over an Env; the enclosing host code becomes closures
// that call back into the runtime through the Hooks interface at the
// points where the paper's compiler inserts runtime calls (data region
// entry/exit, update directives, kernel launches).
//
// Kernels execute for real: every array access goes through an
// ArrayView, which the runtime implements per placement policy
// (replicated with dirty-bit instrumentation, distributed with
// remote-write buffering, plain host storage). The views and the
// closure tree accumulate operation and byte counters in the Env, which
// the simulator's cost model prices.
package ir

import "accmulti/internal/cc"

// Env is the execution environment of one sequential strand: the host
// program, or one worker's share of a kernel. Scalars live in flat
// typed tables indexed by the slots assigned during semantic analysis;
// arrays are reached through the view table.
type Env struct {
	// Ints holds int-typed scalars.
	Ints []int64
	// Floats holds float/double-typed scalars.
	Floats []float64
	// Views holds one ArrayView per declared array, indexed by slot.
	// The runtime swaps device views in before running a kernel.
	Views []ArrayView
	// H is the runtime hook table. The host code calls into all of it;
	// a kernel worker's clone only polls (see tick).
	H Hooks
	// trips counts the back-edges of the sequential loops this
	// environment ran (see tick).
	trips uint
	// WorkerID identifies the worker strand within one kernel launch
	// on one device (the "thread block" of the reduction hierarchy).
	WorkerID int

	// Instrumentation counters, accumulated during execution.
	Flops        int64
	BytesRead    int64
	BytesWritten int64
	// ReduceOps counts reductiontoarray element updates; the baseline
	// (stock OpenACC) cost model serializes these, as the paper
	// describes for compilers without the extension.
	ReduceOps int64
}

// NewEnv allocates an environment sized for the program.
func NewEnv(prog *cc.Program) *Env {
	return &Env{
		Ints:   make([]int64, prog.NumInts),
		Floats: make([]float64, prog.NumFloats),
		Views:  make([]ArrayView, prog.NumArrays),
	}
}

// Clone copies the scalar tables (private per worker, matching OpenACC
// firstprivate semantics for scalars) and shares the view table slice.
// Counters start at zero in the clone.
func (e *Env) Clone() *Env {
	c := &Env{
		Ints:   append([]int64(nil), e.Ints...),
		Floats: append([]float64(nil), e.Floats...),
		Views:  e.Views,
		H:      e.H,
	}
	return c
}

// CloneWithViews is Clone with a different view table (a GPU's views).
func (e *Env) CloneWithViews(views []ArrayView) *Env {
	c := e.Clone()
	c.Views = views
	return c
}

// GetI reads an int scalar by declaration.
func (e *Env) GetI(d *cc.VarDecl) int64 { return e.Ints[d.Slot] }

// SetI writes an int scalar by declaration.
func (e *Env) SetI(d *cc.VarDecl, v int64) { e.Ints[d.Slot] = v }

// GetF reads a float scalar by declaration.
func (e *Env) GetF(d *cc.VarDecl) float64 { return e.Floats[d.Slot] }

// SetF writes a float scalar by declaration.
func (e *Env) SetF(d *cc.VarDecl, v float64) { e.Floats[d.Slot] = v }

// Hooks is the runtime interface the generated host code calls into.
type Hooks interface {
	// EnterData begins a structured data region.
	EnterData(r *DataRegion, e *Env) error
	// ExitData ends a structured data region.
	ExitData(r *DataRegion, e *Env) error
	// Update executes an update directive.
	Update(u *UpdateOp, e *Env) error
	// Launch executes one parallel loop across the devices.
	Launch(k *Kernel, e *Env) error
	// Poll is called every pollTrips back-edges of sequential loops — the
	// host program's, which may never reach a directive, and those inside
	// a kernel iteration, from the kernel's worker goroutines; a non-nil
	// error ends the run.
	Poll() error
}
