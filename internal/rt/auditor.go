package rt

import (
	"time"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// The runtime's audit surface: when Options.Auditor is set, the runtime
// narrates its externally observable state transitions to the sink —
// before and after every kernel launch, and after every data-region and
// update-directive event. The sink (internal/audit) maintains a shadow
// oracle executed sequentially and verifies that the multi-GPU
// machinery (replica propagation, halo exchange, miss delivery,
// hierarchical reductions) preserved single-device OpenACC semantics.
// Auditing is ignored in ModeCPU, which needs no such machinery.

// AuditSink receives runtime consistency-audit events.
type AuditSink interface {
	// BeginRun starts auditing one execution of a bound instance.
	BeginRun(inst *ir.Instance) error
	// BeforeLaunch fires before the runtime touches anything for the
	// kernel; env still holds the pre-launch scalar state.
	BeforeLaunch(k *ir.Kernel, env *ir.Env) error
	// AfterLaunch fires after the BSP cycle (load, kernels,
	// communication, implicit copy-out) completed; copies snapshots
	// every resident device copy of the kernel's arrays, and now is
	// the simulated clock.
	AfterLaunch(k *ir.Kernel, env *ir.Env, copies []AuditCopy, now time.Duration) error
	// AfterEnterData fires once a data region's entry bookkeeping ran.
	AfterEnterData(reg *ir.DataRegion, env *ir.Env, now time.Duration) error
	// AfterExitData fires after outbound arrays were gathered and the
	// region's device storage was released.
	AfterExitData(reg *ir.DataRegion, env *ir.Env, now time.Duration) error
	// AfterUpdate fires after an update directive completed.
	AfterUpdate(u *ir.UpdateOp, env *ir.Env, now time.Duration) error
}

// AuditCopy is a read-only window onto one GPU's resident copy of (part
// of) an array, in logical element coordinates. The accessors see
// through the column-major layout transform and through the copy's
// pending relays (an element a relay covers reads from the relay's
// source), and move nothing: auditing leaves every copy as it was.
type AuditCopy struct {
	// Decl identifies the array.
	Decl *cc.VarDecl
	// GPU is the owning device index.
	GPU int
	// Lo..Hi is the resident inclusive logical range.
	Lo, Hi int64
	// CoreLo..CoreHi is the owned write range of the last launch
	// (empty, CoreHi < CoreLo, unless the array was distributed and
	// written).
	CoreLo, CoreHi int64
	// LoadF / LoadI read a logical element as float64 / int64.
	LoadF func(i int64) float64
	// LoadI reads a logical element as int64.
	LoadI func(i int64) int64
}

// auditing reports whether audit events should fire for this run.
func (r *Runtime) auditing() bool {
	return r.opts.Auditor != nil && r.opts.Mode != ModeCPU
}

// snapshotCopies builds the audit windows for a kernel's arrays.
func (r *Runtime) snapshotCopies(k *ir.Kernel) []AuditCopy {
	var out []AuditCopy
	for _, use := range k.Arrays {
		st := r.state(use.Decl)
		for g, c := range st.copies {
			if !c.valid {
				continue
			}
			c, rd := c, &relayReader{c: c}
			out = append(out, AuditCopy{
				Decl:   st.decl,
				GPU:    g,
				Lo:     c.lo,
				Hi:     c.hi,
				CoreLo: c.coreLo,
				CoreHi: c.coreHi,
				LoadF:  func(i int64) float64 { p := c.phys(i); return ir.LoadAs[float64](&rd.src(p).data, p) },
				LoadI:  func(i int64) int64 { p := c.phys(i); return ir.LoadAs[int64](&rd.src(p).data, p) },
			})
		}
	}
	return out
}
