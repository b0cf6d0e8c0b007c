// Package audit is a shadow-oracle consistency checker for the
// multi-GPU runtime. It re-executes every kernel sequentially on a
// private host-side memory image — the semantics a single-device
// OpenACC run would produce — and after each runtime event verifies
// that the multi-GPU machinery (replica dirty-bit propagation, halo
// exchange on distributed partitions, remote-write miss delivery,
// hierarchical reductions, gathers at region exits and update
// directives) left every device copy and every host mirror exactly
// where the oracle says it must be.
//
// The oracle runs the same closure bodies the GPUs run, in plain
// iteration order over plain host slices, so for everything except
// floating-point reductions the comparison is bit-exact: the same
// per-element operation sequence on the same operands. Reductions
// reassociate across lanes and GPUs, so reduction targets (array and
// scalar) of float type compare under a relative tolerance instead.
//
// The first divergence aborts the run with a DivergenceError naming
// the array, the GPU, the element range, and the simulated timestamp.
package audit

import (
	"errors"
	"fmt"
	"math"
	"time"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
)

// DefaultTolerance is the relative tolerance applied to reassociated
// floating-point reductions when Options.Tolerance is zero.
const DefaultTolerance = 1e-6

// Options configure an Auditor.
type Options struct {
	// Tolerance is the relative tolerance for float reduction targets
	// (array and scalar); zero selects DefaultTolerance. Everything
	// else is compared bit-exactly.
	Tolerance float64
}

// Auditor implements rt.AuditSink. One Auditor audits one run at a
// time; reuse across runs is fine (BeginRun resets all state).
type Auditor struct {
	opts Options

	inst    *ir.Instance
	shadows []*shadow
	// Launches counts the kernel launches verified so far.
	Launches int
	// Checks counts individual element comparisons performed.
	Checks int64
	// pendingReds holds the oracle's expected scalar-reduction results
	// for the launch in flight (filled by BeforeLaunch, consumed by
	// AfterLaunch).
	pendingReds []float64
}

// shadow is the oracle's view of one array.
type shadow struct {
	decl *cc.VarDecl
	host *ir.HostArray
	// image is the oracle's device memory image: what a correct
	// single-device run would hold on the accelerator right now.
	image *ir.HostArray
	// present mirrors the runtime's data-region residency: while set,
	// the image carries across launches; while clear, the host copy is
	// canonical before every launch.
	present bool
	// fuzzy marks float arrays that served as reductiontoarray targets:
	// their content embeds a reassociated sum/product, so comparisons
	// use the tolerance from here on.
	fuzzy bool
}

// New returns an auditor ready to be installed as rt.Options.Auditor.
func New(opts Options) *Auditor {
	if opts.Tolerance == 0 {
		opts.Tolerance = DefaultTolerance
	}
	return &Auditor{opts: opts}
}

var _ rt.AuditSink = (*Auditor)(nil)

// DivergenceError reports the first point where the multi-GPU state
// disagreed with the sequential oracle.
type DivergenceError struct {
	// Context names the kernel or directive being verified.
	Context string
	// Array is the diverging array, or the scalar name for scalar
	// reduction divergences.
	Array string
	// GPU is the device holding the bad copy; -1 means the host mirror
	// (or a scalar).
	GPU int
	// Lo..Hi is the inclusive element range of the leading divergent
	// run; -1/-1 for scalars.
	Lo, Hi int64
	// Got/Want are the first mismatching values (float view).
	Got, Want float64
	// Int selects integer formatting of Got/Want.
	Int bool
	// Time is the simulated clock at the verification point.
	Time time.Duration
}

func (e *DivergenceError) Error() string {
	where := "host mirror"
	if e.GPU >= 0 {
		where = fmt.Sprintf("GPU%d", e.GPU)
	}
	val := func(v float64) string {
		if e.Int {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	got, want := val(e.Got), val(e.Want)
	if got == want { // values that print alike (two NaN payloads) show their bits
		got = fmt.Sprintf("%s (%#016x)", got, math.Float64bits(e.Got))
		want = fmt.Sprintf("%s (%#016x)", want, math.Float64bits(e.Want))
	}
	loc := "scalar"
	if e.Lo >= 0 {
		loc = fmt.Sprintf("elements [%d,%d]", e.Lo, e.Hi)
		if e.Lo == e.Hi {
			loc = fmt.Sprintf("element %d", e.Lo)
		}
	}
	return fmt.Sprintf("audit: %s: %s diverged on %s, %s: got %s, want %s (t=%v)",
		e.Context, e.Array, where, loc, got, want, e.Time)
}

// BeginRun resets the oracle for one execution of the instance.
func (a *Auditor) BeginRun(inst *ir.Instance) error {
	a.inst = inst
	a.Launches = 0
	a.Checks = 0
	a.shadows = make([]*shadow, len(inst.Arrays))
	for _, d := range inst.Module.Prog.ArrayDecls() {
		a.shadows[d.Slot] = &shadow{decl: d, host: inst.Arrays[d.Slot]}
	}
	return nil
}

// snapshot refreshes the oracle image from the live host array.
func (sh *shadow) snapshot() {
	if sh.image == nil {
		sh.image = ir.NewHostArray(sh.decl, sh.host.Len())
	}
	copy(sh.image.F32, sh.host.F32)
	copy(sh.image.F64, sh.host.F64)
	copy(sh.image.I32, sh.host.I32)
}

func (sh *shadow) isInt() bool { return sh.decl.Type == cc.TInt }

// imageLoad reads a logical element of the oracle image.
func (sh *shadow) imageLoad(i int64) (f float64, n int64) {
	switch {
	case sh.image.F32 != nil:
		return float64(sh.image.F32[i]), int64(sh.image.F32[i])
	case sh.image.F64 != nil:
		return sh.image.F64[i], int64(sh.image.F64[i])
	default:
		return float64(sh.image.I32[i]), int64(sh.image.I32[i])
	}
}

// hostLoad reads a logical element of the live host array.
func (sh *shadow) hostLoad(i int64) (f float64, n int64) {
	switch {
	case sh.host.F32 != nil:
		return float64(sh.host.F32[i]), int64(sh.host.F32[i])
	case sh.host.F64 != nil:
		return sh.host.F64[i], int64(sh.host.F64[i])
	default:
		return float64(sh.host.I32[i]), int64(sh.host.I32[i])
	}
}

// close reports whether got matches want under the shadow's policy. Two
// NaNs match: the oracle and the engines agree that the element is NaN.
func (a *Auditor) close(sh *shadow, got, want float64) bool {
	if got == want || got != got && want != want {
		return true
	}
	if !sh.fuzzy || sh.isInt() {
		return false
	}
	scale := math.Max(1, math.Abs(want))
	return math.Abs(got-want) <= a.opts.Tolerance*scale
}

// BeforeLaunch re-establishes host-canonical images for arrays outside
// data regions (the implicit per-loop data movement), then runs the
// kernel on the oracle. Verification happens in AfterLaunch, once the
// runtime's own BSP cycle has finished.
func (a *Auditor) BeforeLaunch(k *ir.Kernel, env *ir.Env) error {
	for _, use := range k.Arrays {
		sh := a.shadows[use.Decl.Slot]
		if !sh.present || sh.image == nil {
			sh.snapshot()
		}
		if use.Reduced && !sh.isInt() {
			sh.fuzzy = true
		}
	}
	return a.oracleRun(k, env)
}

// oracleRun executes the kernel sequentially against the oracle
// images, leaving the expected post-launch state in them and the
// expected scalar-reduction results in pendingReds.
func (a *Auditor) oracleRun(k *ir.Kernel, env *ir.Env) error {
	views := append([]ir.ArrayView(nil), env.Views...)
	for _, use := range k.Arrays {
		views[use.Decl.Slot] = a.shadows[use.Decl.Slot].image.View()
	}
	oenv := env.CloneWithViews(views)

	// Scalar reductions start from the identity; the final level of the
	// hierarchy merges with the pre-launch value, like the runtime does.
	pre := make([]float64, len(k.ScalarReds))
	for ri, red := range k.ScalarReds {
		pre[ri] = getRedSlot(env, red)
		setRedSlot(oenv, red, identityRed(red))
	}

	lower, upper := k.Lower(env), k.Upper(env)
	slot := k.LoopVar.Slot
	for i := lower; i < upper; i++ {
		// The runtime has not begun the launch: the oracle polls like the
		// workers would, every 1024 iterations.
		if (i-lower)%1024 == 0 && oenv.H != nil {
			if err := oenv.H.Poll(); err != nil {
				return err
			}
		}
		oenv.Ints[slot] = i
		if err := k.Body(oenv); err != nil {
			if errors.Is(err, ir.ErrLoopContinue) {
				continue
			}
			if errors.Is(err, ir.ErrLoopBreak) {
				return fmt.Errorf("audit: oracle: line %d: break out of a parallel loop", k.Line)
			}
			return fmt.Errorf("audit: oracle: kernel %s: %w", k.Name, err)
		}
	}
	a.pendingReds = a.pendingReds[:0]
	for ri, red := range k.ScalarReds {
		a.pendingReds = append(a.pendingReds, mergeRed(red, pre[ri], getRedSlot(oenv, red)))
	}
	return nil
}

// AfterLaunch verifies every resident device window, the host mirrors
// of arrays outside data regions, and the scalar reduction results.
func (a *Auditor) AfterLaunch(k *ir.Kernel, env *ir.Env, copies []rt.AuditCopy, now time.Duration) error {
	a.Launches++
	ctx := "kernel " + k.Name
	for _, cp := range copies {
		sh := a.shadows[cp.Decl.Slot]
		load := cp.LoadF
		if sh.isInt() {
			load = func(i int64) float64 { return float64(cp.LoadI(i)) }
		}
		if err := a.verifyRange(ctx, sh, cp.GPU, cp.Lo, cp.Hi, load, now); err != nil {
			return err
		}
	}
	// Arrays outside any data region returned to the host in the BSP
	// cycle's copy-out phase; the host mirror must match the oracle.
	for _, use := range k.Arrays {
		sh := a.shadows[use.Decl.Slot]
		if !sh.present && (use.Written || use.Reduced) {
			load := func(i int64) float64 { f, _ := sh.hostLoad(i); return f }
			if err := a.verifyRange(ctx, sh, -1, 0, sh.host.Len()-1, load, now); err != nil {
				return err
			}
		}
	}
	for ri, red := range k.ScalarReds {
		got := getRedSlot(env, red)
		want := a.pendingReds[ri]
		ok := got == want || got != got && want != want
		if !ok && red.Decl.Type != cc.TInt {
			scale := math.Max(1, math.Abs(want))
			ok = math.Abs(got-want) <= a.opts.Tolerance*scale
		}
		a.Checks++
		if !ok {
			return &DivergenceError{
				Context: ctx, Array: red.Decl.Name, GPU: -1, Lo: -1, Hi: -1,
				Got: got, Want: want, Int: red.Decl.Type == cc.TInt, Time: now,
			}
		}
	}
	return nil
}

// verifyRange compares [lo,hi] of a copy (via load) against the oracle
// image, reporting the leading divergent run.
func (a *Auditor) verifyRange(ctx string, sh *shadow, gpu int, lo, hi int64, load func(int64) float64, now time.Duration) error {
	for i := lo; i <= hi; i++ {
		a.Checks++
		want, _ := sh.imageLoad(i)
		got := load(i)
		if a.close(sh, got, want) {
			continue
		}
		// Extend the run of divergent elements for the report.
		end := i
		for end < hi {
			w, _ := sh.imageLoad(end + 1)
			if a.close(sh, load(end+1), w) {
				break
			}
			end++
		}
		return &DivergenceError{
			Context: ctx, Array: sh.decl.Name, GPU: gpu, Lo: i, Hi: end,
			Got: got, Want: want, Int: sh.isInt(), Time: now,
		}
	}
	return nil
}

// AfterEnterData mirrors region entry: inbound classes make the host
// canonical, so the oracle image re-snapshots; present() asserts an
// image the oracle must already be tracking.
func (a *Auditor) AfterEnterData(reg *ir.DataRegion, _ *ir.Env, now time.Duration) error {
	for _, arg := range reg.Args {
		sh := a.shadows[arg.Decl.Slot]
		if arg.Class == acc.ClassPresent {
			if !sh.present {
				return fmt.Errorf("audit: line %d: present(%s) asserted but the oracle holds no region image (t=%v)",
					reg.Line, arg.Decl.Name, now)
			}
			continue
		}
		sh.present = true
		sh.snapshot()
	}
	return nil
}

// AfterExitData verifies that outbound classes gathered device content
// to the host, then drops the region images.
func (a *Auditor) AfterExitData(reg *ir.DataRegion, _ *ir.Env, now time.Duration) error {
	ctx := fmt.Sprintf("data exit (line %d)", reg.Line)
	for _, arg := range reg.Args {
		sh := a.shadows[arg.Decl.Slot]
		if arg.Class == acc.ClassPresent {
			continue // owned by an enclosing region
		}
		if arg.Class == acc.ClassCopy || arg.Class == acc.ClassCopyOut {
			load := func(i int64) float64 { f, _ := sh.hostLoad(i); return f }
			if err := a.verifyRange(ctx, sh, -1, 0, sh.host.Len()-1, load, now); err != nil {
				return err
			}
		}
		sh.present = false
		sh.image = nil
	}
	return nil
}

// AfterUpdate verifies update host gathers and refreshes the oracle
// image on update device.
func (a *Auditor) AfterUpdate(u *ir.UpdateOp, _ *ir.Env, now time.Duration) error {
	ctx := fmt.Sprintf("update (line %d)", u.Line)
	for _, d := range u.ToHost {
		sh := a.shadows[d.Slot]
		if sh.image == nil {
			continue // nothing resident to gather
		}
		load := func(i int64) float64 { f, _ := sh.hostLoad(i); return f }
		if err := a.verifyRange(ctx, sh, -1, 0, sh.host.Len()-1, load, now); err != nil {
			return err
		}
	}
	for _, d := range u.ToDevice {
		sh := a.shadows[d.Slot]
		sh.snapshot()
	}
	return nil
}

// Scalar reduction helpers, mirroring the runtime's float64 carrier.

func identityRed(red cc.Reduction) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(red.Op.IdentityI())
	}
	return red.Op.IdentityF()
}

func getRedSlot(e *ir.Env, red cc.Reduction) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(e.Ints[red.Decl.Slot])
	}
	return e.Floats[red.Decl.Slot]
}

func setRedSlot(e *ir.Env, red cc.Reduction, v float64) {
	if red.Decl.Type == cc.TInt {
		e.Ints[red.Decl.Slot] = int64(v)
	} else {
		e.Floats[red.Decl.Slot] = v
	}
}

func mergeRed(red cc.Reduction, a, b float64) float64 {
	if red.Decl.Type == cc.TInt {
		return float64(red.Op.MergeI(int64(a), int64(b)))
	}
	return red.Op.MergeF(a, b)
}
