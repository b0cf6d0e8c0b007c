package translator

import (
	"fmt"
	"slices"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// Cost-model efficiency factors for GPU kernels, reflecting memory
// coalescing behaviour on the paper-era Fermi GPUs. They are calibrated
// constants of the simulator, not measurements.
const (
	// effIndirect is the gather penalty for data-dependent reads
	// (pos[nbr[j]], cost[edges[e]]).
	effIndirect = 0.70
	// effStrided is the penalty for per-thread row-major access to a
	// logically 2-D array without the layout transform.
	effStrided = 0.55
	// effReduction is the bank/atomic penalty of reductiontoarray
	// accumulation.
	effReduction = 0.90
	// effCPUIrregular is the host-side penalty for kernels with
	// data-dependent gathers (no SIMD, cache-hostile), applied to the
	// OpenMP baseline's roofline.
	effCPUIrregular = 0.42
)

// Translate converts an analyzed program into an executable module:
// AnalyzeProgram, then Lower.
func Translate(prog *cc.Program) (*ir.Module, error) {
	pa, err := AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	return Lower(pa)
}

// Lower turns a program skeleton into the executable module. Main's
// statements compile to closures; at each directive the handlers find
// the skeleton's node by its statement and lower that.
func Lower(pa *ProgramAccess) (*ir.Module, error) {
	prog := pa.Prog
	t := &xlate{pa: pa, m: &ir.Module{Prog: prog}}
	t.m.ArraySizes = make([]ir.ExprI, prog.NumArrays)
	for _, d := range prog.ArrayDecls() {
		sz, err := ir.CompileExprI(d.Size)
		if err != nil {
			return nil, err
		}
		t.m.ArraySizes[d.Slot] = sz
	}
	handlers := &ir.StmtHandlers{
		OnParallelFor: t.parallelFor,
		OnData:        t.dataRegion,
		OnUpdate:      t.update,
	}
	main, err := ir.CompileStmt(prog.Main.Body, handlers)
	if err != nil {
		return nil, err
	}
	t.m.Main = main
	stripFlappingTransforms(t.m)
	t.m.GeneratedSource = emit(t.m, pa)
	return t.m, nil
}

// stripFlappingTransforms withdraws layout-transform eligibility from
// arrays that any kernel of the module writes or reduces: a transform
// is a device-resident storage permutation, and an array that
// alternates between transformed (read-only) and linear (written)
// kernels would force a gather-and-reload through host memory on every
// alternation — worse than the coalescing win. Whole-module read-only
// arrays (the paper's case) keep the transform.
func stripFlappingTransforms(m *ir.Module) {
	written := map[*cc.VarDecl]bool{}
	for _, k := range m.Kernels {
		for _, u := range k.Arrays {
			if u.Written || u.Reduced {
				written[u.Decl] = true
			}
		}
	}
	for _, k := range m.Kernels {
		changed := false
		for _, u := range k.Arrays {
			if u.Transform2D && written[u.Decl] {
				u.Transform2D = false
				u.Width = nil
				changed = true
			}
		}
		if changed {
			k.Efficiency = kernelEfficiency(k, true)
			k.EfficiencyBaseline = kernelEfficiency(k, false)
		}
	}
}

type xlate struct {
	pa *ProgramAccess
	m  *ir.Module
}

func (t *xlate) dataRegion(b *cc.Block, body ir.Stmt) (ir.Stmt, error) {
	info := t.pa.regions[b]
	r := &ir.DataRegion{ID: len(t.m.Regions), Line: info.Line, Args: info.Args}
	t.m.Regions = append(t.m.Regions, r)
	return func(env *ir.Env) error {
		if err := env.H.EnterData(r, env); err != nil {
			return err
		}
		if err := body(env); err != nil {
			return err
		}
		return env.H.ExitData(r, env)
	}, nil
}

func (t *xlate) update(st *cc.UpdateStmt) (ir.Stmt, error) {
	u := &ir.UpdateOp{Line: st.Line, ToHost: st.ToHost, ToDevice: st.ToDevice}
	t.m.Updates = append(t.m.Updates, u)
	return func(env *ir.Env) error { return env.H.Update(u, env) }, nil
}

func (t *xlate) parallelFor(st *cc.ForStmt) (ir.Stmt, error) {
	k, err := t.lowerKernel(t.pa.kernels[st])
	if err != nil {
		return nil, err
	}
	t.m.Kernels = append(t.m.Kernels, k)
	return func(env *ir.Env) error { return env.H.Launch(k, env) }, nil
}

// lowerKernel compiles one analysed loop: bounds and body to interpreter
// closures, its footprints to the array configuration information, the
// cost model's efficiencies, and (flat loops) the specialized form.
func (t *xlate) lowerKernel(l *LoopAccess) (*ir.Kernel, error) {
	if l.Invalid != nil {
		return nil, l.Invalid
	}
	k := &ir.Kernel{
		ID:         l.ID,
		Name:       fmt.Sprintf("main_L%d", l.Line),
		Line:       l.Line,
		LoopVar:    l.LoopVar,
		ScalarReds: l.For.Reductions,
	}
	body, err := ir.CompileStmt(l.body, nil)
	if err != nil {
		return nil, err
	}
	if l.Collapsed {
		err = t.collapsedBounds(k, l, body)
	} else {
		err = flatBounds(k, l, body)
	}
	if err != nil {
		return nil, err
	}

	for _, fp := range l.Arrays {
		use, err := buildArrayUse(fp)
		if err != nil {
			return nil, err
		}
		k.Arrays = append(k.Arrays, use)
		if use.Reduced {
			k.HasArrayReduction = true
		}
	}
	k.SerialWorkers = gathersWhatItScatters(l.Arrays)
	k.Efficiency = kernelEfficiency(k, true)
	k.EfficiencyBaseline = kernelEfficiency(k, false)
	k.CPUEfficiency = 1.0
	for _, u := range k.Arrays {
		if u.IndirectRead {
			k.CPUEfficiency = effCPUIrregular
			break
		}
	}
	if !l.Collapsed { // collapsed kernels always interpret
		k.Spec, k.SpecReason = ir.BuildKernelSpec(k, l.For.Body, t.pa.Prog)
	}
	return k, nil
}

// flatBounds gives a canonical loop's kernel its iteration space.
func flatBounds(k *ir.Kernel, l *LoopAccess, body ir.Stmt) (err error) {
	if k.Lower, err = ir.CompileExprI(l.Lower); err != nil {
		return err
	}
	k.Upper, err = ir.CompileExprI(l.Upper)
	k.Body = body
	return err
}

// collapsedBounds gives a collapse(2) kernel its flat iteration space:
// the synthesized induction variable gets a slot (the int table grows;
// translation happens before any environment is built), the kernel runs
// over [0, rows*cols), and each iteration derives the nest's two
// variables from the flat index before the inner body runs.
func (t *xlate) collapsedBounds(k *ir.Kernel, l *LoopAccess, innerBody ir.Stmt) error {
	flat := *l.LoopVar
	flat.Slot = t.pa.Prog.NumInts
	t.pa.Prog.NumInts++
	k.LoopVar = &flat

	var bounds [4]ir.ExprI
	for i, e := range []cc.Expr{l.outer.Lower, l.outer.Upper, l.inner.Lower, l.inner.Upper} {
		var err error
		if bounds[i], err = ir.CompileExprI(e); err != nil {
			return err
		}
	}
	oLo, oHi, iLo, iHi := bounds[0], bounds[1], bounds[2], bounds[3]
	oSlot, iSlot, fSlot := l.outer.Var.Slot, l.inner.Var.Slot, flat.Slot
	k.Lower = func(env *ir.Env) int64 { return 0 }
	k.Upper = func(env *ir.Env) int64 {
		o := oHi(env) - oLo(env)
		w := iHi(env) - iLo(env)
		if o <= 0 || w <= 0 {
			return 0
		}
		return o * w
	}
	k.Body = func(env *ir.Env) error {
		w := iHi(env) - iLo(env)
		if w <= 0 {
			return nil
		}
		f := env.Ints[fSlot]
		env.Ints[oSlot] = oLo(env) + f/w
		env.Ints[iSlot] = iLo(env) + f%w
		return innerBody(env)
	}
	return nil
}

// buildArrayUse is one array's entry of the array configuration
// information.
func buildArrayUse(in *ArrayFootprint) (*ir.ArrayUse, error) {
	use := &ir.ArrayUse{
		Decl:         in.Array,
		Read:         in.Read,
		Written:      in.Written,
		Reduced:      in.Reduced,
		AffineRead:   in.AffineRead,
		IndirectRead: in.IndirectRead,
		WriteCoef:    -1,
	}
	if coef, ok := CommonCoef(in.Writes); ok && coef > 0 {
		use.WriteCoef, use.WriteOffLo, use.WriteOffHi = coef, in.Writes[0].Off, in.Writes[0].Off
		for _, w := range in.Writes[1:] {
			use.WriteOffLo, use.WriteOffHi = min(use.WriteOffLo, w.Off), max(use.WriteOffHi, w.Off)
		}
	}
	if in.ReduceOp == "*" {
		use.ReduceOp = ir.ReduceMul
	}
	spec := in.Spec
	if spec == nil {
		return use, nil
	}

	fp := &ir.LocalFootprint{HasStride: spec.HasStride}
	var err error
	if spec.HasStride {
		if fp.Stride, err = ir.CompileExprI(spec.Stride); err != nil {
			return nil, err
		}
		if fp.Left, err = ir.CompileExprI(spec.Left); err != nil {
			return nil, err
		}
		if fp.Right, err = ir.CompileExprI(spec.Right); err != nil {
			return nil, err
		}
	} else if fp, err = ir.BoundsFootprint(spec.Lower, spec.Upper); err != nil {
		return nil, err
	}
	use.Local = fp

	// Write-miss check elision (paper §IV-D2): every store provably stays
	// inside the declared window.
	if win, ok := WindowOf(spec); ok && in.Written {
		use.WritesWithinLocal = !slices.ContainsFunc(in.Writes, func(w IndexForm) bool { return !win.Contains(w) })
	}

	// Coalescing layout transform (paper §IV-B4): read-only arrays
	// with affine-per-row access and a localaccess stride wider than
	// one element are stored transposed on the device.
	if in.Read && !in.IndirectRead && spec.HasStride {
		s, lit := LiteralInt(spec.Stride)
		if !lit || s > 1 {
			use.StridedRead = true
			if !in.Written && !in.Reduced {
				use.Transform2D = true
				use.Width = fp.Stride
			}
		}
	}
	return use, nil
}

// kernelEfficiency computes the cost model's coalescing factor.
// withTransform prices the layout-transformed binary; the stock
// (baseline) compiler does not apply the transform.
func kernelEfficiency(k *ir.Kernel, withTransform bool) float64 {
	eff := 1.0
	for _, u := range k.Arrays {
		if u.IndirectRead {
			eff *= effIndirect
		}
		if u.StridedRead && !(u.Transform2D && withTransform) {
			eff *= effStrided
		}
	}
	if k.HasArrayReduction {
		eff *= effReduction
	}
	return eff
}

// BaselineEfficiency prices a kernel compiled without the paper's
// extensions (no layout transform), used for the stock-OpenACC bar.
func BaselineEfficiency(k *ir.Kernel) float64 {
	return kernelEfficiency(k, false)
}
