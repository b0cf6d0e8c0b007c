package translator

import (
	"fmt"
	"sort"

	"accmulti/internal/acc"
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

// Translate converts an analyzed program into an executable module.
func Translate(prog *cc.Program) (*ir.Module, error) {
	t := &xlate{prog: prog, m: &ir.Module{Prog: prog}}
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
	t.m.GeneratedSource = emit(t.m)
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
	prog *cc.Program
	m    *ir.Module
}

func (t *xlate) dataRegion(b *cc.Block, body ir.Stmt) (ir.Stmt, error) {
	args, err := b.Data.DataArgs()
	if err != nil {
		return nil, err
	}
	r := &ir.DataRegion{ID: len(t.m.Regions), Line: b.Data.Line}
	for _, a := range args {
		r.Args = append(r.Args, ir.ResolvedArg{Decl: t.prog.Scope[a.Array], Class: a.Class})
	}
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
	u := &ir.UpdateOp{Line: st.Line}
	for _, c := range st.Directive.Clauses {
		for _, name := range c.Args {
			d := t.prog.Scope[name]
			switch c.Name {
			case "host", "self":
				u.ToHost = append(u.ToHost, d)
			case "device":
				u.ToDevice = append(u.ToDevice, d)
			}
		}
	}
	t.m.Updates = append(t.m.Updates, u)
	return func(env *ir.Env) error { return env.H.Update(u, env) }, nil
}

func (t *xlate) parallelFor(st *cc.ForStmt) (ir.Stmt, error) {
	k, err := t.buildKernel(st)
	if err != nil {
		return nil, err
	}
	t.m.Kernels = append(t.m.Kernels, k)
	return func(env *ir.Env) error { return env.H.Launch(k, env) }, nil
}

// buildKernel checks the loop is canonical, compiles its body in kernel
// mode, and assembles the array configuration information.
func (t *xlate) buildKernel(st *cc.ForStmt) (*ir.Kernel, error) {
	if hasCollapse2(st.Parallel) {
		return t.buildCollapsedKernel(st)
	}
	loopVar, lower, upper, err := canonicalLoop(st)
	if err != nil {
		return nil, err
	}
	lo, err := ir.CompileExprI(lower)
	if err != nil {
		return nil, err
	}
	hi, err := ir.CompileExprI(upper)
	if err != nil {
		return nil, err
	}
	body, err := ir.CompileStmt(st.Body, nil)
	if err != nil {
		return nil, err
	}

	k := &ir.Kernel{
		ID:      len(t.m.Kernels),
		Name:    fmt.Sprintf("main_L%d", st.Line),
		Line:    st.Line,
		LoopVar: loopVar,
		Lower:   lo,
		Upper:   hi,
		Body:    body,
	}

	if err := t.finishKernel(k, st, analyzeKernelBody(st.Body, loopVar)); err != nil {
		return nil, err
	}
	k.Spec, k.SpecReason = ir.BuildKernelSpec(k, st.Body, t.prog)
	return k, nil
}

// finishKernel completes a kernel whose loop, bounds and body are set,
// flat or collapsed: the directive's scalar reductions, the loop's
// localaccess specs merged with the body's access analysis into
// ArrayUses, and the cost model's efficiencies.
func (t *xlate) finishKernel(k *ir.Kernel, st *cc.ForStmt, infos map[*cc.VarDecl]*accessInfo) error {
	reds, err := st.Parallel.Reductions()
	if err != nil {
		return err
	}
	for _, r := range reds {
		k.ScalarReds = append(k.ScalarReds, ir.ScalarRed{Decl: t.prog.Scope[r.Var], Op: r.Op})
	}

	specs := map[*cc.VarDecl]*cc.LocalSpec{}
	for _, sp := range st.Specs {
		if _, dup := specs[sp.Array]; dup {
			return fmt.Errorf("translator: line %d: duplicate localaccess for array %q", sp.Line, sp.Array.Name)
		}
		specs[sp.Array] = sp
		if infos[sp.Array] == nil {
			return fmt.Errorf("translator: line %d: localaccess(%s) but the loop never accesses it", sp.Line, sp.Array.Name)
		}
	}
	for _, d := range sortedDecls(infos) {
		use, err := t.buildArrayUse(infos[d], specs[d])
		if err != nil {
			return err
		}
		k.Arrays = append(k.Arrays, use)
		if use.Reduced {
			k.HasArrayReduction = true
		}
	}

	k.SerialWorkers = gathersWhatItScatters(infos)
	k.Efficiency = kernelEfficiency(k, true)
	k.EfficiencyBaseline = kernelEfficiency(k, false)
	k.CPUEfficiency = 1.0
	for _, u := range k.Arrays {
		if u.IndirectRead {
			k.CPUEfficiency = effCPUIrregular
			break
		}
	}
	return nil
}

func (t *xlate) buildArrayUse(in *accessInfo, spec *cc.LocalSpec) (*ir.ArrayUse, error) {
	use := &ir.ArrayUse{
		Decl:         in.decl,
		Read:         in.read,
		Written:      in.written,
		Reduced:      in.reduced,
		AffineRead:   in.sawRead && in.affineRead,
		IndirectRead: in.indirectRead,
		WriteCoef:    -1,
	}
	if in.written && in.writesAffine && len(in.writeCoeffs) > 0 {
		coef := in.writeCoeffs[0].A
		lo, hi := in.writeCoeffs[0].C, in.writeCoeffs[0].C
		uniform := true
		for _, w := range in.writeCoeffs[1:] {
			if w.A != coef {
				uniform = false
				break
			}
			if w.C < lo {
				lo = w.C
			}
			if w.C > hi {
				hi = w.C
			}
		}
		if uniform && coef > 0 {
			use.WriteCoef, use.WriteOffLo, use.WriteOffHi = coef, lo, hi
		}
	}
	if in.reduced {
		if in.written {
			return nil, fmt.Errorf("translator: array %q is both reduced and plainly written in one loop", in.decl.Name)
		}
		if in.redOp == "*" {
			use.ReduceOp = ir.ReduceMul
		} else {
			use.ReduceOp = ir.ReduceAdd
		}
	}
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

	// Write-miss check elision (paper §IV-D2): every write index is
	// A*i + C with literal coefficients, the footprint is a literal
	// stride form, and A*i + C provably stays inside
	// [stride*i - left, stride*(i+1) - 1 + right] for all i >= 0.
	if in.written && in.writesAffine && spec.HasStride {
		s, okS := litInt(spec.Stride)
		l, okL := litInt(spec.Left)
		r, okR := litInt(spec.Right)
		if okS && okL && okR {
			within := true
			for _, w := range in.writeCoeffs {
				if !w.OK || w.A != s || w.C < -l || w.C > s-1+r {
					within = false
					break
				}
			}
			use.WritesWithinLocal = within
		}
	}

	// Coalescing layout transform (paper §IV-B4): read-only arrays
	// with affine-per-row access and a localaccess stride wider than
	// one element are stored transposed on the device.
	if in.read && !in.indirectRead && spec.HasStride {
		s, lit := litInt(spec.Stride)
		if !lit || s > 1 {
			use.StridedRead = true
			if !in.written && !in.reduced {
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

// canonicalLoop validates `for (i = L; i < U; i++)` and returns the
// pieces.
func canonicalLoop(st *cc.ForStmt) (loopVar *cc.VarDecl, lower, upper cc.Expr, err error) {
	fail := func(msg string) (*cc.VarDecl, cc.Expr, cc.Expr, error) {
		return nil, nil, nil, fmt.Errorf("translator: line %d: parallel loop must have the form `for (i = L; i < U; i++)`: %s", st.Line, msg)
	}
	if st.Init == nil || st.Cond == nil || st.Post == nil {
		return fail("missing init, condition or post")
	}
	initLHS, ok := st.Init.LHS.(*cc.Ident)
	if !ok || st.Init.Op != "=" {
		return fail("initializer must assign the induction variable")
	}
	loopVar = initLHS.Decl
	if loopVar.Type != cc.TInt {
		return fail("induction variable must be an int")
	}
	cond, ok := st.Cond.(*cc.BinaryExpr)
	if !ok || cond.Op != "<" {
		return fail("condition must be `i < U`")
	}
	condLHS, ok := cond.X.(*cc.Ident)
	if !ok || condLHS.Decl != loopVar {
		return fail("condition must compare the induction variable")
	}
	postLHS, ok := st.Post.LHS.(*cc.Ident)
	if !ok || postLHS.Decl != loopVar || st.Post.Op != "+=" {
		return fail("post statement must be `i++`")
	}
	one, ok := st.Post.RHS.(*cc.NumLit)
	if !ok || one.IsFloat || one.I != 1 {
		return fail("post statement must increment by 1")
	}
	// The iteration bounds must not depend on anything the kernel
	// changes; requiring them to avoid arrays keeps this checkable.
	if mentionsArray(st.Init.RHS) || mentionsArray(cond.Y) {
		return fail("loop bounds must not read arrays")
	}
	return loopVar, st.Init.RHS, cond.Y, nil
}

func sortDecls(decls []*cc.VarDecl) {
	sort.Slice(decls, func(i, j int) bool { return decls[i].Slot < decls[j].Slot })
}

var _ = acc.KindParallelLoop // acc is used by emit.go diagnostics
