package translator

import (
	"fmt"
	"strings"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// Emit renders the module Lower made from pa as CUDA-like source text,
// mirroring the paper's source-to-source translator output: one
// __global__ function per parallel loop with index rewriting and write
// instrumentation macros, plus a host main() with runtime calls at the
// points where the data loader and the inter-GPU communication manager
// run. It reads the module and the skeleton and writes neither.
func Emit(m *ir.Module, pa *ProgramAccess) string {
	var b strings.Builder
	b.WriteString("/* Generated by the accmulti translator (multi-GPU OpenACC).\n")
	b.WriteString(" * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;\n")
	b.WriteString(" * ACC_STORE additionally sets the two-level dirty bits on\n")
	b.WriteString(" * replicated arrays and performs the write-miss check on\n")
	b.WriteString(" * distributed arrays (elided when statically in range).\n")
	b.WriteString(" * ACC_REDUCE accumulates into the hierarchical reduction lanes.\n")
	b.WriteString(" */\n\n")

	kernelOf := func(st *cc.ForStmt) *ir.Kernel { return m.Kernels[pa.kernels[st].ID] }
	for i, k := range m.Kernels {
		emitKernel(&b, k, pa.Loops[i].For)
	}
	b.WriteString("void main(void) {\n")
	emitStmt(&b, nil, kernelOf, m.Prog.Main.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func emitKernel(b *strings.Builder, k *ir.Kernel, loop *cc.ForStmt) {
	fmt.Fprintf(b, "/* kernel %s: parallel loop at line %d\n", k.Name, k.Line)
	fmt.Fprintf(b, " * array configuration information:\n")
	for _, u := range k.Arrays {
		fmt.Fprintf(b, " *   %-12s %s\n", u.Decl.Name, describeUse(u))
	}
	if len(k.ScalarReds) > 0 {
		var names []string
		for _, r := range k.ScalarReds {
			names = append(names, fmt.Sprintf("%s:%s", r.Op, r.Decl.Name))
		}
		fmt.Fprintf(b, " * scalar reductions: %s\n", strings.Join(names, ", "))
	}
	fmt.Fprintf(b, " * coalescing efficiency: %.2f (baseline %.2f)\n", k.Efficiency, BaselineEfficiency(k))
	b.WriteString(" */\n")

	var params []string
	for _, u := range k.Arrays {
		params = append(params, fmt.Sprintf("%s *%s", u.Decl.Type, u.Decl.Name))
	}
	params = append(params, "acc_layout_t __layout", "long __lo", "long __hi")
	fmt.Fprintf(b, "__global__ void %s(%s) {\n", k.Name, strings.Join(params, ", "))
	fmt.Fprintf(b, "    long %s = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;\n", k.LoopVar.Name)
	fmt.Fprintf(b, "    if (%s >= __hi) return;\n", k.LoopVar.Name)
	// The loop body with the induction assignment stripped.
	emitStmt(b, k, nil, loop.Body, 1)
	b.WriteString("}\n\n")
}

func describeUse(u *ir.ArrayUse) string {
	var parts []string
	switch {
	case u.Reduced:
		parts = append(parts, fmt.Sprintf("reductiontoarray(%s), hierarchical lanes", u.ReduceOp))
	case u.Local != nil:
		parts = append(parts, "distribution-based placement (localaccess)")
	default:
		parts = append(parts, "replica-based placement")
	}
	if u.Read {
		parts = append(parts, "read")
	}
	if u.Written {
		if u.Local != nil {
			if u.WritesWithinLocal {
				parts = append(parts, "written (miss check elided: statically in range)")
			} else {
				parts = append(parts, "written (write-miss check + system buffer)")
			}
		} else {
			parts = append(parts, "written (two-level dirty bits)")
		}
	}
	if u.IndirectRead {
		parts = append(parts, "indirect reads")
	}
	if u.Transform2D {
		parts = append(parts, "2-D layout transform for coalescing")
	}
	return strings.Join(parts, ", ")
}

func emitKernelAssign(b *strings.Builder, k *ir.Kernel, st *cc.AssignStmt, ind string) {
	if idx, ok := st.LHS.(*cc.IndexExpr); ok {
		u := k.Use(idx.Array)
		switch {
		case st.Reduce != nil:
			fmt.Fprintf(b, "%sACC_REDUCE(%s, %s, %s, %s);\n",
				ind, idx.Array.Name, exprC(idx.Index, k), st.Reduce.Op, exprC(st.RHS, k))
			return
		case st.Op == "=":
			fmt.Fprintf(b, "%sACC_STORE(%s, %s, %s);%s\n",
				ind, idx.Array.Name, exprC(idx.Index, k), exprC(st.RHS, k), storeNote(u))
			return
		default:
			fmt.Fprintf(b, "%sACC_STORE(%s, %s, ACC_LOAD(%s, %s) %s %s);%s\n",
				ind, idx.Array.Name, exprC(idx.Index, k),
				idx.Array.Name, exprC(idx.Index, k),
				strings.TrimSuffix(st.Op, "="), exprC(st.RHS, k), storeNote(u))
			return
		}
	}
	fmt.Fprintf(b, "%s%s;\n", ind, assignC(st, k))
}

func storeNote(u *ir.ArrayUse) string {
	if u == nil {
		return ""
	}
	switch {
	case u.Local == nil:
		return " /* + dirty bits */"
	case !u.WritesWithinLocal:
		return " /* + miss check */"
	default:
		return ""
	}
}

func assignC(st *cc.AssignStmt, k *ir.Kernel) string {
	if st == nil {
		return ""
	}
	return fmt.Sprintf("%s %s %s", exprC(st.LHS, k), st.Op, exprC(st.RHS, k))
}

// exprC renders an expression as C. Inside kernels (k non-nil), array
// accesses become ACC_LOAD macros that rewrite indices to the local
// device layout.
func exprC(e cc.Expr, k *ir.Kernel) string {
	switch x := e.(type) {
	case *cc.NumLit:
		if x.IsFloat {
			s := fmt.Sprintf("%g", x.F)
			if !strings.ContainsAny(s, ".e") {
				s += ".0"
			}
			return s
		}
		return fmt.Sprintf("%d", x.I)
	case *cc.Ident:
		return x.Name
	case *cc.IndexExpr:
		if k != nil && k.Use(x.Array) != nil {
			return fmt.Sprintf("ACC_LOAD(%s, %s)", x.Array.Name, exprC(x.Index, k))
		}
		return fmt.Sprintf("%s[%s]", x.Array.Name, exprC(x.Index, k))
	case *cc.BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", exprC(x.X, k), x.Op, exprC(x.Y, k))
	case *cc.UnaryExpr:
		return fmt.Sprintf("%s(%s)", x.Op, exprC(x.X, k))
	case *cc.CondExpr:
		return fmt.Sprintf("(%s ? %s : %s)", exprC(x.Cond, k), exprC(x.Then, k), exprC(x.Else, k))
	case *cc.CallExpr:
		var args []string
		for _, a := range x.Args {
			args = append(args, exprC(a, k))
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	case *cc.CastExpr:
		return fmt.Sprintf("(%s)(%s)", x.To, exprC(x.X, k))
	}
	return "/*?*/"
}

// emitStmt renders a statement of main's body (k nil; kernelOf finds a
// parallel loop's kernel) or of kernel k's body, where array accesses
// become the ACC_ macros.
func emitStmt(b *strings.Builder, k *ir.Kernel, kernelOf func(*cc.ForStmt) *ir.Kernel, s cc.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	switch st := s.(type) {
	case *cc.Block:
		if st.Data != nil {
			fmt.Fprintf(b, "%sacc_data_enter(); /* %s */\n", ind, st.Data.Raw)
			for _, sub := range st.Stmts {
				emitStmt(b, k, kernelOf, sub, depth+1)
			}
			fmt.Fprintf(b, "%sacc_data_exit();\n", ind)
			return
		}
		for _, sub := range st.Stmts {
			emitStmt(b, k, kernelOf, sub, depth)
		}
	case *cc.DeclStmt:
		for _, d := range st.Decls {
			fmt.Fprintf(b, "%s%s %s;\n", ind, d.Type, d.Name)
		}
	case *cc.AssignStmt:
		if k != nil {
			emitKernelAssign(b, k, st, ind)
		} else {
			fmt.Fprintf(b, "%s%s;\n", ind, assignC(st, nil))
		}
	case *cc.IfStmt:
		fmt.Fprintf(b, "%sif (%s) {\n", ind, exprC(st.Cond, k))
		emitStmt(b, k, kernelOf, st.Then, depth+1)
		if st.Else != nil {
			fmt.Fprintf(b, "%s} else {\n", ind)
			emitStmt(b, k, kernelOf, st.Else, depth+1)
		}
		fmt.Fprintf(b, "%s}\n", ind)
	case *cc.WhileStmt:
		fmt.Fprintf(b, "%swhile (%s) {\n", ind, exprC(st.Cond, k))
		emitStmt(b, k, kernelOf, st.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case *cc.ForStmt:
		if st.Parallel != nil && k == nil { // inside a kernel the directive is inert
			pk := kernelOf(st)
			fmt.Fprintf(b, "%sacc_load(%s); /* data loader: replica/distribution policies */\n", ind, kernelArrays(pk))
			fmt.Fprintf(b, "%sfor (int __g = 0; __g < acc_num_gpus(); __g++)\n", ind)
			fmt.Fprintf(b, "%s    %s<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(%s);\n", ind, pk.Name, kernelArgs(pk))
			fmt.Fprintf(b, "%sacc_comm_sync(); /* inter-GPU communication manager */\n", ind)
			return
		}
		fmt.Fprintf(b, "%sfor (%s; %s; %s) {\n",
			ind, assignC(st.Init, k), exprC(st.Cond, k), assignC(st.Post, k))
		emitStmt(b, k, kernelOf, st.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case *cc.UpdateStmt:
		fmt.Fprintf(b, "%sacc_update(); /* %s */\n", ind, st.Directive.Raw)
	case *cc.BranchStmt:
		if st.IsBreak {
			fmt.Fprintf(b, "%sbreak;\n", ind)
		} else {
			fmt.Fprintf(b, "%scontinue;\n", ind)
		}
	}
}

func kernelArrays(k *ir.Kernel) string {
	var names []string
	for _, u := range k.Arrays {
		names = append(names, u.Decl.Name)
	}
	return strings.Join(names, ", ")
}

func kernelArgs(k *ir.Kernel) string {
	return kernelArrays(k) + ", acc_layout(__g), acc_lo(__g), acc_hi(__g)"
}
