package translator

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// Emit renders the module Lower made from pa as CUDA-like source text,
// mirroring the paper's source-to-source translator output: one
// __global__ function per parallel loop with index rewriting and write
// instrumentation macros, plus a host main() with runtime calls at the
// points where the data loader and the inter-GPU communication manager
// run. It reads the module and the skeleton and writes neither.
//
// The text is written once, piece by piece, into one builder sized from
// the source: on the shipped corpus the output, header included, is 1.8
// to 4 times as long as its source, so the builder never grows there.
func Emit(m *ir.Module, pa *ProgramAccess) string {
	w := emitter{m: m, pa: pa}
	w.Grow(len(emitHeader) + 4*len(m.Prog.Source))
	w.WriteString(emitHeader)
	for i, k := range m.Kernels {
		w.k = k
		w.kernel(pa.Loops[i].For)
	}
	w.k = nil
	w.WriteString("void main(void) {\n")
	w.stmt(m.Prog.Main.Body, 1)
	w.WriteString("}\n")
	return w.String()
}

const emitHeader = "/* Generated by the accmulti translator (multi-GPU OpenACC).\n" +
	" * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;\n" +
	" * ACC_STORE additionally sets the two-level dirty bits on\n" +
	" * replicated arrays and performs the write-miss check on\n" +
	" * distributed arrays (elided when statically in range).\n" +
	" * ACC_REDUCE accumulates into the hierarchical reduction lanes.\n" +
	" */\n\n"

// emitter writes the text of one module. Inside a kernel's body (k
// non-nil) array accesses become the ACC_ macros that rewrite indices
// to the local device layout.
type emitter struct {
	strings.Builder
	m  *ir.Module
	pa *ProgramAccess
	k  *ir.Kernel
}

// put writes its parts in order: a string as it is, an int64 in decimal,
// a float64 (an efficiency) to two places, a kernel as its arrays'
// names, an assignment without its semicolon (nothing for a nil one, an
// empty for-loop clause), anything else as an expression.
func (w *emitter) put(parts ...any) {
	var buf [32]byte
	for _, p := range parts {
		switch p := p.(type) {
		case string:
			w.WriteString(p)
		case int64:
			w.Write(strconv.AppendInt(buf[:0], p, 10))
		case float64:
			w.Write(strconv.AppendFloat(buf[:0], p, 'f', 2, 64))
		case *ir.Kernel:
			for i, u := range p.Arrays {
				w.WriteString(comma(i))
				w.WriteString(u.Decl.Name)
			}
		case *cc.AssignStmt:
			if p != nil {
				w.expr(p.LHS)
				w.WriteByte(' ')
				w.WriteString(p.Op)
				w.WriteByte(' ')
				w.expr(p.RHS)
			}
		default:
			e, _ := p.(cc.Expr)
			w.expr(e)
		}
	}
}

// comma separates the i-th item of a list from the one before.
func comma(i int) string {
	if i == 0 {
		return ""
	}
	return ", "
}

// line writes one line of the text, indented depth levels.
func (w *emitter) line(depth int, parts ...any) {
	for range depth {
		w.WriteString("    ")
	}
	w.put(parts...)
	w.WriteByte('\n')
}

func (w *emitter) kernel(loop *cc.ForStmt) {
	k := w.k
	w.put("/* kernel ", k.Name, ": parallel loop at line ", int64(k.Line), "\n * array configuration information:\n")
	for _, u := range k.Arrays {
		// The name is padded to twelve characters, counted in runes.
		w.put(" *   ", u.Decl.Name, "            "[min(12, utf8.RuneCountInString(u.Decl.Name)):], " ")
		w.use(u)
	}
	if len(k.ScalarReds) > 0 {
		w.WriteString(" * scalar reductions: ")
		for i, r := range k.ScalarReds {
			w.put(comma(i), r.Op.String(), ":", r.Decl.Name)
		}
		w.WriteByte('\n')
	}
	w.put(" * coalescing efficiency: ", k.Efficiency, " (baseline ", k.EfficiencyBaseline, ")\n */\n__global__ void ", k.Name, "(")
	for _, u := range k.Arrays {
		w.put(u.Decl.Type.String(), " *", u.Decl.Name, ", ")
	}
	w.put("acc_layout_t __layout, long __lo, long __hi) {\n    long ", k.LoopVar.Name,
		" = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;\n    if (", k.LoopVar.Name, " >= __hi) return;\n")
	// The loop body with the induction assignment stripped.
	w.stmt(loop.Body, 1)
	w.WriteString("}\n\n")
}

// use writes the array configuration line of one array: its placement,
// then how the kernel touches it.
func (w *emitter) use(u *ir.ArrayUse) {
	switch {
	case u.Reduced:
		w.put("reductiontoarray(", u.ReduceOp.String(), "), hierarchical lanes")
	case u.Local != nil:
		w.WriteString("distribution-based placement (localaccess)")
	default:
		w.WriteString("replica-based placement")
	}
	if u.Read {
		w.WriteString(", read")
	}
	switch {
	case !u.Written:
	case u.Local == nil:
		w.WriteString(", written (two-level dirty bits)")
	case u.WritesWithinLocal:
		w.WriteString(", written (miss check elided: statically in range)")
	default:
		w.WriteString(", written (write-miss check + system buffer)")
	}
	if u.IndirectRead {
		w.WriteString(", indirect reads")
	}
	if u.Transform2D {
		w.WriteString(", 2-D layout transform for coalescing")
	}
	w.WriteByte('\n')
}

// assign writes an assignment statement; in a kernel, a store to an
// array is an ACC_ macro noting the instrumentation it carries.
func (w *emitter) assign(st *cc.AssignStmt, depth int) {
	idx, ok := st.LHS.(*cc.IndexExpr)
	if w.k == nil || !ok {
		w.line(depth, st, ";")
		return
	}
	note := ""
	if u := w.k.Use(idx.Array); u != nil && u.Local == nil {
		note = " /* + dirty bits */"
	} else if u != nil && !u.WritesWithinLocal {
		note = " /* + miss check */"
	}
	switch {
	case st.Reduce != nil:
		w.line(depth, "ACC_REDUCE(", idx.Array.Name, ", ", idx.Index, ", ", st.Reduce.Op.String(), ", ", st.RHS, ");")
	case st.Op == "=":
		w.line(depth, "ACC_STORE(", idx.Array.Name, ", ", idx.Index, ", ", st.RHS, ");", note)
	default:
		w.line(depth, "ACC_STORE(", idx.Array.Name, ", ", idx.Index, ", ACC_LOAD(", idx.Array.Name, ", ", idx.Index, ") ",
			strings.TrimSuffix(st.Op, "="), " ", st.RHS, ");", note)
	}
}

// expr writes an expression as C.
func (w *emitter) expr(e cc.Expr) {
	switch x := e.(type) {
	case *cc.NumLit:
		if !x.IsFloat {
			w.put(x.I)
			return
		}
		var buf [32]byte
		s := strconv.AppendFloat(buf[:0], x.F, 'g', -1, 64)
		w.Write(s)
		if !bytes.ContainsAny(s, ".e") {
			w.WriteString(".0")
		}
	case *cc.Ident:
		w.WriteString(x.Name)
	case *cc.IndexExpr:
		if w.k != nil && w.k.Use(x.Array) != nil {
			w.put("ACC_LOAD(", x.Array.Name, ", ", x.Index, ")")
		} else {
			w.put(x.Array.Name, "[", x.Index, "]")
		}
	case *cc.BinaryExpr:
		w.put("(", x.X, " ", x.Op, " ", x.Y, ")")
	case *cc.UnaryExpr:
		w.put(x.Op, "(", x.X, ")")
	case *cc.CondExpr:
		w.put("(", x.Cond, " ? ", x.Then, " : ", x.Else, ")")
	case *cc.CallExpr:
		w.put(x.Name, "(")
		for i, a := range x.Args {
			w.WriteString(comma(i))
			w.expr(a)
		}
		w.WriteByte(')')
	case *cc.CastExpr:
		w.put("(", x.To.String(), ")(", x.X, ")")
	default:
		w.WriteString("/*?*/")
	}
}

// stmt writes a statement of main's body or, with k set, of a kernel's.
func (w *emitter) stmt(s cc.Stmt, depth int) {
	switch st := s.(type) {
	case *cc.Block:
		inner := depth
		if st.Data != nil {
			w.line(depth, "acc_data_enter(); /* ", st.Data.Raw, " */")
			inner++
		}
		for _, sub := range st.Stmts {
			w.stmt(sub, inner)
		}
		if st.Data != nil {
			w.line(depth, "acc_data_exit();")
		}
	case *cc.DeclStmt:
		for _, d := range st.Decls {
			w.line(depth, d.Type.String(), " ", d.Name, ";")
		}
	case *cc.AssignStmt:
		w.assign(st, depth)
	case *cc.IfStmt:
		w.line(depth, "if (", st.Cond, ") {")
		w.stmt(st.Then, depth+1)
		if st.Else != nil {
			w.line(depth, "} else {")
			w.stmt(st.Else, depth+1)
		}
		w.line(depth, "}")
	case *cc.WhileStmt:
		w.line(depth, "while (", st.Cond, ") {")
		w.stmt(st.Body, depth+1)
		w.line(depth, "}")
	case *cc.ForStmt:
		if st.Parallel != nil && w.k == nil { // inside a kernel the directive is inert
			pk := w.m.Kernels[w.pa.kernels[st].ID]
			w.line(depth, "acc_load(", pk, "); /* data loader: replica/distribution policies */")
			w.line(depth, "for (int __g = 0; __g < acc_num_gpus(); __g++)")
			w.line(depth+1, pk.Name, "<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(", pk,
				", acc_layout(__g), acc_lo(__g), acc_hi(__g));")
			w.line(depth, "acc_comm_sync(); /* inter-GPU communication manager */")
			return
		}
		w.line(depth, "for (", st.Init, "; ", st.Cond, "; ", st.Post, ") {")
		w.stmt(st.Body, depth+1)
		w.line(depth, "}")
	case *cc.UpdateStmt:
		w.line(depth, "acc_update(); /* ", st.Directive.Raw, " */")
	case *cc.BranchStmt:
		if st.IsBreak {
			w.line(depth, "break;")
		} else {
			w.line(depth, "continue;")
		}
	}
}
