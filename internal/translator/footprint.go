package translator

// The program skeleton. AnalyzeProgram is the translator's first phase
// and the only reader of main's directive structure: one pass yields the
// ordered tree of data regions, kernels (each with its per-array access
// footprints, analysed once), update directives, host statements that
// touch arrays, host loops and branches, every clause resolved to the
// typed values sema validated. Lower turns that value into the
// executable module, the vet pass (internal/analysis) and its dataflow
// pass read the same value, and the emitter goes from a statement to its
// kernel through it. AnalyzeProgram is read-only: it never mutates the
// program or allocates environment slots (the lowering alone allocates a
// collapse(2) loop's flat slot), so one skeleton serves a compile, any
// number of vets and concurrent runs.

import (
	"fmt"
	"strconv"

	"accmulti/internal/cc"
)

// IndexForm describes one array subscript observed in a kernel body.
type IndexForm struct {
	// Line and Col locate the access (the array name) in the source.
	Line, Col int
	// Src is the whole access rendered as C, e.g. "a[2*i + 1]".
	Src string
	// Op is the assignment operator for writes and reductions
	// ("=", "+=", ...); it is empty for reads.
	Op string
	// Affine reports that the subscript is a function of the induction
	// variable and loop invariants only (no array loads, no scalars
	// assigned in the body).
	Affine bool
	// Literal reports that the subscript is Coef*i + Off with integer
	// literal coefficients; only then is the Class meaningful.
	Literal bool
	Class
	// Indirect reports a data-dependent subscript (the index goes
	// through another array load, as in pos[nbr[j]]).
	Indirect bool
}

// ArrayFootprint is the inferred access summary of one (loop, array)
// pair, together with the localaccess directive covering it, if any.
type ArrayFootprint struct {
	Array *cc.VarDecl
	// Read/Written/Reduced classify the roles the loop body uses the
	// array in. ReduceOp is the reductiontoarray operator when Reduced.
	Read, Written, Reduced bool
	ReduceOp               string
	// AffineRead reports that every read subscript is affine;
	// IndirectRead that at least one read is data dependent.
	AffineRead, IndirectRead bool
	// Reads, Writes and Reduces record each subscript in body order.
	Reads, Writes, Reduces []IndexForm
	// Spec is the resolved localaccess directive naming this array on
	// this loop, or nil if there is none.
	Spec *cc.LocalSpec
}

// LoopAccess describes one parallel loop and its per-array footprints.
type LoopAccess struct {
	// ID is the loop's index in ProgramAccess.Loops, and of its kernel in
	// the lowered module.
	ID int
	// Line is the loop's source line.
	Line int
	// LoopVar is the induction variable the footprints are expressed
	// over. For a collapse(2) loop it is the synthesized flat index
	// (Slot -1 here: the lowering gives its kernel's copy a slot).
	LoopVar *cc.VarDecl
	// Collapsed marks a collapse(2) loop; its original induction
	// variables classify as body locals, so subscripts over them are
	// deliberately non-affine.
	Collapsed bool
	// Lower and Upper are the loop's iteration bounds (LoopVar ranges
	// over [Lower, Upper)); nil for collapsed loops, whose flat domain
	// is the product of the nest's bounds.
	Lower, Upper cc.Expr
	// Independent records an `independent` clause on the parallel
	// directive: the programmer asserts the iterations do not depend on
	// each other, which the dataflow pass honors by downgrading
	// unprovable-write-race errors to warnings.
	Independent bool
	// For is the loop statement itself.
	For *cc.ForStmt
	// Region is the innermost enclosing data region, nil at top level.
	Region *RegionInfo
	// HostLoops are the ids of the host loops enclosing the kernel,
	// outermost first: two kernels sharing one are joined by a back edge.
	HostLoops []int
	// Arrays lists the footprints in declaration (slot) order.
	Arrays []*ArrayFootprint
	// Invalid is why the lowering refuses the loop although its accesses
	// could be analysed: a collapse depth other than 2, a non-rectangular
	// nest, a second or an unused localaccess, an array both reduced and
	// written. The vet pass reports on such a loop all the same.
	Invalid error

	// outer and inner are a collapsed nest's two loops; body is the
	// statement one iteration of LoopVar executes.
	outer, inner canonical
	body         cc.Stmt
}

// Footprint returns the footprint of one array, if the loop touches it.
func (l *LoopAccess) Footprint(d *cc.VarDecl) *ArrayFootprint {
	for _, fp := range l.Arrays {
		if fp.Array == d {
			return fp
		}
	}
	return nil
}

// RegionInfo is one structured data region.
type RegionInfo struct {
	// Line is the source line of the data directive.
	Line int
	// Parent is the enclosing region, nil for outermost regions.
	Parent *RegionInfo
	// Args are the region's data clauses in source order.
	Args []cc.DataArg
	// Loops are the kernels whose innermost region this is, in source
	// order.
	Loops []*LoopAccess
}

// NodeKind says what a skeleton node stands for.
type NodeKind int

const (
	// NodeKernel is a parallel loop (Loop).
	NodeKernel NodeKind = iota
	// NodeRegion is a data region (Region) around Kids.
	NodeRegion
	// NodeHostLoop is a sequential host loop (LoopID) around Kids: its
	// condition's array reads, its body, a for's post statement.
	NodeHostLoop
	// NodeBranch is a host if: Kids is the then arm, Else the else arm.
	NodeBranch
	// NodeHost is a host statement or condition that touches arrays
	// (Reads, Writes; whole-array conservative).
	NodeHost
	// NodeUpdate is an update directive (Update).
	NodeUpdate
)

// Node is one element of the skeleton tree, in source order among its
// siblings. Host statements that touch no array leave no node.
type Node struct {
	Kind       NodeKind
	Line       int
	Kids, Else []*Node
	Loop       *LoopAccess
	Region     *RegionInfo
	Update     *cc.UpdateStmt
	// Reads and Writes are the arrays a NodeHost loads from and stores to.
	Reads, Writes []*cc.VarDecl
	// LoopID identifies a NodeHostLoop (see LoopAccess.HostLoops).
	LoopID int
}

// ProgramAccess is the program skeleton.
type ProgramAccess struct {
	Prog *cc.Program
	// Body is main's body as a tree.
	Body []*Node
	// Loops are the parallel loops in source order.
	Loops []*LoopAccess
	// Regions are the data regions in source order (outermost first
	// among nested ones).
	Regions []*RegionInfo
	// kernels and regions find a loop or a region by its statement.
	kernels map[*cc.ForStmt]*LoopAccess
	regions map[*cc.Block]*RegionInfo
}

// AnalyzeProgram extracts the skeleton of an analyzed program. It fails
// on loops whose shape leaves nothing to analyse (non-canonical form,
// imperfect collapse nests); what only the lowering must refuse is
// recorded on the loop (LoopAccess.Invalid).
func AnalyzeProgram(prog *cc.Program) (*ProgramAccess, error) {
	b := &skeletonBuilder{pa: &ProgramAccess{
		Prog:    prog,
		kernels: map[*cc.ForStmt]*LoopAccess{},
		regions: map[*cc.Block]*RegionInfo{},
	}}
	body, err := b.walk(prog.Main.Body, nil)
	if err != nil {
		return nil, err
	}
	b.pa.Body = body
	return b.pa, nil
}

type skeletonBuilder struct {
	pa        *ProgramAccess
	hostLoops []int // ids of the enclosing host loops
	nextLoop  int
}

func (b *skeletonBuilder) walk(s cc.Stmt, region *RegionInfo) ([]*Node, error) {
	switch st := s.(type) {
	case *cc.Block:
		var r *Node
		if st.Data != nil {
			region = &RegionInfo{Line: st.Data.Line, Parent: region, Args: st.Args}
			b.pa.Regions = append(b.pa.Regions, region)
			b.pa.regions[st] = region
			r = &Node{Kind: NodeRegion, Line: region.Line, Region: region}
		}
		var kids []*Node
		for _, sub := range st.Stmts {
			k, err := b.walk(sub, region)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k...)
		}
		if r != nil {
			r.Kids = kids
			return []*Node{r}, nil
		}
		return kids, nil
	case *cc.ForStmt:
		if st.Parallel != nil {
			loop, err := loopAccess(st)
			if err != nil {
				return nil, err
			}
			loop.ID, loop.Region, loop.HostLoops = len(b.pa.Loops), region, append([]int(nil), b.hostLoops...)
			b.pa.Loops = append(b.pa.Loops, loop)
			if region != nil {
				region.Loops = append(region.Loops, loop)
			}
			b.pa.kernels[st] = loop
			return []*Node{{Kind: NodeKernel, Line: st.Line, Loop: loop}}, nil
		}
		out := hostAssign(nil, st.Init)
		ln, err := b.hostLoop(st.Line, st.Cond, st.Body, region)
		if err != nil {
			return nil, err
		}
		ln.Kids = hostAssign(ln.Kids, st.Post)
		return append(hostReads(out, st.Line, st.Cond), ln), nil
	case *cc.WhileStmt:
		ln, err := b.hostLoop(st.Line, st.Cond, st.Body, region)
		if err != nil {
			return nil, err
		}
		return append(hostReads(nil, st.Line, st.Cond), ln), nil
	case *cc.IfStmt:
		br := &Node{Kind: NodeBranch, Line: st.Line}
		var err error
		if br.Kids, err = b.walk(st.Then, region); err != nil {
			return nil, err
		}
		if st.Else != nil {
			if br.Else, err = b.walk(st.Else, region); err != nil {
				return nil, err
			}
		}
		return append(hostReads(nil, st.Line, st.Cond), br), nil
	case *cc.AssignStmt:
		return hostAssign(nil, st), nil
	case *cc.UpdateStmt:
		return []*Node{{Kind: NodeUpdate, Line: st.Line, Update: st}}, nil
	}
	return nil, nil
}

// hostLoop is the node of a sequential loop: the condition is read once
// more on every trip, then the body runs.
func (b *skeletonBuilder) hostLoop(line int, cond cc.Expr, body cc.Stmt, region *RegionInfo) (*Node, error) {
	ln := &Node{Kind: NodeHostLoop, Line: line, LoopID: b.nextLoop, Kids: hostReads(nil, line, cond)}
	b.nextLoop++
	b.hostLoops = append(b.hostLoops, ln.LoopID)
	kids, err := b.walk(body, region)
	b.hostLoops = b.hostLoops[:len(b.hostLoops)-1]
	ln.Kids = append(ln.Kids, kids...)
	return ln, err
}

func addDecl(list []*cc.VarDecl, d *cc.VarDecl) []*cc.VarDecl {
	for _, x := range list {
		if x == d {
			return list
		}
	}
	return append(list, d)
}

// loads appends every array e loads from to list, each once.
func loads(list []*cc.VarDecl, e cc.Expr) []*cc.VarDecl {
	cc.EachExpr(e, func(x cc.Expr) {
		if ix, ok := x.(*cc.IndexExpr); ok {
			list = addDecl(list, ix.Array)
		}
	})
	return list
}

// hostReads appends to out the node of one host expression's array reads,
// if it has any.
func hostReads(out []*Node, line int, e cc.Expr) []*Node {
	if e == nil {
		return out
	}
	if reads := loads(nil, e); len(reads) > 0 {
		out = append(out, &Node{Kind: NodeHost, Line: line, Reads: reads})
	}
	return out
}

// hostAssign appends to out the node of one host assignment's array
// accesses (whole-array conservative), if it has any.
func hostAssign(out []*Node, st *cc.AssignStmt) []*Node {
	if st == nil {
		return out
	}
	n := &Node{Kind: NodeHost, Line: st.Line, Reads: loads(nil, st.RHS)}
	if ix, ok := st.LHS.(*cc.IndexExpr); ok {
		n.Reads = loads(n.Reads, ix.Index)
		if st.Op != "=" {
			n.Reads = addDecl(n.Reads, ix.Array) // compound assignment reads the element
		}
		n.Writes = []*cc.VarDecl{ix.Array}
	}
	if len(n.Reads) == 0 && len(n.Writes) == 0 {
		return out
	}
	return append(out, n)
}

// canonical is one loop of the form `for (Var = Lower; Var < Upper; Var++)`.
type canonical struct {
	Var          *cc.VarDecl
	Lower, Upper cc.Expr
}

// canonicalLoop validates `for (i = L; i < U; i++)` and returns the
// pieces.
func canonicalLoop(st *cc.ForStmt) (canonical, error) {
	fail := func(msg string) (canonical, error) {
		return canonical{}, fmt.Errorf("translator: line %d: parallel loop must have the form `for (i = L; i < U; i++)`: %s", st.Line, msg)
	}
	if st.Init == nil || st.Cond == nil || st.Post == nil {
		return fail("missing init, condition or post")
	}
	initLHS, ok := st.Init.LHS.(*cc.Ident)
	if !ok || st.Init.Op != "=" {
		return fail("initializer must assign the induction variable")
	}
	loopVar := initLHS.Decl
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
	if len(loads(loads(nil, st.Init.RHS), cond.Y)) > 0 {
		return fail("loop bounds must not read arrays")
	}
	return canonical{Var: loopVar, Lower: st.Init.RHS, Upper: cond.Y}, nil
}

// collapse(2): two perfectly nested canonical loops flatten into one
// iteration space, so a logically 2-D sweep parallelizes (and
// partitions) over elements rather than rows. localaccess footprints
// on a collapsed loop are expressed over the flat index, which for
// row-major grids makes stride(1) the natural per-element footprint.

// soleNestedFor unwraps the collapsed loop body down to the single
// inner for statement (allowing a wrapping block).
func soleNestedFor(body cc.Stmt) (*cc.ForStmt, error) {
	switch b := body.(type) {
	case *cc.ForStmt:
		return b, nil
	case *cc.Block:
		if b.Data != nil {
			return nil, fmt.Errorf("data region inside a collapsed loop")
		}
		var inner *cc.ForStmt
		for _, s := range b.Stmts {
			if f, ok := s.(*cc.ForStmt); ok {
				if inner != nil {
					return nil, fmt.Errorf("body must contain exactly one nested loop")
				}
				inner = f
				continue
			}
			if _, ok := s.(*cc.DeclStmt); ok {
				continue // declarations are slot bookkeeping only
			}
			return nil, fmt.Errorf("body must be a perfect loop nest")
		}
		if inner == nil {
			return nil, fmt.Errorf("body must contain a nested loop")
		}
		return inner, nil
	}
	return nil, fmt.Errorf("body must be a perfect loop nest")
}

// collapseDepth checks the argument of a collapse clause.
func collapseDepth(line int, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("translator: line %d: collapse takes exactly one argument", line)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("translator: line %d: collapse argument must be an integer literal", line)
	}
	if n != 2 {
		return fmt.Errorf("translator: line %d: only collapse(2) is supported, got collapse(%d)", line, n)
	}
	return nil
}

// collapse resolves a loop carrying a collapse clause: the nest's two
// loops, the inner body one flat iteration executes, and why the lowering
// must refuse it (a depth other than 2, inner bounds that depend on the
// outer variable).
func (loop *LoopAccess) collapse(st *cc.ForStmt, depth []string) (err error) {
	if loop.outer, err = canonicalLoop(st); err != nil {
		return err
	}
	inner, err := soleNestedFor(st.Body)
	if err != nil {
		return fmt.Errorf("translator: line %d: collapse(2): %w", st.Line, err)
	}
	if loop.inner, err = canonicalLoop(inner); err != nil {
		return err
	}
	loop.Collapsed, loop.body = true, inner.Body
	loop.LoopVar = &cc.VarDecl{Name: fmt.Sprintf("__flat_L%d", st.Line), Type: cc.TInt, Slot: -1, Line: st.Line}
	if loop.Invalid = collapseDepth(st.Line, depth); loop.Invalid != nil {
		return nil
	}
	// Rectangularity: the flat space is the product of the two ranges.
	for _, e := range []cc.Expr{loop.inner.Lower, loop.inner.Upper} {
		cc.EachExpr(e, func(x cc.Expr) {
			if id, ok := x.(*cc.Ident); ok && id.Decl == loop.outer.Var {
				loop.Invalid = fmt.Errorf("translator: line %d: collapse(2) requires inner bounds independent of %q", st.Line, id.Name)
			}
		})
	}
	return nil
}

// loopAccess analyzes one parallel loop: its shape, its clauses and what
// its body does to every array.
func loopAccess(st *cc.ForStmt) (*LoopAccess, error) {
	_, independent := st.Parallel.Clause("independent")
	loop := &LoopAccess{Line: st.Line, Independent: independent, For: st, body: st.Body}
	var derived []*cc.VarDecl
	if c, collapsed := st.Parallel.Clause("collapse"); collapsed {
		if err := loop.collapse(st, c.Args); err != nil {
			return nil, err
		}
		// Both original induction variables are values the kernel derives
		// from the flat index, so they classify like body locals: accesses
		// over them are non-affine, which is conservative and correct.
		derived = []*cc.VarDecl{loop.outer.Var, loop.inner.Var}
	} else {
		c, err := canonicalLoop(st)
		if err != nil {
			return nil, err
		}
		loop.LoopVar, loop.Lower, loop.Upper = c.Var, c.Lower, c.Upper
	}
	loop.Arrays = analyzeKernelBody(loop.body, loop.LoopVar, derived)

	invalid := func(format string, args ...any) {
		if loop.Invalid == nil {
			loop.Invalid = fmt.Errorf(format, args...)
		}
	}
	for _, sp := range st.Specs {
		fp := loop.Footprint(sp.Array)
		switch {
		case fp == nil:
			invalid("translator: line %d: localaccess(%s) but the loop never accesses it", sp.Line, sp.Array.Name)
		case fp.Spec != nil:
			invalid("translator: line %d: duplicate localaccess for array %q", sp.Line, sp.Array.Name)
		default:
			fp.Spec = sp
		}
	}
	for _, fp := range loop.Arrays {
		if fp.Reduced && fp.Written {
			invalid("translator: array %q is both reduced and plainly written in one loop", fp.Array.Name)
		}
	}
	return loop, nil
}

// ExprString renders an expression as C source text.
func ExprString(e cc.Expr) string { return exprC(e, nil) }

// LiteralInt extracts an integer literal from an expression.
func LiteralInt(e cc.Expr) (int64, bool) {
	if n, ok := e.(*cc.NumLit); ok && !n.IsFloat {
		return n.I, true
	}
	return 0, false
}
