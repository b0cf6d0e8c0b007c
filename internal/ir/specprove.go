package ir

import (
	"math"

	"accmulti/internal/cc"
)

// The interval prover: a compile-time-built abstract interpretation of
// a specialized kernel body over integer intervals. Kernels with
// computed (non-affine) access indices — indirect gathers a[idx[i]],
// inner-loop-variable subscripts, modular arithmetic — cannot be
// range-checked by endpoint evaluation, and checking per iteration
// would abort mid-execution after mutating device memory. Instead the
// runtime discharges every computed access BEFORE any mutation: the
// prover walks an abstract copy of the body where every int scalar
// carries an interval, array loads of read-only int arrays resolve to
// min/max scans of the resident subregion (memoized per launch), and
// branch/loop conditions refine the intervals they test. Every access
// site records the join of its abstract index intervals; the runtime
// then checks the recorded interval of each computed access against
// the copy's resident range and falls back to the interpreter when a
// proof fails — reproducing the legacy behaviour exactly, including
// the interpreter's partition-violation panics on genuinely
// out-of-range indices.
//
// Soundness rules:
//   - All arithmetic saturates to the sentinel bounds; any operand
//     with a sentinel bound absorbs to Top (a small interval computed
//     from wrapped int64 corners would be unsound). The one exception
//     is x % [c,c] with c > 0, whose result magnitude is < c for every
//     int64 x, wrapped or not.
//   - Value scans only apply to int arrays the kernel never writes
//     (concurrent worker stores would invalidate the pre-scan) and
//     only when the scanned index interval lies inside the residency.
//   - Loop bodies and the outer per-iteration body iterate to a
//     fixpoint with joins (worker environments carry scalar values
//     across outer iterations); refinement-target slots widen
//     directionally after a few passes and the condition refinement
//     recovers their bounds, so convergence does not depend on trip
//     counts. A hard pass cap tops every body-assigned slot, which
//     forces stability and (conservatively) a fallback.

// Ival is an inclusive integer interval. The math.MinInt64 /
// math.MaxInt64 bounds are sentinels meaning "unbounded on that side".
type Ival struct{ Lo, Hi int64 }

// IvalTop returns the unbounded interval.
func IvalTop() Ival { return Ival{math.MinInt64, math.MaxInt64} }

// Bounded reports that neither side is a sentinel.
func (v Ival) Bounded() bool { return v.Lo != math.MinInt64 && v.Hi != math.MaxInt64 }

func (v Ival) join(o Ival) Ival {
	if o.Lo < v.Lo {
		v.Lo = o.Lo
	}
	if o.Hi > v.Hi {
		v.Hi = o.Hi
	}
	return v
}

// Interval arithmetic. Every operation absorbs unbounded operands to
// Top and saturates on overflow.

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func ivAdd(a, b Ival) Ival {
	if !a.Bounded() || !b.Bounded() {
		return IvalTop()
	}
	lo, ok1 := satAdd(a.Lo, b.Lo)
	hi, ok2 := satAdd(a.Hi, b.Hi)
	if !ok1 || !ok2 {
		return IvalTop()
	}
	return Ival{lo, hi}
}

func ivSub(a, b Ival) Ival {
	if !a.Bounded() || !b.Bounded() {
		return IvalTop()
	}
	lo, ok1 := satAdd(a.Lo, -b.Hi)
	hi, ok2 := satAdd(a.Hi, -b.Lo)
	if !ok1 || !ok2 {
		return IvalTop()
	}
	return Ival{lo, hi}
}

func ivMul(a, b Ival) Ival {
	if !a.Bounded() || !b.Bounded() {
		return IvalTop()
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := satMul(x, y)
			if !ok {
				return IvalTop()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Ival{lo, hi}
}

func ivNeg(a Ival) Ival {
	if !a.Bounded() {
		return IvalTop()
	}
	return Ival{-a.Hi, -a.Lo}
}

// ivDiv handles Go truncated division by a positive interval: trunc
// division by a positive divisor is monotone nondecreasing in the
// dividend, so the corners bound the result.
func ivDiv(a, b Ival) Ival {
	if !a.Bounded() || !b.Bounded() || b.Lo <= 0 {
		return IvalTop()
	}
	lo := a.Lo / b.Lo
	if v := a.Lo / b.Hi; v < lo {
		lo = v
	}
	hi := a.Hi / b.Lo
	if v := a.Hi / b.Hi; v > hi {
		hi = v
	}
	return Ival{lo, hi}
}

// ivMod bounds x % b for a positive divisor: |result| < b.Hi for every
// int64 x, including wrapped values — the one sound rule over an
// unbounded dividend.
func ivMod(a, b Ival) Ival {
	if !b.Bounded() || b.Lo <= 0 {
		return IvalTop()
	}
	m := b.Hi - 1
	switch {
	case a.Lo >= 0:
		out := Ival{0, m}
		if a.Bounded() && a.Hi < m {
			out.Hi = a.Hi
		}
		return out
	case a.Hi <= 0:
		return Ival{-m, 0}
	default:
		return Ival{-m, m}
	}
}

func ivMin(a, b Ival) Ival {
	return Ival{min(a.Lo, b.Lo), min(a.Hi, b.Hi)}
}

func ivMax(a, b Ival) Ival {
	return Ival{max(a.Lo, b.Lo), max(a.Hi, b.Hi)}
}

func ivAbs(a Ival) Ival {
	if !a.Bounded() {
		return IvalTop()
	}
	switch {
	case a.Lo >= 0:
		return a
	case a.Hi <= 0:
		return Ival{-a.Hi, -a.Lo}
	default:
		return Ival{0, max(-a.Lo, a.Hi)}
	}
}

// PEnv is the prover's abstract environment: one interval per int
// scalar slot, the per-access-site recorded index intervals, and the
// runtime's value oracle for int array loads.
type PEnv struct {
	Ints []Ival
	// Access is the join of every abstract index this access site
	// computed, in KernelSpec.Accesses order.
	Access []Ival
	seen   []bool
	// Load resolves an int array load to a value interval (a memoized
	// min/max scan at the runtime layer). Nil-safe: a nil Load means
	// every array value is Top.
	Load func(slot int, idx Ival) Ival

	// Snapshot stack, reused across passes and launches.
	stack [][]Ival
	depth int
}

func (e *PEnv) record(ai int, v Ival) {
	if e.seen[ai] {
		e.Access[ai] = e.Access[ai].join(v)
	} else {
		e.Access[ai] = v
		e.seen[ai] = true
	}
}

func (e *PEnv) load(slot int, idx Ival) Ival {
	if e.Load == nil {
		return IvalTop()
	}
	return e.Load(slot, idx)
}

func (e *PEnv) push() []Ival {
	if e.depth == len(e.stack) {
		e.stack = append(e.stack, make([]Ival, len(e.Ints)))
	}
	s := e.stack[e.depth]
	e.depth++
	copy(s, e.Ints)
	return s
}

func (e *PEnv) pop() { e.depth-- }

func intsEqual(a, b []Ival) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinInts(dst, src []Ival) {
	for i := range dst {
		dst[i] = dst[i].join(src[i])
	}
}

// SpecProver is the compiled abstract body of one kernel spec.
type SpecProver struct {
	body     pStmt
	loopSlot int
	numInts  int
	nAccess  int
	// assignedSlots are the int scalar slots the body writes; the
	// outer fixpoint tops them at the pass cap.
	assignedSlots []int
}

type (
	pStmt  func(*PEnv)
	pExprI func(*PEnv) Ival
)

// Fixpoint tuning: widening starts after widenAt passes; at capPasses
// every body-assigned slot tops out, which forces stability within two
// further passes.
const (
	proveWidenAt   = 2
	proveCapPasses = 16
)

// NewPEnv allocates a reusable abstract environment for this prover.
func (pr *SpecProver) NewPEnv() *PEnv {
	return &PEnv{
		Ints:   make([]Ival, pr.numInts),
		Access: make([]Ival, pr.nAccess),
		seen:   make([]bool, pr.nAccess),
	}
}

// Prove runs the abstract body over the iteration chunk [itLo, itHi]
// (inclusive), seeding int scalars from the live host environment and
// iterating to a cross-iteration fixpoint (scalars persist across a
// worker's iterations). On return pe.Access holds the joined index
// interval of every access site.
func (pr *SpecProver) Prove(pe *PEnv, env *Env, itLo, itHi int64) {
	for i, v := range env.Ints {
		pe.Ints[i] = Ival{v, v}
	}
	pe.Ints[pr.loopSlot] = Ival{itLo, itHi}
	for i := range pe.seen {
		pe.seen[i] = false
	}
	pe.depth = 0
	for pass := 0; pass <= proveCapPasses+2; pass++ {
		snap := pe.push()
		pr.body(pe)
		joinInts(pe.Ints, snap)
		stable := intsEqual(pe.Ints, snap)
		pe.pop()
		if stable {
			return
		}
		if pass >= proveCapPasses {
			for _, slot := range pr.assignedSlots {
				pe.Ints[slot] = IvalTop()
			}
		}
	}
}

// proveBuilder compiles the abstract body, mirroring specBuilder's
// traversal exactly: the access cursor must visit the sites in the
// same order specBuilder appended them, and the final cursor position
// is asserted. Any divergence aborts the build — the kernel then
// simply has no prover and computed accesses always fall back.
type proveBuilder struct {
	loopVar  *cc.VarDecl
	assigned map[*cc.VarDecl]bool
	spec     *KernelSpec
	ai       int
	// noRecord compiles a subtree whose loads resolve values but do not
	// touch the access records: the refinement bound re-walks a subtree
	// the condition walk already recorded, and recording it again at
	// fresh cursor positions would corrupt later access sites.
	noRecord bool
}

var errProveAbort = &specErr{reason: "prove"}

// buildProver compiles the interval abstraction of a successfully
// specialized body, or nil when the abstract walk cannot mirror it.
func buildProver(body cc.Stmt, loopVar *cc.VarDecl, prog *cc.Program, spec *KernelSpec) *SpecProver {
	b := &proveBuilder{
		loopVar:  loopVar,
		assigned: map[*cc.VarDecl]bool{},
		spec:     spec,
	}
	cc.AssignedScalars(body, b.assigned)
	st, err := b.stmt(body)
	if err != nil || b.ai != len(spec.Accesses) {
		return nil
	}
	if st == nil {
		st = func(*PEnv) {}
	}
	pr := &SpecProver{
		body:     st,
		loopSlot: loopVar.Slot,
		numInts:  prog.NumInts,
		nAccess:  len(spec.Accesses),
	}
	for d, w := range b.assigned {
		if w && !d.IsArray && d.Type == cc.TInt {
			pr.assignedSlots = append(pr.assignedSlots, d.Slot)
		}
	}
	return pr
}

func pNop(*PEnv) {}

func (b *proveBuilder) stmt(s cc.Stmt) (pStmt, error) {
	switch st := s.(type) {
	case *cc.Block:
		if st.Data != nil {
			return nil, errProveAbort
		}
		var seq []pStmt
		for _, c := range st.Stmts {
			d, err := b.stmt(c)
			if err != nil {
				return nil, err
			}
			if d != nil {
				seq = append(seq, d)
			}
		}
		switch len(seq) {
		case 0:
			return nil, nil
		case 1:
			return seq[0], nil
		}
		return func(e *PEnv) {
			for _, d := range seq {
				d(e)
			}
		}, nil

	case *cc.DeclStmt:
		return nil, nil

	case *cc.AssignStmt:
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			return b.scalarAssign(st, lhs)
		case *cc.IndexExpr:
			return b.arrayWrite(st, lhs)
		}
		return nil, errProveAbort

	case *cc.IfStmt:
		return b.ifStmt(st)

	case *cc.ForStmt:
		if st.Parallel != nil {
			return nil, errProveAbort
		}
		return b.forStmt(st)
	}
	return nil, errProveAbort
}

func (b *proveBuilder) ifStmt(st *cc.IfStmt) (pStmt, error) {
	condW, refineT, refineF, err := b.cond(st.Cond)
	if err != nil {
		return nil, err
	}
	then, err := b.stmt(st.Then)
	if err != nil {
		return nil, err
	}
	if then == nil {
		then = pNop
	}
	els := pNop
	if st.Else != nil {
		e, err := b.stmt(st.Else)
		if err != nil {
			return nil, err
		}
		if e != nil {
			els = e
		}
	}
	return func(e *PEnv) {
		condW(e)
		snap := e.push()
		refineT(e)
		then(e)
		after := e.push()
		copy(after, e.Ints) // then-arm exit state
		copy(e.Ints, snap)
		refineF(e)
		els(e)
		joinInts(e.Ints, after)
		e.pop()
		e.pop()
	}, nil
}

func (b *proveBuilder) forStmt(st *cc.ForStmt) (pStmt, error) {
	if st.Cond == nil {
		return nil, errProveAbort
	}
	var init pStmt
	var err error
	if st.Init != nil {
		if init, err = b.stmt(st.Init); err != nil {
			return nil, err
		}
	}
	if init == nil {
		init = pNop
	}
	condW, refineT, refineF, err := b.cond(st.Cond)
	if err != nil {
		return nil, err
	}
	targets := b.refineTargets(st.Cond)
	body, err := b.stmt(st.Body)
	if err != nil {
		return nil, err
	}
	if body == nil {
		body = pNop
	}
	post := pNop
	if st.Post != nil {
		p, err := b.stmt(st.Post)
		if err != nil {
			return nil, err
		}
		if p != nil {
			post = p
		}
	}
	// Slots the loop body/post assign: topped at the pass cap to force
	// stability regardless of trip counts.
	loopAssigned := map[*cc.VarDecl]bool{}
	cc.AssignedScalars(st.Body, loopAssigned)
	if st.Post != nil {
		cc.AssignedScalars(st.Post, loopAssigned)
	}
	var loopSlots []int
	for d, w := range loopAssigned {
		if w && !d.IsArray && d.Type == cc.TInt {
			loopSlots = append(loopSlots, d.Slot)
		}
	}
	return func(e *PEnv) {
		init(e)
		for pass := 0; pass <= proveCapPasses+2; pass++ {
			snap := e.push()
			condW(e)
			refineT(e)
			body(e)
			post(e)
			joinInts(e.Ints, snap)
			stable := intsEqual(e.Ints, snap)
			if !stable && pass >= proveWidenAt {
				// Directional widening of the refinement targets: the
				// next pass's condition refinement recovers the moving
				// bound, decoupling convergence from the trip count.
				for _, slot := range targets {
					if e.Ints[slot].Lo < snap[slot].Lo {
						e.Ints[slot].Lo = math.MinInt64
					}
					if e.Ints[slot].Hi > snap[slot].Hi {
						e.Ints[slot].Hi = math.MaxInt64
					}
				}
			}
			e.pop()
			if stable {
				break
			}
			if pass >= proveCapPasses {
				for _, slot := range loopSlots {
					e.Ints[slot] = IvalTop()
				}
			}
		}
		condW(e)
		refineF(e)
	}, nil
}

func (b *proveBuilder) scalarAssign(st *cc.AssignStmt, lhs *cc.Ident) (pStmt, error) {
	if lhs.Decl.Type != cc.TInt {
		// Float scalars carry no interval; walk the RHS for its
		// access-site records only.
		w, err := b.walk(st.RHS)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	slot := lhs.Decl.Slot
	rhs, err := b.exprI(st.RHS)
	if err != nil {
		return nil, err
	}
	switch st.Op {
	case "=":
		return func(e *PEnv) { e.Ints[slot] = rhs(e) }, nil
	case "+=":
		return func(e *PEnv) { e.Ints[slot] = ivAdd(e.Ints[slot], rhs(e)) }, nil
	case "-=":
		return func(e *PEnv) { e.Ints[slot] = ivSub(e.Ints[slot], rhs(e)) }, nil
	case "*=":
		return func(e *PEnv) { e.Ints[slot] = ivMul(e.Ints[slot], rhs(e)) }, nil
	case "/=":
		return func(e *PEnv) { e.Ints[slot] = ivDiv(e.Ints[slot], rhs(e)) }, nil
	case "%=":
		return func(e *PEnv) { e.Ints[slot] = ivMod(e.Ints[slot], rhs(e)) }, nil
	case "<<=", ">>=":
		return func(e *PEnv) { rhs(e); e.Ints[slot] = IvalTop() }, nil
	}
	return nil, errProveAbort
}

// arrayWrite mirrors arrayAssign/arrayReduce: index walk (recording
// its inner loads), then this site's record, then the RHS walk.
func (b *proveBuilder) arrayWrite(st *cc.AssignStmt, lhs *cc.IndexExpr) (pStmt, error) {
	idx, err := b.exprI(lhs.Index)
	if err != nil {
		return nil, err
	}
	ai := b.ai
	b.ai++
	rhsW, err := b.walk(st.RHS)
	if err != nil {
		return nil, err
	}
	if rhsW == nil {
		rhsW = pNop
	}
	return func(e *PEnv) {
		e.record(ai, idx(e))
		rhsW(e)
	}, nil
}

// walk compiles an expression for its side effects (access records)
// only, discarding any value.
func (b *proveBuilder) walk(ex cc.Expr) (pStmt, error) {
	ex = foldExpr(ex)
	if ex.Type() == cc.TInt {
		v, err := b.compileI(ex)
		if err != nil {
			return nil, err
		}
		return func(e *PEnv) { v(e) }, nil
	}
	return b.compileF(ex)
}

// exprI mirrors specBuilder.exprI: fold, then compile; non-int
// expressions walk for records and yield Top (float-to-int casts are
// unbounded).
func (b *proveBuilder) exprI(ex cc.Expr) (pExprI, error) {
	ex = foldExpr(ex)
	if ex.Type() == cc.TInt {
		return b.compileI(ex)
	}
	w, err := b.compileF(ex)
	if err != nil {
		return nil, err
	}
	return func(e *PEnv) Ival { w(e); return IvalTop() }, nil
}

func (b *proveBuilder) compileI(ex cc.Expr) (pExprI, error) {
	switch x := ex.(type) {
	case *cc.NumLit:
		v := Ival{x.I, x.I}
		return func(*PEnv) Ival { return v }, nil

	case *cc.Ident:
		slot := x.Decl.Slot
		return func(e *PEnv) Ival { return e.Ints[slot] }, nil

	case *cc.IndexExpr:
		idx, err := b.exprI(x.Index)
		if err != nil {
			return nil, err
		}
		slot := x.Array.Slot
		written := b.spec.WrittenSlots[slot]
		if b.noRecord {
			return func(e *PEnv) Ival {
				iv := idx(e)
				if written {
					return IvalTop()
				}
				return e.load(slot, iv)
			}, nil
		}
		ai := b.ai
		b.ai++
		return func(e *PEnv) Ival {
			iv := idx(e)
			e.record(ai, iv)
			if written {
				// The kernel writes this array: a pre-execution scan
				// cannot bound what later iterations load.
				return IvalTop()
			}
			return e.load(slot, iv)
		}, nil

	case *cc.BinaryExpr:
		return b.binaryI(x)

	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			v, err := b.exprI(x.X)
			if err != nil {
				return nil, err
			}
			return func(e *PEnv) Ival { return ivNeg(v(e)) }, nil
		case "!":
			w, err := b.walk(x.X)
			if err != nil {
				return nil, err
			}
			return func(e *PEnv) Ival { w(e); return Ival{0, 1} }, nil
		case "~":
			v, err := b.exprI(x.X)
			if err != nil {
				return nil, err
			}
			return func(e *PEnv) Ival { v(e); return IvalTop() }, nil
		}
		return nil, errProveAbort

	case *cc.CallExpr:
		return b.callI(x)

	case *cc.CastExpr:
		if x.To == cc.TInt && x.X.Type() == cc.TInt {
			return b.compileI(x.X)
		}
		// float -> int: unbounded, but the subtree still records.
		w, err := b.walk(x.X)
		if err != nil {
			return nil, err
		}
		return func(e *PEnv) Ival { w(e); return IvalTop() }, nil
	}
	return nil, errProveAbort
}

func (b *proveBuilder) binaryI(x *cc.BinaryExpr) (pExprI, error) {
	switch x.Op {
	case "<", "<=", ">", ">=", "==", "!=":
		// Comparison over ints or floats; either way the result is a
		// flag. Walk both sides in specBuilder order.
		wx, err := b.walk(x.X)
		if err != nil {
			return nil, err
		}
		wy, err := b.walk(x.Y)
		if err != nil {
			return nil, err
		}
		return func(e *PEnv) Ival { wx(e); wy(e); return Ival{0, 1} }, nil
	}
	a, err := b.exprI(x.X)
	if err != nil {
		return nil, err
	}
	c, err := b.exprI(x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return func(e *PEnv) Ival { return ivAdd(a(e), c(e)) }, nil
	case "-":
		return func(e *PEnv) Ival { return ivSub(a(e), c(e)) }, nil
	case "*":
		return func(e *PEnv) Ival { return ivMul(a(e), c(e)) }, nil
	case "/":
		return func(e *PEnv) Ival { return ivDiv(a(e), c(e)) }, nil
	case "%":
		return func(e *PEnv) Ival { return ivMod(a(e), c(e)) }, nil
	case "&":
		return func(e *PEnv) Ival {
			av, cv := a(e), c(e)
			if av.Lo >= 0 && cv.Lo >= 0 {
				return Ival{0, min(av.Hi, cv.Hi)}
			}
			return IvalTop()
		}, nil
	case "|", "^", "<<", ">>":
		return func(e *PEnv) Ival { a(e); c(e); return IvalTop() }, nil
	}
	return nil, errProveAbort
}

func (b *proveBuilder) callI(x *cc.CallExpr) (pExprI, error) {
	args := make([]pExprI, len(x.Args))
	for i, a := range x.Args {
		c, err := b.exprI(a)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	switch x.Name {
	case "min":
		a0, a1 := args[0], args[1]
		return func(e *PEnv) Ival { return ivMin(a0(e), a1(e)) }, nil
	case "max":
		a0, a1 := args[0], args[1]
		return func(e *PEnv) Ival { return ivMax(a0(e), a1(e)) }, nil
	case "abs":
		a0 := args[0]
		return func(e *PEnv) Ival { return ivAbs(a0(e)) }, nil
	}
	return nil, errProveAbort
}

// compileF walks a float-typed expression for its access records.
func (b *proveBuilder) compileF(ex cc.Expr) (pStmt, error) {
	switch x := ex.(type) {
	case *cc.NumLit, *cc.Ident:
		return pNop, nil

	case *cc.IndexExpr:
		idx, err := b.exprI(x.Index)
		if err != nil {
			return nil, err
		}
		if b.noRecord {
			return func(e *PEnv) { idx(e) }, nil
		}
		ai := b.ai
		b.ai++
		return func(e *PEnv) { e.record(ai, idx(e)) }, nil

	case *cc.BinaryExpr:
		wx, err := b.walk(x.X)
		if err != nil {
			return nil, err
		}
		wy, err := b.walk(x.Y)
		if err != nil {
			return nil, err
		}
		return func(e *PEnv) { wx(e); wy(e) }, nil

	case *cc.UnaryExpr:
		return b.walk(x.X)

	case *cc.CallExpr:
		var seq []pStmt
		for _, a := range x.Args {
			w, err := b.walk(a)
			if err != nil {
				return nil, err
			}
			seq = append(seq, w)
		}
		return func(e *PEnv) {
			for _, w := range seq {
				w(e)
			}
		}, nil

	case *cc.CastExpr:
		return b.walk(x.X)
	}
	return nil, errProveAbort
}

// cond compiles a condition's walk plus its true/false refiners. The
// refiners run immediately after the walk at the same abstract state,
// so re-evaluating the bound expression inside them is exact.
func (b *proveBuilder) cond(ex cc.Expr) (condW, refineT, refineF pStmt, err error) {
	folded := foldExpr(ex)
	w, err := b.walk(folded)
	if err != nil {
		return nil, nil, nil, err
	}
	if w == nil {
		w = pNop
	}
	refineT, refineF = pNop, pNop
	bin, ok := folded.(*cc.BinaryExpr)
	if !ok {
		return w, refineT, refineF, nil
	}
	relop := ""
	switch bin.Op {
	case "<", "<=", ">", ">=", "==", "!=":
		relop = bin.Op
	default:
		return w, refineT, refineF, nil
	}
	// Pattern: int scalar relop int expr (or mirrored). The bound-side
	// compile shares the condition's recorded cursors by re-walking a
	// second compiled copy of the SAME subtree — access joins are
	// idempotent, so re-recording is harmless, but the cursor must not
	// advance again: compile with a throwaway cursor and reuse only
	// when the subtree contains no access sites.
	ident, bound, mirrored := condRefinePattern(bin)
	if ident == nil || bound.Type() != cc.TInt {
		return w, refineT, refineF, nil
	}
	savedNR := b.noRecord
	b.noRecord = true
	bv, err := b.compileI(foldExpr(bound))
	b.noRecord = savedNR
	if err != nil {
		return w, refineT, refineF, nil
	}
	slot := ident.Decl.Slot
	if mirrored {
		relop = mirrorRelop(relop)
	}
	refineT = refineWith(slot, relop, bv, true)
	refineF = refineWith(slot, relop, bv, false)
	return w, refineT, refineF, nil
}

// condRefinePattern matches `ident relop expr` / `expr relop ident`.
func condRefinePattern(bin *cc.BinaryExpr) (id *cc.Ident, bound cc.Expr, mirrored bool) {
	if x, ok := bin.X.(*cc.Ident); ok && x.Type() == cc.TInt {
		return x, bin.Y, false
	}
	if y, ok := bin.Y.(*cc.Ident); ok && y.Type() == cc.TInt {
		return y, bin.X, true
	}
	return nil, nil, false
}

func mirrorRelop(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // ==, != are symmetric
}

// refineWith builds the interval clamp for `slot relop bound` being
// true (taken) or false. Sentinel bound sides impose no constraint.
func refineWith(slot int, relop string, bound pExprI, taken bool) pStmt {
	if !taken {
		switch relop {
		case "<":
			relop = ">="
		case "<=":
			relop = ">"
		case ">":
			relop = "<="
		case ">=":
			relop = "<"
		case "==":
			relop = "!="
		case "!=":
			relop = "=="
		}
	}
	switch relop {
	case "<":
		return func(e *PEnv) {
			if bv := bound(e); bv.Hi != math.MaxInt64 && bv.Hi-1 < e.Ints[slot].Hi {
				e.Ints[slot].Hi = bv.Hi - 1
			}
		}
	case "<=":
		return func(e *PEnv) {
			if bv := bound(e); bv.Hi < e.Ints[slot].Hi {
				e.Ints[slot].Hi = bv.Hi
			}
		}
	case ">":
		return func(e *PEnv) {
			if bv := bound(e); bv.Lo != math.MinInt64 && bv.Lo+1 > e.Ints[slot].Lo {
				e.Ints[slot].Lo = bv.Lo + 1
			}
		}
	case ">=":
		return func(e *PEnv) {
			if bv := bound(e); bv.Lo > e.Ints[slot].Lo {
				e.Ints[slot].Lo = bv.Lo
			}
		}
	case "==":
		return func(e *PEnv) {
			bv := bound(e)
			if bv.Lo > e.Ints[slot].Lo {
				e.Ints[slot].Lo = bv.Lo
			}
			if bv.Hi < e.Ints[slot].Hi {
				e.Ints[slot].Hi = bv.Hi
			}
		}
	default: // != imposes nothing useful
		return pNop
	}
}

// refineTargets lists the scalar slots the loop condition's refiner
// clamps — the slots directional widening may safely top out, because
// the next pass's refinement recovers their moving bound.
func (b *proveBuilder) refineTargets(cond cc.Expr) []int {
	bin, ok := foldExpr(cond).(*cc.BinaryExpr)
	if !ok {
		return nil
	}
	switch bin.Op {
	case "<", "<=", ">", ">=", "==", "!=":
	default:
		return nil
	}
	id, bound, _ := condRefinePattern(bin)
	if id == nil || bound.Type() != cc.TInt {
		return nil
	}
	return []int{id.Decl.Slot}
}
