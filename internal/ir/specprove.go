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
// out-of-range indices. The abstract body is a pass over the lowered body
// (spec.go): each statement records the interval of every access it
// holds under the number the lowering gave that access.
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

// proveBuilder compiles the abstract body: a pass over the lowered body
// in which every statement records the index interval of each access it
// holds, by the access's number, at the abstract state where the
// interpreter would evaluate it.
type proveBuilder struct {
	*lowered
}

// buildProver compiles the interval abstraction of a lowered body.
func buildProver(l *lowered) *SpecProver {
	b := &proveBuilder{l}
	st := b.stmt(l.body)
	if st == nil {
		st = pNop
	}
	pr := &SpecProver{
		body:     st,
		loopSlot: l.loopVar.Slot,
		numInts:  l.prog.NumInts,
		nAccess:  len(l.spec.Accesses),
	}
	pr.assignedSlots = b.intSlots(^uint64(0))
	return pr
}

// intSlots lists the int slots of the body-assigned scalars in mask.
func (b *proveBuilder) intSlots(mask uint64) (slots []int) {
	for i, d := range b.decls {
		if mask&(1<<i) != 0 && d.Type == cc.TInt {
			slots = append(slots, d.Slot)
		}
	}
	return slots
}

func pNop(*PEnv) {}

// stmt compiles one statement; nil for one with nothing to record or
// assign.
func (b *proveBuilder) stmt(k *kStmt) pStmt {
	switch st := k.s.(type) {
	case *cc.Block:
		var seq []pStmt
		for _, c := range k.kids {
			if d := b.stmt(c); d != nil {
				seq = append(seq, d)
			}
		}
		switch len(seq) {
		case 0:
			return nil
		case 1:
			return seq[0]
		}
		return func(e *PEnv) {
			for _, d := range seq {
				d(e)
			}
		}
	case *cc.AssignStmt:
		return b.assign(k, st)
	case *cc.IfStmt:
		return b.ifStmt(k)
	case *cc.ForStmt:
		return b.forStmt(k)
	}
	return nil // a declaration
}

// record compiles the recording of the accesses lo..hi-1 of one
// statement, store the one the statement stores or reduces to (-1: none).
func (b *proveBuilder) record(lo, hi, store int, kind AccessKind) pStmt {
	if lo == hi {
		return pNop
	}
	idx := make([]pExprI, hi-lo)
	for s := lo; s < hi; s++ {
		k := AccessLoad
		if s == store {
			k = kind
		}
		b.counts.read(b.lowered, readProve, b.sites[s], k)
		idx[s-lo] = b.ival(b.sites[s].x)
	}
	return func(e *PEnv) {
		for j, iv := range idx {
			e.record(lo+j, iv(e))
		}
	}
}

// assign compiles an assignment: its accesses recorded, then an int
// scalar's new interval (a float scalar carries none).
func (b *proveBuilder) assign(k *kStmt, st *cc.AssignStmt) pStmt {
	store, kind := -1, AccessStore
	if k.x != nil {
		store = k.x.site()
		if st.Reduce != nil {
			kind = AccessReduce
		}
	}
	rec := b.record(k.lo, k.hi, store, kind)
	lhs, ok := st.LHS.(*cc.Ident)
	if !ok || lhs.Decl.Type != cc.TInt {
		return rec
	}
	slot, rhs := lhs.Decl.Slot, b.ival(k.y)
	var op func(a, c Ival) Ival
	switch st.Op {
	case "=":
		op = func(_, c Ival) Ival { return c }
	case "+=":
		op = ivAdd
	case "-=":
		op = ivSub
	case "*=":
		op = ivMul
	case "/=":
		op = ivDiv
	case "%=":
		op = ivMod
	default: // <<=, >>=
		op = func(Ival, Ival) Ival { return IvalTop() }
	}
	return func(e *PEnv) {
		rec(e)
		e.Ints[slot] = op(e.Ints[slot], rhs(e))
	}
}

func (b *proveBuilder) ifStmt(k *kStmt) pStmt {
	condW, refineT, refineF := b.cond(k.x)
	then, els := b.stmt(k.kids[0]), pStmt(nil)
	if k.kids[1] != nil {
		els = b.stmt(k.kids[1])
	}
	if then == nil {
		then = pNop
	}
	if els == nil {
		els = pNop
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
	}
}

func (b *proveBuilder) forStmt(k *kStmt) pStmt {
	var init, body, post pStmt = pNop, pNop, pNop
	for i, p := range []*pStmt{&init, &body, &post} {
		if c := k.kids[i]; c != nil {
			if d := b.stmt(c); d != nil {
				*p = d
			}
		}
	}
	condW, refineT, refineF := b.cond(k.x)
	targets := b.refineTargets(k.x)
	// Slots the loop body/post assign: topped at the pass cap to force
	// stability regardless of trip counts.
	sets := k.kids[1].sets
	if k.kids[2] != nil {
		sets |= k.kids[2].sets
	}
	loopSlots := b.intSlots(sets)
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
	}
}

// ival compiles the interval of an expression's int value: Top for a
// float one converted to int, [0,1] for a comparison or a negation, the
// value scan of a load from an int array the kernel never writes (a
// pre-execution scan cannot bound what later iterations load from a
// written one).
func (b *proveBuilder) ival(k *kExpr) pExprI {
	top := func(*PEnv) Ival { return IvalTop() }
	flag := func(*PEnv) Ival { return Ival{0, 1} }
	if k.e.Type() != cc.TInt {
		return top
	}
	switch x := k.e.(type) {
	case *cc.NumLit:
		v := Ival{x.I, x.I}
		return func(*PEnv) Ival { return v }
	case *cc.Ident:
		slot := x.Decl.Slot
		return func(e *PEnv) Ival { return e.Ints[slot] }
	case *cc.IndexExpr:
		if b.spec.WrittenSlots[x.Array.Slot] {
			return top
		}
		idx, slot := b.ival(k.x), x.Array.Slot
		return func(e *PEnv) Ival { return e.load(slot, idx(e)) }
	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			v := b.ival(k.x)
			return func(e *PEnv) Ival { return ivNeg(v(e)) }
		case "!":
			return flag
		}
	case *cc.BinaryExpr:
		return b.binary(k, x.Op)
	case *cc.CallExpr:
		a0 := b.ival(k.x)
		if k.y == nil {
			return func(e *PEnv) Ival { return ivAbs(a0(e)) }
		}
		a1 := b.ival(k.y)
		switch x.Name {
		case "min":
			return func(e *PEnv) Ival { return ivMin(a0(e), a1(e)) }
		}
		return func(e *PEnv) Ival { return ivMax(a0(e), a1(e)) }
	case *cc.CastExpr:
		return b.ival(k.x) // int to int; a float operand converts as Top above
	}
	return top
}

func (b *proveBuilder) binary(k *kExpr, op string) pExprI {
	switch op {
	case "<", "<=", ">", ">=", "==", "!=":
		return func(*PEnv) Ival { return Ival{0, 1} }
	case "|", "^", "<<", ">>":
		return func(*PEnv) Ival { return IvalTop() }
	}
	a, c := b.ival(k.x), b.ival(k.y)
	switch op {
	case "+":
		return func(e *PEnv) Ival { return ivAdd(a(e), c(e)) }
	case "-":
		return func(e *PEnv) Ival { return ivSub(a(e), c(e)) }
	case "*":
		return func(e *PEnv) Ival { return ivMul(a(e), c(e)) }
	case "/":
		return func(e *PEnv) Ival { return ivDiv(a(e), c(e)) }
	case "%":
		return func(e *PEnv) Ival { return ivMod(a(e), c(e)) }
	}
	// &: within [0, the smaller bound] over two nonnegative operands.
	return func(e *PEnv) Ival {
		av, cv := a(e), c(e)
		if av.Lo >= 0 && cv.Lo >= 0 {
			return Ival{0, min(av.Hi, cv.Hi)}
		}
		return IvalTop()
	}
}

// cond compiles a condition's recording plus its true/false refiners. The
// refiners run immediately after the recording at the same abstract
// state, so evaluating the bound's interval inside them is exact.
func (b *proveBuilder) cond(k *kExpr) (condW, refineT, refineF pStmt) {
	condW, refineT, refineF = b.record(k.lo, k.hi, -1, AccessLoad), pNop, pNop
	slot, relop, bound := condRefinePattern(k)
	if bound == nil {
		return condW, refineT, refineF
	}
	bv := b.ival(bound)
	return condW, refineWith(slot, relop, bv, true), refineWith(slot, relop, bv, false)
}

// condRefinePattern matches `ident relop expr` / `expr relop ident` over
// an int scalar and an int bound, returning the scalar's slot and the
// operator as seen from it; a nil bound when the condition does not match.
func condRefinePattern(k *kExpr) (slot int, relop string, bound *kExpr) {
	bin, ok := k.e.(*cc.BinaryExpr)
	if !ok {
		return 0, "", nil
	}
	switch bin.Op {
	case "<", "<=", ">", ">=", "==", "!=":
	default:
		return 0, "", nil
	}
	if x, ok := bin.X.(*cc.Ident); ok && x.Type() == cc.TInt {
		slot, relop, bound = x.Decl.Slot, bin.Op, k.y
	} else if y, ok := bin.Y.(*cc.Ident); ok && y.Type() == cc.TInt {
		slot, relop, bound = y.Decl.Slot, mirrorRelop(bin.Op), k.x
	}
	if bound == nil || bound.e.Type() != cc.TInt {
		return 0, "", nil
	}
	return slot, relop, bound
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
func (b *proveBuilder) refineTargets(cond *kExpr) []int {
	if slot, _, bound := condRefinePattern(cond); bound != nil {
		return []int{slot}
	}
	return nil
}
