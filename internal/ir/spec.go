package ir

import (
	"errors"
	"slices"
	"strings"

	"accmulti/internal/cc"
)

// Kernel specialization (the direct-slice fast path): at translate time
// BuildKernelSpec pattern-matches a kernel body against the eligible
// shape — straight-line or simply-branched statements whose array
// accesses are affine in the induction variable — and compiles a second
// form of it that runs directly on the device copies' backing slices,
// with no ArrayView dispatch, no per-access counter increments and no
// per-store dirty marking. The instrumentation the interpreter performs
// per-access is reconstructed analytically:
//
//   - Per-iteration operation and byte costs are accumulated at compile
//     time into IterCost formulas (Base for unconditional statements,
//     one Arms entry per if-arm); at run time the launch multiplies
//     them by the iteration count and the observed arm-taken counts.
//   - Affine access indices are monotone in the induction variable, so
//     evaluating each index at the chunk's first and last iteration
//     yields its exact element range: one range check per (access,
//     chunk) replaces the per-access phys() check, and the write
//     footprint of a store access is exactly the arithmetic progression
//     between those endpoints, which the runtime marks dirty in bulk.
//
// Inner sequential loops compile as paired cost buckets (condition
// evaluations and completed iterations) counted like if-arms, and
// non-affine (computed) indices — indirect a[idx[i]] gathers, inner-
// loop-variable subscripts, modular arithmetic — compile with their
// ranges discharged at launch by the interval prover (specprove.go)
// instead of endpoint evaluation; stores with data-dependent footprints
// mark dirty bits one by one like the interpreter.
//
// lower below walks the body once and records all of that — costs,
// accesses, arms, inner loops — into a lowered body: every subtree folded
// once, every access and arm numbered as it is met, every node summarized
// (the scalars it reads, the induction variable, loads of written arrays,
// effects, division). The passes read those numbers and summaries and keep
// no count of their own: the prover (specprove.go) and the one compiled
// form, VecBody (specvec.go), which runs a tile of consecutive
// iterations: straight-line statements, data-dependent arms, uniform
// inner loops, gathers and layout-transformed copies in lockstep, one
// tight loop per expression node; loops with stores in them or
// lane-divergent trips as flat tiles (specflat.go: the same body in
// lockstep over their trips). A kernel the
// tiles do not take — while loops, break/continue, ?:, short-circuit
// operators (data-dependent cost), unknown builtins, assignment to the
// induction variable; a scatter or a gather across the division between
// the lockstep statements and a flat loop, a loop flat tiles do not take,
// a reduction target with two update sites — makes BuildKernelSpec return
// nil with a reason category, and the kernel permanently runs on the
// instrumented interpreter. The runtime adds launch-time fallback
// conditions on top (miss-check lanes, failed range checks, proofs and
// alias checks; see internal/rt/specexec.go).
//
// One branch shape leaves the arm machinery altogether: a top-level if
// whose condition is an affine guard (&&, ||, ! over integer
// comparisons affine in the induction variable, operands loop-
// invariant) is constant on sub-ranges of the iteration space, so
// splitGuards compiles one straight-line variant per arm path and the
// runtime cuts each chunk at the comparisons' roots (index-set
// splitting) — no arm counters, no data-dependent store footprints.

// errSpecIneligible aborts spec compilation; the kernel falls back to
// the interpreter. It never escapes BuildKernelSpec. specErr variants
// carry the rejection category the trace layer surfaces (spec.reject.*).
var errSpecIneligible = errors.New("ir: kernel not eligible for specialization")

// specErr is an ineligibility error with a reason category.
type specErr struct{ reason string }

func (e *specErr) Error() string { return "ir: kernel not eligible for specialization: " + e.reason }

var (
	errSpecBranch    = &specErr{reason: "branch"}    // ?: or short-circuit operators
	errSpecIntrinsic = &specErr{reason: "intrinsic"} // unknown builtin call
	errSpecLoop      = &specErr{reason: "loop"}      // while / break / continue
	errSpecInduction = &specErr{reason: "induction"} // body writes the induction variable
)

// specReason maps a compile failure to its category ("shape" for the
// generic errSpecIneligible).
func specReason(err error) string {
	var se *specErr
	if errors.As(err, &se) {
		return se.reason
	}
	return "shape"
}

// AccessKind classifies one compiled array access site.
type AccessKind uint8

const (
	// AccessLoad reads an element of the resident range.
	AccessLoad AccessKind = iota
	// AccessStore writes an element of the resident range.
	AccessStore
	// AccessReduce updates a reduction lane at a logical index.
	AccessReduce
)

// SpecAccess is one static array access site of a specialized body.
type SpecAccess struct {
	// Slot is the accessed array's slot.
	Slot int
	// Kind classifies the access.
	Kind AccessKind
	// InBranch marks accesses under an if-arm (executed conditionally).
	InBranch bool
	// InLoop marks accesses inside an inner sequential loop (executed a
	// data-dependent number of times per iteration).
	InLoop bool
	// Affine reports an index provably affine in the induction variable
	// (a*i + b with loop-invariant coefficients). Non-affine (computed)
	// accesses carry a nil Index; the runtime bounds their element
	// ranges with the interval prover instead of endpoint evaluation.
	Affine bool
	// Index is the access index compiled for the *host* environment:
	// the runtime evaluates it at a chunk's first and last iteration to
	// range-check the whole chunk before running the fast path. Nil for
	// computed accesses.
	Index ExprI
	// FlatLoop is zero for an access the tile executes in lockstep with
	// the statements around it; otherwise it numbers (from 1) the loop
	// around the access that the tile runs as flat tiles.
	FlatLoop int
}

// Exact reports a store whose per-chunk footprint is exactly the
// arithmetic progression between its endpoint indices: affine,
// unconditional, and executed once per iteration.
func (a *SpecAccess) Exact() bool {
	return a.Affine && !a.InBranch && !a.InLoop
}

// IterCost is the per-execution instrumentation cost of a statement
// group: what the interpreter would have added to the Env counters each
// time the group ran.
type IterCost struct {
	Flops        int64
	BytesRead    int64
	BytesWritten int64
	ReduceOps    int64
	// Stores counts element stores per array slot (used for the
	// dirty-marking byte surcharge of replicated written arrays).
	Stores []int64
}

// DArray is a specialized body's direct handle on one device copy:
// the typed backing slice (exactly one of F32/F64/I32 is non-nil,
// matching the declared element type), the resident base offset, and
// this worker's reduction lane when the array is a reduction target.
type DArray struct {
	F32  []float32
	F64  []float64
	I32  []int32
	Base int64
	// LaneF/LaneI is the worker's reduction lane, indexed by logical
	// element index (lanes always span the whole array).
	LaneF []float64
	LaneI []int64
	// Dirty/ChunkLane/ChunkElems, when Dirty is non-nil, make every
	// store site mark per-element and per-chunk dirty bits exactly like
	// the interpreter's instrumented view (physical offsets; ChunkLane
	// is this worker's private chunk scratch). The runtime binds them
	// only for slots whose store footprint is data-dependent — exact
	// affine stores keep the cheaper bulk marking.
	Dirty      []uint8
	ChunkLane  []uint8
	ChunkElems int64
	// TWidth/TRows describe a layout-transformed (column-major) copy:
	// physical offset = (p%TWidth)*TRows + p/TWidth for logical offset
	// p. Zero TWidth means the copy is stored in logical order.
	TWidth, TRows int64
	// WinLo/WinLen is the window of physical offsets the running tile's
	// lockstep prefix loaded from an array its flat loop stores to (BFS:
	// the guard reads cost[i], the loop stores cost[w]); a store inside it
	// sets Hit, and the tile's lanes after the storing one go to the next
	// tile. Zero WinLen: nothing is watched.
	WinLo  int64
	WinLen uint64
	Hit    bool
}

// off maps a logical offset into the copy to its physical offset.
func (a *DArray) off(p int64) int64 {
	if a.TWidth != 0 {
		return p%a.TWidth*a.TRows + p/a.TWidth
	}
	return p
}

// mark records one store at physical offset p.
func (a *DArray) mark(p int64) {
	if a.Dirty != nil {
		a.Dirty[p] = 1
		a.ChunkLane[p/a.ChunkElems] = 1
	}
	if uint64(p-a.WinLo) < a.WinLen {
		a.Hit = true
	}
}

// watch widens the window to cover the physical offsets lo..hi.
func (a *DArray) watch(lo, hi int64) {
	if a.WinLen > 0 {
		lo, hi = min(lo, a.WinLo), max(hi, a.WinLo+int64(a.WinLen)-1)
	}
	a.WinLo, a.WinLen = lo, uint64(hi-lo+1)
}

// DEnv is one worker's environment for the tiles: flat scalar tables
// (same slots as Env), direct array handles by slot, and the arm-taken
// counters the analytic cost model consumes.
type DEnv struct {
	Ints   []int64
	Floats []float64
	Arrays []DArray
	// Branch counts executions per if-arm, indexed like KernelSpec.Arms.
	Branch []int64
	// HazardLanes counts the lanes tiles handed to the next tile after a
	// store hit a watched window, FlatCuts the flat tiles a hazard ended
	// early (specflat.go).
	HazardLanes, FlatCuts int64
	// Poll, when set, is asked every pollTrips trips of the body's inner
	// loops whether to go on (see tick).
	Poll  func() error
	trips int64
}

// Interrupt is what a tile panics with when Poll says stop: a tile
// returns no error, so the executor that set Poll recovers it.
type Interrupt struct{ Err error }

// tick counts n more trips of an inner loop about to run and, every
// pollTrips of them, asks Poll whether to go on. A caller with more trips
// than that ahead runs them in blocks (blockEnd) with a tick before each.
func (e *DEnv) tick(n int64) {
	if e.trips += n; e.trips < pollTrips {
		return
	}
	if e.trips = 0; e.Poll != nil {
		if err := e.Poll(); err != nil {
			panic(Interrupt{err})
		}
	}
}

// blockEnd ticks for the next block of the trips [x, hi) and returns
// where it ends.
func (e *DEnv) blockEnd(x, hi int64) int64 {
	end := min(hi, x+pollTrips)
	e.tick(end - x)
	return end
}

// NewDEnv allocates a worker environment sized for the spec.
func (s *KernelSpec) NewDEnv() *DEnv {
	return &DEnv{
		Ints:   make([]int64, s.NumInts),
		Floats: make([]float64, s.NumFloats),
		Arrays: make([]DArray, s.NumArrays),
		Branch: make([]int64, len(s.Arms)),
	}
}

type (
	// num is what one lane of a tile holds: every int expression computes
	// in int64, every float one in float64.
	num interface{ int64 | float64 }
	// elem is the element type of a device copy.
	elem interface{ int32 | float32 | float64 }
	// dExpr is a uniform subtree compiled against the worker's scalars: one
	// value for every lane of a tile step.
	dExpr[S num] func(*DEnv) S
)

// KernelSpec is the compiled specialization of one kernel.
type KernelSpec struct {
	// LoopSlot is the induction variable's int slot.
	LoopSlot int
	// NumInts/NumFloats/NumArrays size worker environments.
	NumInts, NumFloats, NumArrays int
	// Base is the unconditional per-iteration cost.
	Base IterCost
	// Arms holds one per-execution cost per if-arm, in the order the
	// arms were compiled (DEnv.Branch uses the same indexing).
	Arms []IterCost
	// Accesses lists every static array access site.
	Accesses []SpecAccess
	// InexactStores[slot] reports a store to the slot whose footprint is
	// data-dependent (under a branch, inside an inner loop, or through a
	// computed index): dirty-marked launches bind per-iteration dirty
	// marking for such slots instead of the bulk affine marking.
	InexactStores []bool
	// WrittenSlots[slot] reports any store or reduce on the slot; the
	// interval prover must not trust value scans of written arrays.
	WrittenSlots []bool
	// HasComputed reports at least one non-affine access: the runtime
	// must discharge the Prover before taking the fast path.
	HasComputed bool
	// Prover is the compiled interval abstraction of the body (see
	// specprove.go): non-nil exactly when HasComputed.
	Prover *SpecProver
	// VecBody is the compiled body (see specvec.go): one call runs the
	// iterations i0 .. i0+L-1, L ≤ VecTile, in lockstep, one tight loop
	// per expression node, and returns how many of them, from the first,
	// it ran — L, or fewer when a flat loop stored into the window the
	// tile's prefix loaded (the caller starts the next tile at the first
	// one it did not run). The runtime may only use it when its per-launch
	// alias check proves the tile schedule element-equivalent. Nil on a
	// split spec.
	VecBody func(vm *VecEnv, i0 int64, L int) int
	// NumBufI/NumBufF/NumMask size a VecEnv's scratch vectors and lane
	// lists.
	NumBufI, NumBufF, NumMask int
	// FlatBufI/FlatBufF/FlatMask/FlatSites size the scratch of its flat
	// tiles (specflat.go); FlatMask is zero when no loop runs as flat tiles.
	FlatBufI, FlatBufF, FlatMask, FlatSites int
	// Guard, when non-nil, makes this spec an index-set split: the body,
	// costs and accesses live in Guard.Variants, one of which covers
	// each sub-range of a chunk; only the environment sizes above (and
	// NumBufI/NumBufF, the maximum over the variants) are meaningful
	// here.
	Guard *SpecGuard
}

// maxGuardPaths bounds the arm paths (variants) of one split kernel.
const maxGuardPaths = 8

// SpecGuard is the decision structure of an index-set split kernel.
type SpecGuard struct {
	// Tree selects the variant of an iteration.
	Tree *GuardNode
	// Atoms lists every comparison in the tree that varies with the
	// induction variable; between two consecutive roots of the atoms
	// every condition, hence the selected variant, is constant.
	Atoms []GuardAtom
	// Variants are the straight-line specs, one per arm path; each has
	// a tiled body, no arms and only affine accesses.
	Variants []*KernelSpec
}

// GuardNode is one affine-guarded if (a leaf when Cond is nil).
type GuardNode struct {
	// Cond is the interpreter's own compiled condition, so evaluating
	// it charges env.Flops exactly what the interpreter charges per
	// iteration, short-circuiting included.
	Cond       func(*Env) bool
	Then, Else *GuardNode
	// Variant indexes SpecGuard.Variants at a leaf.
	Variant int
}

// GuardAtom is the comparison X op Y of two int expressions affine in
// the induction variable, compiled against the host environment.
type GuardAtom struct {
	X, Y ExprI
	Op   string
}

// Select evaluates the guards at the iteration held in env's loop slot
// and returns the variant index; the conditions' cost accrues to
// env.Flops.
func (g *SpecGuard) Select(env *Env) int {
	n := g.Tree
	for n.Cond != nil {
		if n.Cond(env) {
			n = n.Then
		} else {
			n = n.Else
		}
	}
	return n.Variant
}

// kernelFacts is what is known of the whole kernel before a body is
// lowered: its induction variable, the scalars its body assigns (one bit
// each: every summary's scalar set is a mask over them), which of them are
// reduction scalars, and whether its workers run one after the other
// (Kernel.SerialWorkers). A split kernel's variants share it.
type kernelFacts struct {
	loopVar *cc.VarDecl
	prog    *cc.Program
	bit     map[*cc.VarDecl]int
	decls   []*cc.VarDecl
	reds    uint64
	serial  bool
	// counts, set by VerifyLowering only, counts what the passes read.
	counts *lowerCheck
}

// maxScalars bounds the scalars a body may assign: one bit of a summary's
// mask each.
const maxScalars = 64

// mask gives d's bit, zero for a scalar the body does not assign.
func (kf *kernelFacts) mask(d *cc.VarDecl) uint64 {
	if b, ok := kf.bit[d]; ok {
		return 1 << b
	}
	return 0
}

// kExpr is one node of a lowered expression: the folded source node, its
// operands lowered, and what the subtree does.
type kExpr struct {
	e cc.Expr
	// x is the operand of a unary operator or a cast and the subscript of
	// an access, x and y those of a binary operator and a builtin's
	// arguments (y nil for a one-argument builtin).
	x, y *kExpr
	// lo and hi bound the numbers of every access in the subtree.
	lo, hi int
	sum
}

// site is an access's number in KernelSpec.Accesses: the lowering numbers
// an access right after every access in its subscript.
func (k *kExpr) site() int { return k.hi - 1 }

// sum summarizes a subtree for the passes: reads holds the body-assigned
// scalars it reads (kernelFacts.bit); iv says it reads the induction
// variable, written that it loads an array the kernel writes, divides that
// it holds an int / or % whose divisor is not a nonzero literal (the one
// operation of an expression that can fault).
type sum struct {
	reads                uint64
	iv, written, divides bool
}

func (s *sum) add(o sum) {
	s.reads |= o.reads
	s.iv, s.written, s.divides = s.iv || o.iv, s.written || o.written, s.divides || o.divides
}

// kStmt is one lowered statement.
type kStmt struct {
	s cc.Stmt
	// kids: a block's statements; an if's then and else; a for's init,
	// body and post (nil where there is none).
	kids []*kStmt
	// x is an array assignment's target access (its site numbered), or the
	// condition of an if or a for; y an assignment's value.
	x, y *kExpr
	// arm numbers an if's then-arm (elseArm its else-arm, -1 without one)
	// and a for's condition bucket (its body's is arm+1), in KernelSpec.Arms.
	arm, elseArm int
	// lo and hi bound the numbers of every access in the statement.
	lo, hi int
	// lv is a counted loop's variable (countedVar), nil for any other.
	lv *cc.VarDecl
	// sets holds the body-assigned scalars it assigns; store and reduce
	// say it holds a plain array store or a reduction-lane update.
	sets          uint64
	store, reduce bool
}

// scalarUse is how a body uses one scalar it assigns: its "=" and compound
// assignment sites outside counted loop headers, whether anything reads it
// and whether a counted loop's header sets it.
type scalarUse struct {
	eq, op        int
	read, loopVar bool
}

// lowered is one body lowered: its statement tree, the spec it recorded —
// costs, accesses and arms, each numbered as the lowering met it — every
// access's node by number, and how the body uses its scalars.
type lowered struct {
	*kernelFacts
	spec  *KernelSpec
	body  *kStmt
	sites []*kExpr
	uses  []scalarUse
}

// lowering is the walk that builds a lowered body: the cost bucket live
// at each point (Base, or the current arm) and the arms and loops around it.
type lowering struct {
	*lowered
	arms     []*IterCost
	cur      *IterCost
	inBranch bool
	inLoop   bool
	// guard lowers an affine guard's condition (guardSplitter): && and ||
	// are operators like any other there.
	guard bool
}

// BuildKernelSpec compiles the specialized form of the body of k, whose
// induction variable, reduction clauses and SerialWorkers mark are
// already set. When the body is not eligible it returns a nil spec and
// the rejection category ("branch", "intrinsic", "loop", "induction",
// "shape") for the per-reason fallback metrics.
func BuildKernelSpec(k *Kernel, body cc.Stmt, prog *cc.Program) (*KernelSpec, string) {
	return buildKernelSpec(k, body, prog, nil)
}

func buildKernelSpec(k *Kernel, body cc.Stmt, prog *cc.Program, check *lowerCheck) (*KernelSpec, string) {
	assigned := map[*cc.VarDecl]bool{}
	cc.AssignedScalars(body, assigned)
	if assigned[k.LoopVar] {
		return nil, errSpecInduction.reason // body rewrites the induction variable
	}
	if len(assigned) > maxScalars {
		return nil, specReason(errSpecIneligible)
	}
	kf := &kernelFacts{loopVar: k.LoopVar, prog: prog, serial: k.SerialWorkers, bit: map[*cc.VarDecl]int{}, counts: check}
	for d := range assigned {
		kf.decls = append(kf.decls, d)
	}
	slices.SortFunc(kf.decls, func(a, b *cc.VarDecl) int { return strings.Compare(a.Name, b.Name) })
	for b, d := range kf.decls {
		kf.bit[d] = b
	}
	for _, r := range k.ScalarReds {
		kf.reds |= kf.mask(r.Decl)
	}
	if hasTopLevelIf(body) {
		if spec := splitGuards(body, kf); spec != nil {
			return spec, ""
		}
	}
	return buildSpec(body, kf)
}

// hasTopLevelIf reports an if directly in the body's (nested) blocks,
// the only place splitGuards looks for a guard.
func hasTopLevelIf(s cc.Stmt) bool {
	switch x := s.(type) {
	case *cc.IfStmt:
		return true
	case *cc.Block:
		for _, c := range x.Stmts {
			if hasTopLevelIf(c) {
				return true
			}
		}
	}
	return false
}

// buildSpec lowers one body (a whole kernel body, or one variant of a
// split one) and runs the passes over it: the prover when an access is
// computed, then the tile builder.
func buildSpec(body cc.Stmt, kf *kernelFacts) (*KernelSpec, string) {
	l, err := lower(body, kf)
	if err != nil {
		return nil, specReason(err)
	}
	if l.spec.HasComputed {
		l.spec.Prover = buildProver(l)
	}
	if reason := buildVec(l); reason != "" {
		return nil, reason
	}
	kf.counts.verify(l)
	return l.spec, ""
}

// newLowering starts the lowering of one body into a fresh spec.
func newLowering(kf *kernelFacts) *lowering {
	prog := kf.prog
	l := &lowering{lowered: &lowered{kernelFacts: kf, uses: make([]scalarUse, len(kf.decls)), spec: &KernelSpec{
		LoopSlot:      kf.loopVar.Slot,
		NumInts:       prog.NumInts,
		NumFloats:     prog.NumFloats,
		NumArrays:     prog.NumArrays,
		InexactStores: make([]bool, prog.NumArrays),
		WrittenSlots:  make([]bool, prog.NumArrays),
	}}}
	l.spec.Base.Stores = make([]int64, prog.NumArrays)
	l.cur = &l.spec.Base
	return l
}

// lower lowers a body in one walk, in the interpreter's order: every
// subtree folded once, every access and arm numbered as it is met (the
// spec's Accesses and Arms appended in the same step), every cost charged
// to the bucket live where the interpreter incurs it, every node
// summarized. The error names a construct no specialized form takes.
func lower(body cc.Stmt, kf *kernelFacts) (*lowered, error) {
	l := newLowering(kf)
	cc.EachAssign(body, func(st *cc.AssignStmt) {
		if x, ok := st.LHS.(*cc.IndexExpr); ok {
			l.spec.WrittenSlots[x.Array.Slot] = true
		}
	})
	var err error
	if l.body, err = l.stmt(body); err != nil {
		return nil, err
	}
	l.spec.Arms = make([]IterCost, len(l.arms))
	for i, a := range l.arms {
		l.spec.Arms[i] = *a
	}
	return l.lowered, nil
}

// stmt lowers one statement.
func (l *lowering) stmt(s cc.Stmt) (*kStmt, error) {
	k := &kStmt{s: s, lo: len(l.spec.Accesses), elseArm: -1}
	var err error
	switch st := s.(type) {
	case *cc.Block:
		if st.Data != nil {
			return nil, errSpecIneligible
		}
		k.kids = make([]*kStmt, len(st.Stmts))
		for i, c := range st.Stmts {
			if k.kids[i], err = l.stmt(c); err != nil {
				return nil, err
			}
		}
	case *cc.DeclStmt:
		// Slots live in the environment.
	case *cc.AssignStmt:
		if err = l.assign(k, st); err == nil {
			l.tally(st)
		}
	case *cc.IfStmt:
		err = l.ifStmt(k, st)
	case *cc.ForStmt:
		err = l.forStmt(k, st)
	case *cc.WhileStmt, *cc.BranchStmt:
		err = errSpecLoop
	default:
		// Update directives and other constructs: interpreter only.
		err = errSpecIneligible
	}
	if err != nil {
		return nil, err
	}
	k.hi = len(l.spec.Accesses)
	for _, c := range k.kids {
		if c != nil {
			k.sets |= c.sets
			k.store, k.reduce = k.store || c.store, k.reduce || c.reduce
		}
	}
	return k, nil
}

// tally counts an assignment site of a scalar.
func (l *lowering) tally(st *cc.AssignStmt) {
	if id, ok := st.LHS.(*cc.Ident); ok {
		if u := &l.uses[l.bit[id.Decl]]; st.Op == "=" {
			u.eq++
		} else {
			u.op++
		}
	}
}

// expr lowers a statement's expression, folded once here.
func (l *lowering) expr(e cc.Expr) (*kExpr, error) { return l.node(foldExpr(e)) }

// assign lowers an assignment: to a scalar, one more operation for a
// compound one (four for a float division), then the value; to an array,
// the target's subscript, the access, its cost, then the value.
func (l *lowering) assign(k *kStmt, st *cc.AssignStmt) error {
	typ := cc.TInt
	switch lhs := st.LHS.(type) {
	case *cc.Ident:
		typ, k.sets = lhs.Decl.Type, l.mask(lhs.Decl)
		if st.Op == "/=" && typ != cc.TInt {
			l.cur.Flops += 4
		} else if st.Op != "=" {
			l.cur.Flops++
		}
	case *cc.IndexExpr:
		typ = lhs.Array.Type
		kind := AccessStore
		if st.Reduce != nil {
			kind = AccessReduce
		}
		var err error
		if k.x, err = l.access(lhs, kind); err != nil {
			return err
		}
		slot, size := lhs.Array.Slot, typ.Size()
		if kind == AccessReduce {
			// The interpreter charges one flop at the statement plus the
			// view's fixed reduce cost (one flop, 8 bytes each way, one
			// ReduceOp).
			k.reduce = true
			l.cur.Flops += 2
			l.cur.ReduceOps++
			l.cur.BytesRead += 8
			l.cur.BytesWritten += 8
		} else {
			if !l.spec.Accesses[k.x.site()].Exact() {
				l.spec.InexactStores[slot] = true
			}
			k.store = true
			l.cur.Stores[slot]++
			l.cur.BytesWritten += size
			if st.Op != "=" {
				l.cur.Flops++
				l.cur.BytesRead += size
			}
		}
	default:
		return errSpecIneligible
	}
	var err error
	if k.y, err = l.expr(st.RHS); err != nil || st.Op == "=" || st.Reduce != nil {
		return err
	}
	// The operator must be one the interpreter has for the target's type.
	if _, err = intApply(st.Op, st.Pos()); typ != cc.TInt {
		_, err = floatApply(st.Op, st.Pos())
	}
	if err != nil {
		return errSpecIneligible
	}
	return nil
}

// newArm opens a cost bucket counted by its own DEnv.Branch entry.
func (l *lowering) newArm() int {
	l.arms = append(l.arms, &IterCost{Stores: make([]int64, l.spec.NumArrays)})
	l.cur = l.arms[len(l.arms)-1]
	return len(l.arms) - 1
}

// ifStmt lowers a simple branch. Each arm gets its own cost bucket; the
// condition's cost belongs to the enclosing bucket (it is evaluated
// unconditionally).
func (l *lowering) ifStmt(k *kStmt, st *cc.IfStmt) error {
	var err error
	if k.x, err = l.expr(st.Cond); err != nil {
		return err
	}
	savedCur, savedBranch := l.cur, l.inBranch
	defer func() { l.cur, l.inBranch = savedCur, savedBranch }()
	l.inBranch = true
	k.kids = make([]*kStmt, 2)
	k.arm = l.newArm()
	if k.kids[0], err = l.stmt(st.Then); err != nil || st.Else == nil {
		return err
	}
	k.elseArm = l.newArm()
	k.kids[1], err = l.stmt(st.Else)
	return err
}

// forStmt lowers an inner sequential loop. The loop gets two cost
// buckets: one counted per condition evaluation (trips+1 — the
// condition's cost lives there) and one counted per completed iteration
// (trips — body and post cost live there). The init's cost belongs to
// the enclosing bucket, exactly mirroring the interpreter's
// per-execution accounting. A counted loop's header sets its variable:
// those two assignments are not the variable's uses.
func (l *lowering) forStmt(k *kStmt, st *cc.ForStmt) error {
	if st.Parallel != nil || st.Cond == nil {
		return errSpecLoop // nested parallel loops: interpreter only
	}
	k.kids = make([]*kStmt, 3)
	lowerPart := func(i int, s *cc.AssignStmt) (err error) {
		if s != nil {
			k.kids[i] = &kStmt{s: s, lo: len(l.spec.Accesses), elseArm: -1}
			err = l.assign(k.kids[i], s)
			k.kids[i].hi = len(l.spec.Accesses)
		}
		return err
	}
	if err := lowerPart(0, st.Init); err != nil {
		return err
	}
	savedCur, savedLoop := l.cur, l.inLoop
	defer func() { l.cur, l.inLoop = savedCur, savedLoop }()
	l.inLoop = true
	k.arm = l.newArm()
	var err error
	if k.x, err = l.expr(st.Cond); err != nil {
		return err
	}
	l.newArm()
	if k.kids[1], err = l.stmt(st.Body); err != nil {
		return err
	}
	if err := lowerPart(2, st.Post); err != nil {
		return err
	}
	if k.lv = countedVar(k); k.lv != nil {
		l.uses[l.bit[k.lv]].loopVar = true
		return nil
	}
	for _, s := range []*cc.AssignStmt{st.Init, st.Post} {
		if s != nil {
			l.tally(s)
		}
	}
	return nil
}

// countedVar returns the variable of a canonical counted loop whose
// header alone sets it — `for (v = ...; v < bound; v++)` (also <=) over
// an int scalar v, an int bound — or nil.
func countedVar(k *kStmt) *cc.VarDecl {
	st := k.s.(*cc.ForStmt)
	init, post := st.Init, st.Post
	if init == nil || post == nil || init.Op != "=" || post.Op != "+=" {
		return nil
	}
	id, isID := post.LHS.(*cc.Ident)
	in, isIn := init.LHS.(*cc.Ident)
	one, isLit := post.RHS.(*cc.NumLit)
	cmp, isCmp := k.x.e.(*cc.BinaryExpr)
	if !isID || !isIn || !isLit || !isCmp || in.Decl != id.Decl || id.Decl.Type != cc.TInt || one.IsFloat || one.I != 1 ||
		cmp.Op != "<" && cmp.Op != "<=" || cmp.Y.Type() != cc.TInt {
		return nil
	}
	if cv, isCV := cmp.X.(*cc.Ident); !isCV || cv.Decl != id.Decl {
		return nil
	}
	return id.Decl
}

// bound returns a counted loop's bound and whether the comparison
// includes it.
func (k *kStmt) bound() (*kExpr, bool) {
	return k.x.y, k.x.e.(*cc.BinaryExpr).Op == "<="
}

// access lowers an access: its subscript, then the access itself, numbered
// after every access inside the subscript. An affine subscript also
// compiles against the host Env for the launch-time endpoint checks; a
// non-affine (computed) one — indirect loads, inner-loop-variable
// subscripts, modular arithmetic — is bounded at launch by the interval
// prover.
func (l *lowering) access(x *cc.IndexExpr, kind AccessKind) (*kExpr, error) {
	k := &kExpr{e: x, lo: len(l.spec.Accesses)}
	var err error
	if k.x, err = l.expr(x.Index); err != nil {
		return nil, err
	}
	a := SpecAccess{Slot: x.Array.Slot, Kind: kind, InBranch: l.inBranch, InLoop: l.inLoop}
	if _, a.Affine = affineDegree(k.x, nil); a.Affine {
		if a.Index, err = CompileExprI(x.Index); err != nil {
			return nil, errSpecIneligible
		}
	} else {
		l.spec.HasComputed = true
	}
	l.spec.Accesses = append(l.spec.Accesses, a)
	l.sites = append(l.sites, k)
	k.hi = len(l.spec.Accesses)
	k.sum = k.x.sum
	return k, nil
}

// node lowers a folded expression, charging what the interpreter charges
// per evaluation.
func (l *lowering) node(e cc.Expr) (*kExpr, error) {
	k := &kExpr{e: e, lo: len(l.spec.Accesses)}
	var err error
	switch x := e.(type) {
	case *cc.NumLit:
	case *cc.Ident:
		k.iv, k.reads = x.Decl == l.loopVar, l.mask(x.Decl)
		if k.reads != 0 {
			l.uses[l.bit[x.Decl]].read = true
		}
	case *cc.IndexExpr:
		if k, err = l.access(x, AccessLoad); err != nil {
			return nil, err
		}
		k.written = l.spec.WrittenSlots[x.Array.Slot]
		l.cur.BytesRead += x.Array.Type.Size()
		return k, nil
	case *cc.UnaryExpr:
		if x.Op != "-" && x.Op != "!" && x.Op != "~" {
			return nil, errSpecIneligible
		}
		l.cur.Flops++
		k.x, err = l.node(x.X)
	case *cc.BinaryExpr:
		err = l.binary(k, x)
	case *cc.CondExpr:
		// The arms' costs are data-dependent: interpreter only.
		return nil, errSpecBranch
	case *cc.CallExpr:
		err = l.call(k, x)
	case *cc.CastExpr:
		k.x, err = l.node(x.X)
	default:
		return nil, errSpecIneligible
	}
	if err != nil {
		return nil, err
	}
	if k.x != nil {
		k.add(k.x.sum)
	}
	if k.y != nil {
		k.add(k.y.sum)
	}
	k.hi = len(l.spec.Accesses)
	return k, nil
}

// binary lowers a binary operator: one operation, four for a float
// division.
func (l *lowering) binary(k *kExpr, x *cc.BinaryExpr) error {
	short := x.Op == "&&" || x.Op == "||"
	if short && !l.guard {
		// Short-circuiting makes the right operand's cost
		// data-dependent; the analytic formulas cannot express that.
		return errSpecBranch
	}
	var err error
	if k.x, err = l.node(x.X); err != nil {
		return err
	}
	if k.y, err = l.node(x.Y); err != nil {
		return err
	}
	switch x.Op {
	case "<", "<=", ">", ">=", "==", "!=", "+", "-", "*":
	case "/":
		if x.Type() != cc.TInt {
			l.cur.Flops += 3
			break
		}
		fallthrough
	case "%":
		lit, isLit := x.Y.(*cc.NumLit)
		k.divides = x.Type() == cc.TInt && (!isLit || lit.IsFloat || lit.I == 0)
		fallthrough
	case "&", "|", "^", "<<", ">>":
		if x.Type() != cc.TInt {
			return errSpecIneligible
		}
	default:
		if !short {
			return errSpecIneligible
		}
	}
	l.cur.Flops++
	return nil
}

// call lowers a builtin: its cost from the fixed table, then the
// arguments.
func (l *lowering) call(k *kExpr, x *cc.CallExpr) error {
	bi, ok := cc.Builtins[x.Name]
	if !ok {
		return errSpecIntrinsic
	}
	l.cur.Flops += bi.Flops
	var err error
	if k.x, err = l.node(x.Args[0]); err != nil {
		return err
	}
	if len(x.Args) > 1 {
		if k.y, err = l.node(x.Args[1]); err != nil {
			return err
		}
	}
	if x.Type() == cc.TInt && x.Name != "min" && x.Name != "max" && x.Name != "abs" {
		return errSpecIntrinsic
	}
	if _, _, ok := floatBuiltin(x.Name); !ok {
		return errSpecIntrinsic
	}
	return nil
}

// affineDegree returns the degree (0 or 1) of a lowered subscript in the
// induction variable, ok false when it is not affine. Degree ≤ 1 with
// loop-invariant coefficients means the index is exactly a*i + b in int64
// arithmetic, hence monotone over any iteration chunk — the property the
// endpoint range checks and the bulk dirty marking rely on. uniform, when
// set, names subtrees taken as constants although the body assigns
// scalars in them (the tile builder's view: an inner induction variable
// is one value per tile step).
func affineDegree(k *kExpr, uniform func(*kExpr) bool) (int, bool) {
	if uniform != nil && uniform(k) {
		return 0, true
	}
	switch x := k.e.(type) {
	case *cc.NumLit:
		return 0, true
	case *cc.Ident:
		if k.iv {
			return 1, true
		}
		return 0, k.reads == 0 // a body-assigned scalar varies mid-iteration
	case *cc.UnaryExpr:
		d, ok := affineDegree(k.x, uniform)
		return d, ok && (x.Op == "-" || d == 0)
	case *cc.BinaryExpr:
		dx, okX := affineDegree(k.x, uniform)
		dy, okY := affineDegree(k.y, uniform)
		if !okX || !okY {
			return 0, false
		}
		switch x.Op {
		case "+", "-":
			d := max(dx, dy)
			return d, d == 0 || x.Type() == cc.TInt
		case "*":
			d := dx + dy
			return d, d == 0 || d == 1 && x.Type() == cc.TInt
		}
		// Division, modulo, shifts, bitwise and comparisons break
		// affinity unless fully invariant.
		return 0, dx == 0 && dy == 0
	case *cc.CallExpr:
		for _, a := range [2]*kExpr{k.x, k.y} {
			if d, ok := affineDegree(a, uniform); a != nil && (!ok || d != 0) {
				return 0, false
			}
		}
		return 0, true
	case *cc.CastExpr:
		d, ok := affineDegree(k.x, uniform)
		return d, ok && (d == 0 || x.To == cc.TInt && x.X.Type() == cc.TInt)
	}
	return 0, false // an access: an indirect index
}

// guardSplitter builds the SpecGuard of a body: it walks the top-level
// statement list, forks at every affine-guarded if and compiles the
// statements each path executes as one variant.
type guardSplitter struct {
	kf    *kernelFacts
	guard *SpecGuard
	// cond lowers the candidate guards' conditions, for their summaries.
	cond *lowering
	// set and folded record, over all variants, the scalars assigned
	// with "=" and with an accumulating operator. The tiled body keeps
	// "=" scalars in per-tile vectors but folds accumulators in the
	// worker environment, so a scalar that is both in different
	// variants would not carry from one piece to the next.
	set, folded map[*cc.VarDecl]bool
}

// splitGuards compiles the index-set split of a body with at least one
// affine guard. Nil means "compile the ordinary way": no guard, too
// many paths, or a variant that is not a straight-line tiled spec.
func splitGuards(body cc.Stmt, kf *kernelFacts) *KernelSpec {
	s := &guardSplitter{
		kf:     kf,
		guard:  &SpecGuard{},
		cond:   newLowering(kf),
		set:    map[*cc.VarDecl]bool{},
		folded: map[*cc.VarDecl]bool{},
	}
	s.cond.guard = true
	s.guard.Tree = s.walk([]cc.Stmt{body}, nil, false)
	if s.guard.Tree == nil || s.guard.Tree.Cond == nil {
		return nil
	}
	prog := kf.prog
	spec := &KernelSpec{
		LoopSlot: kf.loopVar.Slot, NumInts: prog.NumInts, NumFloats: prog.NumFloats, NumArrays: prog.NumArrays,
		InexactStores: make([]bool, prog.NumArrays),
		Guard:         s.guard,
	}
	for _, v := range s.guard.Variants {
		spec.NumBufI, spec.NumBufF = max(spec.NumBufI, v.NumBufI), max(spec.NumBufF, v.NumBufF)
		spec.NumMask = max(spec.NumMask, v.NumMask)
	}
	return spec
}

// walk scans todo, the statements still to run on this path, after the
// unguarded statements in done; guarded reports a guard above. It
// returns nil when the split must be abandoned.
func (s *guardSplitter) walk(todo, done []cc.Stmt, guarded bool) *GuardNode {
	for i, st := range todo {
		rest := todo[i+1:]
		switch x := st.(type) {
		case *cc.Block:
			if x.Data == nil {
				// Declarations only name environment slots, so nested
				// blocks flatten into the path.
				return s.walk(append(x.Stmts[:len(x.Stmts):len(x.Stmts)], rest...), done, guarded)
			}
		case *cc.IfStmt:
			n0 := len(s.guard.Atoms)
			if c, err := s.cond.expr(x.Cond); err == nil && s.guardCond(c) {
				cond, err := compileCond(x.Cond)
				if err != nil {
					return nil
				}
				node := &GuardNode{Cond: cond}
				done = done[:len(done):len(done)] // the two arms append separately
				if node.Then = s.walk(append([]cc.Stmt{x.Then}, rest...), done, true); node.Then == nil {
					return nil
				}
				if x.Else != nil {
					rest = append([]cc.Stmt{x.Else}, rest...)
				}
				if node.Else = s.walk(rest, done, true); node.Else == nil {
					return nil
				}
				return node
			}
			s.guard.Atoms = s.guard.Atoms[:n0] // a data-dependent if: an ordinary statement
		}
		done = append(done, st)
	}
	if !guarded {
		return &GuardNode{} // no guard at all: nothing to compile here
	}
	if len(s.guard.Variants) == maxGuardPaths {
		return nil
	}
	for _, st := range done {
		if as, ok := st.(*cc.AssignStmt); ok {
			if id, ok := as.LHS.(*cc.Ident); ok {
				if as.Op == "=" {
					s.set[id.Decl] = true
				} else {
					s.folded[id.Decl] = true
				}
				if s.set[id.Decl] && s.folded[id.Decl] {
					return nil
				}
			}
		}
	}
	v, _ := buildSpec(&cc.Block{Stmts: done}, s.kf)
	if v == nil || len(v.Arms) > 0 || v.HasComputed {
		return nil
	}
	s.guard.Variants = append(s.guard.Variants, v)
	return &GuardNode{Variant: len(s.guard.Variants) - 1}
}

// guardCond reports whether a lowered condition is an affine guard: &&,
// || and ! over int comparisons whose sides are affine in the induction
// variable — recorded as atoms — and over loop-invariant subconditions,
// which are constant for the launch. Array loads, body-assigned scalars
// and ?: anywhere make it data-dependent.
func (s *guardSplitter) guardCond(k *kExpr) bool {
	switch x := k.e.(type) {
	case *cc.UnaryExpr:
		if x.Op == "!" {
			return s.guardCond(k.x)
		}
	case *cc.BinaryExpr:
		switch x.Op {
		case "&&", "||":
			return s.guardCond(k.x) && s.guardCond(k.y)
		case "<", "<=", ">", ">=", "==", "!=":
			if x.X.Type() != cc.TInt || x.Y.Type() != cc.TInt {
				break
			}
			dx, okX := affineDegree(k.x, nil)
			dy, okY := affineDegree(k.y, nil)
			if !okX || !okY || dx+dy == 0 {
				break
			}
			cx, errX := CompileExprI(x.X)
			cy, errY := CompileExprI(x.Y)
			if errX != nil || errY != nil {
				return false
			}
			s.guard.Atoms = append(s.guard.Atoms, GuardAtom{X: cx, Y: cy, Op: x.Op})
			return true
		}
	}
	d, ok := affineDegree(k, nil)
	return ok && d == 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
