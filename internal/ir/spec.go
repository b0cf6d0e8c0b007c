package ir

import (
	"errors"
	"math"

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
// The specBuilder below walks the body once to record all of that —
// costs, accesses, arms, inner loops — and compiles no statement; the one
// compiled form is VecBody (specvec.go), which runs a tile of consecutive
// iterations: straight-line statements, data-dependent arms, uniform
// inner loops, gathers and layout-transformed copies in lockstep, one
// tight loop per expression node; loops with stores in them or
// lane-divergent trips as flat tiles (specflat.go: the same body in
// lockstep over their trips). The builder's expression compiler stays for
// what a tile evaluates once per step, its uniform subtrees. A kernel the
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

// dExprI and dExprF are a uniform subtree compiled against the worker's
// scalars: one value for every lane of a tile step.
type (
	dExprI func(*DEnv) int64
	dExprF func(*DEnv) float64
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

// specBuilder records the body, accumulating static costs into the
// bucket that is live at each site (Base, or the current arm), and
// compiles expressions for the tiles' uniform subtrees.
type specBuilder struct {
	loopVar *cc.VarDecl
	// assigned marks scalars the body writes: index expressions must
	// not depend on them (their value would vary mid-iteration).
	assigned map[*cc.VarDecl]bool
	// reds marks the kernel's reduction scalars, whose final value in a
	// worker's environment the launch merges; serial says the kernel's
	// workers run one after the other (Kernel.SerialWorkers).
	reds     map[*cc.VarDecl]bool
	serial   bool
	spec     *KernelSpec
	arms     []*IterCost
	cur      *IterCost
	inBranch bool
	inLoop   bool
	// noRecord compiles a subtree whose cost and accesses the walk already
	// recorded (a tile's uniform subtree): recording it again would
	// double-charge the cost model and desynchronize the access cursors.
	noRecord bool
	// loops records every inner loop, for the tile builder.
	loops map[*cc.ForStmt]loopRec
	// uniform, when set, names subtrees affineDegree takes as constants
	// although the body assigns scalars in them (the tile builder's
	// view: an inner induction variable is one value per tile step).
	uniform func(cc.Expr) bool
}

// loopRec is one inner loop: the position of the access cursor before
// its header, and the positions of the access and arm cursors just after
// it.
type loopRec struct {
	accBeg, accEnd, armEnd int
}

// BuildKernelSpec compiles the specialized form of the body of k, whose
// induction variable, reduction clauses and SerialWorkers mark are
// already set. When the body is not eligible it returns a nil spec and
// the rejection category ("branch", "intrinsic", "loop", "induction",
// "shape") for the per-reason fallback metrics.
func BuildKernelSpec(k *Kernel, body cc.Stmt, prog *cc.Program) (*KernelSpec, string) {
	kb := specBuilder{
		loopVar: k.LoopVar, serial: k.SerialWorkers,
		assigned: map[*cc.VarDecl]bool{}, reds: map[*cc.VarDecl]bool{},
	}
	cc.AssignedScalars(body, kb.assigned)
	for _, r := range k.ScalarReds {
		kb.reds[r.Decl] = true
	}
	if kb.assigned[k.LoopVar] {
		return nil, errSpecInduction.reason // body rewrites the induction variable
	}
	if hasTopLevelIf(body) {
		if spec := splitGuards(body, prog, kb); spec != nil {
			return spec, ""
		}
	}
	return buildSpec(body, prog, kb)
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

// buildSpec compiles one body (a whole kernel body, or one variant of a
// split one); kb holds what is known of the whole kernel.
func buildSpec(body cc.Stmt, prog *cc.Program, kb specBuilder) (*KernelSpec, string) {
	b := &kb
	b.spec = &KernelSpec{
		LoopSlot:      b.loopVar.Slot,
		NumInts:       prog.NumInts,
		NumFloats:     prog.NumFloats,
		NumArrays:     prog.NumArrays,
		InexactStores: make([]bool, prog.NumArrays),
		WrittenSlots:  make([]bool, prog.NumArrays),
	}
	b.spec.Base.Stores = make([]int64, prog.NumArrays)
	b.cur = &b.spec.Base
	if err := b.stmt(body); err != nil {
		return nil, specReason(err)
	}
	b.spec.Arms = make([]IterCost, len(b.arms))
	for i, a := range b.arms {
		b.spec.Arms[i] = *a
	}
	for ai := range b.spec.Accesses {
		if !b.spec.Accesses[ai].Affine {
			b.spec.HasComputed = true
		}
	}
	if b.spec.HasComputed {
		if b.spec.Prover = buildProver(body, b.loopVar, prog, b.spec); b.spec.Prover == nil {
			return nil, "shape" // no launch could discharge the computed accesses
		}
	}
	if reason := buildVec(body, b); reason != "" {
		return nil, reason
	}
	return b.spec, ""
}

// guardSplitter builds the SpecGuard of a body: it walks the top-level
// statement list, forks at every affine-guarded if and compiles the
// statements each path executes as one variant.
type guardSplitter struct {
	sb    *specBuilder // what is known of the whole kernel; affineDegree's view
	prog  *cc.Program
	guard *SpecGuard
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
func splitGuards(body cc.Stmt, prog *cc.Program, kb specBuilder) *KernelSpec {
	s := &guardSplitter{
		sb:     &kb,
		prog:   prog,
		guard:  &SpecGuard{},
		set:    map[*cc.VarDecl]bool{},
		folded: map[*cc.VarDecl]bool{},
	}
	s.guard.Tree = s.walk([]cc.Stmt{body}, nil, false)
	if s.guard.Tree == nil || s.guard.Tree.Cond == nil {
		return nil
	}
	spec := &KernelSpec{
		LoopSlot: kb.loopVar.Slot, NumInts: prog.NumInts, NumFloats: prog.NumFloats, NumArrays: prog.NumArrays,
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
			if s.guardCond(foldExpr(x.Cond)) {
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
	v, _ := buildSpec(&cc.Block{Stmts: done}, s.prog, *s.sb)
	if v == nil || len(v.Arms) > 0 || v.HasComputed {
		return nil
	}
	s.guard.Variants = append(s.guard.Variants, v)
	return &GuardNode{Variant: len(s.guard.Variants) - 1}
}

// guardCond reports whether a (folded) condition is an affine guard:
// &&, || and ! over int comparisons whose sides are affine in the
// induction variable — recorded as atoms — and over loop-invariant
// subconditions, which are constant for the launch. Array loads,
// body-assigned scalars and ?: anywhere make it data-dependent.
func (s *guardSplitter) guardCond(e cc.Expr) bool {
	switch x := e.(type) {
	case *cc.UnaryExpr:
		if x.Op == "!" {
			return s.guardCond(x.X)
		}
	case *cc.BinaryExpr:
		switch x.Op {
		case "&&", "||":
			return s.guardCond(x.X) && s.guardCond(x.Y)
		case "<", "<=", ">", ">=", "==", "!=":
			if x.X.Type() != cc.TInt || x.Y.Type() != cc.TInt {
				break
			}
			dx, errX := s.sb.affineDegree(x.X)
			dy, errY := s.sb.affineDegree(x.Y)
			if errX != nil || errY != nil || dx+dy == 0 {
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
	d, err := s.sb.affineDegree(e)
	return err == nil && d == 0
}

// affineDegree returns the degree (0 or 1) of a folded index expression
// in the induction variable. Degree ≤ 1 with loop-invariant
// coefficients means the index is exactly a*i + b in int64 arithmetic,
// hence monotone over any iteration chunk — the property the endpoint
// range checks and the bulk dirty marking rely on.
func (b *specBuilder) affineDegree(e cc.Expr) (int, error) {
	if b.uniform != nil && b.uniform(e) {
		return 0, nil
	}
	switch x := e.(type) {
	case *cc.NumLit:
		return 0, nil
	case *cc.Ident:
		if x.Decl == b.loopVar {
			return 1, nil
		}
		if b.assigned[x.Decl] {
			return 0, errSpecIneligible // varies mid-iteration
		}
		return 0, nil
	case *cc.IndexExpr:
		return 0, errSpecIneligible // indirect index
	case *cc.UnaryExpr:
		d, err := b.affineDegree(x.X)
		if err != nil {
			return 0, err
		}
		if x.Op == "-" {
			return d, nil
		}
		if d != 0 {
			return 0, errSpecIneligible
		}
		return 0, nil
	case *cc.BinaryExpr:
		dx, err := b.affineDegree(x.X)
		if err != nil {
			return 0, err
		}
		dy, err := b.affineDegree(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+", "-":
			d := dx
			if dy > d {
				d = dy
			}
			if d > 0 && x.Type() != cc.TInt {
				return 0, errSpecIneligible
			}
			return d, nil
		case "*":
			if dx > 0 && dy > 0 {
				return 0, errSpecIneligible // degree 2
			}
			d := dx + dy
			if d > 0 && x.Type() != cc.TInt {
				return 0, errSpecIneligible
			}
			return d, nil
		default:
			// Division, modulo, shifts, bitwise and comparisons break
			// affinity unless fully invariant.
			if dx != 0 || dy != 0 {
				return 0, errSpecIneligible
			}
			return 0, nil
		}
	case *cc.CallExpr:
		for _, a := range x.Args {
			if d, err := b.affineDegree(a); err != nil || d != 0 {
				return 0, errSpecIneligible
			}
		}
		return 0, nil
	case *cc.CastExpr:
		if x.To == cc.TInt && x.X.Type() == cc.TInt {
			return b.affineDegree(x.X)
		}
		if d, err := b.affineDegree(x.X); err != nil || d != 0 {
			return 0, errSpecIneligible
		}
		return 0, nil
	case *cc.CondExpr:
		return 0, errSpecIneligible
	}
	return 0, errSpecIneligible
}

// stmt walks one statement of the body in the interpreter's order,
// charging every cost to the bucket live where the interpreter incurs it
// (Base, or the current arm) and recording every access, arm and inner
// loop. The error names a construct no specialized form takes.
func (b *specBuilder) stmt(s cc.Stmt) error {
	switch st := s.(type) {
	case *cc.Block:
		if st.Data != nil {
			return errSpecIneligible
		}
		for _, c := range st.Stmts {
			if err := b.stmt(c); err != nil {
				return err
			}
		}
		return nil

	case *cc.DeclStmt:
		return nil // slots live in the environment

	case *cc.AssignStmt:
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			if lhs.Decl == b.loopVar {
				return errSpecIneligible
			}
			// A compound assignment is one more operation, four for a
			// float division.
			if st.Op == "/=" && lhs.Decl.Type != cc.TInt {
				b.cur.Flops += 4
			} else if st.Op != "=" {
				b.cur.Flops++
			}
			return b.rhs(st, lhs.Decl.Type)
		case *cc.IndexExpr:
			return b.arrayAssign(st, lhs)
		}
		return errSpecIneligible

	case *cc.IfStmt:
		return b.ifStmt(st)

	case *cc.ForStmt:
		if st.Parallel != nil {
			return errSpecLoop // nested parallel loops: interpreter only
		}
		return b.forStmt(st)

	case *cc.WhileStmt, *cc.BranchStmt:
		return errSpecLoop
	}
	// Update directives and other constructs: interpreter only.
	return errSpecIneligible
}

// newArm opens a cost bucket counted by its own DEnv.Branch entry.
func (b *specBuilder) newArm() *IterCost {
	c := &IterCost{Stores: make([]int64, b.spec.NumArrays)}
	b.arms = append(b.arms, c)
	return c
}

// forStmt records an inner sequential loop. The loop gets two cost
// buckets: one counted per condition evaluation (trips+1 — the
// condition's cost lives there) and one counted per completed iteration
// (trips — body and post cost live there). The init's cost belongs to
// the enclosing bucket, exactly mirroring the interpreter's
// per-execution accounting.
func (b *specBuilder) forStmt(st *cc.ForStmt) error {
	if st.Cond == nil {
		return errSpecLoop
	}
	accBeg := len(b.spec.Accesses)
	if st.Init != nil {
		if err := b.stmt(st.Init); err != nil {
			return err
		}
	}
	savedCur, savedLoop := b.cur, b.inLoop
	defer func() { b.cur, b.inLoop = savedCur, savedLoop }()
	b.inLoop = true
	b.cur = b.newArm()
	if _, err := b.cond(st.Cond); err != nil {
		return err
	}
	b.cur = b.newArm()
	if err := b.stmt(st.Body); err != nil {
		return err
	}
	if st.Post != nil {
		if err := b.stmt(st.Post); err != nil {
			return err
		}
	}
	if b.loops == nil {
		b.loops = map[*cc.ForStmt]loopRec{}
	}
	b.loops[st] = loopRec{accBeg: accBeg, accEnd: len(b.spec.Accesses), armEnd: len(b.arms)}
	return nil
}

// ifStmt records a simple branch. Each arm gets its own cost bucket; the
// condition's cost belongs to the enclosing bucket (it is evaluated
// unconditionally).
func (b *specBuilder) ifStmt(st *cc.IfStmt) error {
	if _, err := b.cond(st.Cond); err != nil {
		return err
	}
	savedCur, savedBranch := b.cur, b.inBranch
	defer func() { b.cur, b.inBranch = savedCur, savedBranch }()
	b.inBranch = true
	b.cur = b.newArm()
	if err := b.stmt(st.Then); err != nil || st.Else == nil {
		return err
	}
	b.cur = b.newArm()
	return b.stmt(st.Else)
}

// rhs records the right-hand side of an assignment to a target of type
// typ and checks its operator: one the interpreter has for that type.
func (b *specBuilder) rhs(st *cc.AssignStmt, typ cc.ElemType) error {
	var err error
	if typ == cc.TInt {
		_, err = b.exprI(st.RHS)
	} else {
		_, err = b.exprF(st.RHS)
	}
	if err != nil || st.Op == "=" || st.Reduce != nil {
		return err
	}
	if _, err = intApply(st.Op, st.Pos()); typ != cc.TInt {
		_, err = floatApply(st.Op, st.Pos())
	}
	if err != nil {
		return errSpecIneligible
	}
	return nil
}

// index compiles an access index. An affine one also compiles against
// the host Env for the launch-time endpoint checks; a non-affine
// (computed) one — indirect loads, inner-loop-variable subscripts,
// modular arithmetic — is bounded at launch by the interval prover. Only
// the direct form accrues cost (one evaluation per execution, like the
// interpreter).
func (b *specBuilder) index(idx cc.Expr) (ExprI, dExprI, bool, error) {
	affine := true
	if _, err := b.affineDegree(foldExpr(idx)); err != nil {
		// Reasoned rejections (?:, short-circuit, unknown builtins)
		// stay rejections; plain non-affinity demotes to computed.
		if err != errSpecIneligible {
			return nil, nil, false, err
		}
		affine = false
	}
	var hostIdx ExprI
	if affine && !b.noRecord {
		var err error
		if hostIdx, err = CompileExprI(idx); err != nil {
			return nil, nil, false, errSpecIneligible
		}
	}
	didx, err := b.exprI(idx)
	return hostIdx, didx, affine, err
}

// arrayAssign records a store or a reduction-lane update: its index, the
// access, then the value.
func (b *specBuilder) arrayAssign(st *cc.AssignStmt, lhs *cc.IndexExpr) error {
	decl := lhs.Array
	slot := decl.Slot
	hostIdx, _, affine, err := b.index(lhs.Index)
	if err != nil {
		return err
	}
	acc := SpecAccess{
		Slot: slot, Kind: AccessStore, InBranch: b.inBranch, InLoop: b.inLoop,
		Affine: affine, Index: hostIdx,
	}
	b.spec.WrittenSlots[slot] = true
	if st.Reduce != nil {
		// The interpreter charges one flop at the statement plus the view's
		// fixed reduce cost (one flop, 8 bytes each way, one ReduceOp).
		acc.Kind = AccessReduce
		b.cur.Flops += 2
		b.cur.ReduceOps++
		b.cur.BytesRead += 8
		b.cur.BytesWritten += 8
	} else {
		if !acc.Exact() {
			b.spec.InexactStores[slot] = true
		}
		size := decl.Type.Size()
		b.cur.Stores[slot]++
		b.cur.BytesWritten += size
		if st.Op != "=" {
			b.cur.Flops++
			b.cur.BytesRead += size
		}
	}
	b.spec.Accesses = append(b.spec.Accesses, acc)
	return b.rhs(st, decl.Type)
}

// exprI, exprF and cond mirror CompileExprI/CompileExprF/compileCond:
// same folding entry points, same coercions, no runtime counters.

func (b *specBuilder) exprI(e cc.Expr) (dExprI, error) {
	e = foldExpr(e)
	ci, cf, err := b.compile(e)
	if err != nil {
		return nil, err
	}
	if e.Type() == cc.TInt {
		return ci, nil
	}
	return func(env *DEnv) int64 { return int64(cf(env)) }, nil
}

func (b *specBuilder) exprF(e cc.Expr) (dExprF, error) {
	e = foldExpr(e)
	ci, cf, err := b.compile(e)
	if err != nil {
		return nil, err
	}
	if e.Type() == cc.TInt {
		return func(env *DEnv) float64 { return float64(ci(env)) }, nil
	}
	return cf, nil
}

func (b *specBuilder) cond(e cc.Expr) (func(*DEnv) bool, error) {
	if e.Type() == cc.TInt {
		op, err := b.exprI(e)
		if err != nil {
			return nil, err
		}
		return func(env *DEnv) bool { return op(env) != 0 }, nil
	}
	op, err := b.exprF(e)
	if err != nil {
		return nil, err
	}
	return func(env *DEnv) bool { return op(env) != 0 }, nil
}

func (b *specBuilder) compile(e cc.Expr) (dExprI, dExprF, error) {
	switch x := e.(type) {
	case *cc.NumLit:
		if x.IsFloat {
			v := x.F
			return nil, func(*DEnv) float64 { return v }, nil
		}
		v := x.I
		return func(*DEnv) int64 { return v }, nil, nil

	case *cc.Ident:
		slot := x.Decl.Slot
		if x.Type() == cc.TInt {
			return func(env *DEnv) int64 { return env.Ints[slot] }, nil, nil
		}
		return nil, func(env *DEnv) float64 { return env.Floats[slot] }, nil

	case *cc.IndexExpr:
		return b.load(x)

	case *cc.BinaryExpr:
		return b.binary(x)

	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			b.cur.Flops++
			if x.Type() == cc.TInt {
				op, err := b.exprI(x.X)
				if err != nil {
					return nil, nil, err
				}
				return func(env *DEnv) int64 { return -op(env) }, nil, nil
			}
			op, err := b.exprF(x.X)
			if err != nil {
				return nil, nil, err
			}
			return nil, func(env *DEnv) float64 { return -op(env) }, nil
		case "!":
			op, err := b.cond(x.X)
			if err != nil {
				return nil, nil, err
			}
			b.cur.Flops++
			return func(env *DEnv) int64 {
				if op(env) {
					return 0
				}
				return 1
			}, nil, nil
		case "~":
			op, err := b.exprI(x.X)
			if err != nil {
				return nil, nil, err
			}
			b.cur.Flops++
			return func(env *DEnv) int64 { return ^op(env) }, nil, nil
		}
		return nil, nil, errSpecIneligible

	case *cc.CondExpr:
		// The arms' costs are data-dependent: interpreter only.
		return nil, nil, errSpecBranch

	case *cc.CallExpr:
		return b.call(x)

	case *cc.CastExpr:
		if x.To == cc.TInt {
			if x.X.Type() == cc.TInt {
				return b.compile(x.X)
			}
			op, err := b.exprF(x.X)
			if err != nil {
				return nil, nil, err
			}
			return func(env *DEnv) int64 { return int64(op(env)) }, nil, nil
		}
		op, err := b.exprF(x.X)
		if err != nil {
			return nil, nil, err
		}
		if x.To == cc.TFloat {
			return nil, func(env *DEnv) float64 { return float64(float32(op(env))) }, nil
		}
		return nil, op, nil
	}
	return nil, nil, errSpecIneligible
}

// load compiles an array read as a direct slice access.
func (b *specBuilder) load(x *cc.IndexExpr) (dExprI, dExprF, error) {
	slot := x.Array.Slot
	hostIdx, didx, affine, err := b.index(x.Index)
	if err != nil {
		return nil, nil, err
	}
	if !b.noRecord {
		b.spec.Accesses = append(b.spec.Accesses, SpecAccess{
			Slot: slot, Kind: AccessLoad, InBranch: b.inBranch, InLoop: b.inLoop,
			Affine: affine, Index: hostIdx,
		})
		b.cur.BytesRead += x.Array.Type.Size()
	}
	switch x.Array.Type {
	case cc.TInt:
		return func(env *DEnv) int64 {
			a := &env.Arrays[slot]
			return int64(a.I32[a.off(didx(env)-a.Base)])
		}, nil, nil
	case cc.TFloat:
		return nil, func(env *DEnv) float64 {
			a := &env.Arrays[slot]
			return float64(a.F32[a.off(didx(env)-a.Base)])
		}, nil
	default:
		return nil, func(env *DEnv) float64 {
			a := &env.Arrays[slot]
			return a.F64[a.off(didx(env)-a.Base)]
		}, nil
	}
}

func (b *specBuilder) binary(x *cc.BinaryExpr) (dExprI, dExprF, error) {
	switch x.Op {
	case "&&", "||":
		// Short-circuiting makes the right operand's cost
		// data-dependent; the analytic formulas cannot express that.
		return nil, nil, errSpecBranch
	}

	switch x.Op {
	case "<", "<=", ">", ">=", "==", "!=":
		if x.X.Type() == cc.TInt && x.Y.Type() == cc.TInt {
			a, err := b.exprI(x.X)
			if err != nil {
				return nil, nil, err
			}
			c, err := b.exprI(x.Y)
			if err != nil {
				return nil, nil, err
			}
			b.cur.Flops++
			var fn dExprI
			switch x.Op {
			case "<":
				fn = func(e *DEnv) int64 { return b2i(a(e) < c(e)) }
			case "<=":
				fn = func(e *DEnv) int64 { return b2i(a(e) <= c(e)) }
			case ">":
				fn = func(e *DEnv) int64 { return b2i(a(e) > c(e)) }
			case ">=":
				fn = func(e *DEnv) int64 { return b2i(a(e) >= c(e)) }
			case "==":
				fn = func(e *DEnv) int64 { return b2i(a(e) == c(e)) }
			default:
				fn = func(e *DEnv) int64 { return b2i(a(e) != c(e)) }
			}
			return fn, nil, nil
		}
		a, err := b.exprF(x.X)
		if err != nil {
			return nil, nil, err
		}
		c, err := b.exprF(x.Y)
		if err != nil {
			return nil, nil, err
		}
		b.cur.Flops++
		var fn dExprI
		switch x.Op {
		case "<":
			fn = func(e *DEnv) int64 { return b2i(a(e) < c(e)) }
		case "<=":
			fn = func(e *DEnv) int64 { return b2i(a(e) <= c(e)) }
		case ">":
			fn = func(e *DEnv) int64 { return b2i(a(e) > c(e)) }
		case ">=":
			fn = func(e *DEnv) int64 { return b2i(a(e) >= c(e)) }
		case "==":
			fn = func(e *DEnv) int64 { return b2i(a(e) == c(e)) }
		default:
			fn = func(e *DEnv) int64 { return b2i(a(e) != c(e)) }
		}
		return fn, nil, nil
	}

	if x.Type() == cc.TInt {
		a, err := b.exprI(x.X)
		if err != nil {
			return nil, nil, err
		}
		c, err := b.exprI(x.Y)
		if err != nil {
			return nil, nil, err
		}
		b.cur.Flops++
		switch x.Op {
		case "+":
			return func(e *DEnv) int64 { return a(e) + c(e) }, nil, nil
		case "-":
			return func(e *DEnv) int64 { return a(e) - c(e) }, nil, nil
		case "*":
			return func(e *DEnv) int64 { return a(e) * c(e) }, nil, nil
		case "/":
			return func(e *DEnv) int64 { return a(e) / c(e) }, nil, nil
		case "%":
			return func(e *DEnv) int64 { return a(e) % c(e) }, nil, nil
		case "&":
			return func(e *DEnv) int64 { return a(e) & c(e) }, nil, nil
		case "|":
			return func(e *DEnv) int64 { return a(e) | c(e) }, nil, nil
		case "^":
			return func(e *DEnv) int64 { return a(e) ^ c(e) }, nil, nil
		case "<<":
			return func(e *DEnv) int64 { return a(e) << uint(c(e)) }, nil, nil
		case ">>":
			return func(e *DEnv) int64 { return a(e) >> uint(c(e)) }, nil, nil
		}
		return nil, nil, errSpecIneligible
	}

	a, err := b.exprF(x.X)
	if err != nil {
		return nil, nil, err
	}
	c, err := b.exprF(x.Y)
	if err != nil {
		return nil, nil, err
	}
	switch x.Op {
	case "+":
		b.cur.Flops++
		return nil, func(e *DEnv) float64 { return a(e) + c(e) }, nil
	case "-":
		b.cur.Flops++
		return nil, func(e *DEnv) float64 { return a(e) - c(e) }, nil
	case "*":
		b.cur.Flops++
		return nil, func(e *DEnv) float64 { return a(e) * c(e) }, nil
	case "/":
		b.cur.Flops += 4
		return nil, func(e *DEnv) float64 { return a(e) / c(e) }, nil
	}
	return nil, nil, errSpecIneligible
}

func (b *specBuilder) call(x *cc.CallExpr) (dExprI, dExprF, error) {
	bi, ok := cc.Builtins[x.Name]
	if !ok {
		return nil, nil, errSpecIntrinsic
	}
	b.cur.Flops += bi.Flops
	if x.Type() == cc.TInt {
		args := make([]dExprI, len(x.Args))
		for i, a := range x.Args {
			c, err := b.exprI(a)
			if err != nil {
				return nil, nil, err
			}
			args[i] = c
		}
		switch x.Name {
		case "min":
			a0, a1 := args[0], args[1]
			return func(e *DEnv) int64 { return min(a0(e), a1(e)) }, nil, nil
		case "max":
			a0, a1 := args[0], args[1]
			return func(e *DEnv) int64 { return max(a0(e), a1(e)) }, nil, nil
		case "abs":
			a0 := args[0]
			return func(e *DEnv) int64 {
				v := a0(e)
				if v < 0 {
					return -v
				}
				return v
			}, nil, nil
		}
		return nil, nil, errSpecIntrinsic
	}
	args := make([]dExprF, len(x.Args))
	for i, a := range x.Args {
		c, err := b.exprF(a)
		if err != nil {
			return nil, nil, err
		}
		args[i] = c
	}
	fn1, fn2, ok := floatBuiltin(x.Name)
	if !ok {
		return nil, nil, errSpecIntrinsic
	}
	if fn1 != nil {
		a0 := args[0]
		return nil, func(e *DEnv) float64 { return fn1(a0(e)) }, nil
	}
	a0, a1 := args[0], args[1]
	return nil, func(e *DEnv) float64 { return fn2(a0(e), a1(e)) }, nil
}

// floatBuiltin maps a float builtin name to its math implementation
// (one- or two-argument); both spec compilation paths share it so they
// call bit-identical functions.
func floatBuiltin(name string) (fn1 func(float64) float64, fn2 func(float64, float64) float64, ok bool) {
	switch name {
	case "sqrt", "sqrtf":
		fn1 = math.Sqrt
	case "fabs", "fabsf", "abs":
		fn1 = math.Abs
	case "exp", "expf":
		fn1 = math.Exp
	case "log", "logf":
		fn1 = math.Log
	case "floor":
		fn1 = math.Floor
	case "ceil":
		fn1 = math.Ceil
	case "pow", "powf":
		fn2 = math.Pow
	case "min":
		fn2 = math.Min
	case "max":
		fn2 = math.Max
	default:
		return nil, nil, false
	}
	return fn1, fn2, true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
