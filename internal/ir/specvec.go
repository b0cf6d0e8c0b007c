package ir

import (
	"math/bits"
	"slices"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
)

// Vectorized (tiled) execution of specialized kernel bodies.
//
// A closure tree walked once per iteration pays roughly one indirect
// call per expression node per iteration, which capped the fast path at
// about 2x over the interpreter. The builder below is a pass over the
// lowered body (spec.go) that takes every access and arm number from the
// node it compiles, and compiles the body
// into the one form the specialized executor runs: a tile of up to
// VecTile consecutive iterations in lockstep, the way the warp of the GPU
// the paper targets would, each expression node one tight loop over the
// tile's lanes. It covers straight-line statements, data-dependent
// if-arms, gathers, layout-transformed copies and inner loops, each loop
// on the schedule its shape allows (check): in lockstep when its trips
// are uniform across the tile, as flat tiles when they are not or when it
// holds ordered effects (specflat.go). A body it does not take has no
// specialized form: the kernel runs on the interpreter.
//
//   - A scalar the body assigns with "=" is private: one value per
//     lane, kept in a scratch vector. An inner loop's induction
//     variable is uniform: one value for the whole tile, kept in the
//     worker's DEnv, so every subtree over uniform scalars, loop
//     invariants and loads of arrays the kernel never writes is
//     evaluated once per tile step: the builder's ops come back uniform
//     (vOp.inv) whenever all their operands are. A scalar
//     nothing reads with one assignment site — an op-assignment, or any
//     assignment of a reduction scalar — is a fold: updated in the DEnv
//     over the lanes in ascending order.
//   - Under an if-arm only the lanes that took the arm (VecEnv.act)
//     execute what can fault or has an effect: loads, stores, integer
//     division, folds, reduction-lane updates and writes to private
//     vectors. Total operations (float arithmetic, integer + - *) run
//     dense over the tile; what they compute in inactive lanes is never
//     read. A comparison runs over the active lanes only: the pass that
//     compares splits them. Arm counters advance by the active-lane
//     count, loop buckets by trips × active lanes.
//   - An access whose index is affine across the lanes (a*i + b with
//     uniform a and b) is a strided walk; on a column-major copy whose
//     row width divides a it is the walk (b mod width)*rows + i*a/width,
//     unit stride for the row-per-iteration pattern the transform
//     exists for. Any other index is evaluated per lane.
//   - A uniform loop whose only ordered effects are reduction-lane
//     updates at indices injective in its variable stays in lockstep
//     (injective, forStmt: KMEANS). A counted loop that holds a plain
//     array store, a fold or any other reduction-lane update, or whose
//     trips differ from lane to lane, runs as flat tiles: its (lane,
//     trip) pairs in lane-major order, the body in lockstep over them,
//     cut at the first hazard (SPMV: `acc = 0.0` and `y[i] = acc` in
//     lockstep around the CSR loop; BFS; a body that is nothing but
//     such a loop, HOTSPOT2D). A loop neither takes (flatOK) leaves the
//     kernel on the interpreter.
//
// Six exact rewrites (DESIGN §9) pay once what the body would pay per
// trip, per statement or per pass: (1) held loads (hold); (2) an if splits
// its lanes in the pass that compares; (5) a read-only walk is read from
// the copy in the pass that uses it (walkOf, direct); (6) a dense store is
// written in mulAdd's pass (mulAddStore); (7) a split whose lanes agree
// keeps its list (splitLanes); (10) KMEANS's x = a - k; y += x*x is one
// pass (distance).
//
// Bit-exactness contract: every float64 operation happens in the same
// order with the same operands as the interpreter would have performed
// it for each element, with float32 rounding applied at exactly the same
// points. What makes the tile schedule element-equivalent to the
// iteration-by-iteration one:
//
//   - Every read of a private scalar is dominated by an "=" in an
//     enclosing block, every read of an inner induction variable lies in
//     its loop, so no value carries from one iteration to the next;
//     within one, each lane performs its operations in program order.
//   - A fold or reduction target has one update site, and the lanes
//     reach it in ascending order; inside a uniform loop, an element of
//     a reduction target is updated by the lanes in ascending order on
//     one trip, or by one lane (forStmt's per-tile check).
//   - A store the tile executes in lockstep is affine in the induction
//     variable, outside inner loops, and never to an array the body also
//     gathers from. Against the other affine accesses of the same array
//     the runtime proves, per launch, that they hit the same element
//     every iteration or disjoint element sets (internal/rt); when that
//     fails the chunk runs on the interpreter.
//   - An array stored inside a flat loop is accessed nowhere outside
//     that loop, with one exception: the BFS idiom, a prefix that loads
//     cost[i] over a loop that stores cost[w]. Evaluating a tile's prefix
//     before its loops is exact unless a store lands on an element the
//     prefix has already loaded for a later lane. scan admits it when the
//     kernel's workers run in order (Kernel.SerialWorkers), the loop is
//     the last thing on its path, and everything before it is free of
//     effects, faults and foreign arm counts (tailPath). Each tile then
//     sets the window of physical offsets its prefix loads
//     (DArray.watch); every such store passes DArray.mark, which raises
//     Hit inside the window; the storing lane finishes its loop, the
//     enclosing arms take back what they had counted for the lanes after
//     it (VecEnv.cut), and the tile ends there: the next one starts at
//     the lane after the storing one and evaluates the prefix afresh.
//
// The builder is written once over the lane type S (Num: int64 for every
// int expression, float64 for every float one) and, where it touches a
// copy, the element type T (elem); the operators only one of them has —
// the int bit operators, %, shifts, ~ and the fault of a division under
// an arm, the float fused products, (float) rounding and math calls —
// and the read of a uniform scalar, run on an inner loop's every trip,
// are the only typed code. Every lane loop is a loop over one concrete
// type, its operator picked by a switch outside it.
//
// Fused multiply-add shapes (k*x ± y in one pass) keep an explicit
// float64(...) conversion around the product: the Go spec lets an
// implementation fuse floating-point operations across statements
// unless an explicit conversion demands the intermediate rounding, and
// the interpreter rounds every operation individually.

// VecTile is the tile width: one VStmt call covers up to this many
// consecutive iterations. Scratch vectors are cache-resident at this
// size (4 KiB per buffer).
const VecTile = 512

// holdTrips caps the trips a group of held loads keeps, maxHeld a body's groups.
const holdTrips, maxHeld = 64, 4

// heldState is a group of held loads in a tile: u at its first load, trips held.
type heldState struct{ x0, n int64 }

// Scratch vectors are numbered by a stack, one per lane type: a
// node's operands push theirs, and the node pops them all before
// pushing its own result, so a body needs as many vectors as its
// deepest expression keeps live, not one per node. The result may
// take an operand's number: every tile op is elementwise, reading
// lane t of its operands before it writes lane t of its result.
// Vectors of private scalars outlive their statement; they are
// numbered first, below the per-statement stack.

// VecEnv is one running worker's tile scratch: the per-launch access
// coefficients, the per-node scratch vectors and the active-lane lists.
type VecEnv struct {
	// D is the worker's direct environment (scalars, arrays, lanes, arm
	// counters). The runtime sets it when it hands the scratch to a
	// worker.
	D *DEnv
	// AccA/AccB give each affine access's index over the current piece
	// (Accesses order): index(i) = AccA*i + AccB. Written by the
	// runtime before the launch, read-only during it.
	AccA, AccB []int64
	// BufI/BufF are the scratch vectors, tile elements each (Reserve).
	BufI [][]int64
	BufF [][]float64
	// act lists the lanes executing the current statement, ascending:
	// every lane of the tile at top level (mask[0] is 0, 1, 2, ...), the
	// lanes that took the arm inside an if. mask[1+2d] and mask[2+2d]
	// hold the then- and else-lists of the arm open at depth d.
	act  []int32
	mask [][]int32
	tile int
	// cut, when nonzero, says a store hit a watched window (DArray.Hit)
	// in the current tile: only its first cut lanes ran, the rest go to
	// the next tile.
	cut int
	// held is each group of held loads in the running tile, heldI/heldF their slabs.
	held  []heldState
	heldI [][]int64
	heldF [][]float64
	// flat is the scratch the tile's flat tiles run on (specflat.go), nil
	// for a spec without a flat loop. In it, outer is the tile's own
	// scratch, seg maps a flat lane to its outer lane and sites hold what
	// the flat body's effect sites recorded.
	flat, outer *VecEnv
	seg         []int32
	sites       []flatSite
}

// VStmt executes one statement for a tile: iterations i0 .. i0+L-1,
// L ≤ VecTile.
type VStmt func(vm *VecEnv, i0 int64, L int)

// NewVecEnv allocates tile scratch for the spec; Reserve sizes it.
func (s *KernelSpec) NewVecEnv() *VecEnv {
	vm := &VecEnv{BufI: make([][]int64, s.NumBufI), BufF: make([][]float64, s.NumBufF), mask: make([][]int32, s.NumMask),
		heldI: make([][]int64, s.HeldI), heldF: make([][]float64, s.HeldF), held: make([]heldState, s.HeldI+s.HeldF)}
	if s.FlatMask > 0 {
		vm.flat = &VecEnv{
			BufI: make([][]int64, s.FlatBufI), BufF: make([][]float64, s.FlatBufF), mask: make([][]int32, s.FlatMask),
			outer: vm, sites: make([]flatSite, s.FlatSites),
		}
	}
	return vm
}

// Reserve sizes the scratch for tiles of up to n iterations (at most
// VecTile). The runtime passes the longest run one worker executes in a
// launch, so short chunks do not pay for full tiles.
func (vm *VecEnv) Reserve(n int) {
	n = min(n, VecTile)
	if n <= vm.tile {
		return
	}
	carve(vm.BufI, n)
	carve(vm.BufF, n)
	carve(vm.mask, n)
	carve(vm.heldI, holdTrips*n)
	carve(vm.heldF, holdTrips*n)
	if len(vm.mask) > 0 {
		for t := range vm.mask[0] {
			vm.mask[0][t] = int32(t)
		}
	}
	vm.tile = n
}

// carve cuts one allocation into the vectors of bufs, n elements each.
func carve[E any](bufs [][]E, n int) {
	b := make([]E, n*len(bufs))
	for i := range bufs {
		bufs[i] = b[i*n : (i+1)*n : (i+1)*n]
	}
}

// vec fills and returns a scratch vector: one value per lane of the tile.
type vec[S Num] func(vm *VecEnv, i0 int64, L int) []S

// vOp is a compiled expression with lanes of type S: either uniform (inv
// set, evaluated once per tile step against the worker scalars) or
// varying (vec set). A float product with a uniform factor also exposes
// the factor and the vector (kMul, mulX), so an enclosing add or subtract
// can form the product in its own pass. w names the read-only walk the
// vector loads (a product's: mulX), which mulAdd and a copy read straight
// from the array (rewrite 5). ma is set on mulAdd's result: its pass as
// data, which a dense store runs into the array (rewrite 6).
type vOp[S Num] struct {
	inv, kMul dExpr[S]
	vec, mulX vec[S]
	w         walkOf
	ma        *mulAddOp
}

// walkOf is an unmasked straight-line walk, loaded into no private: the
// array, its access number, whose coefficients the runtime supplies, and
// whether the kernel writes the array (rw: only a comparison reads such a
// walk from the copy). arr is nil for any other vector.
type walkOf struct {
	arr  *cc.VarDecl
	site int
	rw   bool
}

// elem is the element type w reads; for no walk, a float64 vector's: double.
func (w walkOf) elem() cc.ElemType {
	if w.arr == nil {
		return cc.TDouble
	}
	return w.arr.Type
}

// loads is the read-only walk o's vec loads: none for a product, whose w
// is mulX's.
func (o vOp[S]) loads() walkOf {
	if o.kMul != nil || o.w.rw {
		return walkOf{}
	}
	return o.w
}

// scalarKind says how the tile schedule holds a body-assigned scalar.
type scalarKind uint8

const (
	kPrivate scalarKind = iota + 1 // one value per lane, in a scratch vector
	kUniform                       // an inner induction variable, in DEnv.Ints
	kFold                          // a kernel reduction, folded into the DEnv
)

// scalarInfo is what the tile builder knows about one scalar the body
// assigns.
type scalarInfo struct {
	kind scalarKind
	// Scan state: an "=" dominates the current point; how many of the
	// loops it is the induction variable of are open there.
	defined bool
	open    int
	// buf is a private scalar's vector number plus one (0: none yet).
	buf int
}

// vecBuilder compiles the tiled body: a pass over the lowered body that
// takes every access and arm number from the node it compiles.
type vecBuilder struct {
	*lowered
	scalars map[*cc.VarDecl]scalarInfo
	// lanes holds the scalars with a value per lane (private and fold
	// ones): a subtree that reads none of them, nor the induction
	// variable, nor an array the kernel writes, is uniform.
	lanes, folds uint64
	// flatLoops holds the loops that run as flat tiles, each with the
	// private scalars defined around it (both maps nil until their first).
	flatLoops map[*kStmt][]*cc.VarDecl
	// injLoops holds the uniform loops that update reduction lanes in
	// lockstep (injective), with the same scalars; inj collects, while one
	// compiles, the indices forStmt checks before the first trip.
	injLoops map[*kStmt][]*cc.VarDecl
	inj      *injLoop
	// loops holds the lockstep loops open here; held each group of held loads'
	// first load, slab its number in its lane type, nHeld their counts.
	loops []*kStmt
	held  []*kExpr
	slab  []int
	nHeld [2]int
	// flat is set while the body of a flat loop compiles (specflat.go);
	// alt while an injective loop's flat form compiles, the second form of
	// the same accesses.
	flat *flatLoop
	alt  bool
	// ivScalar compiles the induction variable as one scalar, its DEnv
	// slot: the two evaluations per tile step of an index walk.
	ivScalar bool
	// windows lists the prefix loads (spec.Accesses indices) of arrays
	// a flat loop stores to: what each tile watches.
	windows []int
	// masked is set while compiling inside an if-arm; depth counts the
	// arms open there. usesAct records that some op walks VecEnv.act.
	masked         bool
	depth, maxArms int
	usesAct        bool
	// top holds the scratch stacks' heights, int64 then float64, base the
	// part held by private vectors, nBuf the high-water marks.
	top, base, nBuf [2]int
	// undo logs the scalars scan defined since a block was entered;
	// inFlat is set while check is inside a flat loop.
	undo   []*cc.VarDecl
	inFlat bool
	// next is the statement after the assignment being compiled in its
	// block; skip says that assignment compiled it too (sumSq).
	next *kStmt
	skip bool
}

// buildVec compiles the tiled body of a lowered body, or returns why the
// shape has none ("order" or "shape").
func buildVec(l *lowered) string {
	spec := l.spec
	v := &vecBuilder{
		lowered: l,
		scalars: make(map[*cc.VarDecl]scalarInfo, len(l.decls)),
	}
	if reason := v.scan(); reason != "" {
		return reason
	}
	st, err := v.stmt(l.body)
	if err != nil {
		return "shape"
	}
	if st == nil {
		st = func(*VecEnv, int64, int) {} // empty body (an if without else, split)
	}
	spec.NumBufI, spec.NumBufF = v.nBuf[0], v.nBuf[1]
	spec.HeldI, spec.HeldF = v.nHeld[0], v.nHeld[1]
	if v.usesAct {
		spec.NumMask = 1 + 2*v.maxArms
	}
	usesAct, wins, acc := v.usesAct, v.windows, spec.Accesses
	spec.VecBody = func(vm *VecEnv, i0 int64, L int) int {
		if usesAct {
			vm.act = vm.mask[0][:L]
		}
		clear(vm.held)
		if len(wins) == 0 {
			st(vm, i0, L)
			return L
		}
		// Watch what this tile's prefix loads of the arrays its flat loop
		// stores to: each load's walk over the tile, as physical offsets (a
		// written array is never layout-transformed).
		vm.cut = 0
		for _, ai := range wins {
			a := &vm.D.Arrays[acc[ai].Slot]
			a.WinLen, a.Hit = 0, false
		}
		for _, ai := range wins {
			a := &vm.D.Arrays[acc[ai].Slot]
			p := vm.AccA[ai]*i0 + vm.AccB[ai] - a.Base
			q := p + vm.AccA[ai]*int64(L-1)
			a.watch(min(p, q), max(p, q))
		}
		if st(vm, i0, L); vm.cut > 0 {
			return vm.cut
		}
		return L
	}
	return ""
}

// take is how the tile builder reads the number of the access it compiles.
func (v *vecBuilder) take(k *kExpr, kind AccessKind) int {
	v.counts.read(v.lowered, readTile+int(b2i(v.alt)), k, kind)
	return k.site()
}

// takeArm reads the number of an arm whose count an op advances.
func (v *vecBuilder) takeArm(n int32) int {
	v.counts.arm(v.lowered, readTile+int(b2i(v.alt)), int(n))
	return int(n)
}

// uniform reports a subtree with one value for every lane of a tile
// step: no outer induction variable, no private or fold scalar, and
// loads only of arrays the kernel never writes (other iterations of
// this very kernel may store to a written one, and the interpreter
// re-reads it every iteration). In a flat body the loop's own variable
// varies too.
func (v *vecBuilder) uniform(k *kExpr) bool {
	lanes := v.lanes
	if v.flat != nil {
		lanes |= v.mask(v.flat.lv)
	}
	return !k.iv && !k.written && k.reads&lanes == 0
}

// scan decides whether the tile schedule — statements in lockstep, the
// loops it cannot reorder as flat tiles — reproduces the
// iteration-by-iteration one, and classifies the body-assigned scalars
// for it. It returns "" or the reason the kernel has no tiled form:
// "order" when a fold or reduction target would see its updates out of
// iteration order, "shape" for everything else.
func (v *vecBuilder) scan() string {
	acc := v.spec.Accesses
	for i := range acc {
		for j := range acc[:i] {
			if acc[i].Kind == AccessReduce && acc[j].Kind == AccessReduce && acc[i].Slot == acc[j].Slot {
				return "order" // one update site per reduction target
			}
		}
	}

	// Assignment sites: an inner induction variable is written by
	// canonical loop headers only, a private scalar has an "=", a fold
	// is the one assignment of a scalar nothing reads — an op-assignment,
	// or any assignment of a reduction scalar, whose last value the
	// launch merges.
	for b, d := range v.decls {
		var u scalarInfo
		switch use := v.uses[b]; {
		case use.loopVar && use.eq+use.op == 0:
			u.kind = kUniform
		case use.loopVar:
			return "shape"
		case use.eq > 0 && v.reds&(1<<b) == 0:
			u.kind = kPrivate
		case use.read:
			return "shape"
		case use.eq+use.op > 1:
			return "order"
		default:
			u.kind = kFold
		}
		if u.kind != kUniform {
			v.lanes |= 1 << b
		}
		if u.kind == kFold {
			v.folds |= 1 << b
		}
		v.scalars[d] = u
	}
	if !v.check(v.body) {
		return "shape"
	}

	// Ordered effects, from the access table. A store the tile executes
	// in lockstep is affine in the induction variable and outside loops,
	// and nothing gathers from its array, in lockstep or in a flat loop
	// (its affine accesses face the launch's alias check). An array stored
	// inside a flat loop is accessed nowhere else — but for affine loads in
	// the effect-free prefix of a serial kernel that ends in that loop,
	// which each tile watches (see flatLoop).
	for i := range acc {
		a := &acc[i]
		if a.Kind != AccessStore {
			continue
		}
		if a.FlatLoop == 0 && (!a.Affine || a.InLoop) {
			return "shape"
		}
		for j := range acc {
			b := &acc[j]
			if b.Slot != a.Slot || a.FlatLoop != 0 && b.FlatLoop == a.FlatLoop {
				continue
			}
			if a.FlatLoop == 0 {
				if b.Kind == AccessLoad && !b.Affine {
					return "shape"
				}
				continue
			}
			if !v.serial || b.Kind != AccessLoad || !b.Affine || !v.tailPath(v.body, i) {
				return "shape"
			}
			if !slices.Contains(v.windows, j) {
				v.windows = append(v.windows, j)
			}
		}
	}
	return ""
}

// tailPath reports that the loop holding access ai is the last thing the
// body executes on its path and that nothing before it has an effect,
// can fault or counts an arm the path does not lie in: every block on
// the way holds declarations and assignments to private scalars, then
// the loop or an else-less if that ends in it. After a window hit the
// rest of such a tile can go to the next tile, only the enclosing arms'
// counts to take back — the prefix ran for lanes that, in iteration
// order, might never have reached it.
func (v *vecBuilder) tailPath(k *kStmt, ai int) bool {
	switch st := k.s.(type) {
	case *cc.Block:
		for i, c := range k.kids {
			if i == len(k.kids)-1 {
				return v.tailPath(c, ai)
			}
			if as, ok := c.s.(*cc.AssignStmt); ok {
				id, ok := as.LHS.(*cc.Ident)
				if !ok || v.scalars[id.Decl].kind != kPrivate || c.y.divides || id.Decl.Type == cc.TInt && (as.Op == "/=" || as.Op == "%=") {
					return false
				}
			} else if _, ok := c.s.(*cc.DeclStmt); !ok {
				return false
			}
		}
	case *cc.IfStmt:
		return st.Else == nil && !k.x.divides && v.tailPath(k.kids[0], ai)
	case *cc.ForStmt:
		return int(k.lo) <= ai && ai < int(k.hi)
	}
	return false
}

// define records that an "=" to d dominates what follows in the block,
// giving a private scalar its vector at its first one.
func (v *vecBuilder) define(d *cc.VarDecl) {
	u := v.scalars[d]
	if u.defined {
		return
	}
	u.defined = true
	v.undo = append(v.undo, d)
	if u.buf == 0 && d.Type == cc.TInt {
		u.buf = push[int64](v) + 1
	} else if u.buf == 0 {
		u.buf = push[float64](v) + 1
	}
	v.base, v.scalars[d] = v.top, u
}

// leave forgets the definitions made since the undo log stood at mark:
// an "=" inside an arm or a loop body does not dominate what follows it.
func (v *vecBuilder) leave(mark int) {
	for _, d := range v.undo[mark:] {
		u := v.scalars[d]
		u.defined = false
		v.scalars[d] = u
	}
	v.undo = v.undo[:mark]
}

// readsOK checks every scalar read in k: a private one behind an "="
// that dominates it (no carry from the previous iteration), an inner
// induction variable inside its loop — in lockstep and in a flat loop
// alike: outside the loop, the tile's one slot for it holds what the
// last trip left, not this lane's value.
func (v *vecBuilder) readsOK(k *kExpr) bool {
	for m := k.reads; m != 0; m &= m - 1 {
		switch u := v.scalars[v.decls[bits.TrailingZeros64(m)]]; u.kind {
		case kPrivate:
			if !u.defined {
				return false
			}
		case kUniform:
			if u.open == 0 {
				return false
			}
		case kFold:
			return false
		}
	}
	return true
}

// effects reports a plain array store, a fold and a reduction-lane
// update under k: what must happen in iteration order.
func (v *vecBuilder) effects(k *kStmt) (store, fold, reduce bool) {
	return k.store, k.sets&v.folds != 0, k.reduce
}

// check walks the body in program order with the dominance state.
func (v *vecBuilder) check(k *kStmt) bool {
	switch st := k.s.(type) {
	case *cc.Block:
		for _, c := range k.kids {
			if !v.check(c) {
				return false
			}
		}
		return true
	case *cc.DeclStmt:
		return true
	case *cc.AssignStmt:
		if !v.readsOK(k.y) {
			return false
		}
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			if u := v.scalars[lhs.Decl]; u.kind == kPrivate && st.Op == "=" {
				v.define(lhs.Decl)
			} else if u.kind == kPrivate {
				return u.defined
			}
			return true // an "=", a fold, or a counted loop's header
		case *cc.IndexExpr:
			return v.readsOK(k.x.x)
		}
		return false
	case *cc.IfStmt:
		if !v.readsOK(k.x) {
			return false
		}
		mark := len(v.undo)
		ok := v.check(k.kids[0])
		v.leave(mark)
		if ok && k.kids[1] != nil {
			ok = v.check(k.kids[1])
			v.leave(mark)
		}
		return ok
	case *cc.ForStmt:
		if v.inFlat {
			return false // a loop in a flat loop: flatOK takes none
		}
		store, fold, reduce := v.effects(k)
		if reduce && !store && !fold && v.uniformLoop(k) && v.injective(k) {
			// Reduction-lane updates only, each at an index injective in
			// the loop variable: lockstep like any uniform loop (the
			// privates around it noted for the flat fallback, see forStmt).
			if v.injLoops == nil {
				v.injLoops = map[*kStmt][]*cc.VarDecl{}
			}
			v.injLoops[k] = slices.Clone(v.undo)
			return v.checkLoop(k)
		}
		if store || fold || reduce || !v.uniformLoop(k) {
			// A loop with an ordered effect, or whose trips differ from lane
			// to lane, runs as flat tiles: number its accesses, and note the
			// private scalars defined around it.
			for ai := k.lo; ai < k.hi; ai++ {
				v.spec.Accesses[ai].FlatLoop = len(v.flatLoops) + 1
			}
			v.inFlat = true
			ok := v.checkLoop(k)
			v.inFlat = false
			if v.flatLoops == nil {
				v.flatLoops = map[*kStmt][]*cc.VarDecl{}
			}
			v.flatLoops[k] = slices.Clone(v.undo)
			return ok
		}
		return v.checkLoop(k)
	}
	return false
}

// injective reports that every reduction-lane update under the uniform
// loop k sits outside deeper loops and has an index c*lv + rest in the
// loop variable lv with (a) c a nonzero literal, (b) rest free of lv and
// (c) rest reading nothing the loop changes: no scalar it assigns, no
// array the kernel writes. One lane's trips then update distinct
// elements, so an element sees at most one update per iteration. What
// keeps an element's updates in lane order across trips is checked per
// tile (forStmt); for that check the index of a float target can be
// evaluated before the first trip: it does not divide and, under an arm
// of the loop, it does not load.
func (v *vecBuilder) injective(k *kStmt) bool {
	lv, changed := v.mask(k.lv), k.kids[1].sets
	var walk func(s *kStmt, arm bool) bool
	walk = func(s *kStmt, arm bool) bool {
		switch x := s.s.(type) {
		case *cc.Block:
			for _, c := range s.kids {
				if !walk(c, arm) {
					return false
				}
			}
		case *cc.IfStmt:
			return walk(s.kids[0], true) && (s.kids[1] == nil || walk(s.kids[1], true))
		case *cc.ForStmt:
			store, fold, reduce := v.effects(s)
			return !store && !fold && !reduce
		case *cc.AssignStmt:
			if x.Reduce == nil || s.x == nil {
				break
			}
			idx, float := s.x.x, s.x.e.(*cc.IndexExpr).Array.Type != cc.TInt
			c, ok := lvCoef(idx, lv)
			return ok && c != 0 && c > -1<<31 && c < 1<<31 && idx.reads&changed == 0 && !idx.written &&
				!(float && (idx.divides || arm && idx.hi > idx.lo))
		}
		return true
	}
	return walk(k.kids[1], false)
}

// lvCoef returns c when k is c*lv + rest with a literal c and a rest
// that does not read lv (a body-assigned scalar: lv is its bit).
func lvCoef(k *kExpr, lv uint64) (c int64, ok bool) {
	switch x := k.e.(type) {
	case *cc.Ident:
		return b2i(k.reads&lv != 0), true
	case *cc.UnaryExpr:
		if c, ok := lvCoef(k.x, lv); ok && x.Op == "-" {
			return -c, true
		}
	case *cc.BinaryExpr:
		cx, okx := lvCoef(k.x, lv)
		cy, oky := lvCoef(k.y, lv)
		kx, litX := x.X.(*cc.NumLit)
		ky, litY := x.Y.(*cc.NumLit)
		switch {
		case !okx || !oky || x.Type() != cc.TInt:
		case x.Op == "+":
			return cx + cy, true
		case x.Op == "-":
			return cx - cy, true
		case x.Op == "*" && litX && !kx.IsFloat:
			return kx.I * cy, true
		case x.Op == "*" && litY && !ky.IsFloat:
			return cx * ky.I, true
		}
	}
	return 0, k.reads&lv == 0
}

// uniformLoop reports the canonical counted shape with a uniform init
// and a uniform bound its body cannot change: every lane of a tile runs
// the same trips.
func (v *vecBuilder) uniformLoop(k *kStmt) bool {
	if k.lv == nil || v.scalars[k.lv].kind != kUniform {
		return false
	}
	bound, _ := k.bound()
	lvBit := v.mask(k.lv)
	// The bound reads lv, or the body writes it.
	return v.uniform(k.kids[0].y) && v.uniform(bound) && bound.reads&lvBit == 0 && k.kids[1].sets&lvBit == 0
}

// checkLoop checks an inner loop: a uniform one (uniformLoop), or one
// that runs as flat tiles. An induction variable (every header that sets
// one is a counted one) is readable from its loop's condition to its post
// statement.
func (v *vecBuilder) checkLoop(k *kStmt) bool {
	if k.kids[0] != nil && !v.check(k.kids[0]) {
		return false
	}
	open := func(by int) {
		if u := v.scalars[k.lv]; k.lv != nil && u.kind == kUniform {
			u.open += by
			v.scalars[k.lv] = u
		}
	}
	open(1)
	mark := len(v.undo)
	ok := v.readsOK(k.x) && v.check(k.kids[1]) && (k.kids[2] == nil || v.check(k.kids[2]))
	v.leave(mark)
	open(-1)
	return ok
}

// isF reports the float lane type: a constant in each instantiation, so
// the branches on it cost nothing at run time.
func isF[S Num]() bool { return S(1)/2 != 0 }

// pick returns f when S is float64, else i: two pointers to the float and
// the int half of a structure, through which the tiles reach S's half
// without boxing a slice.
func pick[S Num, E any](i, f any) *E {
	if isF[S]() {
		return f.(*E)
	}
	return i.(*E)
}

// as gives x as R, the same type written for one lane type: the bridge
// from generic code to what only one lane type has.
func as[R, X any](x X) R { return any(x).(R) }

// bufs, heldOf, slots and laneOf pick S's scratch vectors, held loads'
// slabs, scalars and reduction lane; elems picks T's backing slice.
func bufs[S Num](vm *VecEnv) [][]S   { return *pick[S, [][]S](&vm.BufI, &vm.BufF) }
func heldOf[S Num](vm *VecEnv) [][]S { return *pick[S, [][]S](&vm.heldI, &vm.heldF) }
func slots[S Num](D *DEnv) []S       { return *pick[S, []S](&D.Ints, &D.Floats) }
func laneOf[S Num](a *DArray) []S    { return *pick[S, []S](&a.LaneI, &a.LaneF) }

func elems[T elem](a *DArray) []T {
	if T(1)/2 == 0 {
		return *any(&a.I32).(*[]T)
	}
	if p, ok := any(&a.F32).(*[]T); ok {
		return *p
	}
	return *any(&a.F64).(*[]T)
}

// push takes the next vector of S's stack.
func push[S Num](v *vecBuilder) int {
	i := int(b2i(isF[S]()))
	v.top[i]++
	v.nBuf[i] = max(v.nBuf[i], v.top[i])
	return v.top[i] - 1
}

// result pops everything pushed since m, the stacks' height at a node's
// entry (its operands), and pushes the node's result.
func result[S Num](v *vecBuilder, m [2]int) int {
	v.top = m
	return push[S](v)
}

// mat materializes an operand into a vector, broadcasting a uniform value
// through a dedicated buffer.
func mat[S Num](v *vecBuilder, o vOp[S]) vec[S] {
	if o.vec != nil {
		return o.vec
	}
	bid, inv := push[S](v), o.inv
	return func(vm *VecEnv, i0 int64, L int) []S {
		k, out := inv(vm.D), bufs[S](vm)[bid][:L]
		for t := range out {
			out[t] = k
		}
		return out
	}
}

func (v *vecBuilder) stmt(k *kStmt) (VStmt, error) {
	v.top = v.base // the previous statement's vectors are dead
	next := v.next
	v.next = nil
	switch st := k.s.(type) {
	case *cc.Block:
		var seq []VStmt
		for i := 0; i < len(k.kids); i++ {
			if v.next = nil; i+1 < len(k.kids) {
				v.next = k.kids[i+1]
			}
			d, err := v.stmt(k.kids[i])
			if err != nil {
				return nil, err
			}
			if d != nil {
				seq = append(seq, d)
			}
			if v.skip {
				i, v.skip = i+1, false
			}
		}
		switch len(seq) {
		case 0:
			return nil, nil
		case 1:
			return seq[0], nil
		}
		return func(vm *VecEnv, i0 int64, L int) {
			for _, d := range seq {
				d(vm, i0, L)
			}
		}, nil
	case *cc.DeclStmt:
		return nil, nil
	case *cc.AssignStmt:
		if v.next = next; st.LHS.Type() == cc.TInt {
			return assign[int64](v, k)
		}
		return assign[float64](v, k)
	case *cc.IfStmt:
		return v.ifStmt(k)
	case *cc.ForStmt:
		if live, ok := v.flatLoops[k]; ok {
			return v.flatLoop(k, live)
		}
		return v.forStmt(k)
	}
	return nil, errSpecIneligible
}

// assign compiles an assignment whose target holds S's values.
func assign[S Num](v *vecBuilder, k *kStmt) (VStmt, error) {
	st := k.s.(*cc.AssignStmt)
	switch lhs := st.LHS.(type) {
	case *cc.Ident:
		switch isFold := v.scalars[lhs.Decl].kind == kFold; {
		case v.flat != nil && (isFold || !v.flat.local[lhs.Decl]):
			return flatFold[S](v, k, lhs.Decl, !isFold)
		case isFold:
			return fold[S](v, k, lhs.Decl)
		}
		return private[S](v, k, lhs.Decl)
	case *cc.IndexExpr:
		switch {
		case v.flat != nil && st.Reduce != nil:
			return flatReduce[S](v, k)
		case v.flat != nil:
			return flatStore[S](v, k)
		case st.Reduce != nil:
			return arrayReduce[S](v, k)
		}
		switch lhs.Array.Type {
		case cc.TInt:
			return arrayAssign[S, int32](v, k)
		case cc.TFloat:
			return arrayAssign[S, float32](v, k)
		}
		return arrayAssign[S, float64](v, k)
	}
	return nil, errSpecIneligible
}

// ifStmt compiles a data-dependent branch: the lanes active so far split
// into the then- and the else-list in the pass that evaluates the
// condition; each arm runs with its list as VecEnv.act and counts its
// length, exactly what the interpreter's arms count one by one.
func (v *vecBuilder) ifStmt(k *kStmt) (VStmt, error) {
	_, split, err := condOf(v, k.x)
	if err != nil {
		return nil, err
	}
	thenIdx, elseIdx := v.takeArm(k.arm), int(k.elseArm)
	depth, outer := v.depth, v.masked
	v.depth++
	v.maxArms = max(v.maxArms, v.depth)
	v.masked, v.usesAct = true, true
	then, err := v.stmt(k.kids[0])
	if err != nil {
		return nil, err
	}
	var els VStmt
	if k.kids[1] != nil {
		v.takeArm(k.elseArm)
		if els, err = v.stmt(k.kids[1]); err != nil {
			return nil, err
		}
	}
	v.depth, v.masked = depth, outer
	// In a flat body the arms' counts wait for the commit (specflat.go).
	thSite, elSite := -1, -1
	if fl := v.flat; fl != nil {
		thSite, elSite = v.newSite(), v.newSite()
		fl.commits = append(fl.commits, func(vm *VecEnv, q int) {
			vm.D.Branch[thenIdx] += int64(len(below(vm.sites[thSite].act, q)))
			if elseIdx >= 0 {
				vm.D.Branch[elseIdx] += int64(len(below(vm.sites[elSite].act, q)))
			}
		})
	}
	return func(vm *VecEnv, i0 int64, L int) {
		lanes := vm.act
		th, el := split(vm, i0, L, vm.mask[1+2*depth], vm.mask[2+2*depth])
		if thSite >= 0 {
			vm.sites[thSite].keep(vm, th, nil)
			vm.sites[elSite].keep(vm, el, nil)
		} else {
			vm.D.Branch[thenIdx] += int64(len(th))
			if elseIdx >= 0 {
				vm.D.Branch[elseIdx] += int64(len(el))
			}
		}
		if vm.act = th; then != nil && len(th) > 0 {
			then(vm, i0, L)
			// A tile cut short under this arm (flatLoop) takes back the lanes
			// it hands to the next tile.
			for n := len(th); vm.cut > 0 && n > 0 && int(th[n-1]) >= vm.cut; n-- {
				vm.D.Branch[thenIdx]--
			}
		}
		if vm.act = el; els != nil && len(el) > 0 {
			els(vm, i0, L)
		}
		vm.act = lanes
	}, nil
}

// injLoop is the injective loop being compiled (lv its variable's bit),
// injSite a float reduction-lane update in it: its index over the tile
// and the magnitude of its coefficient in the loop variable.
type (
	injLoop struct {
		lv    uint64
		sites []injSite
	}
	injSite struct {
		ix   vec[int64]
		coef int64
	}
)

// forStmt compiles a canonical inner loop whose init and bound are
// uniform: the whole tile runs the same trips, the induction variable
// one DEnv scalar for all lanes. The two cost buckets receive what the
// active lanes' loops count on the interpreter.
//
// Where the loop updates reduction lanes (injective), trip-major order
// must still hand every element its updates in lane order. Int targets
// do not care: + and * wrap, commute and associate. For a float target
// the tile checks before the first trip that the active lanes' indices
// are congruent modulo |c|*trips: two lanes then update the same elements
// on the same trips, or element ranges a whole span apart. A tile that
// fails runs the loop as flat tiles, in iteration order: the loop
// compiles both ways, and one flatOK refuses leaves the kernel unspecialized.
func (v *vecBuilder) forStmt(k *kStmt) (VStmt, error) {
	boundX, incl := k.bound()
	init, err := compile[int64](v, k.kids[0].y)
	if err != nil {
		return nil, err
	}
	bound, err := compile[int64](v, boundX)
	if err != nil {
		return nil, err
	}
	condIdx, bodyIdx := v.takeArm(k.arm), v.takeArm(k.arm+1)
	v.usesAct = true
	live, inj := v.injLoops[k]
	if inj {
		v.inj = &injLoop{lv: v.mask(k.lv)}
	}
	v.loops = append(v.loops, k)
	body, err := v.stmt(k.kids[1])
	v.loops = v.loops[:len(v.loops)-1]
	var sites []injSite
	if inj {
		sites, v.inj = v.inj.sites, nil
	}
	if err != nil {
		return nil, err
	}
	var flat VStmt
	if len(sites) > 0 {
		alt := v.alt
		v.alt = true
		flat, err = v.flatLoop(k, live)
		if v.alt = alt; err != nil {
			return nil, err
		}
	}
	slot, lo, hi := k.lv.Slot, init.inv, bound.inv
	return func(vm *VecEnv, i0 int64, L int) {
		D := vm.D
		x, end := lo(D), hi(D)
		if incl {
			end++
		}
		n, lanes := max(end-x, 0), int64(len(vm.act))
		if D.Ints[slot] = x; flat != nil && n > 1 && !laneOrdered(vm, sites, n, i0, L) {
			flat(vm, i0, L)
			return
		}
		D.Branch[condIdx] += (n + 1) * lanes
		D.Branch[bodyIdx] += n * lanes
		for x < end {
			for stop := D.blockEnd(x, end); x < stop; x++ {
				D.Ints[slot] = x
				if body != nil {
					body(vm, i0, L)
				}
			}
		}
		D.Ints[slot] = x
	}, nil
}

// laneOrdered is the per-tile check of an injective loop about to run n
// trips, its induction variable set to the first (see forStmt).
func laneOrdered(vm *VecEnv, sites []injSite, n, i0 int64, L int) bool {
	if len(vm.act) == 0 {
		return true
	}
	if n >= 1<<31 {
		return false // the span below might not fit
	}
	for _, s := range sites {
		q, span := s.ix(vm, i0, L), s.coef*n
		first := q[vm.act[0]]
		for _, t := range vm.act {
			if (q[t]-first)%span != 0 {
				return false
			}
		}
	}
	return true
}

// setLanes writes the active lanes of a private scalar's vector: "=" or
// the lane-wise update op names by its first byte, rounded through R
// (float32 for a float scalar: the interpreter's rounding per step;
// float64 and int64 are the identity). A tile with every lane active is
// walked densely. The operator picks a loop, never a lane.
func setLanes[S Num, R int64 | float32 | float64](op byte, out, s []S, act []int32) {
	dense := len(act) == len(out)
	s = s[:len(out)]
	switch {
	case op == '=' && dense:
		for t := range out {
			out[t] = S(R(s[t]))
		}
	case op == '=':
		for _, t := range act {
			out[t] = S(R(s[t]))
		}
	case op == '+' && dense:
		for t := range out {
			out[t] = S(R(out[t] + s[t]))
		}
	case op == '+':
		for _, t := range act {
			out[t] = S(R(out[t] + s[t]))
		}
	case op == '-':
		for _, t := range act {
			out[t] = S(R(out[t] - s[t]))
		}
	case op == '*':
		for _, t := range act {
			out[t] = S(R(out[t] * s[t]))
		}
	default:
		for _, t := range act {
			out[t] = S(R(out[t] / s[t]))
		}
	}
}

// setLanesI adds the operators only an int scalar has.
func setLanesI(op byte, out, s []int64, act []int32) {
	switch op {
	case '%':
		for _, t := range act {
			out[t] %= s[t]
		}
	case '<':
		for _, t := range act {
			out[t] <<= uint(s[t])
		}
	case '>':
		for _, t := range act {
			out[t] >>= uint(s[t])
		}
	default:
		setLanes[int64, int64](op, out, s, act)
	}
}

// setter gives the lane-wise update of a private scalar of type t.
func setter[S Num](t cc.ElemType) func(op byte, out, s []S, act []int32) {
	switch t {
	case cc.TInt:
		return as[func(byte, []S, []S, []int32)](setLanesI)
	case cc.TFloat:
		return setLanes[S, float32]
	}
	return setLanes[S, S]
}

// The forms of fuseLanes, each one a kernel reaches (TestRewritesEngage's
// census): out = a + c, a + k, a - c, k - a and a * c, c a vector and k
// uniform, and out += a * c. The two with a uniform operand run outside
// arms only; every other statement takes setLanes' path.
const (
	fuAddV = iota
	fuAddK
	fuSubV
	fuRsubK
	fuMulV
	fuAccAdd
)

var fuseNames = [...]string{fuAddV: "x+v", fuAddK: "x+k", fuSubV: "x-v", fuRsubK: "k-x", fuMulV: "x*v", fuAccAdd: "+=x*v"}

// fuseLanes is setLanes with the last operation of a float right-hand
// side folded into the pass: one float64 operation, then the assignment's
// own, the explicit conversion between them keeping the pair from
// contracting into a multiply-add (see the file header).
func fuseLanes[R float32 | float64](form int, out, a, c []float64, k float64, act []int32) {
	a = a[:len(out)]
	if c != nil {
		c = c[:len(out)]
	}
	if len(act) == len(out) {
		form += fuAccAdd + 1
	}
	switch form {
	case fuAddV:
		for _, t := range act {
			out[t] = float64(R(a[t] + c[t]))
		}
	case fuSubV:
		for _, t := range act {
			out[t] = float64(R(a[t] - c[t]))
		}
	case fuMulV:
		for _, t := range act {
			out[t] = float64(R(a[t] * c[t]))
		}
	case fuAccAdd:
		for _, t := range act {
			out[t] = float64(R(out[t] + float64(a[t]*c[t])))
		}
	case fuAccAdd + 1 + fuAddV:
		for t := range out {
			out[t] = float64(R(a[t] + c[t]))
		}
	case fuAccAdd + 1 + fuAddK:
		for t := range out {
			out[t] = float64(R(a[t] + k))
		}
	case fuAccAdd + 1 + fuSubV:
		for t := range out {
			out[t] = float64(R(a[t] - c[t]))
		}
	case fuAccAdd + 1 + fuRsubK:
		for t := range out {
			out[t] = float64(R(k - a[t]))
		}
	case fuAccAdd + 1 + fuMulV:
		for t := range out {
			out[t] = float64(R(a[t] * c[t]))
		}
	default:
		for t := range out {
			out[t] = float64(R(out[t] + float64(a[t]*c[t])))
		}
	}
}

// fusedForm picks the fuseLanes form of `lhs aop (x iop y)`; ka and kc
// say which operand is uniform, swap that the uniform one came first.
// ok is false where no form covers the statement.
func fusedForm(aop, iop string, ka, kc, masked bool) (form int, swap, ok bool) {
	switch {
	case ka && kc:
	case aop == "+=" && iop == "*" && !ka && !kc:
		return fuAccAdd, false, true
	case aop != "=":
	case !ka && !kc && iop == "+":
		return fuAddV, false, true
	case !ka && !kc && iop == "-":
		return fuSubV, false, true
	case !ka && !kc && iop == "*":
		return fuMulV, false, true
	case masked:
	case iop == "+":
		return fuAddK, ka, true
	case iop == "-" && ka:
		return fuRsubK, true, true
	}
	return 0, false, false
}

// private compiles an assignment to a private scalar: one pass over the
// active lanes of its vector. A float right-hand side that ends in +, -
// or * runs that operation in the same pass (fused); any other is
// computed into a scratch vector first.
func private[S Num](v *vecBuilder, k *kStmt, d *cc.VarDecl) (VStmt, error) {
	st := k.s.(*cc.AssignStmt)
	v.usesAct = true
	bid, op := v.scalars[d].buf-1, st.Op[0]
	if bid < 0 {
		return nil, errSpecIneligible
	}
	var r vOp[S]
	var err error
	if x, ok := k.y.e.(*cc.BinaryExpr); ok && isF[S]() && x.Type() != cc.TInt && (x.Op == "+" || x.Op == "-" || x.Op == "*") {
		// Operands run in program order (the second one's temporaries sit
		// above the first one's result); a is the vector of a mixed pair.
		m := v.top
		a, err := compile[S](v, k.y.x)
		if err != nil {
			return nil, err
		}
		c, err := compile[S](v, k.y.y)
		if err != nil {
			return nil, err
		}
		af, cf, f32 := as[vOp[float64]](a), as[vOp[float64]](c), d.Type == cc.TFloat
		if st.Op == "=" && x.Op == "-" && f32 && a.vec != nil && c.inv != nil {
			if y := v.sumSq(d); y != nil {
				return distance(af, cf.inv, bid, v.scalars[y].buf-1), nil
			}
		}
		if form, swap, ok := fusedForm(st.Op, x.Op, a.inv != nil, c.inv != nil, v.masked); ok {
			v.counts.note("fuse ", fuseNames[form], [2]string{" dense", " indexed"}[b2i(v.masked)])
			return fused(form, swap, af, cf, bid, f32), nil
		}
		r = arith(v, x.Op[0], a, c, m)
	} else if r, err = compile[S](v, k.y); err != nil {
		return nil, err
	}
	set, rv := setter[S](d.Type), mat(v, r)
	return func(vm *VecEnv, i0 int64, L int) {
		set(op, bufs[S](vm)[bid][:L], rv(vm, i0, L), vm.act)
	}, nil
}

// fused is a private float scalar's assignment in the form fusedForm
// picked, a the vector of a mixed pair.
func fused(form int, swap bool, a, c vOp[float64], bid int, f32 bool) VStmt {
	fuse := fuseLanes[float64]
	if f32 {
		fuse = fuseLanes[float32]
	}
	return func(vm *VecEnv, i0 int64, L int) {
		s, q, ka, kc := operands(vm, i0, L, a, c)
		k := kc
		if swap {
			s, q, k = q, nil, ka
		}
		fuse(form, vm.BufF[bid][:L], s, q, k, vm.act)
	}
}

// sumSq returns y when the statement after x's "=" (the one stmt compiles
// next) is y += x*x, y another private float scalar, outside every arm and
// flat loop; it marks that statement compiled, the pair being one pass.
func (v *vecBuilder) sumSq(x *cc.VarDecl) *cc.VarDecl {
	var st *cc.AssignStmt
	if n := v.next; n != nil && !v.masked && v.flat == nil {
		st, _ = n.s.(*cc.AssignStmt)
	}
	if st == nil || st.Op != "+=" {
		return nil
	}
	y, _ := st.LHS.(*cc.Ident)
	b, _ := st.RHS.(*cc.BinaryExpr)
	if y == nil || b == nil || b.Op != "*" || y.Decl == x || y.Decl.Type != cc.TFloat || v.scalars[y.Decl].kind != kPrivate {
		return nil
	}
	for _, e := range [2]cc.Expr{b.X, b.Y} {
		if id, _ := e.(*cc.Ident); id == nil || id.Decl != x {
			return nil
		}
	}
	v.counts.note("sumsq ", y.Decl.Name)
	v.skip = true
	return y.Decl
}

// distance is KMEANS's x = a - k; y += x*x as one dense pass (rewrite 10):
// both float scalars' vectors are written, each rounding as its own
// statement would have.
func distance(a vOp[float64], k dExpr[float64], bx, by int) VStmt {
	return func(vm *VecEnv, i0 int64, L int) {
		x, y := vm.BufF[bx][:L], vm.BufF[by][:L]
		s, c := a.vec(vm, i0, L)[:L], k(vm.D)
		for t := range x {
			d := float64(float32(s[t] - c))
			x[t], y[t] = d, float64(float32(y[t]+float64(d*d)))
		}
	}
}

// foldOp is the step of a fold: the assignment's operator, "=" keeping the
// new value.
func foldOp[S Num](op string) func(S, S) S {
	if op == "=" {
		return func(_, x S) S { return x }
	}
	return applyOf[S](op)
}

// fold compiles a kernel scalar reduction: the active lanes' values
// fold into the worker's partial in ascending lane order, which is
// iteration order, with float32 rounding per step. A reduction scalar
// assigned with "=" keeps the last active lane's value.
func fold[S Num](v *vecBuilder, k *kStmt, d *cc.VarDecl) (VStmt, error) {
	v.usesAct = true
	r, err := compile[S](v, k.y)
	if err != nil {
		return nil, err
	}
	apply, rv, slot, f32 := foldOp[S](k.s.(*cc.AssignStmt).Op), mat(v, r), d.Slot, d.Type == cc.TFloat
	return func(vm *VecEnv, i0 int64, L int) {
		s, sc := rv(vm, i0, L), slots[S](vm.D)
		acc := sc[slot]
		if f32 {
			for _, t := range vm.act {
				acc = S(float32(apply(acc, s[t])))
			}
		} else {
			for _, t := range vm.act {
				acc = apply(acc, s[t])
			}
		}
		sc[slot] = acc
	}, nil
}

// laneIdx is the index of one access over a tile: a strided walk when
// it is affine across the lanes, a per-lane vector otherwise.
type laneIdx struct {
	// walk returns the index of lane 0 and the step to the next lane.
	walk func(vm *VecEnv, i0 int64) (p, step int64)
	// affine is the access's place in spec.Accesses when the runtime
	// supplies the walk's coefficients (VecEnv.AccA/AccB), else -1.
	affine int
	// The index of lane t is mul*vec[t] + add; a nil mul is 1, a nil
	// add 0 (pos[4*jn + 1] needs no pass over jn to form its index).
	vec      vec[int64]
	mul, add dExpr[int64]
}

// laneIndex compiles the subscript idx of access site.
func (v *vecBuilder) laneIndex(idx *kExpr, site int) (laneIdx, error) {
	if _, ok := affineDegree(idx, v.uniform); !ok || v.flat != nil {
		// A gather (in a flat body, any access: the induction variable is a
		// vector); a uniform scale and offset stay out of the vector.
		li := laneIdx{affine: -1}
		peel := func(op string, dst *dExpr[int64]) error {
			b, ok := idx.e.(*cc.BinaryExpr)
			if !ok || b.Op != op || b.Type() != cc.TInt {
				return nil
			}
			k, e := idx.x, idx.y
			if !v.uniform(k) {
				k, e = e, k
			}
			if !v.uniform(k) {
				return nil
			}
			o, err := compile[int64](v, k)
			*dst, idx = o.inv, e
			return err
		}
		if err := peel("+", &li.add); err != nil {
			return laneIdx{}, err
		}
		if err := peel("*", &li.mul); err != nil {
			return laneIdx{}, err
		}
		o, err := compile[int64](v, idx)
		if err != nil {
			return laneIdx{}, err
		}
		li.vec = mat(v, o)
		return li, nil
	}
	if v.spec.Accesses[site].Affine {
		// The runtime derived the coefficients for its range checks.
		return laneIdx{affine: site, walk: func(vm *VecEnv, i0 int64) (int64, int64) {
			A := vm.AccA[site]
			return A*i0 + vm.AccB[site], A
		}}, nil
	}
	// Affine in the induction variable with uniform coefficients (an
	// inner loop's a*i + f): two evaluations per tile step give the walk.
	v.ivScalar = true
	o, err := compile[int64](v, idx)
	if v.ivScalar = false; err != nil {
		return laneIdx{}, err
	}
	d, slot := o.inv, v.loopVar.Slot
	return laneIdx{affine: -1, walk: func(vm *VecEnv, i0 int64) (int64, int64) {
		D := vm.D
		D.Ints[slot] = i0
		p := d(D)
		D.Ints[slot] = i0 + 1
		return p, d(D) - p
	}}, nil
}

// span places a walk of logical indices on the copy: the physical
// offset of lane 0 and the physical step. On a column-major copy the
// walk stays affine only when the row width divides the step; otherwise
// ok is false and p, step are the logical offset and step, to be mapped
// lane by lane with off.
func (a *DArray) span(p, step int64) (int64, int64, bool) {
	p -= a.Base
	switch {
	case a.TWidth == 0:
		return p, step, true
	case step%a.TWidth == 0:
		return a.off(p), step / a.TWidth, true
	}
	return p, step, false
}

// walkLoad reads the physical walk p, p+step, ... of src into out, one
// element per lane. Small enough to inline: a call frame under every
// load would push the worker goroutines of even a one-statement kernel
// past their initial stack.
func walkLoad[T elem, S Num](out []S, src []T, p, step int64) {
	if step == 1 {
		s := src[p : p+int64(len(out))]
		for t := range s {
			out[t] = S(s[t])
		}
		return
	}
	for t := range out {
		out[t] = S(src[p])
		p += step
	}
}

// direct gives the elements the walk w reads over the tile, straight from
// the copy, when its physical step is 1 (rewrite 5); ok is false for any
// other step and where w names no walk: the consumer reads the vector.
func direct[T elem](vm *VecEnv, i0 int64, L int, w walkOf) (src []T, ok bool) {
	if w.arr == nil {
		return nil, false
	}
	a := &vm.D.Arrays[w.arr.Slot]
	p, step, ok := a.span(vm.AccA[w.site]*i0+vm.AccB[w.site], vm.AccA[w.site])
	if !ok || step != 1 {
		return nil, false
	}
	return elems[T](a)[p : p+int64(L)], true
}

// loadWalk reads a walk of logical indices into out, through off lane
// by lane where a column-major copy breaks the walk's affinity.
func loadWalk[T elem, S Num](out []S, src []T, a *DArray, p, step int64) {
	p, step, ok := a.span(p, step)
	if ok {
		walkLoad(out, src, p, step)
		return
	}
	for t := range out {
		out[t] = S(src[a.off(p)])
		p += step
	}
}

// fetch reads the active lanes' elements at logical indices k*idx + c.
func fetch[T elem, S Num](out []S, src []T, a *DArray, idx []int64, k, c int64, act []int32) {
	c -= a.Base
	if a.TWidth == 0 {
		for _, t := range act {
			out[t] = S(src[k*idx[t]+c])
		}
		return
	}
	for _, t := range act {
		out[t] = S(src[a.off(k*idx[t]+c)])
	}
}

// scale evaluates the uniform scale and offset of a per-lane index.
func (li *laneIdx) scale(D *DEnv) (k, c int64) {
	k = 1
	if li.mul != nil {
		k = li.mul(D)
	}
	if li.add != nil {
		c = li.add(D)
	}
	return k, c
}

// idxVec gives every lane's logical index. Computing it is total, so
// it runs dense; only the lanes that dereference it must be active.
func (v *vecBuilder) idxVec(li laneIdx) vec[int64] {
	if li.vec != nil && li.mul == nil && li.add == nil {
		return li.vec
	}
	bid := push[int64](v)
	return func(vm *VecEnv, i0 int64, L int) []int64 {
		out := vm.BufI[bid][:L]
		if li.walk == nil {
			k, c := li.scale(vm.D)
			for t, x := range li.vec(vm, i0, L) {
				out[t] = k*x + c
			}
			return out
		}
		p, step := li.walk(vm, i0)
		for t := range out {
			out[t] = p
			p += step
		}
		return out
	}
}

// load compiles an array read into lanes of type S.
func load[S Num](v *vecBuilder, k *kExpr) (vOp[S], error) {
	switch k.e.(*cc.IndexExpr).Array.Type {
	case cc.TInt:
		return loadFrom[S, int32](v, k)
	case cc.TFloat:
		return loadFrom[S, float32](v, k)
	}
	return loadFrom[S, float64](v, k)
}

// loadFrom compiles a read of a T array: one value for the tile step when
// its subscript is uniform and the kernel never writes the array, a dense
// strided walk when the index is affine across the lanes and every lane is
// active, a per-lane fetch of the active lanes otherwise (a gather, or any
// load under an arm).
func loadFrom[S Num, T elem](v *vecBuilder, k *kExpr) (vOp[S], error) {
	slot, site := k.e.(*cc.IndexExpr).Array.Slot, v.take(k, AccessLoad)
	if v.uniform(k) {
		o, err := compile[int64](v, k.x)
		ix := o.inv
		return vOp[S]{inv: func(D *DEnv) S {
			a := &D.Arrays[slot]
			return S(elems[T](a)[a.off(ix(D)-a.Base)])
		}}, err
	}
	m := v.top
	li, err := v.laneIndex(k.x, site)
	if err != nil {
		return vOp[S]{}, err
	}
	if ai := li.affine; ai >= 0 && !v.masked {
		// The straight-line case, kept lean: the runtime's coefficients,
		// no helper call (it sent to the interpreter any piece whose walk
		// a column-major copy would break).
		bid, w := result[S](v, m), walkOf{k.e.(*cc.IndexExpr).Array, ai, k.written}
		return vOp[S]{w: w, vec: func(vm *VecEnv, i0 int64, L int) []S {
			out, a := bufs[S](vm)[bid][:L], &vm.D.Arrays[slot]
			p, step, _ := a.span(vm.AccA[ai]*i0+vm.AccB[ai], vm.AccA[ai])
			walkLoad(out, elems[T](a), p, step)
			return out
		}}, nil
	}
	if wk := li.walk; wk != nil && !v.masked {
		bid := result[S](v, m)
		return vOp[S]{vec: hold(v, k, func(vm *VecEnv, i0 int64, L int) []S {
			out, a := bufs[S](vm)[bid][:L], &vm.D.Arrays[slot]
			p, step := wk(vm, i0)
			loadWalk(out, elems[T](a), a, p, step)
			return out
		})}, nil
	}
	v.usesAct = true
	ix, watch := li.vec, -1
	if ix == nil {
		ix = v.idxVec(li)
	}
	if v.flat != nil && slot == v.flat.hazSlot {
		// The whole index as a vector, kept with what was loaded: the
		// result must not take its vector.
		ix, li, watch = v.idxVec(li), laneIdx{affine: -1}, v.flatWatch()
		m = v.top
	}
	bid := result[S](v, m)
	return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
		q := ix(vm, i0, L)
		out, a := bufs[S](vm)[bid][:L], &vm.D.Arrays[slot]
		k, c := li.scale(vm.D)
		if fetch(out, elems[T](a), a, q, k, c, vm.act); watch >= 0 {
			s := &vm.sites[watch]
			s.keep(vm, vm.act, q)
			keepVals(s, vm, out)
		}
		return out
	}}, nil
}

// hold makes the walk load of k a held load (file header): its vector at
// u = x0 + t is the t-th of its group's slab, x0 being u at the group's
// first load in the tile. It leaves loads of written arrays, whose index
// reads no body-assigned scalar or two, and a group's first outside two
// loops.
func hold[S Num](v *vecBuilder, k *kExpr, ld vec[S]) vec[S] {
	r := k.x.reads
	if k.written || r == 0 || r&(r-1) != 0 {
		return ld
	}
	g := slices.IndexFunc(v.held, func(h *kExpr) bool { return same(h, k) })
	if f := b2i(isF[S]()); g < 0 && len(v.loops) > 1 && len(v.held) < maxHeld {
		g, v.held, v.slab, v.nHeld[f] = len(v.held), append(v.held, k), append(v.slab, v.nHeld[f]), v.nHeld[f]+1
	} else if g < 0 {
		return ld
	}
	v.counts.note("held ", k.e.(*cc.IndexExpr).Array.Name)
	slab, slot := v.slab[g], v.decls[bits.TrailingZeros64(r)].Slot
	return func(vm *VecEnv, i0 int64, L int) []S {
		h, x := &vm.held[g], vm.D.Ints[slot]
		if h.n == 0 {
			h.x0 = x
		}
		t := uint64(x - h.x0)
		at := heldOf[S](vm)[slab][min(t, holdTrips-1)*uint64(vm.tile):][:L]
		if t < uint64(h.n) {
			return at
		}
		s := ld(vm, i0, L)
		if t == uint64(h.n) && t < holdTrips {
			copy(at, s)
			h.n++
		}
		return s
	}
}

// same reports two lowered expressions of one shape over the same
// operands: one value wherever the scalars they read are equal.
func same(a, b *kExpr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.e.Type() == b.e.Type() && same(a.x, b.x) && same(a.y, b.y) && nodeKey(a.e) == nodeKey(b.e)
}

// nodeKey tells a lowered node from another of the same type and operands.
func nodeKey(e cc.Expr) any {
	switch x := e.(type) {
	case *cc.NumLit:
		return [2]any{x.I, x.F}
	case *cc.Ident:
		return x.Decl
	case *cc.IndexExpr:
		return x.Array
	case *cc.BinaryExpr:
		return "b" + x.Op
	case *cc.UnaryExpr:
		return "u" + x.Op
	case *cc.CallExpr:
		return "c" + x.Name
	case *cc.CastExpr:
		return x.To
	}
	return e
}

// walkStore writes s to the walk p, p+A, ... of dst, every lane. Small
// enough to inline, like walkLoad.
func walkStore[T elem, S Num](dst []T, p, A int64, s []S) {
	if A == 1 {
		d := dst[p : p+int64(len(s))]
		for t := range d {
			d[t] = T(s[t])
		}
		return
	}
	for t := range s {
		dst[p] = T(s[t])
		p += A
	}
}

// storeLanes writes the active lanes of s to the walk; apply, when set,
// combines with the old element (a compound assignment).
func storeLanes[T elem, S Num](dst []T, p, A int64, s []S, apply func(S, S) S, act []int32) {
	if apply == nil {
		for _, t := range act {
			dst[p+A*int64(t)] = T(s[t])
		}
		return
	}
	for _, t := range act {
		q := p + A*int64(t)
		dst[q] = T(apply(S(dst[q]), s[t]))
	}
}

// markWalk records the stores the lanes act (nil: all L of the tile) made
// to the walk p, p+A, ..., where the launch bound dirty bits to the copy:
// the bits the interpreter's stores set one by one.
func (a *DArray) markWalk(p, A int64, L int, act []int32) {
	if a.Dirty == nil {
		return
	}
	if act == nil {
		for t := 0; t < L; t++ {
			a.mark(p + A*int64(t))
		}
		return
	}
	for _, t := range act {
		a.mark(p + A*int64(t))
	}
}

// arrayAssign compiles a store into a T array. scan admitted only stores
// affine in the induction variable, so the walk comes from the runtime's
// coefficients (a written array is never layout-transformed). A dense "="
// of a read-only float walk copies it (copyWalk); one whose value ends in mulAdd
// writes mulAdd's pass into the array (rewrite 6).
func arrayAssign[S Num, T elem](v *vecBuilder, k *kStmt) (VStmt, error) {
	st, dst, ai := k.s.(*cc.AssignStmt), k.x.e.(*cc.IndexExpr).Array, v.take(k.x, AccessStore)
	slot, dense := dst.Slot, !v.masked && st.Op == "="
	v.usesAct = v.usesAct || !dense
	r, err := compile[S](v, k.y)
	if err != nil {
		return nil, err
	}
	if w := r.loads(); dense && w.elem() == cc.TFloat {
		v.counts.note("fused ", w.arr.Name)
		v.spec.Accesses[w.site].Copied = dst.Type == cc.TFloat
		return copyWalk[S, T](r, slot, ai), nil
	}
	if m := r.ma; dense && m != nil && dst.Type == cc.TFloat {
		v.counts.note("store ", dst.Name)
		return mulAddStores[b2i(m.aw.elem() == cc.TDouble)][b2i(m.cw.elem() == cc.TDouble)](m, as[vec[float64]](r.vec), slot, ai), nil
	}
	rv, apply := mat(v, r), applyOf[S](st.Op)
	return func(vm *VecEnv, i0 int64, L int) {
		s, a := rv(vm, i0, L), &vm.D.Arrays[slot]
		p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
		if dense {
			walkStore(elems[T](a), p, A, s)
			a.markWalk(p, A, L, nil)
			return
		}
		storeLanes(elems[T](a), p, A, s, apply, vm.act)
		a.markWalk(p, A, L, vm.act)
	}, nil
}

// copyWalk is a dense "=" of the read-only walk r of a float array into a
// T array: walk to walk in one pass where both steps are 1, through the
// lane type S as the vector path converts, r's vector and walkStore
// otherwise. Into a float array from a quiet one (DArray.Quiet) the pass
// is one copy: without a signalling NaN to quiet, float32 → float64 →
// float32 returns every bit. The census found no kernel copying an int or
// a double walk.
func copyWalk[S Num, T elem](r vOp[S], slot, ai int) VStmt {
	_, bits := any(T(0)).(float32)
	return func(vm *VecEnv, i0 int64, L int) {
		a := &vm.D.Arrays[slot]
		p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
		if src, ok := direct[float32](vm, i0, L, r.w); ok && A == 1 {
			if bits && vm.D.Arrays[r.w.arr.Slot].Quiet {
				copy(a.F32[p:p+int64(L)], src)
			} else {
				dst := elems[T](a)[p : p+int64(L)]
				src = src[:len(dst)]
				for t := range dst {
					dst[t] = T(S(src[t]))
				}
			}
		} else {
			walkStore(elems[T](a), p, A, r.vec(vm, i0, L))
		}
		a.markWalk(p, A, L, nil)
	}
}

// reduceLanes updates the worker's reduction lane at the active lanes'
// logical indices q[t], in ascending lane order.
func reduceLanes[S Num](lane []S, q []int64, s []S, act []int32, mul bool) {
	if mul {
		for _, t := range act {
			lane[q[t]] *= s[t]
		}
		return
	}
	for _, t := range act {
		lane[q[t]] += s[t]
	}
}

func arrayReduce[S Num](v *vecBuilder, k *kStmt) (VStmt, error) {
	st, slot := k.s.(*cc.AssignStmt), k.x.e.(*cc.IndexExpr).Array.Slot
	v.usesAct = true
	li, err := v.laneIndex(k.x.x, v.take(k.x, AccessReduce))
	if err != nil {
		return nil, err
	}
	// Lanes are indexed by logical element index: no Base shift.
	ix, mul := v.idxVec(li), st.Reduce.Op == acc.RedMul
	r, err := compile[S](v, k.y)
	if err != nil {
		return nil, err
	}
	if v.inj != nil && isF[S]() {
		c, _ := lvCoef(k.x.x, v.inj.lv)
		v.inj.sites = append(v.inj.sites, injSite{v.idxVec(li), max(c, -c)})
	}
	rv := mat(v, r)
	return func(vm *VecEnv, i0 int64, L int) {
		q, s := ix(vm, i0, L), rv(vm, i0, L)
		reduceLanes(laneOf[S](&vm.D.Arrays[slot]), q, s, vm.act, mul)
	}, nil
}

// compile compiles a lowered expression into lanes of type S, converting
// once where the expression's own type is the other one. A node whose
// operands are all uniform is uniform itself (inv): one value per tile
// step, evaluated against the worker's scalars — literals, loop
// invariants, inner induction variables and loads of arrays the kernel
// never writes, and what is computed from them.
func compile[S Num](v *vecBuilder, k *kExpr) (vOp[S], error) {
	switch float := k.e.Type() != cc.TInt; {
	case float == isF[S]():
		return compileNode[S](v, k)
	case float:
		return convert[float64, S](v, k)
	}
	return convert[int64, S](v, k)
}

// convert compiles an expression of lane type F into lanes of type S.
func convert[F, S Num](v *vecBuilder, k *kExpr) (vOp[S], error) {
	m := v.top
	o, err := compileNode[F](v, k)
	if err != nil {
		return vOp[S]{}, err
	}
	if g := o.inv; g != nil {
		return vOp[S]{inv: func(D *DEnv) S { return S(g(D)) }}, nil
	}
	ov, bid := mat(v, o), result[S](v, m)
	return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
		s, out := ov(vm, i0, L), bufs[S](vm)[bid][:L]
		for t := range s {
			out[t] = S(s[t])
		}
		return out
	}}, nil
}

// compileNode compiles an expression of S's type. The lowering admitted
// only what the tiles have an op for: no && or ||, no operator a type
// lacks, no builtin but min, max and abs on int and floatBuiltin's on
// float.
func compileNode[S Num](v *vecBuilder, k *kExpr) (vOp[S], error) {
	m := v.top
	switch x := k.e.(type) {
	case *cc.NumLit:
		c := S(x.I)
		if isF[S]() {
			c = S(x.F)
		}
		return vOp[S]{inv: func(*DEnv) S { return c }}, nil
	case *cc.Ident:
		return ident[S](v, x.Decl)
	case *cc.IndexExpr:
		return load[S](v, k)
	case *cc.BinaryExpr:
		if cmpCode[x.Op] != 0 {
			o, err := truth(v, k)
			return as[vOp[S]](o), err
		}
		a, err := compile[S](v, k.x)
		if err != nil {
			return vOp[S]{}, err
		}
		c, err := compile[S](v, k.y)
		if err != nil {
			return vOp[S]{}, err
		}
		return arith(v, x.Op[0], a, c, m), nil
	case *cc.UnaryExpr:
		if x.Op == "!" {
			o, err := truth(v, k)
			return as[vOp[S]](o), err
		}
		o, err := compile[S](v, k.x)
		switch {
		case err != nil:
			return o, err
		case x.Op == "~":
			return as[vOp[S]](complement(v, as[vOp[int64]](o), m)), nil
		}
		return negate(v, o, m), nil
	case *cc.CallExpr:
		return call[S](v, k)
	case *cc.CastExpr:
		// To int or double: the conversion of the context; to float, a
		// rounding to float32 on top.
		o, err := compile[S](v, k.x)
		if err != nil || x.To != cc.TFloat {
			return o, err
		}
		return as[vOp[S]](round32(v, as[vOp[float64]](o), m)), nil
	}
	return vOp[S]{}, errSpecIneligible
}

// ident compiles a scalar read: the kernel's induction variable (an iota
// over the tile), a private scalar's vector, or a uniform scalar.
func ident[S Num](v *vecBuilder, d *cc.VarDecl) (vOp[S], error) {
	if vec := flatIdent[S](v, d); vec != nil {
		return vOp[S]{vec: vec}, nil
	}
	if d == v.loopVar && !v.ivScalar {
		bid := push[S](v)
		return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
			out := bufs[S](vm)[bid][:L]
			for t := range out {
				out[t] = S(i0 + int64(t))
			}
			return out
		}}, nil
	}
	if u := v.scalars[d]; u.kind == kPrivate {
		bid := u.buf - 1
		if bid < 0 {
			return vOp[S]{}, errSpecIneligible
		}
		return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S { return bufs[S](vm)[bid][:L] }}, nil
	}
	slot := d.Slot
	if isF[S]() {
		return as[vOp[S]](vOp[float64]{inv: func(D *DEnv) float64 { return D.Floats[slot] }}), nil
	}
	return as[vOp[S]](vOp[int64]{inv: func(D *DEnv) int64 { return D.Ints[slot] }}), nil
}

// negate compiles unary minus.
func negate[S Num](v *vecBuilder, o vOp[S], m [2]int) vOp[S] {
	if g := o.inv; g != nil {
		return vOp[S]{inv: func(D *DEnv) S { return -g(D) }}
	}
	ov, bid := mat(v, o), result[S](v, m)
	return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
		s, out := ov(vm, i0, L), bufs[S](vm)[bid][:L]
		for t := range s {
			out[t] = -s[t]
		}
		return out
	}}
}

// complement compiles ~, which only an int has.
func complement(v *vecBuilder, o vOp[int64], m [2]int) vOp[int64] {
	if g := o.inv; g != nil {
		return vOp[int64]{inv: func(D *DEnv) int64 { return ^g(D) }}
	}
	ov, bid := mat(v, o), result[int64](v, m)
	return vOp[int64]{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s, out := ov(vm, i0, L), vm.BufI[bid][:L]
		for t := range s {
			out[t] = ^s[t]
		}
		return out
	}}
}

// round32 compiles a (float) cast: the float64 value rounded to float32,
// which only a float has.
func round32(v *vecBuilder, o vOp[float64], m [2]int) vOp[float64] {
	if g := o.inv; g != nil {
		return vOp[float64]{inv: func(D *DEnv) float64 { return float64(float32(g(D))) }}
	}
	ov, bid := mat(v, o), result[float64](v, m)
	return vOp[float64]{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		s, out := ov(vm, i0, L), vm.BufF[bid][:L]
		for t := range s {
			out[t] = float64(float32(s[t]))
		}
		return out
	}}
}

// operands evaluates the two operands of a lane op: each a vector or,
// where its vec is nil, one scalar.
func operands[S Num](vm *VecEnv, i0 int64, L int, a, c vOp[S]) (s, q []S, ka, kc S) {
	if a.vec != nil {
		s = a.vec(vm, i0, L)
	} else {
		ka = a.inv(vm.D)
	}
	if c.vec != nil {
		q = c.vec(vm, i0, L)
	} else {
		kc = c.inv(vm.D)
	}
	return s, q, ka, kc
}

// arith combines the compiled operands of a binary operator, m the
// stacks' height before them. A float product with one uniform factor
// advertises itself through kMul/mulX, and an enclosing + or - forms it
// in its own pass (mulAdd). What only an int has — %, the bit operators,
// the shifts and the fault of a division under an arm — is intArith's.
func arith[S Num](v *vecBuilder, op byte, a, c vOp[S], m [2]int) vOp[S] {
	if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
		return vOp[S]{inv: binop(op, ka, kc)}
	}
	bid := result[S](v, m)
	switch {
	case (op == '+' || op == '-') && mulAddForms>>(2*(3*term(a)+term(c))+int(b2i(op == '-')))&1 != 0:
		return as[vOp[S]](mulAdd(v, op == '-', as[vOp[float64]](a), as[vOp[float64]](c), bid))
	case !isF[S]() && op != '+' && op != '-' && op != '*' && (op != '/' || v.masked):
		return as[vOp[S]](intArith(op, as[vOp[int64]](a), as[vOp[int64]](c), bid, v.masked))
	}
	o := vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
		s, q, ka, kc := operands(vm, i0, L, a, c)
		out := bufs[S](vm)[bid][:L]
		arithLanes(op, out, s, q, ka, kc)
		return out
	}}
	if op == '*' && isF[S]() {
		if a.inv != nil {
			o.kMul, o.mulX, o.w = a.inv, c.vec, c.loads()
		} else if c.inv != nil {
			o.kMul, o.mulX, o.w = c.inv, a.vec, a.loads()
		}
	}
	return o
}

// binop compiles a uniform node of a binary operator named by its first
// byte: + - * / over either type, intOp's operators over int.
func binop[S Num](op byte, ka, kc dExpr[S]) dExpr[S] {
	switch op {
	case '+':
		return func(D *DEnv) S { return ka(D) + kc(D) }
	case '-':
		return func(D *DEnv) S { return ka(D) - kc(D) }
	case '*':
		return func(D *DEnv) S { return ka(D) * kc(D) }
	case '/':
		return func(D *DEnv) S { return ka(D) / kc(D) }
	}
	a, c := as[dExpr[int64]](ka), as[dExpr[int64]](kc)
	return as[dExpr[S]](dExpr[int64](func(D *DEnv) int64 { return intOp(op, a(D), c(D)) }))
}

// arithLanes sets out[t] to x op y for + - * /, x being s[t] or, where s
// is nil, ka, and y q[t] or kc. The operator and the operands' shapes pick
// a loop, never a lane.
func arithLanes[S Num](op byte, out, s, q []S, ka, kc S) {
	switch {
	case s == nil && op == '+':
		for t, y := range q[:len(out)] {
			out[t] = ka + y
		}
	case s == nil && op == '-':
		for t, y := range q[:len(out)] {
			out[t] = ka - y
		}
	case s == nil && op == '*':
		for t, y := range q[:len(out)] {
			out[t] = ka * y
		}
	case s == nil:
		for t, y := range q[:len(out)] {
			out[t] = ka / y
		}
	case q == nil && op == '+':
		for t, x := range s[:len(out)] {
			out[t] = x + kc
		}
	case q == nil && op == '-':
		for t, x := range s[:len(out)] {
			out[t] = x - kc
		}
	case q == nil && op == '*':
		for t, x := range s[:len(out)] {
			out[t] = x * kc
		}
	case q == nil:
		for t, x := range s[:len(out)] {
			out[t] = x / kc
		}
	case op == '+':
		for t, x := range s[:len(out)] {
			out[t] = x + q[t]
		}
	case op == '-':
		for t, x := range s[:len(out)] {
			out[t] = x - q[t]
		}
	case op == '*':
		for t, x := range s[:len(out)] {
			out[t] = x * q[t]
		}
	default:
		for t, x := range s[:len(out)] {
			out[t] = x / q[t]
		}
	}
}

// mulAdd compiles x ± y where an operand is a float product with a
// uniform factor (kMul × mulX), forming the product in the same pass. The
// explicit float64(...) around each product pins the intermediate
// rounding the interpreter performs (the Go spec otherwise permits fusing
// into an FMA). An operand's vector that is a read-only walk of a float
// array is read from the copy in that pass (rewrite 5); a dense store of
// the result writes the pass into its array (ma, mulAddStore: rewrite 6).
func mulAdd(v *vecBuilder, sub bool, a, c vOp[float64], bid int) vOp[float64] {
	ta, ua, xa, aw := termOf(v, a)
	tc, uc, xc, cw := termOf(v, c)
	v.counts.note("mulAdd ", "PKV"[ta:ta+1], "+-"[b2i(sub):b2i(sub)+1], "PKV"[tc:tc+1])
	v.counts.note("mulAdd ", aw.elem().String(), ",", cw.elem().String())
	m := &mulAddOp{form: 3*ta + tc, sub: sub, ua: ua, uc: uc, xa: xa, xc: xc, aw: aw, cw: cw}
	return mulAddOfs[b2i(aw.elem() == cc.TDouble)][b2i(cw.elem() == cc.TDouble)](m, bid)
}

// mulAddOp is one mulAdd's pass as data: its form (3*a's + c's), sign,
// each operand's uniform part and vector, and the walks direct reads.
type mulAddOp struct {
	form   int
	sub    bool
	ua, uc dExpr[float64]
	xa, xc vec[float64]
	aw, cw walkOf
}

// mulAddOfs holds mulAddOf, mulAddStores mulAddStore, by whether a's and
// c's walks hold float or double elements, no walk counting as double:
// instantiated outside generic code, they cost no alloc. The census found
// no kernel whose mulAdd reads an int walk: such an operand reads its
// vector.
var (
	mulAddOfs = [2][2]func(*mulAddOp, int) vOp[float64]{
		{mulAddOf[float32, float32], mulAddOf[float32, float64]},
		{mulAddOf[float64, float32], mulAddOf[float64, float64]},
	}
	mulAddStores = [2][2]func(*mulAddOp, vec[float64], int, int) VStmt{
		{mulAddStore[float32, float32], mulAddStore[float32, float64]},
		{mulAddStore[float64, float32], mulAddStore[float64, float64]},
	}
)

// The forms of a mulAdd operand: a product k*x[t], a uniform k, a vector
// x[t]. mulAddForms holds, as bit 2*(3*a's + c's) + sub, the forms a
// kernel reaches (the census): P + P, P ± K and V ± P; a sum of a product
// in any other form takes arith's general pass.
const (
	termP = iota
	termK
	termV

	mulAddForms = 1<<(2*(3*termP+termP)) | 3<<(2*(3*termP+termK)) | 3<<(2*(3*termV+termP))
)

// term gives an operand's mulAdd form.
func term[S Num](o vOp[S]) int {
	switch {
	case o.kMul != nil:
		return termP
	case o.inv != nil:
		return termK
	}
	return termV
}

// termOf gives a mulAdd operand's form, its uniform part (0 for a vector),
// its vector and the read-only float walk that vector loads.
func termOf(v *vecBuilder, o vOp[float64]) (int, dExpr[float64], vec[float64], walkOf) {
	w := o.loads()
	if o.kMul != nil {
		w = o.w
	}
	if w.arr != nil && w.arr.Type == cc.TInt {
		w = walkOf{}
	} else if w.arr != nil {
		v.counts.note("fused ", w.arr.Name)
	}
	switch term(o) {
	case termP:
		return termP, o.kMul, o.mulX, w
	case termK:
		return termK, o.inv, nil, w
	}
	return termV, func(*DEnv) float64 { return 0 }, o.vec, w
}

// mulAddOf is mulAdd's pass into a scratch vector over operands whose
// walks, where direct gives them, hold T and U elements.
func mulAddOf[T, U elem](m *mulAddOp, bid int) vOp[float64] {
	return vOp[float64]{ma: m, vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		out := vm.BufF[bid][:L]
		mulAddInto[T, U](m, vm, i0, L, out)
		return out
	}}
}

// mulAddStore is a dense "=" of m's value into a float array: m's pass
// writes the array where the store's step is 1, rounding each lane to
// float32 as walkStore would have; any other step stores m's vector rv.
func mulAddStore[T, U elem](m *mulAddOp, rv vec[float64], slot, ai int) VStmt {
	return func(vm *VecEnv, i0 int64, L int) {
		a := &vm.D.Arrays[slot]
		p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
		if A == 1 {
			mulAddInto[T, U](m, vm, i0, L, a.F32[p:p+int64(L)])
		} else {
			walkStore(a.F32, p, A, rv(vm, i0, L))
		}
		a.markWalk(p, A, L, nil)
	}
}

// mulAddInto runs m's pass over the tile into out: the operands' vectors
// first, then one loop that reads the walks direct gives.
func mulAddInto[T, U elem, O float32 | float64](m *mulAddOp, vm *VecEnv, i0 int64, L int, out []O) {
	ka, kc := m.ua(vm.D), m.uc(vm.D)
	s, sok := direct[T](vm, i0, L, m.aw)
	q, qok := direct[U](vm, i0, L, m.cw)
	var x, y []float64
	if !sok && m.xa != nil {
		x = m.xa(vm, i0, L)
	}
	if !qok && m.xc != nil {
		y = m.xc(vm, i0, L)
	}
	switch {
	case sok && qok:
		mulAddLanes(m.form, m.sub, out, s, q, ka, kc)
	case sok:
		mulAddLanes(m.form, m.sub, out, s, y, ka, kc)
	case qok:
		mulAddLanes(m.form, m.sub, out, x, q, ka, kc)
	default:
		mulAddLanes(m.form, m.sub, out, x, y, ka, kc)
	}
}

// mulAddLanes sets out[t] to x ± y rounded to O, x of a's form over s and
// ka, y of c's over q and kc (form is 3*a's + c's: one of mulAddForms).
func mulAddLanes[T, U elem, O float32 | float64](form int, sub bool, out []O, s []T, q []U, ka, kc float64) {
	switch form {
	case 3*termP + termP:
		s, q := s[:len(out)], q[:len(out)]
		// Written y + x, which IEEE addition equals: where both are NaN this
		// order keeps y's payload, as the interpreter's compiled add does.
		for t := range out {
			out[t] = O(float64(kc*float64(q[t])) + float64(ka*float64(s[t])))
		}
	case 3*termP + termK:
		s := s[:len(out)]
		if sub {
			for t := range out {
				out[t] = O(float64(ka*float64(s[t])) - kc)
			}
		} else {
			for t := range out {
				out[t] = O(float64(ka*float64(s[t])) + kc)
			}
		}
	default:
		s, q := s[:len(out)], q[:len(out)]
		if sub {
			for t := range out {
				out[t] = O(float64(s[t]) - float64(kc*float64(q[t])))
			}
		} else {
			for t := range out {
				out[t] = O(float64(s[t]) + float64(kc*float64(q[t])))
			}
		}
	}
}

// intArith compiles the int operators intOp applies lane by lane — %,
// the bit operators, the shifts — and a / or % under an arm, which runs
// over the active lanes only: a zero divisor in a lane that did not take
// the arm must not fault.
func intArith(op byte, a, c vOp[int64], bid int, masked bool) vOp[int64] {
	faults := masked && (op == '/' || op == '%')
	return vOp[int64]{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s, q, ka, kc := operands(vm, i0, L, a, c)
		out := vm.BufI[bid][:L]
		switch {
		case faults:
			for _, t := range vm.act {
				if s != nil {
					ka = s[t]
				}
				if q != nil {
					kc = q[t]
				}
				out[t] = intOp(op, ka, kc)
			}
		case s == nil:
			for t, y := range q {
				out[t] = intOp(op, ka, y)
			}
		case q == nil:
			for t, x := range s {
				out[t] = intOp(op, x, kc)
			}
		default:
			for t, x := range s {
				out[t] = intOp(op, x, q[t])
			}
		}
		return out
	}}
}

// intOp applies an int operator named by its first byte that only an
// int has, or a division (+, - and * never reach it).
func intOp(op byte, a, b int64) int64 {
	switch op {
	case '/':
		return a / b
	case '%':
		return a % b
	case '&':
		return a & b
	case '|':
		return a | b
	case '^':
		return a ^ b
	case '<':
		return a << uint(b)
	}
	return a >> uint(b)
}

// Comparison operators by code, and the code of the mirrored operator
// (k op x is x mirror(op) k).
var (
	cmpCode   = map[string]byte{"<": '<', "<=": 'l', ">": '>', ">=": 'g', "==": '=', "!=": '!'}
	cmpMirror = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
)

// splitLanes splits the lanes act by s[t] op y, y being q[t] or, where q
// is nil, k, into th (where it holds) and el (rewrite 7). A first loop,
// one per operator, finds the first lane whose answer (cmp's) differs
// from the first lane's: a list whose lanes all agree is returned itself,
// and the agreeing prefix is copied as one block; the lanes after it are
// kept one by one.
func splitLanes[T elem | Num, S Num](op byte, cmp func(S, S) bool, s []T, q []S, k S, act, th, el []int32) ([]int32, []int32) {
	if len(act) == 0 {
		return th[:0], el[:0]
	}
	y := func(t int32) S {
		if q != nil {
			return q[t]
		}
		return k
	}
	j, n, b := 0, len(act), cmp(S(s[act[0]]), y(act[0]))
	switch op {
	case '<':
		for ; j < n && (S(s[act[j]]) < y(act[j])) == b; j++ {
		}
	case 'l':
		for ; j < n && (S(s[act[j]]) <= y(act[j])) == b; j++ {
		}
	case '>':
		for ; j < n && (S(s[act[j]]) > y(act[j])) == b; j++ {
		}
	case 'g':
		for ; j < n && (S(s[act[j]]) >= y(act[j])) == b; j++ {
		}
	case '=':
		for ; j < n && (S(s[act[j]]) == y(act[j])) == b; j++ {
		}
	default:
		for ; j < n && (S(s[act[j]]) != y(act[j])) == b; j++ {
		}
	}
	switch {
	case j == n && b:
		return act, el[:0]
	case j == n:
		return th[:0], act
	}
	nt, ne := 0, 0
	if b {
		nt = copy(th, act[:j])
	} else {
		ne = copy(el, act[:j])
	}
	switch op {
	case '<':
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) < y(t))
		}
	case 'l':
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) <= y(t))
		}
	case '>':
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) > y(t))
		}
	case 'g':
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) >= y(t))
		}
	case '=':
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) == y(t))
		}
	default:
		for _, t := range act[j:] {
			nt, ne = keep(th, el, t, nt, ne, S(s[t]) != y(t))
		}
	}
	return th[:nt], el[:ne]
}

// keep puts lane t on both lists and advances the one it belongs to.
func keep(th, el []int32, t int32, nt, ne int, b bool) (int, int) {
	th[nt], el[ne] = t, t
	i := int(b2i(b))
	return nt + i, ne + 1 - i
}

// splitter splits the active lanes by a condition into th and el, ascending.
type splitter func(vm *VecEnv, i0 int64, L int, th, el []int32) ([]int32, []int32)

// condOf compiles the condition k — a comparison, "!x" as x == 0, else
// k != 0 — over its operands' lane type (compareAs).
func condOf(v *vecBuilder, k *kExpr) (dExpr[int64], splitter, error) {
	op, x, y := "!=", k, (*kExpr)(nil)
	if b, ok := k.e.(*cc.BinaryExpr); ok && cmpCode[b.Op] != 0 {
		op, x, y = b.Op, k.x, k.y
	} else if u, ok := k.e.(*cc.UnaryExpr); ok && u.Op == "!" {
		op, x = "==", k.x
	}
	if x.e.Type() == cc.TInt && (y == nil || y.e.Type() == cc.TInt) {
		return compareAs[int64](v, op, x, y)
	}
	return compareAs[float64](v, op, x, y)
}

// truth compiles a comparison or "!" used as a value: the split into the
// lists of an arm one deeper, then 1 and 0 written to their lanes.
func truth(v *vecBuilder, k *kExpr) (vOp[int64], error) {
	m, d := v.top, v.depth
	inv, split, err := condOf(v, k)
	if err != nil || inv != nil {
		return vOp[int64]{inv: inv}, err
	}
	v.counts.note("truth")
	bid := result[int64](v, m)
	v.usesAct, v.maxArms = true, max(v.maxArms, d+1)
	return vOp[int64]{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		out := vm.BufI[bid][:L]
		th, el := split(vm, i0, L, vm.mask[1+2*d], vm.mask[2+2*d])
		for _, t := range th {
			out[t] = 1
		}
		for _, t := range el {
			out[t] = 0
		}
		return out
	}}, nil
}

// compareAs compiles x op y over lanes of type S, a nil y standing for 0:
// its split and, when both operands are uniform, its value (inv; the split
// compares a broadcast). A uniform operand is compared as a scalar, the
// operator mirrored when it is the left one.
func compareAs[S Num](v *vecBuilder, op string, x, y *kExpr) (dExpr[int64], splitter, error) {
	a, err := compile[S](v, x)
	if err != nil {
		return nil, nil, err
	}
	c := vOp[S]{inv: func(*DEnv) S { return 0 }}
	if y != nil {
		if c, err = compile[S](v, y); err != nil {
			return nil, nil, err
		}
	}
	var inv dExpr[int64]
	if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
		cmp := cmpOf[S](op)
		inv, a.vec = func(D *DEnv) int64 { return b2i(cmp(ka(D), kc(D))) }, mat(v, a)
	}
	if a.vec == nil {
		a, c, op = c, a, cmpMirror[op]
	}
	if a.kMul != nil || a.w.elem() != cc.TInt {
		a.w = walkOf{} // a product's walk is its factor's; the census found int walks only
	}
	if v.counts.note("split"); a.w.arr != nil {
		v.counts.note("split walk ", a.w.arr.Name)
	}
	// The walk a reads, written array or not, is read straight from the copy
	// where direct gives it (rewrite 7): where its vector would be loaded.
	code, cmp, w, av, cv, ck := cmpCode[op], cmpOf[S](op), a.w, a.vec, c.vec, c.inv
	return inv, func(vm *VecEnv, i0 int64, L int, th, el []int32) ([]int32, []int32) {
		src, ok := direct[int32](vm, i0, L, w)
		var s []S
		if !ok {
			s = av(vm, i0, L)
		}
		q, k := []S(nil), S(0)
		if cv != nil {
			q = cv(vm, i0, L)
		} else {
			k = ck(vm.D)
		}
		if ok {
			return splitLanes(code, cmp, src, q, k, vm.act, th, el)
		}
		return splitLanes(code, cmp, s, q, k, vm.act, th, el)
	}, nil
}

// call compiles a builtin over lanes of type S: min, max and abs for int,
// floatBuiltin's functions, those the interpreter calls, for float. A
// uniform call compiles its arguments as uniform ones (a broadcast per
// argument would sit below the later arguments' scratch).
func call[S Num](v *vecBuilder, k *kExpr) (vOp[S], error) {
	m, uniform := v.top, v.uniform(k)
	var (
		args [2]vec[S]
		invs [2]dExpr[S]
	)
	for i, a := range [2]*kExpr{k.x, k.y} {
		if a == nil {
			break
		}
		o, err := compile[S](v, a)
		if err != nil {
			return vOp[S]{}, err
		}
		if invs[i] = o.inv; !uniform {
			args[i] = mat(v, o)
		}
	}
	fn1, fn2, code := builtin[S](k.e.(*cc.CallExpr).Name)
	if a0, a1 := invs[0], invs[1]; uniform && fn1 != nil {
		return vOp[S]{inv: func(D *DEnv) S { return fn1(a0(D)) }}, nil
	} else if uniform {
		return vOp[S]{inv: func(D *DEnv) S { return fn2(a0(D), a1(D)) }}, nil
	}
	bid, a0, a1 := result[S](v, m), args[0], args[1]
	return vOp[S]{vec: func(vm *VecEnv, i0 int64, L int) []S {
		var q []S
		s := a0(vm, i0, L)
		if a1 != nil {
			q = a1(vm, i0, L)
		}
		out := bufs[S](vm)[bid][:L]
		callLanes(code, out, s, q, fn1, fn2)
		return out
	}}, nil
}

// builtin gives a builtin over S, of one argument or two, and the code
// callLanes runs it by: 'm', 'M' and 'a' for the int min, max and abs,
// whose lanes run without a call, '1' and '2' for a float function.
func builtin[S Num](name string) (fn1 func(S) S, fn2 func(S, S) S, code byte) {
	if isF[S]() {
		f1, f2, _ := floatBuiltin(name)
		if f1 != nil {
			return as[func(S) S](f1), nil, '1'
		}
		return nil, as[func(S, S) S](f2), '2'
	}
	switch name {
	case "min":
		return nil, func(a, b S) S { return min(a, b) }, 'm'
	case "max":
		return nil, func(a, b S) S { return max(a, b) }, 'M'
	}
	return func(a S) S { return max(a, -a) }, nil, 'a'
}

// callLanes runs a builtin over the lanes (see builtin).
func callLanes[S Num](code byte, out, s, q []S, fn1 func(S) S, fn2 func(S, S) S) {
	switch code {
	case 'm':
		for t := range s {
			out[t] = min(s[t], q[t])
		}
	case 'M':
		for t := range s {
			out[t] = max(s[t], q[t])
		}
	case 'a':
		for t, w := range s {
			if w < 0 {
				w = -w
			}
			out[t] = w
		}
	case '1':
		for t := range s {
			out[t] = fn1(s[t])
		}
	default:
		for t := range s {
			out[t] = fn2(s[t], q[t])
		}
	}
}
