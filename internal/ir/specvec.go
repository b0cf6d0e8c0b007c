package ir

import (
	"math/bits"
	"slices"

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
//     (vOpI.inv) whenever all their operands are. A scalar
//     nothing reads with one assignment site — an op-assignment, or any
//     assignment of a reduction scalar — is a fold: updated in the DEnv
//     over the lanes in ascending order.
//   - Under an if-arm only the lanes that took the arm (VecEnv.act)
//     execute what can fault or has an effect: loads, stores, integer
//     division, folds, reduction-lane updates and writes to private
//     vectors. Total operations (float arithmetic, integer + - *,
//     comparisons) run dense over the tile; what they compute in
//     inactive lanes is never read. Arm counters advance by the
//     active-lane count, loop buckets by trips × active lanes.
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
// Fused multiply-add shapes (k*x ± y in one pass) keep an explicit
// float64(...) conversion around the product: the Go spec lets an
// implementation fuse floating-point operations across statements
// unless an explicit conversion demands the intermediate rounding, and
// the interpreter rounds every operation individually.

// VecTile is the tile width: one VStmt call covers up to this many
// consecutive iterations. Scratch vectors are cache-resident at this
// size (4 KiB per buffer).
const VecTile = 512

// Scratch vectors are numbered by a stack, one per element type: a
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
	vm := &VecEnv{BufI: make([][]int64, s.NumBufI), BufF: make([][]float64, s.NumBufF), mask: make([][]int32, s.NumMask)}
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
	bi := make([]int64, n*len(vm.BufI))
	for i := range vm.BufI {
		vm.BufI[i] = bi[i*n : (i+1)*n : (i+1)*n]
	}
	bf := make([]float64, n*len(vm.BufF))
	for i := range vm.BufF {
		vm.BufF[i] = bf[i*n : (i+1)*n : (i+1)*n]
	}
	bm := make([]int32, n*len(vm.mask))
	for i := range vm.mask {
		vm.mask[i] = bm[i*n : (i+1)*n : (i+1)*n]
	}
	if len(vm.mask) > 0 {
		for t := range vm.mask[0] {
			vm.mask[0][t] = int32(t)
		}
	}
	vm.tile = n
}

type (
	vecI func(vm *VecEnv, i0 int64, L int) []int64
	vecF func(vm *VecEnv, i0 int64, L int) []float64
)

// vOpI is a compiled int expression: either uniform (inv set, evaluated
// once per tile step against the worker scalars) or varying (vec set,
// filling/returning a scratch vector).
type vOpI struct {
	inv dExprI
	vec vecI
}

// vOpF is the float counterpart. kMul/mulX additionally expose a
// (uniform × varying) product so an enclosing add/sub can fuse the
// multiply into its own pass.
type vOpF struct {
	inv  dExprF
	vec  vecF
	kMul dExprF
	mulX vecF
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
	// private scalars defined around it.
	flatLoops map[*kStmt][]*cc.VarDecl
	// injLoops holds the uniform loops that update reduction lanes in
	// lockstep (injective), with the same scalars; inj collects, while one
	// compiles, the indices forStmt checks before the first trip.
	injLoops map[*kStmt][]*cc.VarDecl
	inj      *injLoop
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
	// topI/topF are the scratch stacks' heights, baseI/baseF the part
	// held by private vectors, nBufI/nBufF the high-water marks.
	topI, topF   int
	baseI, baseF int
	nBufI, nBufF int
	// undo logs the scalars scan defined since a block was entered;
	// inFlat is set while check is inside a flat loop.
	undo   []*cc.VarDecl
	inFlat bool
}

// buildVec compiles the tiled body of a lowered body, or returns why the
// shape has none ("order" or "shape").
func buildVec(l *lowered) string {
	spec := l.spec
	v := &vecBuilder{
		lowered:   l,
		scalars:   make(map[*cc.VarDecl]scalarInfo, len(l.decls)),
		flatLoops: map[*kStmt][]*cc.VarDecl{},
		injLoops:  map[*kStmt][]*cc.VarDecl{},
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
	spec.NumBufI, spec.NumBufF = v.nBufI, v.nBufF
	if v.usesAct {
		spec.NumMask = 1 + 2*v.maxArms
	}
	usesAct, wins, acc := v.usesAct, v.windows, spec.Accesses
	spec.VecBody = func(vm *VecEnv, i0 int64, L int) int {
		if usesAct {
			vm.act = vm.mask[0][:L]
		}
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
func (v *vecBuilder) takeArm(n int) int {
	v.counts.arm(v.lowered, readTile+int(b2i(v.alt)), n)
	return n
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
		return k.lo <= ai && ai < k.hi
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
		u.buf = v.pushI() + 1
		v.baseI = v.topI
	} else if u.buf == 0 {
		u.buf = v.pushF() + 1
		v.baseF = v.topF
	}
	v.scalars[d] = u
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

func (v *vecBuilder) pushI() int {
	v.topI++
	v.nBufI = max(v.nBufI, v.topI)
	return v.topI - 1
}

func (v *vecBuilder) pushF() int {
	v.topF++
	v.nBufF = max(v.nBufF, v.topF)
	return v.topF - 1
}

// bufMark is the stacks' height at a node's entry.
type bufMark struct{ i, f int }

func (v *vecBuilder) mark() bufMark { return bufMark{v.topI, v.topF} }

// outI/outF pop everything pushed since m (the node's operands) and
// push the node's result.
func (v *vecBuilder) outI(m bufMark) int {
	v.topI, v.topF = m.i, m.f
	return v.pushI()
}

func (v *vecBuilder) outF(m bufMark) int {
	v.topI, v.topF = m.i, m.f
	return v.pushF()
}

// matI/matF materialize an operand into a vector, broadcasting
// uniform values through a dedicated buffer.
func (v *vecBuilder) matI(o vOpI) vecI {
	if o.vec != nil {
		return o.vec
	}
	bid := v.pushI()
	inv := o.inv
	return func(vm *VecEnv, i0 int64, L int) []int64 {
		k := inv(vm.D)
		out := vm.BufI[bid][:L]
		for t := range out {
			out[t] = k
		}
		return out
	}
}

func (v *vecBuilder) matF(o vOpF) vecF {
	if o.vec != nil {
		return o.vec
	}
	bid := v.pushF()
	inv := o.inv
	return func(vm *VecEnv, i0 int64, L int) []float64 {
		k := inv(vm.D)
		out := vm.BufF[bid][:L]
		for t := range out {
			out[t] = k
		}
		return out
	}
}
func (v *vecBuilder) stmt(k *kStmt) (VStmt, error) {
	v.topI, v.topF = v.baseI, v.baseF // the previous statement's vectors are dead
	switch st := k.s.(type) {
	case *cc.Block:
		var seq []VStmt
		for _, c := range k.kids {
			d, err := v.stmt(c)
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
		return func(vm *VecEnv, i0 int64, L int) {
			for _, d := range seq {
				d(vm, i0, L)
			}
		}, nil
	case *cc.DeclStmt:
		return nil, nil
	case *cc.AssignStmt:
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			switch fold := v.scalars[lhs.Decl].kind == kFold; {
			case v.flat != nil && (fold || !v.flat.local[lhs.Decl]):
				return v.flatFold(k, lhs.Decl, !fold)
			case fold:
				return v.fold(k, lhs.Decl)
			}
			return v.privateAssign(k, lhs.Decl)
		case *cc.IndexExpr:
			switch {
			case v.flat != nil && st.Reduce != nil:
				return v.flatReduce(k)
			case v.flat != nil:
				return v.flatStore(k)
			case st.Reduce != nil:
				return v.arrayReduce(k)
			}
			return v.arrayAssign(k)
		}
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

// ifStmt compiles a data-dependent branch: the condition is evaluated
// for the lanes active so far, which split into the then- and the
// else-list; each arm runs with its list as VecEnv.act and counts its
// length, exactly what the interpreter's arms count one by one.
func (v *vecBuilder) ifStmt(k *kStmt) (VStmt, error) {
	// cv is 1 in the lanes where the condition holds, 0 elsewhere (a
	// comparison already is; anything else is compared with zero).
	var cv vecI
	if k.x.e.Type() == cc.TInt {
		o, err := v.vExprI(k.x)
		if err != nil {
			return nil, err
		}
		cv = v.matI(o)
		if b, ok := k.x.e.(*cc.BinaryExpr); !ok || cmpCode[b.Op] == 0 {
			iv, bid := cv, v.pushI()
			cv = func(vm *VecEnv, i0 int64, L int) []int64 {
				out := vm.BufI[bid][:L]
				cmpLanes(out, '!', iv(vm, i0, L), nil, 0)
				return out
			}
		}
	} else {
		o, err := v.vExprF(k.x)
		if err != nil {
			return nil, err
		}
		fv, bid := v.matF(o), v.pushI()
		cv = func(vm *VecEnv, i0 int64, L int) []int64 {
			out := vm.BufI[bid][:L]
			cmpLanes(out, '!', fv(vm, i0, L), nil, 0)
			return out
		}
	}
	thenIdx, elseIdx := v.takeArm(k.arm), k.elseArm
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
		v.takeArm(elseIdx)
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
		c := cv(vm, i0, L)
		lanes := vm.act
		// Both lists take every lane and advance past the ones that are
		// theirs: no branch on the data.
		th, el := vm.mask[1+2*depth][:len(lanes)], vm.mask[2+2*depth][:len(lanes)]
		nt, ne := 0, 0
		for _, t := range lanes {
			th[nt], el[ne] = t, t
			nt += int(c[t])
			ne += 1 - int(c[t])
		}
		if th, el = th[:nt], el[:ne]; thSite >= 0 {
			vm.sites[thSite].keep(vm, th, nil, nil, nil)
			vm.sites[elSite].keep(vm, el, nil, nil, nil)
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
		ix   vecI
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
	init, err := v.vExprI(k.kids[0].y)
	if err != nil {
		return nil, err
	}
	bound, err := v.vExprI(boundX)
	if err != nil {
		return nil, err
	}
	condIdx, bodyIdx := v.takeArm(k.arm), v.takeArm(k.arm+1)
	v.usesAct = true
	live, inj := v.injLoops[k]
	if inj {
		v.inj = &injLoop{lv: v.mask(k.lv)}
	}
	body, err := v.stmt(k.kids[1])
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
func setLanes[S int64 | float64, R int64 | float32 | float64](op byte, out, s []S, act []int32) {
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

// The forms of fuseLanes: out = a op c, out = a op k and out = k - a
// with c a vector and k uniform, and out ± = a * c.
const (
	fuAddV = iota
	fuAddK
	fuSubV
	fuSubK
	fuRsubK
	fuMulV
	fuMulK
	fuAccAdd
	fuAccSub
)

// fuseLanes is setLanes with the last operation of the right-hand side
// folded into the pass: one float64 operation, then the assignment's
// own, the explicit conversion between them keeping the pair from
// contracting into a multiply-add (see the file header).
func fuseLanes[R float32 | float64](form int, out, a, c []float64, k float64, act []int32) {
	a = a[:len(out)]
	if c != nil {
		c = c[:len(out)]
	}
	if len(act) == len(out) {
		form += fuAccSub + 1
	}
	switch form {
	case fuAddV:
		for _, t := range act {
			out[t] = float64(R(a[t] + c[t]))
		}
	case fuAddK:
		for _, t := range act {
			out[t] = float64(R(a[t] + k))
		}
	case fuSubV:
		for _, t := range act {
			out[t] = float64(R(a[t] - c[t]))
		}
	case fuSubK:
		for _, t := range act {
			out[t] = float64(R(a[t] - k))
		}
	case fuRsubK:
		for _, t := range act {
			out[t] = float64(R(k - a[t]))
		}
	case fuMulV:
		for _, t := range act {
			out[t] = float64(R(a[t] * c[t]))
		}
	case fuMulK:
		for _, t := range act {
			out[t] = float64(R(a[t] * k))
		}
	case fuAccAdd:
		for _, t := range act {
			out[t] = float64(R(out[t] + float64(a[t]*c[t])))
		}
	case fuAccSub:
		for _, t := range act {
			out[t] = float64(R(out[t] - float64(a[t]*c[t])))
		}
	case fuAccSub + 1 + fuAddV:
		for t := range out {
			out[t] = float64(R(a[t] + c[t]))
		}
	case fuAccSub + 1 + fuAddK:
		for t := range out {
			out[t] = float64(R(a[t] + k))
		}
	case fuAccSub + 1 + fuSubV:
		for t := range out {
			out[t] = float64(R(a[t] - c[t]))
		}
	case fuAccSub + 1 + fuSubK:
		for t := range out {
			out[t] = float64(R(a[t] - k))
		}
	case fuAccSub + 1 + fuRsubK:
		for t := range out {
			out[t] = float64(R(k - a[t]))
		}
	case fuAccSub + 1 + fuMulV:
		for t := range out {
			out[t] = float64(R(a[t] * c[t]))
		}
	case fuAccSub + 1 + fuMulK:
		for t := range out {
			out[t] = float64(R(a[t] * k))
		}
	case fuAccSub + 1 + fuAccAdd:
		for t := range out {
			out[t] = float64(R(out[t] + float64(a[t]*c[t])))
		}
	default:
		for t := range out {
			out[t] = float64(R(out[t] - float64(a[t]*c[t])))
		}
	}
}

// fusedForms lists, by the operator of the right-hand side, the forms for
// vector op vector, vector op uniform and uniform op vector.
var fusedForms = map[string][3]int{
	"+": {fuAddV, fuAddK, fuAddK}, "-": {fuSubV, fuSubK, fuRsubK}, "*": {fuMulV, fuMulK, fuMulK},
}

// fusedForm picks the fuseLanes form of `lhs aop (x iop y)`; ka and kc
// say which operand is uniform, swap that the uniform one came first.
// ok is false where no form covers the statement.
func fusedForm(aop, iop string, ka, kc bool) (form int, swap, ok bool) {
	forms := fusedForms[iop]
	switch {
	case ka && kc:
	case aop == "=" && kc:
		return forms[1], false, true
	case aop == "=" && ka:
		return forms[2], true, true
	case aop == "=":
		return forms[0], false, true
	case aop == "+=" && iop == "*" && !ka && !kc:
		return fuAccAdd, false, true
	case aop == "-=" && iop == "*" && !ka && !kc:
		return fuAccSub, false, true
	}
	return 0, false, false
}

// privateAssign compiles an assignment to a private scalar: one pass
// over the active lanes of its vector. A float right-hand side that ends
// in +, - or * runs that operation in the same pass (fuseLanes); any
// other is computed into a scratch vector first.
func (v *vecBuilder) privateAssign(k *kStmt, d *cc.VarDecl) (VStmt, error) {
	st := k.s.(*cc.AssignStmt)
	v.usesAct = true
	bid := v.scalars[d].buf - 1
	if bid < 0 {
		return nil, errSpecIneligible
	}
	op := st.Op[0]
	if d.Type == cc.TInt {
		r, err := v.vExprI(k.y)
		if _, opErr := intApply(st.Op, st.Pos()); err != nil || st.Op != "=" && opErr != nil {
			return nil, errSpecIneligible
		}
		rv := v.matI(r)
		return func(vm *VecEnv, i0 int64, L int) {
			setLanesI(op, vm.BufI[bid][:L], rv(vm, i0, L), vm.act)
		}, nil
	}
	if _, opErr := floatApply(st.Op, st.Pos()); st.Op != "=" && opErr != nil {
		return nil, errSpecIneligible
	}
	set, fuse := setLanes[float64, float64], fuseLanes[float64]
	if d.Type == cc.TFloat {
		set, fuse = setLanes[float64, float32], fuseLanes[float32]
	}
	var r vOpF
	var err error
	if x, ok := k.y.e.(*cc.BinaryExpr); ok && x.Type() != cc.TInt && (x.Op == "+" || x.Op == "-" || x.Op == "*") {
		// Operands run in program order (the second one's temporaries sit
		// above the first one's result); a is the vector of a mixed pair.
		m := v.mark()
		a, errA := v.vExprF(k.y.x)
		if errA != nil {
			return nil, errA
		}
		c, errC := v.vExprF(k.y.y)
		if errC != nil {
			return nil, errC
		}
		if form, swap, ok := fusedForm(st.Op, x.Op, a.inv != nil, c.inv != nil); ok {
			xv, yv, kx, ky := a.vec, c.vec, a.inv, c.inv
			return func(vm *VecEnv, i0 int64, L int) {
				var s, q []float64
				var k float64
				if xv != nil {
					s = xv(vm, i0, L)
				} else {
					k = kx(vm.D)
				}
				if yv != nil {
					q = yv(vm, i0, L)
				} else {
					k = ky(vm.D)
				}
				if swap {
					s, q = q, nil
				}
				fuse(form, vm.BufF[bid][:L], s, q, k, vm.act)
			}, nil
		}
		r, err = v.arithF(x.Op, a, c, m)
	} else {
		r, err = v.vExprF(k.y)
	}
	if err != nil {
		return nil, errSpecIneligible
	}
	rv := v.matF(r)
	return func(vm *VecEnv, i0 int64, L int) {
		set(op, vm.BufF[bid][:L], rv(vm, i0, L), vm.act)
	}, nil
}

// intFold and floatFold give the step of a fold: the assignment's
// operator, "=" keeping the new value.
func intFold(st *cc.AssignStmt) (func(int64, int64) int64, error) {
	if st.Op == "=" {
		return func(_, x int64) int64 { return x }, nil
	}
	return intApply(st.Op, st.Pos())
}

func floatFold(st *cc.AssignStmt) (func(float64, float64) float64, error) {
	if st.Op == "=" {
		return func(_, x float64) float64 { return x }, nil
	}
	return floatApply(st.Op, st.Pos())
}

// fold compiles a kernel scalar reduction: the active lanes' values
// fold into the worker's partial in ascending lane order, which is
// iteration order, with float32 rounding per step. A reduction scalar
// assigned with "=" keeps the last active lane's value.
func (v *vecBuilder) fold(k *kStmt, d *cc.VarDecl) (VStmt, error) {
	st := k.s.(*cc.AssignStmt)
	v.usesAct = true
	slot := d.Slot
	if d.Type == cc.TInt {
		r, err := v.vExprI(k.y)
		if err != nil {
			return nil, err
		}
		apply, err := intFold(st)
		if err != nil {
			return nil, errSpecIneligible
		}
		rv := v.matI(r)
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			acc := vm.D.Ints[slot]
			for _, t := range vm.act {
				acc = apply(acc, s[t])
			}
			vm.D.Ints[slot] = acc
		}, nil
	}
	r, err := v.vExprF(k.y)
	if err != nil {
		return nil, err
	}
	apply, err := floatFold(st)
	if err != nil {
		return nil, errSpecIneligible
	}
	rv, f32 := v.matF(r), d.Type == cc.TFloat
	return func(vm *VecEnv, i0 int64, L int) {
		s := rv(vm, i0, L)
		acc := vm.D.Floats[slot]
		for _, t := range vm.act {
			if acc = apply(acc, s[t]); f32 {
				acc = float64(float32(acc))
			}
		}
		vm.D.Floats[slot] = acc
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
	vec      vecI
	mul, add dExprI
}

// laneIndex compiles the subscript idx of access site.
func (v *vecBuilder) laneIndex(idx *kExpr, site int) (laneIdx, error) {
	if _, ok := affineDegree(idx, v.uniform); !ok || v.flat != nil {
		// A gather (in a flat body, any access: the induction variable is a
		// vector); a uniform scale and offset stay out of the vector.
		li := laneIdx{affine: -1}
		peel := func(op string, dst *dExprI) error {
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
			o, err := v.vExprI(k)
			*dst, idx = o.inv, e
			return err
		}
		if err := peel("+", &li.add); err != nil {
			return laneIdx{}, err
		}
		if err := peel("*", &li.mul); err != nil {
			return laneIdx{}, err
		}
		o, err := v.vExprI(idx)
		if err != nil {
			return laneIdx{}, err
		}
		li.vec = v.matI(o)
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
	o, err := v.vExprI(idx)
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
func walkLoad[T int32 | float32 | float64, S int64 | float64](out []S, src []T, p, step int64) {
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

// loadWalk reads a walk of logical indices into out, through off lane
// by lane where a column-major copy breaks the walk's affinity.
func loadWalk[T int32 | float32 | float64, S int64 | float64](out []S, src []T, a *DArray, p, step int64) {
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
func fetch[T int32 | float32 | float64, S int64 | float64](out []S, src []T, a *DArray, idx []int64, k, c int64, act []int32) {
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
func (v *vecBuilder) idxVec(li laneIdx) vecI {
	if li.vec != nil && li.mul == nil && li.add == nil {
		return li.vec
	}
	bid := v.pushI()
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

// load compiles an array read: a dense strided walk when the index is
// affine across the lanes and every lane is active, a per-lane fetch of
// the active lanes otherwise (a gather, or any load under an arm).
func (v *vecBuilder) load(k *kExpr) (vOpI, vOpF, error) {
	x := k.e.(*cc.IndexExpr)
	slot, typ, site := x.Array.Slot, x.Array.Type, v.take(k, AccessLoad)
	if v.uniform(k) {
		return v.uniformLoad(k.x, slot, typ)
	}
	m := v.mark()
	li, err := v.laneIndex(k.x, site)
	if err != nil {
		return vOpI{}, vOpF{}, err
	}
	if ai := li.affine; ai >= 0 && !v.masked {
		// The straight-line case, kept lean: the runtime's coefficients,
		// no helper call (it sent to the interpreter any piece whose walk
		// a column-major copy would break).
		if typ == cc.TInt {
			bid := v.outI(m)
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				out := vm.BufI[bid][:L]
				a := &vm.D.Arrays[slot]
				p, step, _ := a.span(vm.AccA[ai]*i0+vm.AccB[ai], vm.AccA[ai])
				walkLoad(out, a.I32, p, step)
				return out
			}}, vOpF{}, nil
		}
		bid := v.outF(m)
		if typ == cc.TFloat {
			return vOpI{}, vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				out := vm.BufF[bid][:L]
				a := &vm.D.Arrays[slot]
				p, step, _ := a.span(vm.AccA[ai]*i0+vm.AccB[ai], vm.AccA[ai])
				walkLoad(out, a.F32, p, step)
				return out
			}}, nil
		}
		return vOpI{}, vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			out := vm.BufF[bid][:L]
			a := &vm.D.Arrays[slot]
			p, step, _ := a.span(vm.AccA[ai]*i0+vm.AccB[ai], vm.AccA[ai])
			walkLoad(out, a.F64, p, step)
			return out
		}}, nil
	}
	if li.walk != nil && !v.masked {
		wk := li.walk
		if typ == cc.TInt {
			bid := v.outI(m)
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				out := vm.BufI[bid][:L]
				a := &vm.D.Arrays[slot]
				p, step := wk(vm, i0)
				loadWalk(out, a.I32, a, p, step)
				return out
			}}, vOpF{}, nil
		}
		bid := v.outF(m)
		return vOpI{}, vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			out := vm.BufF[bid][:L]
			a := &vm.D.Arrays[slot]
			p, step := wk(vm, i0)
			if typ == cc.TFloat {
				loadWalk(out, a.F32, a, p, step)
			} else {
				loadWalk(out, a.F64, a, p, step)
			}
			return out
		}}, nil
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
		m = v.mark()
	}
	if typ == cc.TInt {
		bid := v.outI(m)
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			q := ix(vm, i0, L)
			out := vm.BufI[bid][:L]
			a := &vm.D.Arrays[slot]
			k, c := li.scale(vm.D)
			if fetch(out, a.I32, a, q, k, c, vm.act); watch >= 0 {
				vm.sites[watch].keep(vm, vm.act, q, out, nil)
			}
			return out
		}}, vOpF{}, nil
	}
	bid := v.outF(m)
	return vOpI{}, vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		q := ix(vm, i0, L)
		out := vm.BufF[bid][:L]
		k, c := li.scale(vm.D)
		if a := &vm.D.Arrays[slot]; typ == cc.TFloat {
			fetch(out, a.F32, a, q, k, c, vm.act)
		} else {
			fetch(out, a.F64, a, q, k, c, vm.act)
		}
		if watch >= 0 {
			vm.sites[watch].keep(vm, vm.act, q, nil, out)
		}
		return out
	}}, nil
}

// uniformLoad compiles a load with one value for the whole tile step: a
// uniform subscript into an array the kernel never writes.
func (v *vecBuilder) uniformLoad(idx *kExpr, slot int, typ cc.ElemType) (vOpI, vOpF, error) {
	o, err := v.vExprI(idx)
	ix := o.inv
	switch typ {
	case cc.TInt:
		return vOpI{inv: func(D *DEnv) int64 {
			a := &D.Arrays[slot]
			return int64(a.I32[a.off(ix(D)-a.Base)])
		}}, vOpF{}, err
	case cc.TFloat:
		return vOpI{}, vOpF{inv: func(D *DEnv) float64 {
			a := &D.Arrays[slot]
			return float64(a.F32[a.off(ix(D)-a.Base)])
		}}, err
	}
	return vOpI{}, vOpF{inv: func(D *DEnv) float64 {
		a := &D.Arrays[slot]
		return a.F64[a.off(ix(D)-a.Base)]
	}}, err
}

// walkStore writes s to the walk p, p+A, ... of dst, every lane. Small
// enough to inline, like walkLoad.
func walkStore[T int32 | float32 | float64, S int64 | float64](dst []T, p, A int64, s []S) {
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
func storeLanes[T int32 | float32 | float64, S int64 | float64](dst []T, p, A int64, s []S, apply func(S, S) S, act []int32) {
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

// arrayAssign compiles a store. scan admitted only stores affine in the
// induction variable, so the walk comes from the runtime's coefficients
// (a written array is never layout-transformed).
func (v *vecBuilder) arrayAssign(k *kStmt) (VStmt, error) {
	st, lhs := k.s.(*cc.AssignStmt), k.x.e.(*cc.IndexExpr)
	slot, typ, ai := lhs.Array.Slot, lhs.Array.Type, v.take(k.x, AccessStore)
	dense := !v.masked && st.Op == "="
	v.usesAct = v.usesAct || !dense
	if typ == cc.TInt {
		r, err := v.vExprI(k.y)
		if err != nil {
			return nil, err
		}
		rv := v.matI(r)
		if dense {
			return func(vm *VecEnv, i0 int64, L int) {
				s := rv(vm, i0, L)
				a := &vm.D.Arrays[slot]
				p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
				walkStore(a.I32, p, A, s)
				a.markWalk(p, A, L, nil)
			}, nil
		}
		var apply func(int64, int64) int64
		if st.Op != "=" {
			if apply, err = intApply(st.Op, st.Pos()); err != nil {
				return nil, errSpecIneligible
			}
		}
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
			storeLanes(a.I32, p, A, s, apply, vm.act)
			a.markWalk(p, A, L, vm.act)
		}, nil
	}
	r, err := v.vExprF(k.y)
	if err != nil {
		return nil, err
	}
	rv := v.matF(r)
	if dense && typ == cc.TFloat {
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
			walkStore(a.F32, p, A, s)
			a.markWalk(p, A, L, nil)
		}, nil
	}
	if dense {
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
			walkStore(a.F64, p, A, s)
			a.markWalk(p, A, L, nil)
		}, nil
	}
	var apply func(float64, float64) float64
	if st.Op != "=" {
		if apply, err = floatApply(st.Op, st.Pos()); err != nil {
			return nil, errSpecIneligible
		}
	}
	return func(vm *VecEnv, i0 int64, L int) {
		s := rv(vm, i0, L)
		a := &vm.D.Arrays[slot]
		p, A := vm.AccA[ai]*i0+vm.AccB[ai]-a.Base, vm.AccA[ai]
		if typ == cc.TFloat {
			storeLanes(a.F32, p, A, s, apply, vm.act)
		} else {
			storeLanes(a.F64, p, A, s, apply, vm.act)
		}
		a.markWalk(p, A, L, vm.act)
	}, nil
}

// reduceLanes updates the worker's reduction lane at the active lanes'
// logical indices q, in ascending lane order.
func reduceLanes[S int64 | float64](lane []S, q []int64, s []S, act []int32, mul bool) {
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

func (v *vecBuilder) arrayReduce(k *kStmt) (VStmt, error) {
	st, lhs := k.s.(*cc.AssignStmt), k.x.e.(*cc.IndexExpr)
	slot := lhs.Array.Slot
	v.usesAct = true
	li, err := v.laneIndex(k.x.x, v.take(k.x, AccessReduce))
	if err != nil {
		return nil, err
	}
	// Lanes are indexed by logical element index: no Base shift.
	ix := v.idxVec(li)
	mul := st.Reduce.Op == "*"
	if lhs.Array.Type == cc.TInt {
		r, err := v.vExprI(k.y)
		if err != nil {
			return nil, err
		}
		rv := v.matI(r)
		return func(vm *VecEnv, i0 int64, L int) {
			q, s := ix(vm, i0, L), rv(vm, i0, L)
			reduceLanes(vm.D.Arrays[slot].LaneI, q, s, vm.act, mul)
		}, nil
	}
	r, err := v.vExprF(k.y)
	if err != nil {
		return nil, err
	}
	if v.inj != nil {
		c, _ := lvCoef(k.x.x, v.inj.lv)
		v.inj.sites = append(v.inj.sites, injSite{ix, max(c, -c)})
	}
	rv := v.matF(r)
	return func(vm *VecEnv, i0 int64, L int) {
		q, s := ix(vm, i0, L), rv(vm, i0, L)
		reduceLanes(vm.D.Arrays[slot].LaneF, q, s, vm.act, mul)
	}, nil
}

// vExprI and vExprF compile a lowered expression by type, with a
// conversion pass when the types differ. A node whose operands are all
// uniform is uniform itself (inv): one value per tile step, evaluated
// against the worker's scalars — literals, loop invariants, inner
// induction variables and loads of arrays the kernel never writes, and
// what is computed from them.
func (v *vecBuilder) vExprI(k *kExpr) (vOpI, error) {
	if k.e.Type() == cc.TInt {
		return v.compileI(k)
	}
	m := v.mark()
	f, err := v.compileF(k)
	if err != nil {
		return vOpI{}, err
	}
	if g := f.inv; g != nil {
		return vOpI{inv: func(D *DEnv) int64 { return int64(g(D)) }}, nil
	}
	fv := v.matF(f)
	bid := v.outI(m)
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s := fv(vm, i0, L)
		out := vm.BufI[bid][:L]
		for t := range s {
			out[t] = int64(s[t])
		}
		return out
	}}, nil
}

func (v *vecBuilder) vExprF(k *kExpr) (vOpF, error) {
	if k.e.Type() != cc.TInt {
		return v.compileF(k)
	}
	m := v.mark()
	i, err := v.compileI(k)
	if err != nil {
		return vOpF{}, err
	}
	if g := i.inv; g != nil {
		return vOpF{inv: func(D *DEnv) float64 { return float64(g(D)) }}, nil
	}
	iv := v.matI(i)
	bid := v.outF(m)
	return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		s := iv(vm, i0, L)
		out := vm.BufF[bid][:L]
		for t := range s {
			out[t] = float64(s[t])
		}
		return out
	}}, nil
}

// compileI compiles an int-typed expression.
func (v *vecBuilder) compileI(k *kExpr) (vOpI, error) {
	m := v.mark()
	switch x := k.e.(type) {
	case *cc.NumLit:
		c := x.I
		return vOpI{inv: func(*DEnv) int64 { return c }}, nil

	case *cc.Ident:
		if vec, _ := v.flatIdent(x.Decl); vec != nil {
			return vOpI{vec: vec}, nil
		}
		if x.Decl == v.loopVar && !v.ivScalar {
			bid := v.pushI()
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				out := vm.BufI[bid][:L]
				for t := range out {
					out[t] = i0 + int64(t)
				}
				return out
			}}, nil
		}
		if u := v.scalars[x.Decl]; u.kind == kPrivate {
			bid := u.buf - 1
			if bid < 0 {
				return vOpI{}, errSpecIneligible
			}
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				return vm.BufI[bid][:L]
			}}, nil
		}
		slot := x.Decl.Slot
		return vOpI{inv: func(e *DEnv) int64 { return e.Ints[slot] }}, nil

	case *cc.IndexExpr:
		o, _, err := v.load(k)
		return o, err

	case *cc.BinaryExpr:
		return v.binaryI(k)

	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			o, err := v.vExprI(k.x)
			if err != nil {
				return vOpI{}, err
			}
			if g := o.inv; g != nil {
				return vOpI{inv: func(D *DEnv) int64 { return -g(D) }}, nil
			}
			ov := v.matI(o)
			bid := v.outI(m)
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				s := ov(vm, i0, L)
				out := vm.BufI[bid][:L]
				for t := range s {
					out[t] = -s[t]
				}
				return out
			}}, nil
		case "!":
			return v.notOp(k.x)
		case "~":
			o, err := v.vExprI(k.x)
			if err != nil {
				return vOpI{}, err
			}
			if g := o.inv; g != nil {
				return vOpI{inv: func(D *DEnv) int64 { return ^g(D) }}, nil
			}
			ov := v.matI(o)
			bid := v.outI(m)
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				s := ov(vm, i0, L)
				out := vm.BufI[bid][:L]
				for t := range s {
					out[t] = ^s[t]
				}
				return out
			}}, nil
		}
		return vOpI{}, errSpecIneligible

	case *cc.CallExpr:
		return v.callI(k)

	case *cc.CastExpr:
		if x.To != cc.TInt {
			return vOpI{}, errSpecIneligible
		}
		// The same conversion as an int context's (vExprI).
		return v.vExprI(k.x)
	}
	return vOpI{}, errSpecIneligible
}

// notOp compiles logical negation over either operand type.
func (v *vecBuilder) notOp(inner *kExpr) (vOpI, error) {
	m := v.mark()
	if inner.e.Type() == cc.TInt {
		o, err := v.vExprI(inner)
		if err != nil {
			return vOpI{}, err
		}
		if g := o.inv; g != nil {
			return vOpI{inv: func(D *DEnv) int64 { return b2i(g(D) == 0) }}, nil
		}
		ov := v.matI(o)
		bid := v.outI(m)
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s := ov(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = b2i(s[t] == 0)
			}
			return out
		}}, nil
	}
	o, err := v.vExprF(inner)
	if err != nil {
		return vOpI{}, err
	}
	if g := o.inv; g != nil {
		return vOpI{inv: func(D *DEnv) int64 { return b2i(g(D) == 0) }}, nil
	}
	ov := v.matF(o)
	bid := v.outI(m)
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s := ov(vm, i0, L)
		out := vm.BufI[bid][:L]
		for t := range s {
			out[t] = b2i(s[t] == 0)
		}
		return out
	}}, nil
}

func (v *vecBuilder) binaryI(k *kExpr) (vOpI, error) {
	x := k.e.(*cc.BinaryExpr)
	m := v.mark()
	switch x.Op {
	case "&&", "||":
		return vOpI{}, errSpecIneligible
	case "<", "<=", ">", ">=", "==", "!=":
		return v.compare(k)
	case "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>":
	default:
		return vOpI{}, errSpecIneligible
	}
	a, err := v.vExprI(k.x)
	if err != nil {
		return vOpI{}, err
	}
	c, err := v.vExprI(k.y)
	if err != nil {
		return vOpI{}, err
	}
	op := x.Op[0]
	if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
		return vOpI{inv: func(D *DEnv) int64 { return intOp(op, ka(D), kc(D)) }}, nil
	}
	// Division faults on a zero divisor: under an arm, active lanes only.
	faults := v.masked && (op == '/' || op == '%')
	av, ak, cv, ck := a.vec, a.inv, c.vec, c.inv
	bid := v.outI(m)
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		// Each operand is a vector or, where that is nil, one scalar.
		var s, q []int64
		var ka, kc int64
		if av != nil {
			s = av(vm, i0, L)
		} else {
			ka = ak(vm.D)
		}
		if cv != nil {
			q = cv(vm, i0, L)
		} else {
			kc = ck(vm.D)
		}
		out := vm.BufI[bid][:L]
		if faults {
			for _, t := range vm.act {
				if s != nil {
					ka = s[t]
				}
				if q != nil {
					kc = q[t]
				}
				out[t] = intOp(op, ka, kc)
			}
			return out
		}
		switch {
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
	}}, nil
}

// intOp applies an int binary operator named by its first byte.
func intOp(op byte, a, b int64) int64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
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
	cmpMirror = map[byte]byte{'<': '>', 'l': 'g', '>': '<', 'g': 'l', '=': '=', '!': '!'}
)

// cmpLanes sets out[t] to s[t] op y, y being q[t] or, when q is nil, k.
func cmpLanes[S int64 | float64](out []int64, op byte, s, q []S, k S) {
	y := func(t int) S {
		if q != nil {
			return q[t]
		}
		return k
	}
	switch op {
	case '<':
		for t, x := range s {
			out[t] = b2i(x < y(t))
		}
	case 'l':
		for t, x := range s {
			out[t] = b2i(x <= y(t))
		}
	case '>':
		for t, x := range s {
			out[t] = b2i(x > y(t))
		}
	case 'g':
		for t, x := range s {
			out[t] = b2i(x >= y(t))
		}
	case '=':
		for t, x := range s {
			out[t] = b2i(x == y(t))
		}
	default:
		for t, x := range s {
			out[t] = b2i(x != y(t))
		}
	}
}

// compare compiles a comparison (int result) over either operand type;
// a uniform operand is compared as a scalar.
func (v *vecBuilder) compare(k *kExpr) (vOpI, error) {
	x := k.e.(*cc.BinaryExpr)
	m := v.mark()
	op := cmpCode[x.Op]
	if x.X.Type() == cc.TInt && x.Y.Type() == cc.TInt {
		a, err := v.vExprI(k.x)
		if err != nil {
			return vOpI{}, err
		}
		c, err := v.vExprI(k.y)
		if err != nil {
			return vOpI{}, err
		}
		if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
			cmp := intCmp(x.Op)
			return vOpI{inv: func(D *DEnv) int64 { return b2i(cmp(ka(D), kc(D))) }}, nil
		}
		if a.vec == nil {
			a, c, op = c, a, cmpMirror[op]
		}
		av, cv, ck := a.vec, c.vec, c.inv
		bid := v.outI(m)
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s, out := av(vm, i0, L), vm.BufI[bid][:L]
			if cv != nil {
				cmpLanes(out, op, s, cv(vm, i0, L), 0)
			} else {
				cmpLanes(out, op, s, nil, ck(vm.D))
			}
			return out
		}}, nil
	}
	a, err := v.vExprF(k.x)
	if err != nil {
		return vOpI{}, err
	}
	c, err := v.vExprF(k.y)
	if err != nil {
		return vOpI{}, err
	}
	if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
		cmp := floatCmp(x.Op)
		return vOpI{inv: func(D *DEnv) int64 { return b2i(cmp(ka(D), kc(D))) }}, nil
	}
	if a.vec == nil {
		a, c, op = c, a, cmpMirror[op]
	}
	av, cv, ck := a.vec, c.vec, c.inv
	bid := v.outI(m)
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s, out := av(vm, i0, L), vm.BufI[bid][:L]
		if cv != nil {
			cmpLanes(out, op, s, cv(vm, i0, L), 0)
		} else {
			cmpLanes(out, op, s, nil, ck(vm.D))
		}
		return out
	}}, nil
}

// compileF compiles a float-typed expression.
func (v *vecBuilder) compileF(k *kExpr) (vOpF, error) {
	m := v.mark()
	switch x := k.e.(type) {
	case *cc.NumLit:
		c := x.F
		return vOpF{inv: func(*DEnv) float64 { return c }}, nil

	case *cc.Ident:
		if _, vec := v.flatIdent(x.Decl); vec != nil {
			return vOpF{vec: vec}, nil
		}
		if u := v.scalars[x.Decl]; u.kind == kPrivate {
			bid := u.buf - 1
			if bid < 0 {
				return vOpF{}, errSpecIneligible
			}
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				return vm.BufF[bid][:L]
			}}, nil
		}
		slot := x.Decl.Slot
		return vOpF{inv: func(e *DEnv) float64 { return e.Floats[slot] }}, nil

	case *cc.IndexExpr:
		_, o, err := v.load(k)
		return o, err

	case *cc.BinaryExpr:
		a, err := v.vExprF(k.x)
		if err != nil {
			return vOpF{}, err
		}
		c, err := v.vExprF(k.y)
		if err != nil {
			return vOpF{}, err
		}
		return v.arithF(x.Op, a, c, m)

	case *cc.UnaryExpr:
		if x.Op != "-" {
			return vOpF{}, errSpecIneligible
		}
		o, err := v.vExprF(k.x)
		if err != nil {
			return vOpF{}, err
		}
		if g := o.inv; g != nil {
			return vOpF{inv: func(D *DEnv) float64 { return -g(D) }}, nil
		}
		ov := v.matF(o)
		bid := v.outF(m)
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := ov(vm, i0, L)
			out := vm.BufF[bid][:L]
			for t := range s {
				out[t] = -s[t]
			}
			return out
		}}, nil

	case *cc.CallExpr:
		return v.callF(k)

	case *cc.CastExpr:
		if x.To == cc.TInt {
			return vOpF{}, errSpecIneligible
		}
		o, err := v.vExprF(k.x)
		if err != nil {
			return vOpF{}, err
		}
		if x.To != cc.TFloat {
			// Cast to double is the identity on the float64 value.
			return o, nil
		}
		if g := o.inv; g != nil {
			return vOpF{inv: func(D *DEnv) float64 { return float64(float32(g(D))) }}, nil
		}
		ov := v.matF(o)
		bid := v.outF(m)
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := ov(vm, i0, L)
			out := vm.BufF[bid][:L]
			for t := range s {
				out[t] = float64(float32(s[t]))
			}
			return out
		}}, nil
	}
	return vOpF{}, errSpecIneligible
}

// arithF combines the compiled operands of float arithmetic, m the
// stacks' height before them. Multiplication with one invariant operand
// becomes a scalar-vector pass and advertises itself through kMul/mulX;
// addition and subtraction fuse such products into a single pass. The
// explicit float64(...) around each fused product pins the intermediate
// rounding the interpreter performs (the Go spec otherwise permits fusing
// into an FMA).
func (v *vecBuilder) arithF(op string, a, c vOpF, m bufMark) (vOpF, error) {
	if ka, kc := a.inv, c.inv; ka != nil && kc != nil {
		switch op {
		case "+":
			return vOpF{inv: func(D *DEnv) float64 { return ka(D) + kc(D) }}, nil
		case "-":
			return vOpF{inv: func(D *DEnv) float64 { return ka(D) - kc(D) }}, nil
		case "*":
			return vOpF{inv: func(D *DEnv) float64 { return ka(D) * kc(D) }}, nil
		case "/":
			return vOpF{inv: func(D *DEnv) float64 { return ka(D) / kc(D) }}, nil
		}
		return vOpF{}, errSpecIneligible
	}
	bid := v.outF(m)
	switch op {
	case "*":
		switch {
		case a.inv != nil:
			k, cv := a.inv, c.vec
			return vOpF{
				vec: func(vm *VecEnv, i0 int64, L int) []float64 {
					kk := k(vm.D)
					s := cv(vm, i0, L)
					out := vm.BufF[bid][:L]
					for t := range s {
						out[t] = kk * s[t]
					}
					return out
				},
				kMul: k, mulX: cv,
			}, nil
		case c.inv != nil:
			av, k := a.vec, c.inv
			return vOpF{
				vec: func(vm *VecEnv, i0 int64, L int) []float64 {
					kk := k(vm.D)
					s := av(vm, i0, L)
					out := vm.BufF[bid][:L]
					for t := range s {
						out[t] = s[t] * kk
					}
					return out
				},
				kMul: k, mulX: av,
			}, nil
		}
		av, cv := a.vec, c.vec
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := av(vm, i0, L)
			q := cv(vm, i0, L)
			out := vm.BufF[bid][:L]
			for t := range s {
				out[t] = s[t] * q[t]
			}
			return out
		}}, nil

	case "+", "-":
		sub := op == "-"
		switch {
		case a.kMul != nil && c.kMul != nil:
			k1, x1, k2, x2 := a.kMul, a.mulX, c.kMul, c.mulX
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				ka, kc := k1(vm.D), k2(vm.D)
				s := x1(vm, i0, L)
				q := x2(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = float64(ka*s[t]) - float64(kc*q[t])
					}
				} else {
					for t := range s {
						out[t] = float64(ka*s[t]) + float64(kc*q[t])
					}
				}
				return out
			}}, nil
		case a.kMul != nil && c.inv != nil:
			k1, x1, k2 := a.kMul, a.mulX, c.inv
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				ka, kc := k1(vm.D), k2(vm.D)
				s := x1(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = float64(ka*s[t]) - kc
					}
				} else {
					for t := range s {
						out[t] = float64(ka*s[t]) + kc
					}
				}
				return out
			}}, nil
		case a.inv != nil && c.kMul != nil:
			k1, k2, x2 := a.inv, c.kMul, c.mulX
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				ka, kc := k1(vm.D), k2(vm.D)
				q := x2(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range q {
						out[t] = ka - float64(kc*q[t])
					}
				} else {
					for t := range q {
						out[t] = ka + float64(kc*q[t])
					}
				}
				return out
			}}, nil
		case a.kMul != nil:
			k1, x1, cv := a.kMul, a.mulX, c.vec
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				ka := k1(vm.D)
				s := x1(vm, i0, L)
				q := cv(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = float64(ka*s[t]) - q[t]
					}
				} else {
					for t := range s {
						out[t] = float64(ka*s[t]) + q[t]
					}
				}
				return out
			}}, nil
		case c.kMul != nil:
			av, k2, x2 := a.vec, c.kMul, c.mulX
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				kc := k2(vm.D)
				s := av(vm, i0, L)
				q := x2(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = s[t] - float64(kc*q[t])
					}
				} else {
					for t := range s {
						out[t] = s[t] + float64(kc*q[t])
					}
				}
				return out
			}}, nil
		case a.inv != nil:
			k, cv := a.inv, c.vec
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				kk := k(vm.D)
				s := cv(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = kk - s[t]
					}
				} else {
					for t := range s {
						out[t] = kk + s[t]
					}
				}
				return out
			}}, nil
		case c.inv != nil:
			av, k := a.vec, c.inv
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				kk := k(vm.D)
				s := av(vm, i0, L)
				out := vm.BufF[bid][:L]
				if sub {
					for t := range s {
						out[t] = s[t] - kk
					}
				} else {
					for t := range s {
						out[t] = s[t] + kk
					}
				}
				return out
			}}, nil
		}
		av, cv := a.vec, c.vec
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := av(vm, i0, L)
			q := cv(vm, i0, L)
			out := vm.BufF[bid][:L]
			if sub {
				for t := range s {
					out[t] = s[t] - q[t]
				}
			} else {
				for t := range s {
					out[t] = s[t] + q[t]
				}
			}
			return out
		}}, nil

	case "/":
		switch {
		case a.inv != nil:
			k, cv := a.inv, v.matF(c)
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				kk := k(vm.D)
				s := cv(vm, i0, L)
				out := vm.BufF[bid][:L]
				for t := range s {
					out[t] = kk / s[t]
				}
				return out
			}}, nil
		case c.inv != nil:
			av, k := v.matF(a), c.inv
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				kk := k(vm.D)
				s := av(vm, i0, L)
				out := vm.BufF[bid][:L]
				for t := range s {
					out[t] = s[t] / kk
				}
				return out
			}}, nil
		}
		av, cv := v.matF(a), v.matF(c)
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := av(vm, i0, L)
			q := cv(vm, i0, L)
			out := vm.BufF[bid][:L]
			for t := range s {
				out[t] = s[t] / q[t]
			}
			return out
		}}, nil
	}
	return vOpF{}, errSpecIneligible
}

// callI compiles the int builtins (min, max, abs). The lowering admitted
// no other call; a uniform call compiles its arguments as uniform ones (a
// broadcast per argument would sit below the later arguments' scratch).
func (v *vecBuilder) callI(k *kExpr) (vOpI, error) {
	x := k.e.(*cc.CallExpr)
	m, uniform := v.mark(), v.uniform(k)
	var (
		args [2]vecI
		invs [2]dExprI
	)
	for i, a := range [2]*kExpr{k.x, k.y} {
		if a == nil {
			break
		}
		o, err := v.vExprI(a)
		if err != nil {
			return vOpI{}, err
		}
		if invs[i] = o.inv; !uniform {
			args[i] = v.matI(o)
		}
	}
	if uniform {
		a0, a1 := invs[0], invs[1]
		switch x.Name {
		case "min":
			return vOpI{inv: func(D *DEnv) int64 { return min(a0(D), a1(D)) }}, nil
		case "max":
			return vOpI{inv: func(D *DEnv) int64 { return max(a0(D), a1(D)) }}, nil
		}
		return vOpI{inv: func(D *DEnv) int64 { return max(a0(D), -a0(D)) }}, nil
	}
	bid := v.outI(m)
	switch x.Name {
	case "min":
		a0, a1 := args[0], args[1]
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s := a0(vm, i0, L)
			q := a1(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = min(s[t], q[t])
			}
			return out
		}}, nil
	case "max":
		a0, a1 := args[0], args[1]
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s := a0(vm, i0, L)
			q := a1(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = max(s[t], q[t])
			}
			return out
		}}, nil
	case "abs":
		a0 := args[0]
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s := a0(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				w := s[t]
				if w < 0 {
					w = -w
				}
				out[t] = w
			}
			return out
		}}, nil
	}
	return vOpI{}, errSpecIneligible
}

// callF compiles the float builtins with the math funcs the interpreter
// calls, a uniform call as callI does.
func (v *vecBuilder) callF(k *kExpr) (vOpF, error) {
	fn1, fn2, _ := floatBuiltin(k.e.(*cc.CallExpr).Name)
	m, uniform := v.mark(), v.uniform(k)
	var (
		args [2]vecF
		invs [2]dExprF
	)
	for i, a := range [2]*kExpr{k.x, k.y} {
		if a == nil {
			break
		}
		o, err := v.vExprF(a)
		if err != nil {
			return vOpF{}, err
		}
		if invs[i] = o.inv; !uniform {
			args[i] = v.matF(o)
		}
	}
	if a0, a1 := invs[0], invs[1]; uniform && fn1 != nil {
		return vOpF{inv: func(D *DEnv) float64 { return fn1(a0(D)) }}, nil
	} else if uniform {
		return vOpF{inv: func(D *DEnv) float64 { return fn2(a0(D), a1(D)) }}, nil
	}
	bid := v.outF(m)
	if fn1 != nil {
		a0 := args[0]
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			s := a0(vm, i0, L)
			out := vm.BufF[bid][:L]
			for t := range s {
				out[t] = fn1(s[t])
			}
			return out
		}}, nil
	}
	a0, a1 := args[0], args[1]
	return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		s := a0(vm, i0, L)
		q := a1(vm, i0, L)
		out := vm.BufF[bid][:L]
		for t := range s {
			out[t] = fn2(s[t], q[t])
		}
		return out
	}}, nil
}
