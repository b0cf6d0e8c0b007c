package ir

import (
	"accmulti/internal/cc"
)

// Vectorized (tiled) execution of specialized kernel bodies.
//
// The per-iteration DStmt closure tree pays roughly one indirect call
// per expression node per iteration, which caps the fast path at about
// 2x over the interpreter. For straight-line bodies (no if-arms) whose
// scalar dataflow has no cross-iteration carries, the builder below
// compiles a second form that processes VecTile iterations per call:
// each expression node becomes one tight loop over scratch vectors, and
// each affine array access becomes a strided slice walk computed from
// the per-launch coefficients the runtime already derives for its
// endpoint range checks (index(i) = A*i + B over the chunk).
//
// Bit-exactness contract (the same one the DStmt path honours): every
// float64 operation happens in the same order with the same operands as
// the interpreter would have performed it for each element, with
// float32 rounding applied at exactly the same points. Three properties
// make the tile-by-statement schedule element-equivalent to the
// iteration-by-iteration schedule:
//
//   - No scalar is read before the statement that assigns it ("="), so
//     scalar values never carry across iterations (vecScan rejects
//     bodies where they do). Op-assigned scalars are the exception:
//     they are scalar reductions, folded sequentially in iteration
//     order within each tile — the interpreter's exact order.
//   - Loop-invariant subexpressions (no induction variable, no
//     body-assigned scalar, no array load) evaluate to the same value
//     every iteration, so hoisting them to once per tile is value-
//     preserving; they are compiled with the scalar spec compiler.
//   - Array stores can only be reordered against loads/stores of the
//     same elements if the runtime proves the accesses either hit the
//     same element every iteration (read/write program order is then
//     preserved per element) or touch provably disjoint element sets.
//     That check needs the per-launch coefficients, so it lives in the
//     runtime (internal/rt); when it fails the launch silently uses
//     the per-iteration DStmt body, which is always exact.
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
// Vectors of "="-assigned scalars outlive their statement; they are
// numbered first, at statement entry, below the per-statement stack.

// VecEnv is one worker's tiled environment: the direct environment
// (scalars, arrays, lanes) plus the per-launch access coefficients and
// the per-node scratch vectors.
type VecEnv struct {
	// D holds the scalars, direct array handles and reduction lanes;
	// shared with the per-iteration path so reduction merging is
	// identical either way.
	D *DEnv
	// AccA/AccB give each access's affine index over the current chunk
	// (Accesses order): index(i) = AccA*i + AccB. Written by the
	// runtime before the launch, read-only during it.
	AccA, AccB []int64
	// BufI/BufF are the scratch vectors, tile elements each (Reserve).
	BufI [][]int64
	BufF [][]float64
	tile int
}

// VStmt executes one tile: iterations i0 .. i0+L-1, L ≤ VecTile.
type VStmt func(vm *VecEnv, i0 int64, L int)

// NewVecEnv allocates a tiled environment over an existing direct
// environment; Reserve sizes its scratch vectors.
func (s *KernelSpec) NewVecEnv(d *DEnv) *VecEnv {
	return &VecEnv{D: d, BufI: make([][]int64, s.NumBufI), BufF: make([][]float64, s.NumBufF)}
}

// Reserve sizes the scratch vectors for tiles of up to n iterations (at
// most VecTile). The runtime passes the longest run one worker executes
// in a launch, so short chunks do not pay for full tiles.
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
	vm.tile = n
}

type (
	vecI func(vm *VecEnv, i0 int64, L int) []int64
	vecF func(vm *VecEnv, i0 int64, L int) []float64
)

// vOpI is a compiled int expression: either loop-invariant (inv set,
// evaluated once per tile against the worker scalars) or varying (vec
// set, filling/returning a scratch vector).
type vOpI struct {
	inv dExprI
	vec vecI
}

// vOpF is the float counterpart. kMul/mulX additionally expose an
// (invariant × varying) product so an enclosing add/sub can fuse the
// multiply into its own pass.
type vOpF struct {
	inv  dExprF
	vec  vecF
	kMul dExprF
	mulX vecF
}

// vecBuilder compiles the tiled body, mirroring specBuilder's AST walk
// exactly so its access cursor stays in lockstep with spec.Accesses.
type vecBuilder struct {
	loopVar  *cc.VarDecl
	assigned map[*cc.VarDecl]bool
	spec     *KernelSpec
	// sc compiles loop-invariant subtrees with the scalar spec
	// compiler; its cost bucket and spec are throwaways (the main pass
	// already accounted every cost).
	sc    *specBuilder
	folds map[*cc.VarDecl]bool
	ai    int
	// topI/topF are the scratch stacks' heights, baseI/baseF the part
	// held by scalar vectors, nBufI/nBufF the high-water marks.
	topI, topF   int
	baseI, baseF int
	nBufI, nBufF int
	slotBufI     map[int]int
	slotBufF     map[int]int
}

// buildVec attaches a tiled body to an already-built spec when the
// shape allows it; on any ineligibility it simply leaves VecBody nil
// (the per-iteration body still runs).
func buildVec(body cc.Stmt, loopVar *cc.VarDecl, assigned map[*cc.VarDecl]bool, spec *KernelSpec) {
	if spec.HasComputed || len(spec.Arms) > 0 {
		// The tiler assumes affine accesses and straight-line bodies;
		// gathers, scatters and data-dependent arms keep the
		// per-iteration body.
		return
	}
	folds, ok := vecScan(body, assigned)
	if !ok {
		return
	}
	v := &vecBuilder{
		loopVar:  loopVar,
		assigned: assigned,
		spec:     spec,
		sc: &specBuilder{
			loopVar:  loopVar,
			assigned: assigned,
			spec:     &KernelSpec{},
			cur:      &IterCost{Stores: make([]int64, spec.NumArrays)},
		},
		folds:    folds,
		slotBufI: map[int]int{},
		slotBufF: map[int]int{},
	}
	st, err := v.stmt(body)
	if err != nil || v.ai != len(spec.Accesses) {
		return
	}
	if st == nil {
		st = func(*VecEnv, int64, int) {} // empty body (an if without else, split)
	}
	spec.VecBody, spec.NumBufI, spec.NumBufF = st, v.nBufI, v.nBufF
}

// vecScan decides tile-schedule safety of the scalar dataflow: every
// read of a body-assigned scalar must follow its "=" in statement
// order (no cross-iteration carry), and an op-assigned scalar must be
// a pure fold target — exactly one op-assignment, no other reads or
// writes anywhere in the body.
func vecScan(body cc.Stmt, assigned map[*cc.VarDecl]bool) (map[*cc.VarDecl]bool, bool) {
	reads := map[*cc.VarDecl]int{}
	eqAssigns := map[*cc.VarDecl]int{}
	opAssigns := map[*cc.VarDecl]int{}
	var countExpr func(e cc.Expr)
	countExpr = func(e cc.Expr) {
		switch x := e.(type) {
		case *cc.Ident:
			reads[x.Decl]++
		case *cc.IndexExpr:
			countExpr(x.Index)
		case *cc.UnaryExpr:
			countExpr(x.X)
		case *cc.BinaryExpr:
			countExpr(x.X)
			countExpr(x.Y)
		case *cc.CallExpr:
			for _, a := range x.Args {
				countExpr(a)
			}
		case *cc.CastExpr:
			countExpr(x.X)
		case *cc.CondExpr:
			countExpr(x.Cond)
			countExpr(x.Then)
			countExpr(x.Else)
		}
	}
	var countStmt func(s cc.Stmt) bool
	countStmt = func(s cc.Stmt) bool {
		switch st := s.(type) {
		case *cc.Block:
			if st.Data != nil {
				return false
			}
			for _, c := range st.Stmts {
				if !countStmt(c) {
					return false
				}
			}
			return true
		case *cc.DeclStmt:
			return true
		case *cc.AssignStmt:
			switch lhs := st.LHS.(type) {
			case *cc.Ident:
				if st.Op == "=" {
					eqAssigns[lhs.Decl]++
				} else {
					opAssigns[lhs.Decl]++
				}
			case *cc.IndexExpr:
				countExpr(lhs.Index)
			}
			countExpr(st.RHS)
			return true
		}
		// Anything else (if-arms included) keeps the per-iteration body.
		return false
	}
	if !countStmt(body) {
		return nil, false
	}
	folds := map[*cc.VarDecl]bool{}
	for d, n := range opAssigns {
		if n == 1 && reads[d] == 0 && eqAssigns[d] == 0 {
			folds[d] = true
		}
	}
	written := map[*cc.VarDecl]bool{}
	var okExpr func(e cc.Expr) bool
	okExpr = func(e cc.Expr) bool {
		switch x := e.(type) {
		case *cc.Ident:
			return !assigned[x.Decl] || written[x.Decl]
		case *cc.IndexExpr:
			return okExpr(x.Index)
		case *cc.UnaryExpr:
			return okExpr(x.X)
		case *cc.BinaryExpr:
			return okExpr(x.X) && okExpr(x.Y)
		case *cc.CallExpr:
			for _, a := range x.Args {
				if !okExpr(a) {
					return false
				}
			}
			return true
		case *cc.CastExpr:
			return okExpr(x.X)
		}
		return true
	}
	var okStmt func(s cc.Stmt) bool
	okStmt = func(s cc.Stmt) bool {
		switch st := s.(type) {
		case *cc.Block:
			for _, c := range st.Stmts {
				if !okStmt(c) {
					return false
				}
			}
			return true
		case *cc.DeclStmt:
			return true
		case *cc.AssignStmt:
			if !okExpr(st.RHS) {
				return false
			}
			switch lhs := st.LHS.(type) {
			case *cc.Ident:
				if st.Op == "=" {
					written[lhs.Decl] = true
					return true
				}
				return folds[lhs.Decl]
			case *cc.IndexExpr:
				return okExpr(lhs.Index)
			}
			return false
		}
		return false
	}
	if !okStmt(body) {
		return nil, false
	}
	return folds, true
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

// slotI/slotF give the dedicated vector for a body-assigned scalar.
// Called at statement entry, while the stack is at its base.
func (v *vecBuilder) slotI(slot int) int {
	if b, ok := v.slotBufI[slot]; ok {
		return b
	}
	b := v.pushI()
	v.baseI = v.topI
	v.slotBufI[slot] = b
	return b
}

func (v *vecBuilder) slotF(slot int) int {
	if b, ok := v.slotBufF[slot]; ok {
		return b
	}
	b := v.pushF()
	v.baseF = v.topF
	v.slotBufF[slot] = b
	return b
}

// invariant reports a subtree whose value cannot change across
// iterations: no induction variable, no body-assigned scalar, no array
// load (other iterations of this very kernel may store to the array,
// and the interpreter re-reads it every iteration).
func (v *vecBuilder) invariant(e cc.Expr) bool {
	switch x := e.(type) {
	case *cc.NumLit:
		return true
	case *cc.Ident:
		return x.Decl != v.loopVar && !v.assigned[x.Decl]
	case *cc.IndexExpr:
		return false
	case *cc.UnaryExpr:
		return v.invariant(x.X)
	case *cc.BinaryExpr:
		return v.invariant(x.X) && v.invariant(x.Y)
	case *cc.CallExpr:
		for _, a := range x.Args {
			if !v.invariant(a) {
				return false
			}
		}
		return true
	case *cc.CastExpr:
		return v.invariant(x.X)
	}
	return false
}

// matI/matF materialize an operand into a vector, broadcasting
// invariants through a dedicated buffer.
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

func (v *vecBuilder) stmt(s cc.Stmt) (VStmt, error) {
	switch st := s.(type) {
	case *cc.Block:
		var seq []VStmt
		for _, c := range st.Stmts {
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
		v.topI, v.topF = v.baseI, v.baseF // the previous statement's vectors are dead
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			return v.scalarAssign(st, lhs)
		case *cc.IndexExpr:
			if st.Reduce != nil {
				return v.arrayReduce(st, lhs)
			}
			return v.arrayAssign(st, lhs)
		}
	}
	return nil, errSpecIneligible
}

func (v *vecBuilder) scalarAssign(st *cc.AssignStmt, lhs *cc.Ident) (VStmt, error) {
	slot := lhs.Decl.Slot
	if lhs.Decl.Type == cc.TInt {
		var bid int
		if st.Op == "=" {
			bid = v.slotI(slot)
		}
		r, err := v.vExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		if st.Op == "=" {
			if r.inv != nil {
				inv := r.inv
				return func(vm *VecEnv, i0 int64, L int) {
					k := inv(vm.D)
					out := vm.BufI[bid][:L]
					for t := range out {
						out[t] = k
					}
				}, nil
			}
			rv := r.vec
			return func(vm *VecEnv, i0 int64, L int) {
				copy(vm.BufI[bid][:L], rv(vm, i0, L))
			}, nil
		}
		if !v.folds[lhs.Decl] {
			return nil, errSpecIneligible
		}
		apply, err := intApply(st.Op, st.Pos())
		if err != nil {
			return nil, errSpecIneligible
		}
		if r.inv != nil {
			inv := r.inv
			return func(vm *VecEnv, i0 int64, L int) {
				k := inv(vm.D)
				acc := vm.D.Ints[slot]
				for t := 0; t < L; t++ {
					acc = apply(acc, k)
				}
				vm.D.Ints[slot] = acc
			}, nil
		}
		rv := r.vec
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			acc := vm.D.Ints[slot]
			for t := range s {
				acc = apply(acc, s[t])
			}
			vm.D.Ints[slot] = acc
		}, nil
	}
	var bid int
	if st.Op == "=" {
		bid = v.slotF(slot)
	}
	r, err := v.vExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	f32 := lhs.Decl.Type == cc.TFloat
	if st.Op == "=" {
		if r.inv != nil {
			inv := r.inv
			return func(vm *VecEnv, i0 int64, L int) {
				k := inv(vm.D)
				if f32 {
					k = float64(float32(k))
				}
				out := vm.BufF[bid][:L]
				for t := range out {
					out[t] = k
				}
			}, nil
		}
		rv := r.vec
		if f32 {
			return func(vm *VecEnv, i0 int64, L int) {
				s := rv(vm, i0, L)
				out := vm.BufF[bid][:L]
				for t := range s {
					out[t] = float64(float32(s[t]))
				}
			}, nil
		}
		return func(vm *VecEnv, i0 int64, L int) {
			copy(vm.BufF[bid][:L], rv(vm, i0, L))
		}, nil
	}
	if !v.folds[lhs.Decl] {
		return nil, errSpecIneligible
	}
	apply, err := floatApply(st.Op, st.Pos())
	if err != nil {
		return nil, errSpecIneligible
	}
	rv := v.matF(r)
	if f32 {
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			acc := vm.D.Floats[slot]
			for t := range s {
				acc = float64(float32(apply(acc, s[t])))
			}
			vm.D.Floats[slot] = acc
		}, nil
	}
	return func(vm *VecEnv, i0 int64, L int) {
		s := rv(vm, i0, L)
		acc := vm.D.Floats[slot]
		for t := range s {
			acc = apply(acc, s[t])
		}
		vm.D.Floats[slot] = acc
	}, nil
}

// storeWalk resolves one store access's physical walk for the current
// tile: the first physical offset and the per-iteration step.
func storeWalk(vm *VecEnv, ai int, base, i0 int64) (p, step int64) {
	step = vm.AccA[ai]
	return step*i0 + vm.AccB[ai] - base, step
}

func (v *vecBuilder) arrayAssign(st *cc.AssignStmt, lhs *cc.IndexExpr) (VStmt, error) {
	decl := lhs.Array
	slot := decl.Slot
	// The spec pass appended the store access before compiling the RHS;
	// take the cursor in the same order.
	ai := v.ai
	v.ai++
	if decl.Type == cc.TInt {
		r, err := v.vExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		if st.Op == "=" {
			if r.inv != nil {
				inv := r.inv
				return func(vm *VecEnv, i0 int64, L int) {
					a := &vm.D.Arrays[slot]
					p, A := storeWalk(vm, ai, a.Base, i0)
					k := int32(inv(vm.D))
					dst := a.I32
					if A == 1 {
						d := dst[p : p+int64(L)]
						for t := range d {
							d[t] = k
						}
						return
					}
					for t := 0; t < L; t++ {
						dst[p] = k
						p += A
					}
				}, nil
			}
			rv := r.vec
			return func(vm *VecEnv, i0 int64, L int) {
				s := rv(vm, i0, L)
				a := &vm.D.Arrays[slot]
				p, A := storeWalk(vm, ai, a.Base, i0)
				dst := a.I32
				if A == 1 {
					d := dst[p : p+int64(L)]
					for t := range d {
						d[t] = int32(s[t])
					}
					return
				}
				for t := range s {
					dst[p] = int32(s[t])
					p += A
				}
			}, nil
		}
		apply, err := intApply(st.Op, st.Pos())
		if err != nil {
			return nil, errSpecIneligible
		}
		rv := v.matI(r)
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := storeWalk(vm, ai, a.Base, i0)
			dst := a.I32
			for t := range s {
				dst[p] = int32(apply(int64(dst[p]), s[t]))
				p += A
			}
		}, nil
	}
	r, err := v.vExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	f32 := decl.Type == cc.TFloat
	if st.Op == "=" {
		rv := v.matF(r)
		if f32 {
			return func(vm *VecEnv, i0 int64, L int) {
				s := rv(vm, i0, L)
				a := &vm.D.Arrays[slot]
				p, A := storeWalk(vm, ai, a.Base, i0)
				dst := a.F32
				if A == 1 {
					d := dst[p : p+int64(L)]
					for t := range d {
						d[t] = float32(s[t])
					}
					return
				}
				for t := range s {
					dst[p] = float32(s[t])
					p += A
				}
			}, nil
		}
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := storeWalk(vm, ai, a.Base, i0)
			dst := a.F64
			if A == 1 {
				copy(dst[p:p+int64(L)], s)
				return
			}
			for t := range s {
				dst[p] = s[t]
				p += A
			}
		}, nil
	}
	apply, err := floatApply(st.Op, st.Pos())
	if err != nil {
		return nil, errSpecIneligible
	}
	rv := v.matF(r)
	if f32 {
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			p, A := storeWalk(vm, ai, a.Base, i0)
			dst := a.F32
			for t := range s {
				dst[p] = float32(apply(float64(dst[p]), s[t]))
				p += A
			}
		}, nil
	}
	return func(vm *VecEnv, i0 int64, L int) {
		s := rv(vm, i0, L)
		a := &vm.D.Arrays[slot]
		p, A := storeWalk(vm, ai, a.Base, i0)
		dst := a.F64
		for t := range s {
			dst[p] = apply(dst[p], s[t])
			p += A
		}
	}, nil
}

func (v *vecBuilder) arrayReduce(st *cc.AssignStmt, lhs *cc.IndexExpr) (VStmt, error) {
	decl := lhs.Array
	slot := decl.Slot
	ai := v.ai
	v.ai++
	mul := st.Reduce.Op == "*"
	// Lanes are indexed by logical element index: no Base shift.
	if decl.Type == cc.TInt {
		r, err := v.vExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		rv := v.matI(r)
		return func(vm *VecEnv, i0 int64, L int) {
			s := rv(vm, i0, L)
			a := &vm.D.Arrays[slot]
			A := vm.AccA[ai]
			p := A*i0 + vm.AccB[ai]
			lane := a.LaneI
			if mul {
				for t := range s {
					lane[p] *= s[t]
					p += A
				}
				return
			}
			for t := range s {
				lane[p] += s[t]
				p += A
			}
		}, nil
	}
	r, err := v.vExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	rv := v.matF(r)
	return func(vm *VecEnv, i0 int64, L int) {
		s := rv(vm, i0, L)
		a := &vm.D.Arrays[slot]
		A := vm.AccA[ai]
		p := A*i0 + vm.AccB[ai]
		lane := a.LaneF
		if mul {
			for t := range s {
				lane[p] *= s[t]
				p += A
			}
			return
		}
		for t := range s {
			lane[p] += s[t]
			p += A
		}
	}, nil
}

// vExprI and vExprF mirror the spec compiler's coercion entry points:
// fold, then (new here) hoist whole-expression invariants, then compile
// by type with a conversion pass when the types differ.
func (v *vecBuilder) vExprI(e cc.Expr) (vOpI, error) {
	e = foldExpr(e)
	if v.invariant(e) {
		inv, err := v.sc.exprI(e)
		if err != nil {
			return vOpI{}, err
		}
		return vOpI{inv: inv}, nil
	}
	if e.Type() == cc.TInt {
		return v.compileI(e)
	}
	m := v.mark()
	f, err := v.compileF(e)
	if err != nil {
		return vOpI{}, err
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

func (v *vecBuilder) vExprF(e cc.Expr) (vOpF, error) {
	e = foldExpr(e)
	if v.invariant(e) {
		inv, err := v.sc.exprF(e)
		if err != nil {
			return vOpF{}, err
		}
		return vOpF{inv: inv}, nil
	}
	if e.Type() != cc.TInt {
		return v.compileF(e)
	}
	m := v.mark()
	i, err := v.compileI(e)
	if err != nil {
		return vOpF{}, err
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

// compileI compiles a non-invariant int-typed expression.
func (v *vecBuilder) compileI(e cc.Expr) (vOpI, error) {
	m := v.mark()
	switch x := e.(type) {
	case *cc.NumLit:
		k := x.I
		return vOpI{inv: func(*DEnv) int64 { return k }}, nil

	case *cc.Ident:
		if x.Decl == v.loopVar {
			bid := v.pushI()
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				out := vm.BufI[bid][:L]
				for t := range out {
					out[t] = i0 + int64(t)
				}
				return out
			}}, nil
		}
		if v.assigned[x.Decl] {
			bid, ok := v.slotBufI[x.Decl.Slot]
			if !ok {
				return vOpI{}, errSpecIneligible
			}
			return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
				return vm.BufI[bid][:L]
			}}, nil
		}
		slot := x.Decl.Slot
		return vOpI{inv: func(e *DEnv) int64 { return e.Ints[slot] }}, nil

	case *cc.IndexExpr:
		return v.loadI(x)

	case *cc.BinaryExpr:
		return v.binaryI(x)

	case *cc.UnaryExpr:
		switch x.Op {
		case "-":
			o, err := v.vExprI(x.X)
			if err != nil {
				return vOpI{}, err
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
			return v.notOp(x.X)
		case "~":
			o, err := v.vExprI(x.X)
			if err != nil {
				return vOpI{}, err
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
		return v.callI(x)

	case *cc.CastExpr:
		if x.To != cc.TInt {
			return vOpI{}, errSpecIneligible
		}
		if x.X.Type() == cc.TInt {
			return v.vExprI(x.X)
		}
		f, err := v.vExprF(x.X)
		if err != nil {
			return vOpI{}, err
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
	return vOpI{}, errSpecIneligible
}

// notOp compiles logical negation over either operand type.
func (v *vecBuilder) notOp(inner cc.Expr) (vOpI, error) {
	m := v.mark()
	if inner.Type() == cc.TInt {
		o, err := v.vExprI(inner)
		if err != nil {
			return vOpI{}, err
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

func (v *vecBuilder) loadI(x *cc.IndexExpr) (vOpI, error) {
	ai := v.ai
	v.ai++
	slot := x.Array.Slot
	bid := v.pushI()
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		out := vm.BufI[bid][:L]
		a := &vm.D.Arrays[slot]
		A := vm.AccA[ai]
		p := A*i0 + vm.AccB[ai] - a.Base
		src := a.I32
		if A == 1 {
			s := src[p : p+int64(L)]
			for t := range s {
				out[t] = int64(s[t])
			}
			return out
		}
		for t := 0; t < L; t++ {
			out[t] = int64(src[p])
			p += A
		}
		return out
	}}, nil
}

func (v *vecBuilder) loadF(x *cc.IndexExpr) (vOpF, error) {
	ai := v.ai
	v.ai++
	slot := x.Array.Slot
	bid := v.pushF()
	if x.Array.Type == cc.TFloat {
		return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
			out := vm.BufF[bid][:L]
			a := &vm.D.Arrays[slot]
			A := vm.AccA[ai]
			p := A*i0 + vm.AccB[ai] - a.Base
			src := a.F32
			if A == 1 {
				s := src[p : p+int64(L)]
				for t := range s {
					out[t] = float64(s[t])
				}
				return out
			}
			for t := 0; t < L; t++ {
				out[t] = float64(src[p])
				p += A
			}
			return out
		}}, nil
	}
	return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
		out := vm.BufF[bid][:L]
		a := &vm.D.Arrays[slot]
		A := vm.AccA[ai]
		p := A*i0 + vm.AccB[ai] - a.Base
		src := a.F64
		if A == 1 {
			copy(out, src[p:p+int64(L)])
			return out
		}
		for t := 0; t < L; t++ {
			out[t] = src[p]
			p += A
		}
		return out
	}}, nil
}

func (v *vecBuilder) binaryI(x *cc.BinaryExpr) (vOpI, error) {
	m := v.mark()
	switch x.Op {
	case "&&", "||":
		return vOpI{}, errSpecIneligible
	case "<", "<=", ">", ">=", "==", "!=":
		return v.compare(x)
	}
	a, err := v.vExprI(x.X)
	if err != nil {
		return vOpI{}, err
	}
	c, err := v.vExprI(x.Y)
	if err != nil {
		return vOpI{}, err
	}
	var apply func(a, b int64) int64
	switch x.Op {
	case "+":
		apply = func(a, b int64) int64 { return a + b }
	case "-":
		apply = func(a, b int64) int64 { return a - b }
	case "*":
		apply = func(a, b int64) int64 { return a * b }
	case "/":
		apply = func(a, b int64) int64 { return a / b }
	case "%":
		apply = func(a, b int64) int64 { return a % b }
	case "&":
		apply = func(a, b int64) int64 { return a & b }
	case "|":
		apply = func(a, b int64) int64 { return a | b }
	case "^":
		apply = func(a, b int64) int64 { return a ^ b }
	case "<<":
		apply = func(a, b int64) int64 { return a << uint(b) }
	case ">>":
		apply = func(a, b int64) int64 { return a >> uint(b) }
	default:
		return vOpI{}, errSpecIneligible
	}
	bid := v.outI(m)
	switch {
	case a.inv != nil:
		k, cv := a.inv, c.vec
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			kk := k(vm.D)
			s := cv(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = apply(kk, s[t])
			}
			return out
		}}, nil
	case c.inv != nil:
		av, k := a.vec, c.inv
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			kk := k(vm.D)
			s := av(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = apply(s[t], kk)
			}
			return out
		}}, nil
	}
	av, cv := a.vec, c.vec
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s := av(vm, i0, L)
		q := cv(vm, i0, L)
		out := vm.BufI[bid][:L]
		for t := range s {
			out[t] = apply(s[t], q[t])
		}
		return out
	}}, nil
}

// compare compiles a comparison (int result) over either operand type.
func (v *vecBuilder) compare(x *cc.BinaryExpr) (vOpI, error) {
	m := v.mark()
	if x.X.Type() == cc.TInt && x.Y.Type() == cc.TInt {
		a, err := v.vExprI(x.X)
		if err != nil {
			return vOpI{}, err
		}
		c, err := v.vExprI(x.Y)
		if err != nil {
			return vOpI{}, err
		}
		var cmp func(a, b int64) bool
		switch x.Op {
		case "<":
			cmp = func(a, b int64) bool { return a < b }
		case "<=":
			cmp = func(a, b int64) bool { return a <= b }
		case ">":
			cmp = func(a, b int64) bool { return a > b }
		case ">=":
			cmp = func(a, b int64) bool { return a >= b }
		case "==":
			cmp = func(a, b int64) bool { return a == b }
		default:
			cmp = func(a, b int64) bool { return a != b }
		}
		av, cv := v.matI(a), v.matI(c)
		bid := v.outI(m)
		return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
			s := av(vm, i0, L)
			q := cv(vm, i0, L)
			out := vm.BufI[bid][:L]
			for t := range s {
				out[t] = b2i(cmp(s[t], q[t]))
			}
			return out
		}}, nil
	}
	a, err := v.vExprF(x.X)
	if err != nil {
		return vOpI{}, err
	}
	c, err := v.vExprF(x.Y)
	if err != nil {
		return vOpI{}, err
	}
	var cmp func(a, b float64) bool
	switch x.Op {
	case "<":
		cmp = func(a, b float64) bool { return a < b }
	case "<=":
		cmp = func(a, b float64) bool { return a <= b }
	case ">":
		cmp = func(a, b float64) bool { return a > b }
	case ">=":
		cmp = func(a, b float64) bool { return a >= b }
	case "==":
		cmp = func(a, b float64) bool { return a == b }
	default:
		cmp = func(a, b float64) bool { return a != b }
	}
	av, cv := v.matF(a), v.matF(c)
	bid := v.outI(m)
	return vOpI{vec: func(vm *VecEnv, i0 int64, L int) []int64 {
		s := av(vm, i0, L)
		q := cv(vm, i0, L)
		out := vm.BufI[bid][:L]
		for t := range s {
			out[t] = b2i(cmp(s[t], q[t]))
		}
		return out
	}}, nil
}

// compileF compiles a non-invariant float-typed expression.
func (v *vecBuilder) compileF(e cc.Expr) (vOpF, error) {
	m := v.mark()
	switch x := e.(type) {
	case *cc.NumLit:
		k := x.F
		return vOpF{inv: func(*DEnv) float64 { return k }}, nil

	case *cc.Ident:
		if v.assigned[x.Decl] {
			bid, ok := v.slotBufF[x.Decl.Slot]
			if !ok {
				return vOpF{}, errSpecIneligible
			}
			return vOpF{vec: func(vm *VecEnv, i0 int64, L int) []float64 {
				return vm.BufF[bid][:L]
			}}, nil
		}
		slot := x.Decl.Slot
		return vOpF{inv: func(e *DEnv) float64 { return e.Floats[slot] }}, nil

	case *cc.IndexExpr:
		return v.loadF(x)

	case *cc.BinaryExpr:
		return v.binaryF(x)

	case *cc.UnaryExpr:
		if x.Op != "-" {
			return vOpF{}, errSpecIneligible
		}
		o, err := v.vExprF(x.X)
		if err != nil {
			return vOpF{}, err
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
		return v.callF(x)

	case *cc.CastExpr:
		if x.To == cc.TInt {
			return vOpF{}, errSpecIneligible
		}
		o, err := v.vExprF(x.X)
		if err != nil {
			return vOpF{}, err
		}
		if x.To != cc.TFloat {
			// Cast to double is the identity on the float64 value.
			return o, nil
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

// binaryF compiles float arithmetic. Multiplication with one invariant
// operand becomes a scalar-vector pass and advertises itself through
// kMul/mulX; addition and subtraction fuse such products into a single
// pass. The explicit float64(...) around each fused product pins the
// intermediate rounding the interpreter performs (the Go spec otherwise
// permits fusing into an FMA).
func (v *vecBuilder) binaryF(x *cc.BinaryExpr) (vOpF, error) {
	m := v.mark()
	a, err := v.vExprF(x.X)
	if err != nil {
		return vOpF{}, err
	}
	c, err := v.vExprF(x.Y)
	if err != nil {
		return vOpF{}, err
	}
	bid := v.outF(m)
	switch x.Op {
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
		sub := x.Op == "-"
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

// callI compiles the int builtins (min, max, abs).
func (v *vecBuilder) callI(x *cc.CallExpr) (vOpI, error) {
	if _, ok := cc.Builtins[x.Name]; !ok {
		return vOpI{}, errSpecIneligible
	}
	m := v.mark()
	args := make([]vecI, len(x.Args))
	for i, a := range x.Args {
		o, err := v.vExprI(a)
		if err != nil {
			return vOpI{}, err
		}
		args[i] = v.matI(o)
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

// callF compiles the float builtins with the same math funcs the scalar
// spec path uses.
func (v *vecBuilder) callF(x *cc.CallExpr) (vOpF, error) {
	fn1, fn2, ok := floatBuiltin(x.Name)
	if !ok {
		return vOpF{}, errSpecIneligible
	}
	m := v.mark()
	args := make([]vecF, len(x.Args))
	for i, a := range x.Args {
		o, err := v.vExprF(a)
		if err != nil {
			return vOpF{}, err
		}
		args[i] = v.matF(o)
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
