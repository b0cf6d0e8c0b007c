package ir

import (
	"errors"
	"fmt"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
)

// Loop-control sentinels: break and continue compile to these errors,
// consumed by the innermost enclosing loop's closure. A continue that
// escapes a kernel body ends that parallel iteration (C semantics: the
// parallel for IS the innermost loop); a break escaping a kernel body
// is an error, since OpenACC parallel loops cannot exit early.
var (
	// ErrLoopBreak is the break sentinel.
	ErrLoopBreak = errors.New("break")
	// ErrLoopContinue is the continue sentinel.
	ErrLoopContinue = errors.New("continue")
)

// Stmt is a compiled statement. Errors propagate host-side runtime
// failures (allocation, semantics); kernel bodies normally return nil.
type Stmt func(*Env) error

// StmtHandlers customizes how directive-bearing statements compile.
// Host-mode compilation supplies all three; kernel-mode compilation
// leaves them nil (nested parallel loops run sequentially inside a GPU
// thread, as the paper's translator maps one outer iteration to one
// CUDA thread; data/update directives are illegal inside kernels).
type StmtHandlers struct {
	// OnParallelFor compiles a for statement annotated with a parallel
	// loop directive. When nil the loop compiles as a sequential loop.
	OnParallelFor func(*cc.ForStmt) (Stmt, error)
	// OnData wraps a compiled data-region block body.
	OnData func(*cc.Block, Stmt) (Stmt, error)
	// OnUpdate compiles an update directive.
	OnUpdate func(*cc.UpdateStmt) (Stmt, error)
}

// CompileStmt compiles a statement tree.
func CompileStmt(s cc.Stmt, h *StmtHandlers) (Stmt, error) {
	switch st := s.(type) {
	case *cc.Block:
		body, err := compileBlockBody(st, h)
		if err != nil {
			return nil, err
		}
		if st.Data != nil {
			if h == nil || h.OnData == nil {
				return nil, fmt.Errorf("ir: line %d: data region not allowed here", st.Pos())
			}
			return h.OnData(st, body)
		}
		return body, nil

	case *cc.DeclStmt:
		// Slots are pre-zeroed in the environment; nothing to run.
		return func(*Env) error { return nil }, nil

	case *cc.AssignStmt:
		return compileAssign(st)

	case *cc.IfStmt:
		cond, err := compileCond(foldExpr(st.Cond))
		if err != nil {
			return nil, err
		}
		then, err := CompileStmt(st.Then, h)
		if err != nil {
			return nil, err
		}
		if st.Else == nil {
			return func(env *Env) error {
				if cond(env) {
					return then(env)
				}
				return nil
			}, nil
		}
		els, err := CompileStmt(st.Else, h)
		if err != nil {
			return nil, err
		}
		return func(env *Env) error {
			if cond(env) {
				return then(env)
			}
			return els(env)
		}, nil

	case *cc.WhileStmt:
		cond, err := compileCond(foldExpr(st.Cond))
		if err != nil {
			return nil, err
		}
		body, err := CompileStmt(st.Body, h)
		if err != nil {
			return nil, err
		}
		return func(env *Env) error {
			for cond(env) {
				if err := env.tick(); err != nil {
					return err
				}
				if err := body(env); err != nil {
					if errors.Is(err, ErrLoopBreak) {
						return nil
					}
					if errors.Is(err, ErrLoopContinue) {
						continue
					}
					return err
				}
			}
			return nil
		}, nil

	case *cc.ForStmt:
		if st.Parallel != nil && h != nil && h.OnParallelFor != nil {
			return h.OnParallelFor(st)
		}
		return compileSequentialFor(st, h)

	case *cc.UpdateStmt:
		if h == nil || h.OnUpdate == nil {
			return nil, fmt.Errorf("ir: line %d: update directive not allowed here", st.Pos())
		}
		return h.OnUpdate(st)

	case *cc.BranchStmt:
		if st.IsBreak {
			return func(*Env) error { return ErrLoopBreak }, nil
		}
		return func(*Env) error { return ErrLoopContinue }, nil
	}
	return nil, fmt.Errorf("ir: line %d: cannot compile statement %T", s.Pos(), s)
}

// pollTrips is how many trips of sequential loops pass between two polls
// of the runtime: rare enough to cost a loop nothing, often enough that a
// loop of empty trips is interrupted within microseconds.
const pollTrips = 1024

// tick starts one trip of a sequential loop, of the host program or inside
// a kernel iteration: every pollTrips-th, over all the loops this
// environment runs, first asks the runtime whether to go on. A host loop
// need not contain a directive and a kernel iteration's loop sits below
// the workers' per-iteration polls, so without this one that never ends
// would never meet a poll.
func (env *Env) tick() error {
	if env.trips++; env.trips%pollTrips != 0 || env.H == nil {
		return nil
	}
	return env.H.Poll()
}

func compileBlockBody(b *cc.Block, h *StmtHandlers) (Stmt, error) {
	stmts := make([]Stmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		c, err := CompileStmt(s, h)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, c)
	}
	return func(env *Env) error {
		for _, s := range stmts {
			if err := s(env); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func compileSequentialFor(st *cc.ForStmt, h *StmtHandlers) (Stmt, error) {
	var init, post Stmt
	var err error
	if st.Init != nil {
		if init, err = compileAssign(st.Init); err != nil {
			return nil, err
		}
	}
	var cond func(*Env) bool
	if st.Cond != nil {
		if cond, err = compileCond(foldExpr(st.Cond)); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("ir: line %d: for loops without a condition are not supported", st.Pos())
	}
	if st.Post != nil {
		if post, err = compileAssign(st.Post); err != nil {
			return nil, err
		}
	}
	body, err := CompileStmt(st.Body, h)
	if err != nil {
		return nil, err
	}
	return func(env *Env) error {
		if init != nil {
			if err := init(env); err != nil {
				return err
			}
		}
		for cond(env) {
			if err := env.tick(); err != nil {
				return err
			}
			if err := body(env); err != nil {
				if errors.Is(err, ErrLoopBreak) {
					return nil
				}
				if !errors.Is(err, ErrLoopContinue) {
					return err
				}
			}
			if post != nil {
				if err := post(env); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}

// compileAssign compiles an assignment over the target's lane type.
func compileAssign(st *cc.AssignStmt) (Stmt, error) {
	var d *cc.VarDecl
	switch lhs := st.LHS.(type) {
	case *cc.Ident:
		d = lhs.Decl
	case *cc.IndexExpr:
		d = lhs.Array
	default:
		return nil, fmt.Errorf("ir: line %d: bad assignment target", st.Pos())
	}
	if d.Type == cc.TInt {
		return assignTo[int64](st, d)
	}
	return assignTo[float64](st, d)
}

// assignTo compiles st into a target d whose lanes are S: a scalar slot, an
// element store, a compound update (one flop; a float scalar's "/=" four)
// or a reductiontoarray update (one flop, and what the view charges). A
// float scalar rounds through float32 at every assignment.
func assignTo[S Num](st *cc.AssignStmt, d *cc.VarDecl) (Stmt, error) {
	apply := applyOf[S](st.Op)
	if apply == nil && st.Op != "=" {
		return nil, fmt.Errorf("ir: line %d: unknown assignment operator %q", st.Pos(), st.Op)
	}
	lhs, isArray := st.LHS.(*cc.IndexExpr)
	var idx ExprI
	var err error
	if isArray {
		if idx, err = CompileExprI(lhs.Index); err != nil {
			return nil, err
		}
	}
	rhs, err := compileExpr[S](foldExpr(st.RHS))
	switch {
	case err != nil:
		return nil, err
	case isArray && st.Reduce != nil:
		return reduceArray(d.Slot, idx, rhs, st.Reduce.Op), nil
	case isArray:
		return storeArray(d.Slot, idx, rhs, apply), nil
	}
	flops := int64(1)
	if st.Op == "/=" && isF[S]() {
		flops = 4
	}
	if r, f := rhs, apply; d.Type == cc.TFloat && f == nil {
		rhs = func(env *Env) S { return S(float32(r(env))) }
	} else if d.Type == cc.TFloat {
		apply = func(a, b S) S { return S(float32(f(a, b))) }
	}
	return storeScalar(d.Slot, flops, rhs, apply), nil
}

// storeScalar, storeArray and reduceArray are the statement's leaves: the
// writes into S's scalar slot and S's array, apply nil for "=".
func storeScalar[S Num](slot int, flops int64, rhs Expr[S], apply func(S, S) S) Stmt {
	if isF[S]() {
		r, f := as[ExprF](rhs), as[func(a, b float64) float64](apply)
		if f == nil {
			return func(env *Env) error { env.Floats[slot] = r(env); return nil }
		}
		return func(env *Env) error { env.Flops += flops; env.Floats[slot] = f(env.Floats[slot], r(env)); return nil }
	}
	r, f := as[ExprI](rhs), as[func(a, b int64) int64](apply)
	if f == nil {
		return func(env *Env) error { env.Ints[slot] = r(env); return nil }
	}
	return func(env *Env) error { env.Flops += flops; env.Ints[slot] = f(env.Ints[slot], r(env)); return nil }
}

func storeArray[S Num](slot int, idx ExprI, rhs Expr[S], apply func(S, S) S) Stmt {
	if isF[S]() {
		r, f := as[ExprF](rhs), as[func(a, b float64) float64](apply)
		if f == nil {
			return func(env *Env) error { env.Views[slot].F.Store(env, idx(env), r(env)); return nil }
		}
		return func(env *Env) error {
			env.Flops++
			v, i := env.Views[slot].F, idx(env)
			v.Store(env, i, f(v.Load(env, i), r(env)))
			return nil
		}
	}
	r, f := as[ExprI](rhs), as[func(a, b int64) int64](apply)
	if f == nil {
		return func(env *Env) error { env.Views[slot].I.Store(env, idx(env), r(env)); return nil }
	}
	return func(env *Env) error {
		env.Flops++
		v, i := env.Views[slot].I, idx(env)
		v.Store(env, i, f(v.Load(env, i), r(env)))
		return nil
	}
}

func reduceArray[S Num](slot int, idx ExprI, rhs Expr[S], op acc.RedOp) Stmt {
	if isF[S]() {
		r := as[ExprF](rhs)
		return func(env *Env) error { env.Flops++; env.Views[slot].F.Reduce(env, idx(env), r(env), op); return nil }
	}
	r := as[ExprI](rhs)
	return func(env *Env) error { env.Flops++; env.Views[slot].I.Reduce(env, idx(env), r(env), op); return nil }
}
