package ir

import (
	"errors"
	"fmt"

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
		cond, err := compileCond(st.Cond)
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
		cond, err := compileCond(st.Cond)
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
		if cond, err = compileCond(st.Cond); err != nil {
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

func compileAssign(st *cc.AssignStmt) (Stmt, error) {
	switch lhs := st.LHS.(type) {
	case *cc.Ident:
		return compileScalarAssign(st, lhs)
	case *cc.IndexExpr:
		if st.Reduce != nil {
			return compileArrayReduce(st, lhs)
		}
		return compileArrayAssign(st, lhs)
	}
	return nil, fmt.Errorf("ir: line %d: bad assignment target", st.Pos())
}

func compileScalarAssign(st *cc.AssignStmt, lhs *cc.Ident) (Stmt, error) {
	slot := lhs.Decl.Slot
	if lhs.Decl.Type == cc.TInt {
		rhs, err := CompileExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		switch st.Op {
		case "=":
			return func(env *Env) error { env.Ints[slot] = rhs(env); return nil }, nil
		case "+=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] += rhs(env); return nil }, nil
		case "-=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] -= rhs(env); return nil }, nil
		case "*=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] *= rhs(env); return nil }, nil
		case "/=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] /= rhs(env); return nil }, nil
		case "%=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] %= rhs(env); return nil }, nil
		case "<<=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] <<= uint(rhs(env)); return nil }, nil
		case ">>=":
			return func(env *Env) error { env.Flops++; env.Ints[slot] >>= uint(rhs(env)); return nil }, nil
		}
		return nil, fmt.Errorf("ir: line %d: unknown assignment operator %q", st.Pos(), st.Op)
	}
	rhs, err := CompileExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	round := func(v float64) float64 { return v }
	if lhs.Decl.Type == cc.TFloat {
		round = func(v float64) float64 { return float64(float32(v)) }
	}
	switch st.Op {
	case "=":
		return func(env *Env) error { env.Floats[slot] = round(rhs(env)); return nil }, nil
	case "+=":
		return func(env *Env) error { env.Flops++; env.Floats[slot] = round(env.Floats[slot] + rhs(env)); return nil }, nil
	case "-=":
		return func(env *Env) error { env.Flops++; env.Floats[slot] = round(env.Floats[slot] - rhs(env)); return nil }, nil
	case "*=":
		return func(env *Env) error { env.Flops++; env.Floats[slot] = round(env.Floats[slot] * rhs(env)); return nil }, nil
	case "/=":
		return func(env *Env) error {
			env.Flops += 4
			env.Floats[slot] = round(env.Floats[slot] / rhs(env))
			return nil
		}, nil
	}
	return nil, fmt.Errorf("ir: line %d: unknown assignment operator %q", st.Pos(), st.Op)
}

func compileArrayAssign(st *cc.AssignStmt, lhs *cc.IndexExpr) (Stmt, error) {
	slot := lhs.Array.Slot
	idx, err := CompileExprI(lhs.Index)
	if err != nil {
		return nil, err
	}
	isInt := lhs.Array.Type == cc.TInt
	if isInt {
		rhs, err := CompileExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		switch st.Op {
		case "=":
			return func(env *Env) error {
				env.Views[slot].StoreI(env, idx(env), rhs(env))
				return nil
			}, nil
		default:
			apply, err := intApply(st.Op, st.Pos())
			if err != nil {
				return nil, err
			}
			return func(env *Env) error {
				env.Flops++
				v := env.Views[slot]
				i := idx(env)
				v.StoreI(env, i, apply(v.LoadI(env, i), rhs(env)))
				return nil
			}, nil
		}
	}
	rhs, err := CompileExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	switch st.Op {
	case "=":
		return func(env *Env) error {
			env.Views[slot].StoreF(env, idx(env), rhs(env))
			return nil
		}, nil
	default:
		apply, err := floatApply(st.Op, st.Pos())
		if err != nil {
			return nil, err
		}
		return func(env *Env) error {
			env.Flops++
			v := env.Views[slot]
			i := idx(env)
			v.StoreF(env, i, apply(v.LoadF(env, i), rhs(env)))
			return nil
		}, nil
	}
}

func compileArrayReduce(st *cc.AssignStmt, lhs *cc.IndexExpr) (Stmt, error) {
	slot := lhs.Array.Slot
	idx, err := CompileExprI(lhs.Index)
	if err != nil {
		return nil, err
	}
	op := ReduceAdd
	if st.Reduce.Op == "*" {
		op = ReduceMul
	}
	if lhs.Array.Type == cc.TInt {
		rhs, err := CompileExprI(st.RHS)
		if err != nil {
			return nil, err
		}
		return func(env *Env) error {
			env.Flops++
			env.Views[slot].ReduceI(env, idx(env), rhs(env), op)
			return nil
		}, nil
	}
	rhs, err := CompileExprF(st.RHS)
	if err != nil {
		return nil, err
	}
	return func(env *Env) error {
		env.Flops++
		env.Views[slot].ReduceF(env, idx(env), rhs(env), op)
		return nil
	}, nil
}

func intApply(op string, line int) (func(int64, int64) int64, error) {
	switch op {
	case "+=":
		return func(a, b int64) int64 { return a + b }, nil
	case "-=":
		return func(a, b int64) int64 { return a - b }, nil
	case "*=":
		return func(a, b int64) int64 { return a * b }, nil
	case "/=":
		return func(a, b int64) int64 { return a / b }, nil
	case "%=":
		return func(a, b int64) int64 { return a % b }, nil
	case "<<=":
		return func(a, b int64) int64 { return a << uint(b) }, nil
	case ">>=":
		return func(a, b int64) int64 { return a >> uint(b) }, nil
	}
	return nil, fmt.Errorf("ir: line %d: unknown assignment operator %q", line, op)
}

func floatApply(op string, line int) (func(float64, float64) float64, error) {
	switch op {
	case "+=":
		return func(a, b float64) float64 { return a + b }, nil
	case "-=":
		return func(a, b float64) float64 { return a - b }, nil
	case "*=":
		return func(a, b float64) float64 { return a * b }, nil
	case "/=":
		return func(a, b float64) float64 { return a / b }, nil
	}
	return nil, fmt.Errorf("ir: line %d: unknown assignment operator %q", line, op)
}
