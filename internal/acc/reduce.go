package acc

import "math"

// RedOp is the operator of a scalar `reduction(op:var)` clause or of a
// `reductiontoarray(op:...)` directive. The clause parsers are the only
// place the spellings are read; everything downstream (sema, the
// translator, the engines, the runtime's merges, the auditor) carries the
// typed value.
type RedOp uint8

const (
	RedAdd  RedOp = iota // +
	RedMul               // *
	RedMax               // max
	RedMin               // min
	RedOr                // |
	RedAnd               // &
	RedLOr               // ||
	RedLAnd              // &&
)

var redOpNames = [...]string{"+", "*", "max", "min", "|", "&", "||", "&&"}

// ParseRedOp reads an operator as it is spelled in a clause.
func ParseRedOp(s string) (RedOp, bool) {
	for op, name := range redOpNames {
		if s == name {
			return RedOp(op), true
		}
	}
	return 0, false
}

func (op RedOp) String() string { return redOpNames[op] }

// IdentityF returns the operator's float identity element.
func (op RedOp) IdentityF() float64 {
	switch op {
	case RedMul, RedAnd, RedLAnd:
		return 1
	case RedMax:
		return math.Inf(-1)
	case RedMin:
		return math.Inf(1)
	}
	return 0
}

// IdentityI returns the operator's int identity element.
func (op RedOp) IdentityI() int64 {
	switch op {
	case RedMul, RedLAnd:
		return 1
	case RedMax:
		return math.MinInt64
	case RedMin:
		return math.MaxInt64
	case RedAnd:
		return -1
	}
	return 0
}

// MergeF combines two float partial results. The bitwise operators act
// on floats as their logical counterparts.
func (op RedOp) MergeF(a, b float64) float64 {
	switch op {
	case RedMax:
		return math.Max(a, b)
	case RedMin:
		return math.Min(a, b)
	case RedOr, RedLOr:
		return b2f(a != 0 || b != 0)
	case RedAnd, RedLAnd:
		return b2f(a != 0 && b != 0)
	}
	return Apply(op, a, b)
}

// MergeI combines two int partial results.
func (op RedOp) MergeI(a, b int64) int64 {
	switch op {
	case RedMax:
		return max(a, b)
	case RedMin:
		return min(a, b)
	case RedOr:
		return a | b
	case RedAnd:
		return a & b
	case RedLOr:
		return int64(b2f(a != 0 || b != 0))
	case RedLAnd:
		return int64(b2f(a != 0 && b != 0))
	}
	return Apply(op, a, b)
}

// Apply is acc op x for + and *, over either lane type: a
// reductiontoarray update (the two operators sema admits for it) and
// MergeI's and MergeF's own + and *.
func Apply[S int64 | float64](op RedOp, acc, x S) S {
	if op == RedMul {
		return acc * x
	}
	return acc + x
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
