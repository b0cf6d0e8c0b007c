package ir

import (
	"fmt"
	"strings"

	"accmulti/internal/cc"
)

// VerifyLowering builds the specialized form of k's body the way
// BuildKernelSpec does, counting which access and arm numbers the passes
// over each lowered body read: every access must be read exactly once by
// the tile builder (and at most once more by the flat form an injective
// loop also compiles), once by the prover when the body has one, each as
// the slot and kind the lowering numbered; every arm must be counted by
// exactly one op of the tile builder. It returns how many lowered bodies
// got tiles (a split kernel's variants each count), the first number read
// otherwise, and the rewrites' notes.
func VerifyLowering(k *Kernel, body cc.Stmt, prog *cc.Program) (int, map[string]int, error) {
	c := &lowerCheck{notes: map[string]int{}}
	buildKernelSpec(k, body, prog, c)
	return c.bodies, c.notes, c.err
}

// note counts where a tile rewrite took, and which form of it, the parts
// of its name joined: "held a", "direct s" (a load into private s's
// vector), "truth" (a comparison computed as a value), "fused a" (a
// read-only walk read in the pass that uses it), "store a" (a store
// written in mulAdd's pass), "fuse x-v indexed" (a fuseLanes form, under
// an arm or not), "mulAdd P+K" and "mulAdd float,double" (mulAddLanes' form
// and the element types its walks read, no walk counting as double), "split" and "split walk
// a" (a comparison's split, reading a's walk from the copy) and "sumsq s"
// (rewrite 10).
func (c *lowerCheck) note(parts ...string) {
	if c != nil {
		c.notes[strings.Join(parts, "")]++
	}
}

// The passes that read access and arm numbers.
const (
	readTile = iota
	readAlt  // the flat form of an injective loop
	readProve
)

// lowerCheck is VerifyLowering's count for the lowered body the passes
// are reading (cur).
type lowerCheck struct {
	cur    *lowered
	reads  [3][]int
	arms   [2][]int
	bodies int
	err    error
	notes  map[string]int
}

// at starts the counts afresh when the passes moved to another body.
func (c *lowerCheck) at(l *lowered) {
	if c.cur == l {
		return
	}
	c.cur = l
	for p := range c.reads {
		c.reads[p] = make([]int, len(l.spec.Accesses))
	}
	for p := range c.arms {
		c.arms[p] = make([]int, len(l.spec.Arms))
	}
}

func (c *lowerCheck) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// read counts pass reading access k, which it takes for one of kind.
func (c *lowerCheck) read(l *lowered, pass int, k *kExpr, kind AccessKind) {
	if c == nil {
		return
	}
	c.at(l)
	a := l.spec.Accesses[k.site()]
	if slot := k.e.(*cc.IndexExpr).Array.Slot; a.Slot != slot || a.Kind != kind {
		c.fail("access %d read as slot %d kind %d, lowered as slot %d kind %d", k.site(), slot, kind, a.Slot, a.Kind)
	}
	c.reads[pass][k.site()]++
}

// arm counts pass reading arm n.
func (c *lowerCheck) arm(l *lowered, pass, n int) {
	if c == nil {
		return
	}
	c.at(l)
	c.arms[pass][n]++
}

// verify holds the counts of a body whose passes are done.
func (c *lowerCheck) verify(l *lowered) {
	if c == nil {
		return
	}
	c.at(l)
	c.bodies++
	for s := range l.spec.Accesses {
		if r := c.reads; r[readTile][s] != 1 || r[readAlt][s] > 1 || r[readProve][s] != int(b2i(l.spec.HasComputed)) {
			c.fail("access %d read %d times by the tiles, %d by a loop's flat form, %d by the prover", s, r[readTile][s], r[readAlt][s], r[readProve][s])
		}
	}
	for n := range l.spec.Arms {
		if c.arms[readTile][n] != 1 || c.arms[readAlt][n] > 1 {
			c.fail("arm %d counted by %d ops, %d of a loop's flat form", n, c.arms[readTile][n], c.arms[readAlt][n])
		}
	}
	c.cur = nil
}
