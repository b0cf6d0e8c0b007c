// Package dataflow is the whole-program, per-array dataflow pass of
// accvet. Where the base pass (internal/analysis) checks each parallel
// loop's directives against its own footprint, this pass reasons
// across statements: it proves loop-carried dependences inside single
// kernels (ACCV008, races.go), flags unprovable scatter writes
// (ACCV009), and runs kernel-to-kernel liveness/reaching-definitions
// and transfer-cleanliness analyses over the translated program
// (ACCV010 dead device writes, ACCV011 redundant transfers, ACCV012
// distributability advisor).
//
// The pass reads the program skeleton (translator.ProgramAccess): the
// footprints the runtime's placement and the pipelined scheduler consume,
// and the skeleton's own tree of regions, kernels, updates, host
// statements, host loops and branches — it builds no tree of its own. It
// reuses the scheduler's hazard-interval representation
// (rt.IntervalSet) for its footprint envelopes, so the static
// dependences it derives and the dependences the scheduler serializes
// at run time come from one model; the cross-check tests in
// internal/rt pin the two against each other.
//
// Abstract domain: per array and per residence plane (host mirror,
// device copies collectively) the analyses track either whole-array
// facts or bounded sets of congruence classes coef*i + off over an
// iteration domain [lo, hi) whose bounds are linear in one scalar.
// Joins are unions (may-analysis); class sets overflow to the
// conservative whole-array element, so every verdict that triggers a
// diagnostic is proven, never guessed:
//
//	ACCV010 fires only when no live class intersects any written class,
//	ACCV011 fires only when no device/host write could have happened
//	since the last synchronization on any path, and
//	ACCV008/ACCV009/ACCV012 come from races.go's per-loop proofs.
package dataflow

import (
	"fmt"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// Dep is one statically derived cross-kernel device dependence: the
// loop at WriterLine produces elements of Array that the loop at
// ReaderLine consumes through the same device allocation (WriterLine
// == ReaderLine for a kernel iterated in-place by a host loop).
type Dep struct {
	Array                  string
	WriterLine, ReaderLine int
}

// Result is the outcome of the dataflow pass.
type Result struct {
	// Diags are the findings (unsorted; the caller merges and sorts).
	Diags diag.List
	// Distributable names the arrays ACCV012 proposed a localaccess
	// for; the base pass suppresses its per-loop ACCV004 hints on them.
	Distributable map[string]bool
	// Deps are the cross-kernel dependences, sorted by (array, writer,
	// reader). The scheduler cross-check pins every runtime-serialized
	// kernel-to-kernel dependence against this list.
	Deps []Dep
}

// Analyze runs the dataflow pass over an analyzed program.
func Analyze(pa *translator.ProgramAccess) *Result {
	a := &analyzer{
		pa:       pa,
		res:      &Result{Distributable: map[string]bool{}},
		reported: map[repKey]bool{},
		raced:    map[string]bool{},
	}
	for _, loop := range pa.Loops {
		a.checkLoopRaces(loop)
	}
	a.cleanSeq(pa.Body, cstate{}, true)
	a.liveness()
	a.advise()
	a.deps()
	return a.res
}

type repKey struct {
	code      string
	line, col int
	symbol    string
}

type analyzer struct {
	pa  *translator.ProgramAccess
	res *Result
	// reported dedupes diagnostics across the repeated passes the
	// host-loop fixpoints make over one body.
	reported map[repKey]bool
	// raced names arrays with an ACCV008/ACCV009 finding; the
	// distributability advisor must not propose spreading them.
	raced map[string]bool
}

func (a *analyzer) add(sev diag.Severity, code string, line, col int, symbol, fixit, format string, args ...any) {
	key := repKey{code: code, line: line, col: col, symbol: symbol}
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.res.Diags.Add(diag.Diagnostic{
		Severity: sev,
		Code:     code,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
		FixIt:    fixit,
		Symbol:   symbol,
	})
}

// ---------------------------------------------------------------------------
// Regions and domains

// argClass returns the data class a region declares for an array.
func argClass(r *translator.RegionInfo, d *cc.VarDecl) (acc.DataClass, bool) {
	for _, arg := range r.Args {
		if arg.Decl == d {
			return arg.Class, true
		}
	}
	return 0, false
}

// regionManages reports whether a region or any enclosing region names
// the array in a data clause, i.e. the array has a structured device
// residence there (as opposed to the per-launch automatic management of
// unlisted arrays, whose writes are gathered eagerly).
func regionManages(r *translator.RegionInfo, d *cc.VarDecl) bool {
	for ; r != nil; r = r.Parent {
		if _, ok := argClass(r, d); ok {
			return true
		}
	}
	return false
}

// ownerRegion resolves which region's allocation a kernel under region
// r uses for the array: present chains up to the enclosing allocation.
func ownerRegion(r *translator.RegionInfo, d *cc.VarDecl) *translator.RegionInfo {
	for ; r != nil; r = r.Parent {
		if class, ok := argClass(r, d); ok && class != acc.ClassPresent {
			return r
		}
	}
	return nil
}

// bnd is one linear bound scale*sym + off (sym nil for literals).
type bnd struct {
	ok    bool
	sym   *cc.VarDecl
	scale int64
	off   int64
}

func sameAxis(a, b bnd) bool {
	return a.ok && b.ok && a.sym == b.sym && (a.sym == nil || a.scale == b.scale)
}

// parseBnd parses a loop-bound expression into linear form over at
// most one scalar.
func parseBnd(e cc.Expr) bnd {
	switch x := e.(type) {
	case *cc.NumLit:
		if x.IsFloat {
			return bnd{}
		}
		return bnd{ok: true, off: x.I}
	case *cc.Ident:
		if x.Decl == nil || x.Decl.IsArray {
			return bnd{}
		}
		return bnd{ok: true, sym: x.Decl, scale: 1}
	case *cc.UnaryExpr:
		if x.Op != "-" {
			return bnd{}
		}
		b := parseBnd(x.X)
		if !b.ok {
			return bnd{}
		}
		return bnd{ok: true, sym: b.sym, scale: -b.scale, off: -b.off}
	case *cc.BinaryExpr:
		a, c := parseBnd(x.X), parseBnd(x.Y)
		if !a.ok || !c.ok {
			return bnd{}
		}
		switch x.Op {
		case "+":
			return addBnd(a, c)
		case "-":
			return addBnd(a, bnd{ok: true, sym: c.sym, scale: -c.scale, off: -c.off})
		case "*":
			if a.sym == nil {
				return bnd{ok: true, sym: c.sym, scale: c.scale * a.off, off: c.off * a.off}
			}
			if c.sym == nil {
				return bnd{ok: true, sym: a.sym, scale: a.scale * c.off, off: a.off * c.off}
			}
		}
	}
	return bnd{}
}

func addBnd(a, b bnd) bnd {
	switch {
	case a.sym == nil:
		return bnd{ok: true, sym: b.sym, scale: b.scale, off: a.off + b.off}
	case b.sym == nil || a.sym == b.sym:
		scale := a.scale
		if b.sym == a.sym {
			scale += b.scale
		}
		return bnd{ok: true, sym: a.sym, scale: scale, off: a.off + b.off}
	}
	return bnd{}
}

// domain is the iteration domain [lo, hi) of one loop.
type domain struct {
	ok     bool
	lo, hi bnd
}

func loopDomain(loop *translator.LoopAccess) domain {
	if loop.Collapsed || loop.Lower == nil || loop.Upper == nil {
		return domain{}
	}
	lo, hi := parseBnd(loop.Lower), parseBnd(loop.Upper)
	if !lo.ok || !hi.ok {
		return domain{}
	}
	return domain{ok: true, lo: lo, hi: hi}
}

// covers reports that domain w provably includes every iteration of
// domain l (same symbolic axis, wider or equal literal ends).
func (w domain) covers(l domain) bool {
	return w.ok && l.ok && sameAxis(w.lo, l.lo) && sameAxis(w.hi, l.hi) &&
		w.lo.off <= l.lo.off && w.hi.off >= l.hi.off
}

// coversArray reports that the iteration domain provably spans the
// whole array: it starts at (or below) element 0 and its upper bound
// is at least the array's declared size along the same symbolic axis.
func coversArray(dom domain, d *cc.VarDecl) bool {
	if !dom.ok || dom.lo.sym != nil || dom.lo.off > 0 || d.Size == nil {
		return false
	}
	size := parseBnd(d.Size)
	return sameAxis(dom.hi, size) && dom.hi.off >= size.off
}

func (d domain) eq(o domain) bool {
	if d.ok != o.ok {
		return false
	}
	if !d.ok {
		return true
	}
	return d.lo == o.lo && d.hi == o.hi
}

// ---------------------------------------------------------------------------
// Liveness lattice

// maxClasses bounds each per-array class set; overflow widens to the
// whole-array element (conservatively more live).
const maxClasses = 16

// liveClass is one congruence class coef*i + off over dom.
type liveClass struct {
	coef, off int64
	dom       domain
}

// liveState is the per-array, per-plane fact: whole-array live, or
// live exactly in the recorded classes (empty = dead).
type liveState struct {
	whole bool
	cls   []liveClass
}

func (s *liveState) empty() bool { return s == nil || (!s.whole && len(s.cls) == 0) }

func (s *liveState) addClass(c liveClass) {
	if s.whole {
		return
	}
	for _, x := range s.cls {
		if x.coef == c.coef && x.off == c.off && x.dom.eq(c.dom) {
			return
		}
	}
	s.cls = append(s.cls, c)
	if len(s.cls) > maxClasses {
		s.whole = true
		s.cls = nil
	}
}

func (s *liveState) markWhole() {
	s.whole = true
	s.cls = nil
}

// plane maps arrays to their live state on one residence plane; a
// missing entry means dead.
type plane map[*cc.VarDecl]*liveState

func (p plane) get(d *cc.VarDecl) *liveState {
	st := p[d]
	if st == nil {
		st = &liveState{}
		p[d] = st
	}
	return st
}

type lstate struct {
	host, dev plane
}

func newLstate() *lstate { return &lstate{host: plane{}, dev: plane{}} }

func clonePlane(p plane) plane {
	out := plane{}
	for d, st := range p {
		if st.empty() {
			continue
		}
		out[d] = &liveState{whole: st.whole, cls: append([]liveClass(nil), st.cls...)}
	}
	return out
}

func (s *lstate) clone() *lstate {
	return &lstate{host: clonePlane(s.host), dev: clonePlane(s.dev)}
}

func unionState(into, from *liveState) {
	if from == nil {
		return
	}
	if from.whole {
		into.markWhole()
		return
	}
	for _, c := range from.cls {
		into.addClass(c)
	}
}

func unionPlane(into, from plane) {
	for d, st := range from {
		if st.empty() {
			continue
		}
		unionState(into.get(d), st)
	}
}

func (s *lstate) union(o *lstate) {
	unionPlane(s.host, o.host)
	unionPlane(s.dev, o.dev)
}

func stateEq(a, b *liveState) bool {
	if a.empty() || b.empty() {
		return a.empty() == b.empty()
	}
	if a.whole != b.whole || len(a.cls) != len(b.cls) {
		return false
	}
	// Class sets are small and append-deduped; order-sensitive compare
	// with a subset fallback keeps this cheap and exact enough for
	// fixpoint termination (sets only grow monotonically).
	for _, c := range a.cls {
		found := false
		for _, d := range b.cls {
			if c.coef == d.coef && c.off == d.off && c.dom.eq(d.dom) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func planeEq(a, b plane) bool {
	for d, st := range a {
		if !stateEq(st, b[d]) {
			return false
		}
	}
	for d, st := range b {
		if _, ok := a[d]; !ok && !st.empty() {
			return false
		}
	}
	return true
}

func (s *lstate) eq(o *lstate) bool {
	return planeEq(s.host, o.host) && planeEq(s.dev, o.dev)
}

// gcd64 is the positive gcd (gcd(0, x) = |x|).
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// classesIntersect reports whether the element sets coef1*i + off1 and
// coef2*j + off2 can share an element (domains ignored: conservative).
func classesIntersect(c1, o1, c2, o2 int64) bool {
	g := gcd64(c1, c2)
	if g == 0 {
		return o1 == o2
	}
	return (o1-o2)%g == 0
}

// intersects reports whether any live element could be among the
// written classes.
func (s *liveState) intersects(writes []translator.IndexForm) bool {
	if s == nil {
		return false
	}
	if s.whole {
		return true
	}
	for _, c := range s.cls {
		for _, w := range writes {
			if classesIntersect(c.coef, c.off, w.Coef, w.Off) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Backward liveness (ACCV010)

// liveness runs the backward pass: at program end every array's host
// mirror is live (final values are observable), and facts flow
// backwards through gathers, loads, updates, kernels and host code.
func (a *analyzer) liveness() {
	end := newLstate()
	for _, d := range a.pa.Prog.ArrayDecls() {
		end.host.get(d).markWhole()
	}
	a.liveSeq(a.pa.Body, end, true)
}

// liveSeq processes a node sequence backwards, mutating s (the liveness
// just below it) into the liveness just above it. rep arms ACCV010
// reporting (off during fixpoint iterations).
func (a *analyzer) liveSeq(kids []*translator.Node, s *lstate, rep bool) *lstate {
	for i := len(kids) - 1; i >= 0; i-- {
		s = a.liveBack(kids[i], s, rep)
	}
	return s
}

func (a *analyzer) liveBack(n *translator.Node, s *lstate, rep bool) *lstate {
	switch n.Kind {
	case translator.NodeRegion:
		a.regionExitBack(n.Region, s)
		s = a.liveSeq(n.Kids, s, rep)
		a.regionEntryBack(n.Region, s)
	case translator.NodeKernel:
		a.kernelBack(n.Loop, s, rep)
	case translator.NodeHost:
		for _, d := range n.Reads {
			s.host.get(d).markWhole()
		}
		// Host writes have unknown extent: no kill.
	case translator.NodeUpdate:
		for _, d := range n.Update.ToHost {
			// D2H: the device elements host later needs become live on
			// the device; the host copy is fully overwritten.
			unionState(s.dev.get(d), s.host[d])
			delete(s.host, d)
		}
		for _, d := range n.Update.ToDevice {
			unionState(s.host.get(d), s.dev[d])
			delete(s.dev, d)
		}
	case translator.NodeBranch:
		sThen := a.liveSeq(n.Kids, s.clone(), rep)
		sThen.union(a.liveSeq(n.Else, s.clone(), rep))
		return sThen
	case translator.NodeHostLoop:
		below := s.clone()
		// Fixpoint on the body-bottom state: liveness at the end of an
		// arbitrary iteration is what escapes the loop plus what the
		// next iteration reads.
		cur := below.clone()
		for iter := 0; iter < 8; iter++ {
			head := a.liveSeq(n.Kids, cur.clone(), false)
			next := below.clone()
			next.union(head)
			if next.eq(cur) {
				break
			}
			cur = next
		}
		head := a.liveSeq(n.Kids, cur, rep)
		head.union(below) // zero-iteration path
		return head
	}
	return s
}

func (a *analyzer) regionExitBack(r *translator.RegionInfo, s *lstate) {
	for _, arg := range r.Args {
		d := arg.Decl
		switch arg.Class {
		case acc.ClassCopy, acc.ClassCopyOut:
			// Exit gather: device elements the host needs become live
			// on the device; the host copy is fully overwritten.
			unionState(s.dev.get(d), s.host[d])
			delete(s.host, d)
		case acc.ClassCopyIn, acc.ClassCreate:
			// No exit transfer, device storage released. Only kill the
			// device plane when no enclosing region aliases the array.
			if !regionManages(r.Parent, d) {
				delete(s.dev, d)
			}
		}
	}
}

func (a *analyzer) regionEntryBack(r *translator.RegionInfo, s *lstate) {
	for _, arg := range r.Args {
		d := arg.Decl
		switch arg.Class {
		case acc.ClassCopy, acc.ClassCopyIn:
			// Entry load: fully defines the device copy from the host.
			unionState(s.host.get(d), s.dev[d])
			if !regionManages(r.Parent, d) {
				delete(s.dev, d)
			}
		case acc.ClassCopyOut, acc.ClassCreate:
			if !regionManages(r.Parent, d) {
				delete(s.dev, d)
			}
		}
	}
}

func (a *analyzer) kernelBack(loop *translator.LoopAccess, s *lstate, rep bool) {
	dom := loopDomain(loop)
	for _, fp := range loop.Arrays {
		d := fp.Array
		if loop.Region == nil || !regionManages(loop.Region, d) {
			// Automatically managed per launch: written elements are
			// gathered eagerly (always live) and reads come from the
			// host mirror.
			if fp.Read || fp.Reduced {
				s.host.get(d).markWhole()
			}
			continue
		}
		dev := s.dev.get(d)

		// Report: every written element is provably overwritten or
		// discarded before any kernel, host statement, update or
		// copy-out consumes it.
		if rep && len(fp.Writes)+len(fp.Reduces) > 0 {
			eff := append(append([]translator.IndexForm{}, fp.Writes...), fp.Reduces...)
			provable := true
			for _, w := range eff {
				if !w.Literal {
					provable = false
					break
				}
			}
			if provable && !dev.intersects(eff) {
				w := eff[0]
				a.add(diag.Warning, "ACCV010", w.Line, w.Col, d.Name, "",
					"the loop at line %d writes %s, but nothing reads the written elements of %q "+
						"before they are overwritten or the data region releases them: the device "+
						"write and its merge traffic are dead — read the result, copy it out, or drop the write",
					loop.Line, w.Src, d.Name)
			}
		}

		// Kill: plain literal writes fully define their class over the
		// loop's domain. A unit-stride write whose domain provably spans
		// the array's declared extent overwrites everything, including a
		// whole-array fact.
		for _, w := range fp.Writes {
			if w.Op != "=" || !w.Literal || !dom.ok {
				continue
			}
			if w.Coef == 1 && w.Off == 0 && coversArray(dom, d) {
				*dev = liveState{}
				continue
			}
			if dev.whole {
				continue
			}
			kept := dev.cls[:0]
			for _, c := range dev.cls {
				if c.coef == w.Coef && c.off == w.Off && dom.covers(c.dom) {
					continue
				}
				kept = append(kept, c)
			}
			dev.cls = kept
		}

		// Gen: everything the kernel reads was live before it.
		for _, r := range fp.Reads {
			if r.Literal {
				dev.addClass(liveClass{coef: r.Coef, off: r.Off, dom: dom})
			} else {
				dev.markWhole()
			}
		}
		if fp.Reduced {
			dev.markWhole() // reductions read their target elements
		}
	}
}

// ---------------------------------------------------------------------------
// Forward cleanliness (ACCV011)

// coh tracks which side of one array's host/device pair may have
// changed since they were last synchronized.
type coh struct {
	devAhead, hostAhead bool
}

type cstate map[*cc.VarDecl]*coh

func (c cstate) clone() cstate {
	out := cstate{}
	for d, st := range c {
		cp := *st
		out[d] = &cp
	}
	return out
}

func (c cstate) or(o cstate) {
	for d, st := range o {
		mine, ok := c[d]
		if !ok {
			cp := *st
			c[d] = &cp
			continue
		}
		mine.devAhead = mine.devAhead || st.devAhead
		mine.hostAhead = mine.hostAhead || st.hostAhead
	}
}

func (c cstate) eq(o cstate) bool {
	if len(c) != len(o) {
		return false
	}
	for d, st := range c {
		other, ok := o[d]
		if !ok || *st != *other {
			return false
		}
	}
	return true
}

// cleanSeq runs the forward pass over a node sequence, flagging transfers
// of data the other side never touched since the last synchronization.
func (a *analyzer) cleanSeq(kids []*translator.Node, s cstate, rep bool) cstate {
	for _, k := range kids {
		s = a.cleanFwd(k, s, rep)
	}
	return s
}

func (a *analyzer) cleanFwd(n *translator.Node, s cstate, rep bool) cstate {
	switch n.Kind {
	case translator.NodeRegion:
		created := []*cc.VarDecl{}
		for _, arg := range n.Region.Args {
			d := arg.Decl
			switch arg.Class {
			case acc.ClassCopy, acc.ClassCopyIn:
				s[d] = &coh{} // entry load synchronizes both sides
				created = append(created, d)
			case acc.ClassCopyOut, acc.ClassCreate:
				// Device storage exists but never saw the host data.
				s[d] = &coh{hostAhead: true}
				created = append(created, d)
			}
		}
		s = a.cleanSeq(n.Kids, s, rep)
		for _, arg := range n.Region.Args {
			d := arg.Decl
			if arg.Class == acc.ClassCopy || arg.Class == acc.ClassCopyOut {
				if st := s[d]; rep && st != nil && !st.devAhead {
					a.add(diag.Warning, "ACCV011", n.Region.Line, 0, d.Name, fmt.Sprintf("copyin(%s)", d.Name),
						"the data region copies %q back to the host at exit, but no kernel wrote it "+
							"on the device: the gather re-copies clean data — declare the array copyin "+
							"(or create) instead",
						d.Name)
				}
			}
		}
		for _, d := range created {
			delete(s, d)
		}
	case translator.NodeKernel:
		for _, fp := range n.Loop.Arrays {
			if (fp.Written || fp.Reduced) && s[fp.Array] != nil {
				s[fp.Array].devAhead = true
			}
		}
	case translator.NodeHost:
		for _, d := range n.Writes {
			if s[d] != nil {
				s[d].hostAhead = true
			}
		}
	case translator.NodeUpdate:
		for _, d := range n.Update.ToHost {
			st := s[d]
			if st == nil {
				continue
			}
			if rep && !st.devAhead {
				a.add(diag.Warning, "ACCV011", n.Line, 0, d.Name, "",
					"update host(%s) copies device data the kernels never wrote since the last "+
						"synchronization: the transfer re-copies clean data — drop the update",
					d.Name)
			}
			st.devAhead, st.hostAhead = false, false
		}
		for _, d := range n.Update.ToDevice {
			st := s[d]
			if st == nil {
				continue
			}
			if rep && !st.hostAhead {
				a.add(diag.Warning, "ACCV011", n.Line, 0, d.Name, "",
					"update device(%s) reloads host data the host code never wrote since the last "+
						"synchronization: the transfer re-copies clean data — drop the update",
					d.Name)
			}
			st.devAhead, st.hostAhead = false, false
		}
	case translator.NodeBranch:
		sElse := s.clone()
		s = a.cleanSeq(n.Kids, s, rep)
		s.or(a.cleanSeq(n.Else, sElse, rep))
	case translator.NodeHostLoop:
		entry := s.clone()
		for iter := 0; iter < 8; iter++ {
			after := a.cleanSeq(n.Kids, entry.clone(), false)
			next := entry.clone()
			next.or(after)
			if next.eq(entry) {
				break
			}
			entry = next
		}
		after := a.cleanSeq(n.Kids, entry.clone(), rep)
		after.or(entry) // zero-iteration path
		return after
	}
	return s
}

// ---------------------------------------------------------------------------
// Cross-kernel dependences

// deps derives the cross-kernel device dependences: a loop that writes
// (or reduces into) an array and a loop that reads it through the same
// device allocation, in program order or through the back edge of a
// shared enclosing host loop.
func (a *analyzer) deps() {
	seen := map[Dep]bool{}
	for i, w := range a.pa.Loops {
		for j, r := range a.pa.Loops {
			ordered := i < j
			backEdge := false
			if i == j {
				backEdge = len(w.HostLoops) > 0
			} else if i > j {
				backEdge = shareLoop(w.HostLoops, r.HostLoops)
			}
			if !ordered && !backEdge {
				continue
			}
			for _, wfp := range w.Arrays {
				if !wfp.Written && !wfp.Reduced {
					continue
				}
				rfp := r.Footprint(wfp.Array)
				if rfp == nil || (!rfp.Read && !rfp.Reduced) {
					continue
				}
				owner := ownerRegion(w.Region, wfp.Array)
				if owner == nil || owner != ownerRegion(r.Region, wfp.Array) {
					continue
				}
				dep := Dep{Array: wfp.Array.Name, WriterLine: w.Line, ReaderLine: r.Line}
				if !seen[dep] {
					seen[dep] = true
					a.res.Deps = append(a.res.Deps, dep)
				}
			}
		}
	}
	sortDeps(a.res.Deps)
}

func shareLoop(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func sortDeps(deps []Dep) {
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && depLess(deps[j], deps[j-1]); j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
}

func depLess(a, b Dep) bool {
	if a.Array != b.Array {
		return a.Array < b.Array
	}
	if a.WriterLine != b.WriterLine {
		return a.WriterLine < b.WriterLine
	}
	return a.ReaderLine < b.ReaderLine
}
