package analysis

// Region and program flow: what moves between kernels, the host and the
// devices. The pass reads the program skeleton (translator.ProgramAccess)
// — the footprints the runtime's placement and the pipelined scheduler
// consume, and the skeleton's own tree of regions, kernels, updates, host
// statements, host loops and branches — and derives the halo exchanges a
// distributed writer owes its readers (ACCV007), a backward liveness
// (ACCV010 dead device writes), a forward transfer cleanliness (ACCV011
// redundant transfers) and the cross-kernel dependence edges (Deps) the
// cross-check tests in internal/rt pin against what the scheduler
// serializes at run time.
//
// Abstract domain: per array and per residence plane (host mirror,
// device copies collectively) the analyses track either whole-array
// facts or bounded sets of subscript classes coef*i + off over an
// iteration domain [lo, hi) whose bounds are linear in the program's
// scalars. Joins are unions (may-analysis); class sets overflow to the
// conservative whole-array element, so every verdict that triggers a
// diagnostic is proven, never guessed: ACCV010 fires only when no live
// class meets any written class, ACCV011 only when no device/host write
// could have happened since the last synchronization on any path.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// ---------------------------------------------------------------------------
// Halo exchange (ACCV007)

// predictExchange predicts inter-GPU halo exchanges (ACCV007): inside
// one data region, an array written distributed by one loop and read
// with a halo-widened footprint by another forces the comm manager to
// push each GPU's boundary elements into its neighbours' halo windows
// after every writer launch (once the reader's widened extents are
// resident). It reports at most one ACCV007 per (writer loop, array):
// the exchange happens once per writer launch no matter how many later
// kernels read through the resident halo windows, so multiple readers
// fold into the diagnostic of the widest one.
func (v *vetter) predictExchange(wLoop *translator.LoopAccess, loops []*translator.LoopAccess) {
	for _, wfp := range wLoop.Arrays {
		wWin, ok := provableWindow(wfp.Spec)
		if !wfp.Written || !ok {
			continue
		}
		type haloReader struct {
			loop *translator.LoopAccess
			win  translator.Window
		}
		var readers []haloReader
		best := -1 // the reader with the widest halo, the first of equals
		for _, rLoop := range loops {
			rfp := rLoop.Footprint(wfp.Array)
			if rLoop == wLoop || rfp == nil || !rfp.Read {
				continue
			}
			rWin, ok := provableWindow(rfp.Spec)
			if !ok || rWin.S != wWin.S || rWin.L+rWin.R == 0 {
				continue
			}
			if best < 0 || rWin.L+rWin.R > readers[best].win.L+readers[best].win.R {
				best = len(readers)
			}
			readers = append(readers, haloReader{rLoop, rWin})
		}
		if best < 0 {
			continue
		}
		extra := ""
		if len(readers) > 1 {
			var lines []string
			for i, r := range readers {
				if i != best {
					lines = append(lines, fmt.Sprint(r.loop.Line))
				}
			}
			extra = fmt.Sprintf("; the halo reader(s) at line(s) %s reuse the same resident windows without additional traffic",
				strings.Join(lines, ", "))
		}
		rd := readers[best]
		spec := rd.loop.Footprint(wfp.Array).Spec
		v.add(diag.Info, "ACCV007", spec.Line, spec.ClauseCol, wfp.Array.Name, "",
			"array %q is written distributed by the loop at line %d and read with halo "+
				"(%d, %d) by the loop at line %d: once the halo windows are resident, every "+
				"launch of the writer exchanges %d boundary element(s) per adjacent GPU pair%s",
			wfp.Array.Name, wLoop.Line, rd.win.L, rd.win.R, rd.loop.Line, rd.win.L+rd.win.R, extra)
	}
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

// domain is the iteration domain [lo, hi) of one loop.
type domain struct {
	ok     bool
	lo, hi cc.Linear
}

func loopDomain(loop *translator.LoopAccess) domain {
	if loop.Collapsed || loop.Lower == nil || loop.Upper == nil {
		return domain{}
	}
	lo, okLo := cc.LinearOf(loop.Lower)
	hi, okHi := cc.LinearOf(loop.Upper)
	return domain{ok: okLo && okHi, lo: lo, hi: hi}
}

// covers reports that domain w provably includes every iteration of
// domain l (ends that differ by constants only, w's at or beyond l's).
func (w domain) covers(l domain) bool {
	below, okLo := l.lo.Minus(w.lo)
	above, okHi := w.hi.Minus(l.hi)
	return w.ok && l.ok && okLo && okHi && below >= 0 && above >= 0
}

// coversArray reports that the iteration domain provably spans the
// whole array: it starts at (or below) element 0 and its upper bound
// exceeds the array's declared size by a constant that is not negative.
func coversArray(dom domain, d *cc.VarDecl) bool {
	if !dom.ok || d.Size == nil {
		return false
	}
	first, okLo := dom.lo.Minus(cc.Linear{})
	size, okSize := cc.LinearOf(d.Size)
	above, okHi := dom.hi.Minus(size)
	return okLo && okSize && okHi && first <= 0 && above >= 0
}

func (d domain) eq(o domain) bool {
	if d.ok != o.ok {
		return false
	}
	if !d.ok {
		return true
	}
	dLo, okLo := d.lo.Minus(o.lo)
	dHi, okHi := d.hi.Minus(o.hi)
	return okLo && okHi && dLo == 0 && dHi == 0
}

// ---------------------------------------------------------------------------
// Liveness lattice

// maxClasses bounds each per-array class set; overflow widens to the
// whole-array element (conservatively more live).
const maxClasses = 16

// liveClass is one subscript class over the iterations of dom.
type liveClass struct {
	translator.Class
	dom domain
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
		if x.Class == c.Class && x.dom.eq(c.dom) {
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
		if !slices.ContainsFunc(b.cls, func(d liveClass) bool { return c.Class == d.Class && c.dom.eq(d.dom) }) {
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

// intersects reports whether any live element could be among the
// written classes of the sets.
func (s *liveState) intersects(sets ...[]translator.IndexForm) bool {
	if s == nil {
		return false
	}
	if s.whole {
		return true
	}
	for _, c := range s.cls {
		for _, writes := range sets {
			for _, w := range writes {
				if translator.Meet(c.Class, w.Class) {
					return true
				}
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
func (v *vetter) liveness() {
	end := newLstate()
	for _, d := range v.pa.Prog.ArrayDecls() {
		end.host.get(d).markWhole()
	}
	v.liveSeq(v.pa.Body, end, true)
}

// liveSeq processes a node sequence backwards, mutating s (the liveness
// just below it) into the liveness just above it. rep arms ACCV010
// reporting (off during fixpoint iterations).
func (v *vetter) liveSeq(kids []*translator.Node, s *lstate, rep bool) *lstate {
	for i := len(kids) - 1; i >= 0; i-- {
		s = v.liveBack(kids[i], s, rep)
	}
	return s
}

func (v *vetter) liveBack(n *translator.Node, s *lstate, rep bool) *lstate {
	switch n.Kind {
	case translator.NodeRegion:
		v.regionExitBack(n.Region, s)
		s = v.liveSeq(n.Kids, s, rep)
		v.regionEntryBack(n.Region, s)
	case translator.NodeKernel:
		v.kernelBack(n.Loop, s, rep)
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
		sThen := v.liveSeq(n.Kids, s.clone(), rep)
		sThen.union(v.liveSeq(n.Else, s.clone(), rep))
		return sThen
	case translator.NodeHostLoop:
		below := s.clone()
		// Fixpoint on the body-bottom state: liveness at the end of an
		// arbitrary iteration is what escapes the loop plus what the
		// next iteration reads.
		cur := below.clone()
		for iter := 0; iter < 8; iter++ {
			head := v.liveSeq(n.Kids, cur.clone(), false)
			next := below.clone()
			next.union(head)
			if next.eq(cur) {
				break
			}
			cur = next
		}
		head := v.liveSeq(n.Kids, cur, rep)
		head.union(below) // zero-iteration path
		return head
	}
	return s
}

func (v *vetter) regionExitBack(r *translator.RegionInfo, s *lstate) {
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

func (v *vetter) regionEntryBack(r *translator.RegionInfo, s *lstate) {
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

func (v *vetter) kernelBack(loop *translator.LoopAccess, s *lstate, rep bool) {
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
			nonLiteral := func(f translator.IndexForm) bool { return !f.Literal }
			provable := !slices.ContainsFunc(fp.Writes, nonLiteral) && !slices.ContainsFunc(fp.Reduces, nonLiteral)
			if provable && !dev.intersects(fp.Writes, fp.Reduces) {
				eff := fp.Writes // the first write, or the first reduction when there is none
				if len(eff) == 0 {
					eff = fp.Reduces
				}
				w := eff[0]
				v.add(diag.Warning, "ACCV010", w.Line, w.Col, d.Name, "",
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
				if c.Class == w.Class && dom.covers(c.dom) {
					continue
				}
				kept = append(kept, c)
			}
			dev.cls = kept
		}

		// Gen: everything the kernel reads was live before it.
		for _, r := range fp.Reads {
			if r.Literal {
				dev.addClass(liveClass{Class: r.Class, dom: dom})
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
func (v *vetter) cleanSeq(kids []*translator.Node, s cstate, rep bool) cstate {
	for _, k := range kids {
		s = v.cleanFwd(k, s, rep)
	}
	return s
}

func (v *vetter) cleanFwd(n *translator.Node, s cstate, rep bool) cstate {
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
		s = v.cleanSeq(n.Kids, s, rep)
		for _, arg := range n.Region.Args {
			d := arg.Decl
			if arg.Class == acc.ClassCopy || arg.Class == acc.ClassCopyOut {
				if st := s[d]; rep && st != nil && !st.devAhead {
					v.add(diag.Warning, "ACCV011", n.Region.Line, 0, d.Name, fmt.Sprintf("copyin(%s)", d.Name),
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
				v.add(diag.Warning, "ACCV011", n.Line, 0, d.Name, "",
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
				v.add(diag.Warning, "ACCV011", n.Line, 0, d.Name, "",
					"update device(%s) reloads host data the host code never wrote since the last "+
						"synchronization: the transfer re-copies clean data — drop the update",
					d.Name)
			}
			st.devAhead, st.hostAhead = false, false
		}
	case translator.NodeBranch:
		sElse := s.clone()
		s = v.cleanSeq(n.Kids, s, rep)
		s.or(v.cleanSeq(n.Else, sElse, rep))
	case translator.NodeHostLoop:
		entry := s.clone()
		for iter := 0; iter < 8; iter++ {
			after := v.cleanSeq(n.Kids, entry.clone(), false)
			next := entry.clone()
			next.or(after)
			if next.eq(entry) {
				break
			}
			entry = next
		}
		after := v.cleanSeq(n.Kids, entry.clone(), rep)
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
func (v *vetter) deps() {
	seen := map[Dep]bool{}
	for i, w := range v.pa.Loops {
		for j, r := range v.pa.Loops {
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
					v.res.Deps = append(v.res.Deps, dep)
				}
			}
		}
	}
	sort.Slice(v.res.Deps, func(i, j int) bool {
		p, q := v.res.Deps[i], v.res.Deps[j]
		if p.Array != q.Array {
			return p.Array < q.Array
		}
		if p.WriterLine != q.WriterLine {
			return p.WriterLine < q.WriterLine
		}
		return p.ReaderLine < q.ReaderLine
	})
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
