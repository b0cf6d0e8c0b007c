package rt

import (
	"fmt"
	"slices"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// arrayState is the runtime's bookkeeping for one declared array: the
// host mirror, data-region membership, version lineage and the per-GPU
// copies managed by the data loader.
type arrayState struct {
	decl     *cc.VarDecl
	host     *ir.HostArray
	n        int64
	elemSize int64

	// present marks membership in an open data region.
	present bool
	class   acc.DataClass
	// hostVersion increments whenever the host copy becomes the
	// canonical content (region entry, update device).
	hostVersion int64
	// deviceNewer marks that device copies hold content the host
	// mirror lacks (kernels wrote since the last gather).
	deviceNewer bool

	copies []*gpuCopy
}

// gpuCopy is one GPU's resident copy of (part of) an array.
type gpuCopy struct {
	st  *arrayState
	g   int
	dev *sim.Device

	valid bool
	// lo..hi is the resident inclusive logical range (replica: 0..n-1).
	lo, hi int64
	// coreLo..coreHi is the owned write range of the last launch (for
	// distributed written arrays); empty otherwise.
	coreLo, coreHi int64
	// version is the hostVersion the content descends from.
	version int64
	// wepoch increments whenever the copy's contents may have changed
	// (realloc, host→device fill, d2d run copy, any launch that writes
	// or reduces the array). The specialized executor's prover keys its
	// cross-launch min/max value-scan cache on it, so read-only index
	// arrays are scanned once, not once per launch.
	wepoch int64

	buf *sim.Buffer
	f32 []float32
	f64 []float64
	i32 []int32

	// transformed marks column-major (transposed) storage of a
	// logically 2-D block; width is the row length.
	transformed bool
	width, rows int64

	// Two-level dirty bits (replicated written arrays). Worker strands
	// mark chunks in per-lane scratch (chunkLanes) because neighbouring
	// strands share chunk bytes; a real GPU would use an atomic OR. The
	// lanes fold into chunkDirty once the kernel completes. A unit-step
	// store the launch marks in bulk (markDirtyAffine) records its
	// footprint in spans (physical, half-open, sorted and disjoint)
	// instead of one byte per element; a chunk's byte says what it holds:
	// chunkBytes, chunkSpan or both.
	dirty      []uint8
	chunkDirty []uint8
	chunkLanes [][]uint8
	spans      []span
	dirtyBuf   *sim.Buffer
	chunkElems int64

	// Remote-write system buffers, one per worker strand.
	miss    [][]missRec
	missBuf *sim.Buffer

	// Hierarchical reduction lanes, one per worker strand; only one of
	// lanesF/lanesI is populated, matching the element type.
	lanesF   [][]float64
	lanesI   [][]int64
	lanesBuf *sim.Buffer
}

// missRec is one buffered remote write.
type missRec struct {
	idx int64
	f   float64
	i   int64
}

// localLen is the resident element count.
func (c *gpuCopy) localLen() int64 {
	if !c.valid {
		return 0
	}
	return c.hi - c.lo + 1
}

// What a chunk's second-level byte records: dirty bytes in the chunk,
// a span over part of it, or both.
const (
	chunkBytes uint8 = 1 << iota
	chunkSpan
)

// mergeChunkLanes folds the per-lane chunk marks into chunkDirty after
// a launch and resets the lanes for the next one.
func (c *gpuCopy) mergeChunkLanes() {
	for _, lane := range c.chunkLanes {
		for ch, b := range lane {
			if b != 0 {
				c.chunkDirty[ch] |= chunkBytes
				lane[ch] = 0
			}
		}
	}
}

// addSpan records the dirty physical range [lo,hi), keeping spans sorted
// and disjoint: the spans it overlaps or touches merge into one, so a
// store marked again before the next clear adds nothing.
func (c *gpuCopy) addSpan(lo, hi int64) {
	s := c.spans
	i := 0
	for i < len(s) && s[i].hi < lo {
		i++
	}
	j := i
	for ; j < len(s) && s[j].lo <= hi; j++ {
		lo, hi = min(lo, s[j].lo), max(hi, s[j].hi)
	}
	if i == j {
		c.spans = slices.Insert(s, i, span{lo, hi})
		return
	}
	s[i] = span{lo, hi}
	c.spans = slices.Delete(s, i+1, j)
}

// clearDirty starts the next superstep clean. A dirty byte or a span
// implies its chunk's second-level bit (the store paths set both, see
// mergeChunkLanes and markDirtyAffine — scanDirty relies on the same),
// so only the first-level bytes of chunks marked chunkBytes need
// clearing: the cost follows what the kernel wrote byte by byte, not
// the size of the array.
func (c *gpuCopy) clearDirty() {
	for ch, b := range c.chunkDirty {
		if b&chunkBytes != 0 {
			lo := int64(ch) * c.chunkElems
			clear(c.dirty[lo:min(lo+c.chunkElems, int64(len(c.dirty)))])
		}
		if b != 0 {
			c.chunkDirty[ch] = 0
		}
	}
	c.spans = c.spans[:0]
}

// state returns (creating on first touch) the runtime state of decl.
func (r *Runtime) state(decl *cc.VarDecl) *arrayState {
	st, ok := r.arrays[decl]
	if !ok {
		host := r.inst.Arrays[decl.Slot]
		st = &arrayState{
			decl:     decl,
			host:     host,
			n:        host.Len(),
			elemSize: decl.Type.Size(),
			copies:   make([]*gpuCopy, r.mach.NumGPUs()),
		}
		for g, dev := range r.mach.GPUs() {
			st.copies[g] = &gpuCopy{st: st, g: g, dev: dev}
		}
		r.arrays[decl] = st
	}
	return st
}

// release frees every device resource of one array.
func (st *arrayState) release() error {
	for _, c := range st.copies {
		if err := c.release(); err != nil {
			return err
		}
	}
	return nil
}

func (c *gpuCopy) release() error {
	for _, b := range []**sim.Buffer{&c.buf, &c.dirtyBuf, &c.missBuf, &c.lanesBuf} {
		if *b != nil {
			if err := c.dev.Free(*b); err != nil {
				return err
			}
			*b = nil
		}
	}
	c.valid = false
	c.f32, c.f64, c.i32 = nil, nil, nil
	c.dirty, c.chunkDirty, c.chunkLanes, c.spans = nil, nil, nil, nil
	c.miss, c.lanesF, c.lanesI = nil, nil, nil
	c.transformed = false
	return nil
}

func (r *Runtime) releaseAll() error {
	for _, st := range r.arrays {
		if err := st.release(); err != nil {
			return err
		}
		st.present = false
	}
	return nil
}

// phys maps a logical element index to the copy's physical offset.
func (c *gpuCopy) phys(i int64) int64 {
	if i < c.lo || i > c.hi {
		panic(fmt.Sprintf("rt: %s: access to element %d outside the partition [%d,%d] resident on GPU%d — the localaccess directive understates the loop's read footprint",
			c.st.decl.Name, i, c.lo, c.hi, c.g))
	}
	off := i - c.lo
	if c.transformed {
		row, col := off/c.width, off%c.width
		return col*c.rows + row
	}
	return off
}

// loadAt / storeAt move element values between the copy and Go values,
// honoring the element type.
func (c *gpuCopy) loadF(p int64) float64 {
	switch {
	case c.f32 != nil:
		return float64(c.f32[p])
	case c.f64 != nil:
		return c.f64[p]
	default:
		return float64(c.i32[p])
	}
}

func (c *gpuCopy) storeF(p int64, v float64) {
	switch {
	case c.f32 != nil:
		c.f32[p] = float32(v)
	case c.f64 != nil:
		c.f64[p] = v
	default:
		c.i32[p] = int32(v)
	}
}

func (c *gpuCopy) loadI(p int64) int64 {
	switch {
	case c.i32 != nil:
		return int64(c.i32[p])
	case c.f32 != nil:
		return int64(c.f32[p])
	default:
		return int64(c.f64[p])
	}
}

func (c *gpuCopy) storeI(p int64, v int64) {
	switch {
	case c.i32 != nil:
		c.i32[p] = int32(v)
	case c.f32 != nil:
		c.f32[p] = float32(v)
	default:
		c.f64[p] = float64(v)
	}
}

// hostLoadF reads the host mirror.
func hostLoadF(a *ir.HostArray, i int64) float64 {
	switch {
	case a.F32 != nil:
		return float64(a.F32[i])
	case a.F64 != nil:
		return a.F64[i]
	default:
		return float64(a.I32[i])
	}
}

func hostStoreF(a *ir.HostArray, i int64, v float64) {
	switch {
	case a.F32 != nil:
		a.F32[i] = float32(v)
	case a.F64 != nil:
		a.F64[i] = v
	default:
		a.I32[i] = int32(v)
	}
}

// devView adapts one gpuCopy to the kernel's ArrayView contract for a
// specific kernel launch. The flags encode the instrumentation the
// translator would have generated: dirty marking for replicated writes,
// miss checks for distributed writes, reduction lanes.
type devView struct {
	c *gpuCopy
	// markDirty instruments stores with two-level dirty-bit updates.
	markDirty bool
	// checkMiss tests stores against the partition and buffers misses.
	checkMiss bool
	// reduce routes ReduceF/ReduceI into the hierarchical lanes.
	reduce bool
}

var _ ir.ArrayView = (*devView)(nil)

func (v *devView) Len() int64 { return v.c.st.n }

func (v *devView) LoadF(e *ir.Env, i int64) float64 {
	e.BytesRead += v.c.st.elemSize
	return v.c.loadF(v.c.phys(i))
}

func (v *devView) LoadI(e *ir.Env, i int64) int64 {
	e.BytesRead += v.c.st.elemSize
	return v.c.loadI(v.c.phys(i))
}

func (v *devView) StoreF(e *ir.Env, i int64, x float64) {
	c := v.c
	if v.checkMiss {
		e.Flops++ // the generated range check
		if i < c.lo || i > c.hi {
			e.BytesWritten += missRecordBytes
			c.miss[e.WorkerID] = append(c.miss[e.WorkerID], missRec{idx: i, f: x})
			return
		}
	}
	p := c.phys(i)
	c.storeF(p, x)
	e.BytesWritten += c.st.elemSize
	if v.markDirty {
		c.dirty[p] = 1
		c.chunkLanes[e.WorkerID][p/c.chunkElems] = 1
		e.BytesWritten += 2
	}
}

func (v *devView) StoreI(e *ir.Env, i int64, x int64) {
	c := v.c
	if v.checkMiss {
		e.Flops++
		if i < c.lo || i > c.hi {
			e.BytesWritten += missRecordBytes
			c.miss[e.WorkerID] = append(c.miss[e.WorkerID], missRec{idx: i, i: x})
			return
		}
	}
	p := c.phys(i)
	c.storeI(p, x)
	e.BytesWritten += c.st.elemSize
	if v.markDirty {
		c.dirty[p] = 1
		c.chunkLanes[e.WorkerID][p/c.chunkElems] = 1
		e.BytesWritten += 2
	}
}

func (v *devView) ReduceF(e *ir.Env, i int64, x float64, op ir.ReduceOp) {
	if !v.reduce {
		// A reduction statement can target an array the loader did not
		// configure for reduction only through a translator bug.
		panic(fmt.Sprintf("rt: %s: reduction on a non-reduction view", v.c.st.decl.Name))
	}
	e.ReduceOps++
	e.Flops++
	e.BytesRead += 8
	e.BytesWritten += 8
	lane := v.c.lanesF[e.WorkerID]
	lane[i] = op.Apply(lane[i], x)
}

func (v *devView) ReduceI(e *ir.Env, i int64, x int64, op ir.ReduceOp) {
	if !v.reduce {
		panic(fmt.Sprintf("rt: %s: reduction on a non-reduction view", v.c.st.decl.Name))
	}
	e.ReduceOps++
	e.Flops++
	e.BytesRead += 8
	e.BytesWritten += 8
	lane := v.c.lanesI[e.WorkerID]
	lane[i] = op.ApplyI(lane[i], x)
}

// hostReduceView gives the CPU baseline race-free reductiontoarray
// execution over host memory: per-worker lanes, merged after the loop.
type hostReduceView struct {
	host   *ir.HostArray
	lanesF [][]float64
	lanesI [][]int64
	base   ir.ArrayView
}

var _ ir.ArrayView = (*hostReduceView)(nil)

func newHostReduceView(a *ir.HostArray, workers int, op ir.ReduceOp) *hostReduceView {
	v := &hostReduceView{host: a, base: a.View()}
	n := a.Len()
	if a.I32 != nil {
		v.lanesI = make([][]int64, workers)
		for w := range v.lanesI {
			v.lanesI[w] = newLaneI(n, op)
		}
	} else {
		v.lanesF = make([][]float64, workers)
		for w := range v.lanesF {
			v.lanesF[w] = newLaneF(n, op)
		}
	}
	return v
}

// newLaneF allocates a reduction lane filled with the identity element.
func newLaneF(n int64, op ir.ReduceOp) []float64 {
	lane := make([]float64, n)
	if id := op.Identity(); id != 0 {
		for i := range lane {
			lane[i] = id
		}
	}
	return lane
}

// newLaneI allocates an integer reduction lane filled with the identity.
func newLaneI(n int64, op ir.ReduceOp) []int64 {
	lane := make([]int64, n)
	if id := int64(op.Identity()); id != 0 {
		for i := range lane {
			lane[i] = id
		}
	}
	return lane
}

func (v *hostReduceView) Len() int64                           { return v.host.Len() }
func (v *hostReduceView) LoadF(e *ir.Env, i int64) float64     { return v.base.LoadF(e, i) }
func (v *hostReduceView) LoadI(e *ir.Env, i int64) int64       { return v.base.LoadI(e, i) }
func (v *hostReduceView) StoreF(e *ir.Env, i int64, x float64) { v.base.StoreF(e, i, x) }
func (v *hostReduceView) StoreI(e *ir.Env, i int64, x int64)   { v.base.StoreI(e, i, x) }

func (v *hostReduceView) ReduceF(e *ir.Env, i int64, x float64, op ir.ReduceOp) {
	e.ReduceOps++
	e.Flops++
	e.BytesRead += 8
	e.BytesWritten += 8
	if v.lanesI != nil {
		lane := v.lanesI[e.WorkerID]
		lane[i] = op.ApplyI(lane[i], int64(x))
		return
	}
	lane := v.lanesF[e.WorkerID]
	lane[i] = op.Apply(lane[i], x)
}

func (v *hostReduceView) ReduceI(e *ir.Env, i int64, x int64, op ir.ReduceOp) {
	v.ReduceF(e, i, float64(x), op)
}

// mergeInto folds the lanes into the host array.
func (v *hostReduceView) mergeInto(op ir.ReduceOp) {
	n := v.host.Len()
	if v.lanesI != nil {
		for i := int64(0); i < n; i++ {
			acc := int64(v.host.I32[i])
			touched := false
			for _, lane := range v.lanesI {
				if lane[i] != int64(op.Identity()) {
					acc = op.ApplyI(acc, lane[i])
					touched = true
				}
			}
			if touched {
				v.host.I32[i] = int32(acc)
			}
		}
		return
	}
	for i := int64(0); i < n; i++ {
		acc := hostLoadF(v.host, i)
		touched := false
		for _, lane := range v.lanesF {
			if lane[i] != op.Identity() {
				acc = op.Apply(acc, lane[i])
				touched = true
			}
		}
		if touched {
			hostStoreF(v.host, i, acc)
		}
	}
}
