package rt

import (
	"fmt"
	"math"
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
	// quiet says no copy of the array, the host mirror included, holds a
	// signalling NaN, so the tiles may copy from it bit for bit
	// (ir.DArray.Quiet). It is kept only for a float array some kernel's
	// tiles copy from; it holds while no host data has reached a device,
	// and the first time some does (shipHost) one scan of the host mirror
	// (scans counts it) settles it for the rest of the run: every later
	// writer of a copy or of the mirror either rounds through float64,
	// which quiets, or moves the bits of another copy of the array.
	quiet bool
	scans int
	// zeros says the host mirror still holds the zeros Bind made it with:
	// the bindings supplied no array, no host statement stores to it
	// (ir.Module.HostWrites) and the runtime has written none of its
	// elements yet. Its first write (gatherToHost, a miss delivered to
	// the host, an OpenMP-mode kernel) clears it for the rest of the run.
	// While it holds a ship moves nothing: a device copy's new storage
	// already reads zero (prepareLoad), and zeros are quiet (shipHost).
	zeros bool

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
	// layout increments whenever a slice or bound the specialized
	// executor binds into its worker environments may have changed: the
	// storage and its range and layout (realloc, release), the dirty
	// bits and their per-worker chunk lanes, the reduction lanes (every
	// launch that wants them). The executor rebinds a copy only when it
	// moved (specExec.bind).
	layout uint64
	// wepoch increments whenever the copy's contents may have changed
	// (realloc, host→device fill, d2d run copy, any launch that writes
	// or reduces the array). The specialized executor's prover keys its
	// cross-launch min/max value-scan cache on it, so read-only index
	// arrays are scanned once, not once per launch.
	wepoch int64

	// relays are the copy's pending catch-ups (replicated written
	// arrays): physical ranges, sorted and disjoint, whose current value
	// another copy holds. The communication manager records them instead
	// of copying, and the loader catches a copy up only where the next
	// launch reads it (see syncReplicated). relayBuf is the other half of
	// the double buffer the list is rebuilt in, so its capacity is reused.
	// caughtUp counts the elements catch-ups moved into the copy.
	relays, relayBuf []relay
	caughtUp         int64

	// buf is the copy's device allocation, and data its storage: the
	// slice of the array's element type.
	buf  *sim.Buffer
	data ir.HostArray

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
	// lanesF/lanesI is populated, matching the element type. They stay
	// with the copy after the merge, for the next launch to refill.
	lanesF   [][]float64
	lanesI   [][]int64
	lanesBuf *sim.Buffer
}

// missRec is one buffered remote write: the element value, which a
// float64 holds exactly for every element type.
type missRec struct {
	idx int64
	v   float64
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
	if s := decl.Slot; s < len(r.arrays) {
		if st := r.arrays[s]; st != nil && st.decl == decl {
			return st
		}
	}
	return r.newState(decl)
}

// newState makes decl's runtime state on its first touch.
func (r *Runtime) newState(decl *cc.VarDecl) *arrayState {
	host := r.inst.Arrays[decl.Slot]
	st := &arrayState{
		decl:     decl,
		host:     host,
		n:        host.Len(),
		elemSize: decl.Type.Size(),
		quiet:    decl.Type == cc.TFloat && r.copySource(decl.Slot),
		zeros:    r.madeZeros(decl.Slot),
		copies:   make([]*gpuCopy, r.mach.NumGPUs()),
	}
	for g, dev := range r.mach.GPUs() {
		st.copies[g] = &gpuCopy{st: st, g: g, dev: dev}
	}
	r.addState(st)
	return st
}

// addState files st under its declaration's slot.
func (r *Runtime) addState(st *arrayState) {
	slot := st.decl.Slot
	for len(r.arrays) <= slot {
		r.arrays = append(r.arrays, nil)
	}
	if old := r.arrays[slot]; old != nil {
		panic(fmt.Sprintf("rt: arrays %q and %q share slot %d", old.decl.Name, st.decl.Name, slot))
	}
	r.arrays[slot] = st
}

// madeZeros reports whether the array in slot starts the run as Bind's
// zeros: Bind made it, and the module records that no host statement
// writes it.
func (r *Runtime) madeZeros(slot int) bool {
	made, hw := r.inst.Made, r.inst.Module.HostWrites
	return slot < len(made) && made[slot] && slot < len(hw) && !hw[slot]
}

// copySource reports whether some kernel's tiles copy the array in slot
// into a float array. Under Reference no tiles run, so none does.
func (r *Runtime) copySource(slot int) bool {
	if r.opts.Reference {
		return false
	}
	for _, k := range r.inst.Module.Kernels {
		if copiesFrom(k.Spec, slot) {
			return true
		}
	}
	return false
}

// copiesFrom reports whether spec, or one of its guard variants, copies
// the array in slot into a float array (ir.SpecAccess.Copied).
func copiesFrom(spec *ir.KernelSpec, slot int) bool {
	if spec == nil {
		return false
	}
	if g := spec.Guard; g != nil {
		for _, v := range g.Variants {
			if copiesFrom(v, slot) {
				return true
			}
		}
	}
	for _, a := range spec.Accesses {
		if a.Slot == slot && a.Copied {
			return true
		}
	}
	return false
}

// shipHost is called when the host mirror's content is about to reach a
// device copy: the first time, a quiet array's mirror is scanned, unless
// it holds Bind's zeros. A race build checks that those are zeros.
func (st *arrayState) shipHost() {
	if st.zeros {
		if sim.RaceDetector {
			st.checkZeros()
		}
		return
	}
	if st.quiet && st.scans == 0 {
		st.scans++
		st.quiet = !hasSignallingNaN(st.host.F32)
	}
}

// hasSignallingNaN reports whether some element of s is a signalling NaN:
// all exponent bits set, the quiet bit clear and some other fraction bit
// set.
func hasSignallingNaN(s []float32) bool {
	for _, v := range s {
		if b := math.Float32bits(v) &^ (1 << 31); b > 0x7f800000 && b < 0x7fc00000 {
			return true
		}
	}
	return false
}

// checkZeros panics if the host mirror taken for Bind's zeros holds
// another element: something filled an array Bind made behind the
// runtime's back, and the devices would read zeros for it.
func (st *arrayState) checkZeros() {
	for i := range st.n {
		if math.Float64bits(ir.LoadAs[float64](st.host, i)) != 0 {
			panic(fmt.Sprintf("rt: array %q was filled after Bind made it (element %d); supply it through Bindings", st.decl.Name, i))
		}
	}
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
	c.layout++
	c.data = ir.HostArray{}
	c.dirty, c.chunkDirty, c.chunkLanes, c.spans = nil, nil, nil, nil
	c.relays = c.relays[:0]
	c.miss, c.lanesF, c.lanesI = nil, nil, nil
	c.transformed = false
	return nil
}

func (r *Runtime) releaseAll() error {
	for _, st := range r.arrays {
		if st == nil {
			continue
		}
		if err := st.release(); err != nil {
			return err
		}
		st.present = false
	}
	return nil
}

// phys maps a logical element index to the copy's physical offset. It
// is small enough to inline into the views' accesses: the message of an
// access outside the partition is formatted only when one panics.
func (c *gpuCopy) phys(i int64) int64 {
	if i < c.lo || i > c.hi {
		panic(outsideAccess{c, i})
	}
	off := i - c.lo
	if c.transformed {
		row, col := off/c.width, off%c.width
		return col*c.rows + row
	}
	return off
}

// outsideAccess is the panic of an access to element i outside the
// partition resident on c.
type outsideAccess struct {
	c *gpuCopy
	i int64
}

func (o outsideAccess) Error() string {
	return fmt.Sprintf("rt: %s: access to element %d outside the partition [%d,%d] resident on GPU%d — the localaccess directive understates the loop's read footprint",
		o.c.st.decl.Name, o.i, o.c.lo, o.c.hi, o.c.g)
}

// devView adapts one gpuCopy, whose elements are T, to the kernel's View
// contract for a specific kernel launch, its lanes S those of the
// array's type; s is the copy's storage, which no launch reallocates, and
// lanes the copy's hierarchical reduction lanes on a reduction target.
// Load and Store stay small enough to inline into the methods the
// interface calls, so an access pays no call but the copy's own
// bookkeeping (phys, place).
type devView[S ir.Num, T float32 | float64 | int32] struct {
	devStore
	s     []T
	lanes [][]S
}

// devStore is the instrumentation the translator would have generated
// for a store: dirty marking for replicated writes, miss checks for
// distributed writes.
type devStore struct {
	c *gpuCopy
	// markDirty instruments stores with two-level dirty-bit updates.
	markDirty bool
	// checkMiss tests stores against the partition and buffers misses.
	checkMiss bool
}

func (v *devView[S, T]) Len() int64 { return v.c.st.n }

func (v *devView[S, T]) Load(e *ir.Env, i int64) S {
	e.BytesRead += v.c.st.elemSize
	return S(v.s[v.c.phys(i)])
}

func (v *devView[S, T]) Store(e *ir.Env, i int64, x S) {
	if p := v.place(e, i, float64(T(x))); p >= 0 {
		v.s[p] = T(x)
	}
}

// place is the bookkeeping of a store of x at i: with checkMiss the
// generated range check, and a store outside the partition buffered as a
// miss (-1); else the physical offset x goes to, its bytes and, with
// markDirty, its dirty bits.
func (d *devStore) place(e *ir.Env, i int64, x float64) int64 {
	c := d.c
	if d.checkMiss {
		e.Flops++ // the generated range check
		if i < c.lo || i > c.hi {
			e.BytesWritten += missRecordBytes
			c.miss[e.WorkerID] = append(c.miss[e.WorkerID], missRec{idx: i, v: x})
			return -1
		}
	}
	p := c.phys(i)
	e.BytesWritten += c.st.elemSize
	if d.markDirty {
		c.dirty[p] = 1
		c.chunkLanes[e.WorkerID][p/c.chunkElems] = 1
		e.BytesWritten += 2
	}
	return p
}

func (v *devView[S, T]) Reduce(e *ir.Env, i int64, x S, op acc.RedOp) {
	if v.lanes == nil {
		// A reduction statement can target an array the loader did not
		// configure for reduction only through a translator bug.
		panic(nonReduction(v.c.st.decl.Name))
	}
	reduceLane(v.lanes, e, i, x, op)
}

// reduceLane applies a reductiontoarray update to the worker's lane at
// element i, charging what the cost model charges every engine for one:
// a flop, 8 bytes each way and a ReduceOp.
func reduceLane[S ir.Num](lanes [][]S, e *ir.Env, i int64, x S, op acc.RedOp) {
	e.ReduceOps++
	e.Flops++
	e.BytesRead += 8
	e.BytesWritten += 8
	lane := lanes[e.WorkerID]
	lane[i] = acc.Apply(op, lane[i], x)
}

// nonReduction is the panic of a reduction into the named array on a view
// without reduction lanes.
type nonReduction string

func (n nonReduction) Error() string {
	return "rt: " + string(n) + ": reduction on a non-reduction view"
}

// hostReduceView gives the CPU baseline race-free reductiontoarray
// execution over host memory: per-worker lanes, merged after the loop.
// Loads and stores go to the host view.
type hostReduceView[S ir.Num] struct {
	ir.View[S]
	lanes [][]S
}

// newLanes allocates one reduction lane per worker (newLane).
func newLanes[S ir.Num](workers int, n int64, op acc.RedOp) [][]S {
	lanes := make([][]S, workers)
	for w := range lanes {
		lanes[w] = newLane[S](n, op)
	}
	return lanes
}

// lanesFor returns one reduction lane per worker, n elements of op's
// identity each: lanes, the copy's lanes from an earlier launch,
// refilled when their shape matches, or new ones. A reduction that runs
// every iteration allocates its lanes once.
func lanesFor[S ir.Num](lanes [][]S, workers int, n int64, op acc.RedOp) [][]S {
	if len(lanes) != workers || int64(len(lanes[0])) != n {
		return newLanes[S](workers, n, op)
	}
	for _, lane := range lanes {
		fillLane(lane, op)
	}
	return lanes
}

// newLane allocates a reduction lane of n elements filled with op's
// identity.
func newLane[S ir.Num](n int64, op acc.RedOp) []S {
	lane := make([]S, n)
	fillLane(lane, op)
	return lane
}

// fillLane sets every element of lane to op's identity.
func fillLane[S ir.Num](lane []S, op acc.RedOp) {
	id := S(op.IdentityI())
	if id == 0 {
		clear(lane)
		return
	}
	for i := range lane {
		lane[i] = id
	}
}

func (v *hostReduceView[S]) Reduce(e *ir.Env, i int64, x S, op acc.RedOp) {
	reduceLane(v.lanes, e, i, x, op)
}

// reduceInto puts a hostReduceView over the host view *view for the
// launch's workers and returns the merge that folds its lanes into the
// host array after the loop; an element no lane touched is not written.
func reduceInto[S ir.Num](view *ir.View[S], workers int, op acc.RedOp) (merge func()) {
	v := &hostReduceView[S]{*view, newLanes[S](workers, (*view).Len(), op)}
	*view = v
	return func() {
		var scratch ir.Env
		id := S(op.IdentityI())
		for i := range v.Len() {
			a, touched := v.Load(&scratch, i), false
			for _, lane := range v.lanes {
				if lane[i] != id {
					a, touched = acc.Apply(op, a, lane[i]), true
				}
			}
			if touched {
				v.Store(&scratch, i, a)
			}
		}
	}
}
