package ir

import (
	"slices"

	"accmulti/internal/cc"
)

// Flat tiles: a counted loop whose trips differ from lane to lane, or
// that holds ordered effects, without leaving the lockstep schedule.
//
// The loop's init and bound are evaluated for the tile's active lanes in
// lockstep. Their trips, concatenated in lane-major order — which is
// iteration order —, are then walked VecTile at a time: a flat tile, whose
// flat lane p stands for one trip, seg[p] its outer lane. The body is
// compiled by the same builder with the flat lane as the lane (vecBuilder.
// flat set): the kernel's induction variable and the loop's are int
// vectors, a private scalar "="-assigned in the body is a vector over the
// flat lanes, one defined around the loop is read through seg, every
// access is a gather or a scatter, numbered as the lowering numbered it.
// It runs on scratch of its own (VecEnv.flat).
//
// A flat tile computes first and commits after. Every effect of the body
// — a store, a fold, a reduction-lane update, an op-assignment to a
// private scalar of the outer tile (SPMV's acc, a segmented update with
// its rounding per step), an arm's count — is recorded where the
// statement stands (flatSite: the lanes that reached it, their indices
// and values) and committed when the body has run, each site in ascending
// flat order. A target has one site (flatOK, and scan's "order"), so
// site-major order is lane-major order for every target.
//
// One array of the loop may be both loaded and stored (BFS: cost[w]; or
// stored in the loop and loaded by the tile's prefix, the watched window),
// at up to maxHazSites sites each. Its loads precede its stores in the
// body, and its commit walks the flat lanes one by one: a lane's loads are
// held against memory as the earlier lanes' stores have left it, then its
// own stores commit, in program order. The first lane
// q that loaded a value an earlier lane of the flat tile has since
// changed ends the tile: lanes below q saw exactly what they would have
// seen in iteration order and commit, the next flat tile starts at q and
// loads afresh (SpecStats.FlatCuts). Lane 0 follows only committed tiles,
// so every flat tile commits at least one lane, and the walk always ends.
// A store into the watched window (DArray.Hit) keeps its meaning: the
// storing outer lane finishes its trips, in as many flat tiles as it
// takes, and the outer tile ends after it (VecEnv.cut): the outer lanes
// after it start the next tile.

// flatMin is the shortest a flat tile gets after a cut, the scratch
// allowing: the next one is as long as the cut one got (hazards come in
// stretches), doubling back to VecTile with every flat tile that commits
// whole.
const flatMin = 32

// flatSite is what one effect site of a flat body, or one load to hold
// against memory at commit, recorded in the running flat tile: the flat
// lanes that reached it, ascending, and per flat lane the logical index
// and the value.
type flatSite struct {
	act []int32
	idx []int64
	vi  []int64
	vf  []float64
	// cur is the commit walk's place in act.
	cur int
}

// keep copies the lanes that reached the site in a flat tile of vm and
// their indices (nil: none), keepVals their values. A vector is allocated
// when first kept, as long as the longest flat tile.
func (s *flatSite) keep(vm *VecEnv, act []int32, idx []int64) {
	s.act, s.cur = kept(s.act, act, vm.tile), 0
	s.idx = kept(s.idx, idx, vm.tile)
}

func keepVals[S num](s *flatSite, vm *VecEnv, val []S) {
	p := vals[S](s)
	*p = kept(*p, val, vm.tile)
}

// vals picks the site's values of lane type S.
func vals[S num](s *flatSite) *[]S { return pick[S, []S](&s.vi, &s.vf) }

func kept[E any](dst, src []E, tile int) []E {
	if cap(dst) < len(src) {
		dst = make([]E, 0, tile)
	}
	return append(dst[:0], src...)
}

// below returns the lanes of act under q.
func below(act []int32, q int) []int32 {
	if n := len(act); n == 0 || int(act[n-1]) < q {
		return act
	}
	i, _ := slices.BinarySearch(act, int32(q))
	return act[:i]
}

// flatLoop is the flat loop being compiled.
type flatLoop struct {
	lv *cc.VarDecl
	// iv and lvv number the flat int vectors holding the kernel's
	// induction variable (filled when the body reads it: readsIV) and the
	// loop's.
	iv, lvv int
	readsIV bool
	// local holds the private scalars the body assigns with "=": vectors
	// over the flat lanes. Any other private scalar belongs to the outer
	// tile.
	local map[*cc.VarDecl]bool
	// siteBeg is the loop's first site (VecEnv.sites).
	siteBeg int
	// commits run when a flat tile's body has, in program order, for the
	// flat lanes under q.
	commits []func(vm *VecEnv, q int)
	// stores are the body's store sites. hazSlot is the array whose
	// commit holds loads against memory (-1: none), hazLoads its load sites;
	// its nHaz store sites stand first in stores, in program order.
	stores        []flatStoreSite
	hazSlot, nHaz int
	hazLoads      []int
}

// maxHazSites bounds the load sites, and the store sites, of the array
// whose commit walks lane by lane.
const maxHazSites = 4

// flatStoreSite is a store of a flat body: the array, the site that
// records it, and the operator of a compound store, a func(S, S) S of the
// array's lane type (nil for "=").
type flatStoreSite struct {
	slot, site int
	apply      any
}

func (v *vecBuilder) newSite() int {
	v.spec.FlatSites++
	return v.spec.FlatSites - 1
}

// flatOK decides whether a loop that check marked for flat tiles can run
// as them, live being the private scalars defined around it. It cannot
// when it is not a counted loop whose header alone sets its variable;
// when its init or bound reads what the body assigns or stores; when the
// body holds a loop; when the body assigns with "=" a private scalar live
// around the loop, or op-assigns one in two places or reads it (the
// running value exists only at commit); when an array other than the one
// below has two store sites; when two arrays need the lane-by-lane
// commit, or one is loaded after its store; or when such an array is
// there and something may divide by zero (a lane past a hazard computes on
// stale values before it is discarded).
func (v *vecBuilder) flatOK(k *kStmt, live []*cc.VarDecl) *flatLoop {
	lv := k.lv
	if lv == nil || v.scalars[lv].kind != kUniform {
		return nil
	}
	fl := &flatLoop{lv: lv, local: map[*cc.VarDecl]bool{}, hazSlot: -1}
	var (
		ok          = true
		div         bool
		reads, sets uint64
		stores      = map[int]int{}
		loaded      = map[int]int{}
		eq, opSet   = map[*cc.VarDecl]int{}, map[*cc.VarDecl]int{}
	)
	read := func(e *kExpr) {
		div, reads = div || e.divides, reads|e.reads
		for s := e.lo; s < e.hi; s++ {
			slot := v.spec.Accesses[s].Slot
			ok = ok && stores[slot] == 0 // a load after the store
			loaded[slot]++
		}
	}
	var walk func(s *kStmt)
	walk = func(s *kStmt) {
		switch x := s.s.(type) {
		case *cc.Block:
			for _, c := range s.kids {
				walk(c)
			}
		case *cc.DeclStmt:
		case *cc.IfStmt:
			read(s.x)
			walk(s.kids[0])
			if s.kids[1] != nil {
				walk(s.kids[1])
			}
		case *cc.AssignStmt:
			read(s.y)
			switch lhs := x.LHS.(type) {
			case *cc.Ident:
				if sets |= s.sets; x.Op == "=" {
					eq[lhs.Decl]++
				} else {
					opSet[lhs.Decl]++
					div = div || lhs.Decl.Type == cc.TInt && (x.Op == "/=" || x.Op == "%=")
				}
			case *cc.IndexExpr:
				read(s.x.x)
				if x.Reduce == nil {
					stores[lhs.Array.Slot]++
				}
			}
		default:
			ok = false // a loop in the loop
		}
	}
	walk(k.kids[1])
	bound, _ := k.bound()
	for _, e := range []*kExpr{k.kids[0].y, bound} {
		ok = ok && e.reads&sets == 0
		for s := e.lo; s < e.hi; s++ {
			ok = ok && stores[v.spec.Accesses[s].Slot] == 0
		}
	}
	ok = ok && bound.reads&v.mask(lv) == 0
	for d := range opSet {
		if u := v.scalars[d]; u.kind == kPrivate && eq[d] == 0 {
			ok = ok && opSet[d] == 1 && reads&v.mask(d) == 0
		}
	}
	for d := range eq {
		if v.scalars[d].kind == kPrivate {
			ok = ok && !slices.Contains(live, d)
			fl.local[d] = true
		}
	}
	ok = ok && eq[lv]+opSet[lv] == 0
	watched := map[int]bool{}
	for _, ai := range v.windows {
		watched[v.spec.Accesses[ai].Slot] = true
	}
	for slot, n := range stores {
		if loaded[slot] > 0 || watched[slot] {
			ok = ok && fl.hazSlot < 0 && !div && loaded[slot] <= maxHazSites && n <= maxHazSites
			fl.hazSlot = slot
		} else {
			ok = ok && n == 1
		}
	}
	if !ok {
		return nil
	}
	return fl
}

// flatLoop compiles a loop as flat tiles — its header for the outer
// tile, its body for the flat tiles, and the walk over the trips
// — or fails where flatOK refuses it.
func (v *vecBuilder) flatLoop(k *kStmt, live []*cc.VarDecl) (VStmt, error) {
	fl := v.flatOK(k, live)
	if fl == nil {
		return nil, errSpecIneligible
	}
	boundX, incl := k.bound()
	init, err := compile[int64](v, k.kids[0].y)
	if err != nil {
		return nil, err
	}
	bound, err := compile[int64](v, boundX)
	if err != nil {
		return nil, err
	}
	lov, hiv := mat(v, init), mat(v, bound)
	condIdx, bodyIdx := v.takeArm(k.arm), v.takeArm(k.arm+1)
	v.usesAct = true

	// The body, numbered against the flat scratch: the private vectors
	// keep their numbers there, then come the two induction variables.
	outer := *v
	fl.iv, fl.lvv, fl.siteBeg = v.base[0], v.base[0]+1, v.spec.FlatSites
	v.base[0] += 2
	v.nBuf, v.depth, v.maxArms, v.masked, v.flat = v.base, 0, 0, false, fl
	body, err := v.stmt(k.kids[1])
	spec := v.spec
	spec.FlatBufI, spec.FlatBufF = max(spec.FlatBufI, v.nBuf[0]), max(spec.FlatBufF, v.nBuf[1])
	spec.FlatMask = max(spec.FlatMask, 1+2*v.maxArms)
	*v = outer
	if err != nil {
		return nil, err
	}
	siteEnd := spec.FlatSites

	return func(vm *VecEnv, i0 int64, L int) {
		D, fvm, act := vm.D, vm.flatScratch(), vm.act
		lo, hi := lov(vm, i0, L), hiv(vm, i0, L)
		end := func(t int32) int64 {
			if incl {
				return hi[t] + 1
			}
			return hi[t]
		}
		fvm.D = D
		seg, iv, lvv := fvm.seg, fvm.BufI[fl.iv], fvm.BufI[fl.lvv]
		// (k, x) is the trip the walk stands at: lane act[k], the loop's
		// variable at x. stop, once set, is the outer lane that stored into
		// the tile's window.
		k, x, stop, limit := 0, int64(0), int32(-1), len(seg)
		if len(act) > 0 {
			x = lo[act[0]]
		}
		for k < len(act) && (stop < 0 || act[k] == stop) {
			n, kk, xx := 0, k, x
			for kk < len(act) && n < limit && (stop < 0 || act[kk] == stop) {
				t := act[kk]
				if m := int(min(end(t)-xx, int64(limit-n))); m > 0 {
					s, l := seg[n:n+m], lvv[n:n+m]
					for j := range s {
						s[j], l[j] = t, xx+int64(j)
					}
					if it := i0 + int64(t); fl.readsIV {
						for j := range iv[n : n+m] {
							iv[n+j] = it
						}
					}
					n, xx = n+m, xx+int64(m)
				}
				if xx >= end(t) {
					if kk++; kk < len(act) {
						xx = lo[act[kk]]
					}
				}
			}
			q := n
			if n > 0 {
				for i := fl.siteBeg; i < siteEnd; i++ {
					fvm.sites[i].act = fvm.sites[i].act[:0]
				}
				fvm.act = fvm.mask[0][:n]
				D.tick(int64(n))
				if body != nil {
					body(fvm, i0, n)
				}
				var hit int32
				if q, hit = fl.commit(fvm, n); stop < 0 {
					stop = hit
				}
			}
			// Flat lane q, or the trip after the flat tile, is where the next
			// flat tile starts — unless the outer lane that stored into the
			// window is done: the lanes after it (empty rows among them) are
			// the next tile's.
			if q == n {
				k, x = kk, xx
			} else {
				for act[k] != seg[q] {
					k++
				}
				x = lvv[q]
			}
			if stop >= 0 && (k == len(act) || act[k] != stop) {
				for k > 0 && act[k-1] > stop {
					k--
				}
				break
			}
			if q == n {
				limit = min(2*limit, len(seg))
				continue
			}
			limit = max(q, min(flatMin, len(seg)))
			D.FlatCuts++
		}
		// The loop's two buckets, for the outer lanes whose trips ran.
		for _, t := range act[:k] {
			trips := max(end(t)-lo[t], 0)
			D.Branch[condIdx] += trips + 1
			D.Branch[bodyIdx] += trips
		}
		if stop >= 0 {
			vm.cut = int(stop) + 1
			D.HazardLanes += int64(L - vm.cut)
		}
	}, nil
}

// flatScratch sizes the scratch of the tile's flat tiles when the first
// one is about to run. A flat tile is as long as its scratch allows,
// whatever the rows: four trips a lane of the outer tile keep the scratch
// of a small launch small.
func (vm *VecEnv) flatScratch() *VecEnv {
	f := vm.flat
	if want := min(4*vm.tile, VecTile); f.tile < want {
		f.Reserve(want)
		f.seg = make([]int32, f.tile)
	}
	return f
}

// commit commits a flat tile of n lanes whose body has run and returns
// how many of its lanes, from the first, it committed, and the outer lane
// that stored into the tile's window (-1: none).
func (fl *flatLoop) commit(vm *VecEnv, n int) (q int, hit int32) {
	q, hit = n, -1
	if fl.nHaz > 0 {
		q, hit = commitStores(vm, fl.stores[:fl.nHaz], n, fl.hazLoads)
	}
	for i := fl.nHaz; i < len(fl.stores); i++ {
		commitStores(vm, fl.stores[i:i+1], q, nil)
	}
	for _, c := range fl.commits {
		c(vm, q)
	}
	return q, hit
}

// commitStores commits the stores to one array the sites sts recorded for the
// flat lanes under n, lane by lane, ascending, each lane's in program
// order, through DArray.mark, which marks what the interpreter's stores
// mark. Where load sites are given it stops at the first lane one of
// whose loads an earlier store of the walk has changed: see the file
// header.
func commitStores(vm *VecEnv, sts []flatStoreSite, n int, loadSites []int) (q int, hit int32) {
	var loads [maxHazSites]*flatSite
	for j, k := range loadSites {
		loads[j] = &vm.sites[k]
	}
	held := loads[:len(loadSites)]
	switch a := &vm.D.Arrays[sts[0].slot]; {
	case a.I32 != nil:
		return walkLanes[int32, int64](a, vm, n, held, sts)
	case a.F32 != nil:
		return walkLanes[float32, float64](a, vm, n, held, sts)
	default:
		return walkLanes[float64, float64](a, vm, n, held, sts)
	}
}

func walkLanes[T elem, S num](a *DArray, vm *VecEnv, n int, loads []*flatSite, sts []flatStoreSite) (q int, hit int32) {
	src := elems[T](a)
	var lv [maxHazSites][]S
	for j, s := range loads {
		lv[j] = *vals[S](s)
	}
	// The walk starts at the first lane that stores: every load before it
	// saw committed memory.
	var (
		recs [maxHazSites]*flatSite
		sv   [maxHazSites][]S
		ops  [maxHazSites]func(S, S) S
		cur  [maxHazSites]int
	)
	p0 := n
	for j, st := range sts {
		recs[j], sv[j] = &vm.sites[st.site], *vals[S](&vm.sites[st.site])
		ops[j], _ = st.apply.(func(S, S) S)
		if len(recs[j].act) > 0 {
			p0 = min(p0, int(recs[j].act[0]))
		}
	}
	// seen has a bit per low index byte-and-a-half of the flat tile's
	// stores so far: a load whose bit is clear stands without a look at
	// memory. Before the first store every load stands.
	var seen [64]uint64
	stored, seg, base, hit := false, vm.seg, a.Base, int32(-1)
	for p := p0; p < n; p++ {
		if hit >= 0 && seg[p] != hit {
			return p, hit
		}
		for j, s := range loads {
			if !stored {
				break
			}
			if len(s.act) != n { // not every lane loads here: find p
				for s.cur < len(s.act) && int(s.act[s.cur]) < p {
					s.cur++
				}
				if s.cur == len(s.act) || int(s.act[s.cur]) != p {
					continue
				}
			}
			if x := s.idx[p]; seen[x>>6&63]>>(x&63)&1 != 0 && S(src[a.off(x-base)]) != lv[j][p] {
				return p, hit
			}
		}
		for j := range sts {
			rec := recs[j]
			if cur[j] == len(rec.act) || int(rec.act[cur[j]]) != p {
				continue
			}
			cur[j], stored = cur[j]+1, true
			x := rec.idx[p]
			seen[x>>6&63] |= 1 << (x & 63)
			o := a.off(x - base)
			if apply := ops[j]; apply != nil {
				src[o] = T(apply(S(src[o]), sv[j][p]))
			} else {
				src[o] = T(sv[j][p])
			}
			if a.mark(o); a.Hit && hit < 0 {
				hit = seg[p]
			}
		}
	}
	return n, hit
}

// flatIdent compiles a read of one of the scalars that are vectors only
// in a flat body: the two induction variables, and a private scalar of
// the outer tile, read through seg. Nil for any other.
func flatIdent[S num](v *vecBuilder, d *cc.VarDecl) vec[S] {
	fl := v.flat
	switch {
	case fl == nil:
	case d == v.loopVar || d == fl.lv:
		bid := fl.iv
		if d == fl.lv {
			bid = fl.lvv
		} else {
			fl.readsIV = true
		}
		return func(vm *VecEnv, i0 int64, L int) []S { return bufs[S](vm)[bid][:L] }
	case v.scalars[d].kind != kPrivate || fl.local[d] || v.scalars[d].buf == 0:
	default:
		src, bid := v.scalars[d].buf-1, push[S](v)
		return func(vm *VecEnv, i0 int64, L int) []S {
			return segRead(bufs[S](vm)[bid][:L], bufs[S](vm.outer)[src], vm.seg)
		}
	}
	return nil
}

// segRead gives every flat lane its outer lane's element of src.
func segRead[S num](out, src []S, seg []int32) []S {
	for p := range out {
		out[p] = src[seg[p]]
	}
	return out
}

// record is the statement of an effect site of a flat body: it keeps the
// lanes that reached it with their indices (ix, nil for a scalar target)
// and values.
func record[S num](site int, ix vec[int64], r vec[S]) VStmt {
	return func(vm *VecEnv, i0 int64, L int) {
		var q []int64
		if ix != nil {
			q = ix(vm, i0, L)
		}
		val, s := r(vm, i0, L), &vm.sites[site]
		s.keep(vm, vm.act, q)
		keepVals(s, vm, val)
	}
}

// flatFold compiles, in a flat body, a fold (outer false: into the
// worker's scalar) or the op-assignment of a private scalar of the outer
// tile (into its vector, at the flat lane's outer lane): applied at
// commit in ascending flat order with the scalar's rounding per step.
func flatFold[S num](v *vecBuilder, k *kStmt, d *cc.VarDecl, outer bool) (VStmt, error) {
	r, err := compile[S](v, k.y)
	if err != nil {
		return nil, err
	}
	rv, apply := mat(v, r), foldOp[S](k.s.(*cc.AssignStmt).Op)
	site, slot, bid, f32 := v.newSite(), d.Slot, v.scalars[d].buf-1, d.Type == cc.TFloat
	v.flat.commits = append(v.flat.commits, func(vm *VecEnv, q int) {
		// The target is element seg[t] of the outer vector, or the one
		// scalar.
		s, o := &vm.sites[site], int32(0)
		out, val := slots[S](vm.D)[slot:slot+1], *vals[S](s)
		if outer {
			out = bufs[S](vm.outer)[bid]
		}
		for _, t := range below(s.act, q) {
			if outer {
				o = vm.seg[t]
			}
			if out[o] = apply(out[o], val[t]); f32 {
				out[o] = S(float32(out[o]))
			}
		}
	})
	return record(site, nil, rv), nil
}

// flatElement compiles what an effect on an array element records: the
// index and the value as vectors, in the order the interpreter's
// statement evaluates them.
func flatElement[S num](v *vecBuilder, k *kStmt, kind AccessKind) (vec[int64], vec[S], error) {
	li, err := v.laneIndex(k.x.x, v.take(k.x, kind))
	if err != nil {
		return nil, nil, err
	}
	ix := v.idxVec(li)
	r, err := compile[S](v, k.y)
	if err != nil {
		return nil, nil, err
	}
	return ix, mat(v, r), nil
}

// flatReduce compiles a reduction-lane update of a flat body.
func flatReduce[S num](v *vecBuilder, k *kStmt) (VStmt, error) {
	st, lhs := k.s.(*cc.AssignStmt), k.x.e.(*cc.IndexExpr)
	ix, rv, err := flatElement[S](v, k, AccessReduce)
	if err != nil {
		return nil, err
	}
	site, slot, mul := v.newSite(), lhs.Array.Slot, st.Reduce.Op == "*"
	v.flat.commits = append(v.flat.commits, func(vm *VecEnv, q int) {
		s := &vm.sites[site]
		reduceLanes(laneOf[S](&vm.D.Arrays[slot]), s.idx, *vals[S](s), below(s.act, q), mul)
	})
	return record(site, ix, rv), nil
}

// flatStore compiles a store of a flat body: a scatter at commit
// (commitStores).
func flatStore[S num](v *vecBuilder, k *kStmt) (VStmt, error) {
	st, fl := k.s.(*cc.AssignStmt), v.flat
	ix, rv, err := flatElement[S](v, k, AccessStore)
	if err != nil {
		return nil, err
	}
	site := flatStoreSite{slot: k.x.e.(*cc.IndexExpr).Array.Slot, site: v.newSite(), apply: applyOf[S](st.Op)}
	if site.slot == fl.hazSlot {
		fl.stores = slices.Insert(fl.stores, fl.nHaz, site)
		fl.nHaz++
	} else {
		fl.stores = append(fl.stores, site)
	}
	return record(site.site, ix, rv), nil
}

// flatWatch gives a load of the flat loop's lane-walked array its site:
// the load keeps there what each lane loaded and where (logical indices),
// for the commit to hold against memory.
func (v *vecBuilder) flatWatch() int {
	site := v.newSite()
	v.flat.hazLoads = append(v.flat.hazLoads, site)
	return site
}
