package rt

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"accmulti/internal/ir"
	"accmulti/internal/sim"
)

// TestReductionAssignUnderArm pins a reduction scalar assigned with "="
// under an arm (BFS's `changed = 1`): the tiled body must leave the
// value in the worker's environment, where the launch merges it, not in
// a per-lane private vector. One element of a_ takes the arm.
func TestReductionAssignUnderArm(t *testing.T) {
	const n = 700
	for _, tc := range []struct{ name, typ, op, ident, guard, stmt string }{
		{"data-arm/int", "int", "|", "0", "a_[i] > 0", "r = 1;"},
		{"else-arm/int", "int", "|", "0", "a_[i] <= 0", "{ } else { r = 1; }"},
		{"affine-guard/int", "int", "|", "0", "i > 2 && i < n - 1", "r = 1;"},
		{"data-arm/float", "float", "max", "0.0", "a_[i] > 0", "r = 2.5;"},
		{"else-arm/float", "float", "max", "0.0", "a_[i] <= 0", "{ } else { r = 2.5; }"},
		{"affine-guard/float", "float", "max", "0.0", "i > 2 && i < n - 1", "r = 2.5;"},
	} {
		src := fmt.Sprintf(`
int n;
%s r;
int a_[n];
void main() {
    int i;
    r = %s;
    #pragma acc data copyin(a_)
    {
        #pragma acc parallel loop reduction(%s:r)
        for (i = 0; i < n; i++) {
            if (%s) %s
        }
    }
}
`, tc.typ, tc.ident, tc.op, tc.guard, tc.stmt)
		for _, spec := range []sim.MachineSpec{sim.Desktop().WithGPUs(1), sim.Desktop(), sim.Cluster(2, 2)} {
			var got [2]float64
			for i, opts := range []Options{{Reference: true}, {}} {
				_, inst := buildSpecInstance(t, src, map[string]float64{"n": n})
				a := inst.Arrays[0].I32
				for j := range a {
					a[j] = -1
				}
				a[n-3] = 7
				mach, err := sim.NewMachine(spec)
				if err != nil {
					t.Fatal(err)
				}
				r := New(mach, opts)
				if err := r.Run(inst); err != nil {
					t.Fatalf("%s on %s: %v", tc.name, spec.Name, err)
				}
				if st := r.SpecStats(); i == 1 && (st.TiledIters == 0 || st.Fallbacks != 0) {
					t.Fatalf("%s on %s: not tiled: %+v", tc.name, spec.Name, st)
				}
				if d := inst.Module.Prog.Scope["r"]; tc.typ == "int" {
					got[i] = float64(inst.Env.Ints[d.Slot])
				} else {
					got[i] = inst.Env.Floats[d.Slot]
				}
			}
			if got[0] == 0 || got[0] != got[1] {
				t.Errorf("%s on %s: r = %v on the interpreter, %v specialized", tc.name, spec.Name, got[0], got[1])
			}
		}
	}
}

// TestBFSRunsTiled pins the paper's irregular app on the tile executor:
// the guard in lockstep, the edge loop as flat tiles, every iteration in
// a tile, and only the tiles that straddle two BFS layers cut short by a
// store into their own window, their remaining lanes handed to the next
// tile.
func TestBFSRunsTiled(t *testing.T) {
	_, inst, in := appInstance(t, "BFS", 0.01)
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	r := New(mach, Options{})
	if err := r.Run(inst); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(inst); err != nil {
		t.Fatal(err)
	}
	iters := r.Report().Counters.Iterations
	st := r.SpecStats()
	tiled, hazard := st.TiledIters, st.HazardLanes
	t.Logf("BFS 0.01x: %d iterations, %d tiled, %d hazard lanes", iters, tiled, hazard)
	if tiled != iters || st.Fallbacks != 0 {
		t.Errorf("tiled %d of %d iterations: %+v", tiled, iters, st)
	}
	// A tile that straddles two layers is cut once per frontier lane that
	// stores into it, each cut handing the lanes after that one to the
	// next tile: 88 321 handed lanes at this scale (6.5 %).
	if hazard == 0 || hazard*10 >= iters {
		t.Errorf("%d hazard lanes of %d iterations; want some (layers share tiles) and under 10%%", hazard, iters)
	}
}

// BenchmarkPhaseBApps runs the three paper apps whole, at the scales of
// the host-time benchmark's apps_kernel workload (desktop), and reports
// the host time Phase B took per kernel iteration, specialized and
// interpreted — the ones to profile for the tile executor: go test
// ./internal/rt -run '^$' -bench PhaseBApps/BFS/spec -cpuprofile cpu.out.
func BenchmarkPhaseBApps(b *testing.B) {
	for _, app := range []struct {
		name  string
		scale float64
	}{{"BFS", 0.01}, {"KMEANS", 0.001}, {"MD", 0.05}} {
		for _, bc := range []struct {
			name string
			opts Options
		}{{"specialized", Options{}}, {"interpreted", Options{Reference: true}}} {
			b.Run(app.name+"/"+bc.name, func(b *testing.B) {
				var wall time.Duration
				var iters int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					_, inst, _ := appInstance(b, app.name, app.scale)
					mach, err := sim.NewMachine(sim.Desktop())
					if err != nil {
						b.Fatal(err)
					}
					r := New(mach, bc.opts)
					b.StartTimer()
					if err := r.Run(inst); err != nil {
						b.Fatal(err)
					}
					wall += r.PhaseBWall()
					iters += r.Report().Counters.Iterations
				}
				b.ReportMetric(float64(wall.Nanoseconds())/float64(iters), "ns/iter")
			})
		}
	}
}

// BenchmarkPhaseBFlatOrRejected is the number for the two kernel shapes
// off the apps' routes (BenchmarkPhaseBApps), on one GPU, Phase B host
// time per kernel iteration, specialized and interpreted: a body that is
// nothing but a loop with a store in it, which runs as flat tiles
// (rowsweep), and a top-level scatter through a permutation built on the
// host, which the tiles reject and the interpreter runs (scatter). DESIGN
// §11 has what each cost on the per-iteration specialized body that once
// ran both.
func BenchmarkPhaseBFlatOrRejected(b *testing.B) {
	for _, k := range []struct {
		name, src string
		scalars   map[string]float64
		route     func(SpecStats) bool // of the specialized run
	}{
		{"scatter", `
int n;
int idx_[n];
float a_[n], out_[n];
void main() {
    int i, j;
    for (j = 0; j < n; j++) {
        idx_[j] = (j * 5 + 3) % n;
        a_[j] = j % 17;
    }
    #pragma acc data copyin(idx_, a_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[idx_[i]] = a_[i] * 2 + 1;
        }
    }
}
`, map[string]float64{"n": 1 << 20}, func(st SpecStats) bool {
			return st.Hits == 0 && st.Rejects["shape"] > 0
		}},
		{"rowsweep", `
int h, w;
float m_[h * w], s_[h * w];
void main() {
    int i, c, j;
    for (j = 0; j < h * w; j++) {
        m_[j] = j % 13;
    }
    #pragma acc data copyin(m_) copy(s_)
    {
        #pragma acc parallel loop
        for (i = 0; i < h; i++) {
            for (c = 1; c < w; c++) {
                s_[i * w + c] = m_[i * w + c] + m_[i * w + c - 1];
            }
        }
    }
}
`, map[string]float64{"h": 4096, "w": 256}, func(st SpecStats) bool {
			return st.Fallbacks == 0 && st.TiledIters == 4096 // h
		}},
	} {
		for _, bc := range []struct {
			name string
			opts Options
		}{{"specialized", Options{}}, {"interpreted", Options{Reference: true}}} {
			b.Run(k.name+"/"+bc.name, func(b *testing.B) {
				var wall time.Duration
				var iters int64
				for i := 0; i < b.N; i++ {
					bind := ir.NewBindings()
					for name, v := range k.scalars {
						bind.SetScalar(name, v)
					}
					_, r := exec(b, k.src, sim.Desktop().WithGPUs(1), bc.opts, bind)
					if st := r.SpecStats(); !bc.opts.Reference && !k.route(st) {
						b.Fatalf("%s is off its route: %+v", k.name, st)
					}
					wall += r.PhaseBWall()
					iters += r.Report().Counters.Iterations
				}
				b.ReportMetric(float64(wall.Nanoseconds())/float64(iters), "ns/iter")
				b.ReportMetric(float64(wall.Microseconds())/1e3/float64(b.N), "phaseB-ms")
			})
		}
	}
}

// TestTileWindowEdges places single stores at the edges of the window a
// tile watches — its last lane, the lane after the storing one, the
// storing lane itself, an earlier lane, the first element past the
// window — each flipping the guard of the lane it lands on. One worker
// chunk starts as exactly one tile, one scenario; the interpreter is the
// oracle, and the hazard lanes are what the protocol promises: every lane
// after a storing lane whose store fell inside its tile's window, handed
// to a tile that starts there and watches a window of its own.
func TestTileWindowEdges(t *testing.T) {
	const src = `
int n;
int tgt_[n], g_[n], ran_[n];
void main() {
    int i;
    #pragma acc data copyin(tgt_) copy(g_, ran_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, w;
            if (g_[i] > 0) {
                for (e = i; e <= i; e++) {
                    w = tgt_[e];
                    g_[w] = 0 - g_[w];
                    #pragma acc reductiontoarray(+: ran_[i])
                    ran_[i] += 1;
                }
            }
        }
    }
}
`
	const T = ir.VecTile
	n := 4 * T // one GPU, four workers, one tile each
	type store struct{ from, to, val int }
	stores := []store{
		{0, T - 1, -5},             // the window's last lane turns active
		{T + 0, T + 1, 5},          // the very next lane turns inactive
		{T + 9, T + 9, 5},          // the storing lane itself
		{T + 20, T + 3, -5},        // an earlier lane turns active, too late to run
		{2*T + T - 1, 2*T + 0, -5}, // the last lane stores: nobody left to re-run
		{3 * T, 0, 1},              // (what the next scenario's target stores to: far away)
		{2*T + 4, 3 * T, -5},       // one past the window: the next tile sees it
		{3*T + 100, 3*T + 101, -5}, // an inactive neighbour turns active ...
		{3*T + 101, 3*T + 100, 1},  // ... and flips its waker back
	}
	var want [2]struct {
		g, ran []int32
		rep    Report
	}
	var hazard int64
	for i, opts := range []Options{{Reference: true}, {}} {
		_, inst := buildSpecInstance(t, src, map[string]float64{"n": float64(n)})
		tgt, g, ran := inst.Arrays[0].I32, inst.Arrays[1].I32, inst.Arrays[2].I32
		for j := range g {
			tgt[j], g[j], ran[j] = int32(j), -1, 0
		}
		for _, s := range stores {
			tgt[s.from], g[s.from] = int32(s.to), max(g[s.from], 1)
			if s.to != s.from {
				g[s.to] = int32(s.val)
			}
		}
		mach, err := sim.NewMachine(sim.Desktop().WithGPUs(1))
		if err != nil {
			t.Fatal(err)
		}
		r := New(mach, opts)
		if err := r.Run(inst); err != nil {
			t.Fatal(err)
		}
		want[i].g, want[i].ran, want[i].rep = g, ran, *r.Report()
		if i == 1 {
			st := r.SpecStats()
			if st.TiledIters != int64(n) || st.Fallbacks != 0 {
				t.Fatalf("tiled %d of %d iterations: %+v", st.TiledIters, n, st)
			}
			hazard = st.HazardLanes
		}
	}
	if !reflect.DeepEqual(want[0], want[1]) {
		for j := range want[0].g {
			if want[0].g[j] != want[1].g[j] || want[0].ran[j] != want[1].ran[j] {
				t.Errorf("element %d: interpreter g %d ran %d, tiled g %d ran %d", j, want[0].g[j], want[0].ran[j], want[1].g[j], want[1].ran[j])
			}
		}
		t.Fatalf("tiled run diverged from the interpreter\ninterp %+v\ntiled  %+v", want[0].rep, want[1].rep)
	}
	// Chunk 0: its tile is cut after lane 0; the next, lanes 1..T-1, after
	// its last lane (T-1 stores into itself). Chunk 1: cut after lane 0;
	// the next tile, from lane 1, after lane 9, whose store into itself
	// now lands in a watched window; the one after it, from lane 10, sees
	// lane 20's store land behind it. Chunk 2: after its last lane (the
	// store past the window cuts nothing). Chunk 3: after lane 100.
	if wantHaz := int64((T - 1) + (T - 1) + (T - 10) + 0 + (T - 101)); hazard != wantHaz {
		t.Errorf("%d hazard lanes, want %d", hazard, wantHaz)
	}
}

// TestProverScans pins the interval prover's value scans. On BFS every
// load is answered from one scan of the array's residency, so the scans
// read no more elements than the read-only index arrays hold (at the
// change's parent: 3.5 M over arrays of 0.95 M). And a proof that the
// wider scan loses is tried again with the exact subranges: the second
// half of idx_ holds hostile values no iteration loads.
func TestProverScans(t *testing.T) {
	_, inst, _ := appInstance(t, "BFS", 0.01)
	mach, err := sim.NewMachine(sim.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	r := New(mach, Options{})
	if err := r.Run(inst); err != nil {
		t.Fatal(err)
	}
	var scanned, held int64
	for _, ex := range r.specExecs {
		for g := range ex.gs {
			scanned += ex.gs[g].scanned
		}
	}
	for _, a := range inst.Arrays {
		if a.Decl.Name == "off" || a.Decl.Name == "edges" {
			held += a.Len()
		}
	}
	// Distributed copies overlap by a halo element or two per GPU.
	if slack := int64(4 * mach.NumGPUs()); scanned == 0 || scanned > held+slack {
		t.Errorf("prover scanned %d elements; the index arrays hold %d", scanned, held)
	}

	const src = `
int n;
int idx_[2 * n], a_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(idx_, a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = a_[idx_[i]];
        }
    }
}
`
	const n = 1000
	_, inst = buildSpecInstance(t, src, map[string]float64{"n": n})
	idx := inst.Arrays[0].I32
	for i := range idx {
		idx[i] = int32((i * 7) % n)
		if i >= n {
			idx[i] = 1 << 30
		}
	}
	r = New(mach, Options{})
	if err := r.Run(inst); err != nil {
		t.Fatal(err)
	}
	if st := r.SpecStats(); st.Hits == 0 || st.Fallbacks != 0 {
		t.Errorf("hostile values outside the loaded range: %d hits, fallbacks %v; want the exact re-proof to pass", st.Hits, st.FallbackReasons)
	}
	for i, v := range inst.Arrays[2].I32 {
		if v != inst.Arrays[1].I32[(i*7)%n] {
			t.Fatalf("out_[%d] = %d, want a_[%d]", i, v, (i*7)%n)
		}
	}
}
