package workload

import (
	"testing"
	"testing/quick"
)

func TestLayeredGraphLevels(t *testing.T) {
	for _, tc := range []struct{ nv, deg, layers int }{
		{1000, 4, 10},
		{50000, 6, 10},
		{500, 3, 5},
		{10, 2, 10},
	} {
		g := GenLayeredGraph(tc.nv, tc.deg, tc.layers, 1)
		if g.NumVertices() < tc.nv {
			t.Fatalf("nv=%d: vertices %d", tc.nv, g.NumVertices())
		}
		cost := BFSLevels(g, 0)
		maxLevel := int32(-1)
		unreached := 0
		for _, c := range cost {
			if c < 0 {
				unreached++
			}
			if c > maxLevel {
				maxLevel = c
			}
		}
		if unreached != 0 {
			t.Errorf("nv=%d layers=%d: %d unreachable vertices", tc.nv, tc.layers, unreached)
		}
		if int(maxLevel) != tc.layers-1 {
			t.Errorf("nv=%d layers=%d: max level %d, want %d", tc.nv, tc.layers, maxLevel, tc.layers-1)
		}
	}
}

func TestLayeredGraphCSRWellFormed(t *testing.T) {
	g := GenLayeredGraph(2000, 5, 10, 7)
	nv := g.NumVertices()
	if g.Offsets[0] != 0 || int(g.Offsets[nv]) != len(g.Edges) {
		t.Fatal("offset endpoints wrong")
	}
	for v := 0; v < nv; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatalf("offsets not monotone at %d", v)
		}
	}
	for _, e := range g.Edges {
		if e < 0 || int(e) >= nv {
			t.Fatalf("edge target %d out of range", e)
		}
	}
	// Average degree close to requested.
	avg := float64(len(g.Edges)) / float64(nv)
	if avg < 4 || avg > 7 {
		t.Errorf("average degree %.2f, want ~5-6", avg)
	}
}

// TestLayeredGraphEdgesMatchesGenerator pins the closed form against the
// graphs themselves, tiny ones (where rounding clamps layers) included.
func TestLayeredGraphEdgesMatchesGenerator(t *testing.T) {
	for _, layers := range []int{1, 2, 3, 10} {
		for _, deg := range []int{0, 1, 3, 14} {
			for nv := 1; nv < 400; nv += 1 + nv/7 {
				for seed := int64(1); seed <= 2; seed++ {
					if got, want := LayeredGraphEdges(nv, deg, layers), GenLayeredGraph(nv, deg, layers, seed).NumEdges(); got != want {
						t.Fatalf("nv %d, degree %d, %d layers, seed %d: %d edges, the graph has %d", nv, deg, layers, seed, got, want)
					}
				}
			}
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	a := GenLayeredGraph(3000, 5, 10, 42)
	b := GenLayeredGraph(3000, 5, 10, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edges differ for same seed")
		}
	}
	c := GenLayeredGraph(3000, 5, 10, 43)
	same := len(a.Edges) == len(c.Edges)
	if same {
		identical := true
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds should differ")
		}
	}
}

func TestGenFeaturesShape(t *testing.T) {
	fs := GenFeatures(100, 34, 5, 3)
	if len(fs.Data) != 100*34 || len(fs.Centers) != 5*34 {
		t.Fatal("shape wrong")
	}
	// Points should scatter around centers, not be all equal.
	distinct := map[float32]bool{}
	for _, v := range fs.Data[:100] {
		distinct[v] = true
	}
	if len(distinct) < 50 {
		t.Error("features look degenerate")
	}
}

func TestGenAtomsNeighborsSymmetricCutoff(t *testing.T) {
	a := GenAtoms(1000, 32, 5)
	if len(a.Pos) != 4000 || len(a.Nbr) != 1000*32 {
		t.Fatal("shape wrong")
	}
	cut2 := a.Cutoff * a.Cutoff
	filled := 0
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.MaxN; j++ {
			n := a.Nbr[i*a.MaxN+j]
			if n < 0 {
				continue
			}
			filled++
			if n == int32(i) {
				t.Fatalf("atom %d is its own neighbor", i)
			}
			dx := float64(a.Pos[4*i] - a.Pos[4*n])
			dy := float64(a.Pos[4*i+1] - a.Pos[4*n+1])
			dz := float64(a.Pos[4*i+2] - a.Pos[4*n+2])
			if dx*dx+dy*dy+dz*dz >= cut2 {
				t.Fatalf("neighbor %d of %d outside cutoff", n, i)
			}
		}
	}
	if filled == 0 {
		t.Error("no neighbors found at unit density")
	}
}

// Property: every vertex in a layered graph is reachable for any
// modest size/seed combination.
func TestLayeredReachabilityProperty(t *testing.T) {
	f := func(nvRaw uint16, seed int64) bool {
		nv := int(nvRaw)%5000 + 10
		g := GenLayeredGraph(nv, 4, 10, seed)
		cost := BFSLevels(g, 0)
		for _, c := range cost {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
