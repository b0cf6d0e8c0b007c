// Package workload synthesizes inputs shaped like the paper's
// benchmark inputs: a kddcup-like feature matrix for KMEANS (Rodinia),
// a jittered-lattice atom set with fixed-size neighbor lists for MD
// (SHOC), and a layered random graph for BFS (SHOC) whose breadth-first
// traversal from vertex 0 takes a controlled number of levels. All
// generators are deterministic for a given seed.
package workload

import (
	"math"
	"math/rand"
)

// Graph is a CSR directed graph.
type Graph struct {
	// Offsets has NumVertices+1 entries; the out-edges of vertex v are
	// Edges[Offsets[v]:Offsets[v+1]].
	Offsets []int32
	// Edges holds destination vertex ids.
	Edges []int32
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// layerSizes splits nv vertices (at least one per layer) into layers of
// geometrically growing size: size_k ~ r^k with layer 0 = one source.
func layerSizes(nv, layers int) []int {
	layers = max(layers, 1)
	nv = max(nv, layers)
	sizes := make([]int, layers)
	r := math.Pow(float64(nv), 1/float64(layers-1))
	weights := make([]float64, layers)
	var wsum float64
	for k := range weights {
		weights[k] = math.Pow(r, float64(k))
		wsum += weights[k]
	}
	assigned := 0
	for k := range sizes {
		sizes[k] = int(float64(nv) * weights[k] / wsum)
		if sizes[k] < 1 {
			sizes[k] = 1
		}
		assigned += sizes[k]
	}
	sizes[layers-1] += nv - assigned // absorb rounding in the big layer
	if sizes[layers-1] < 1 {
		sizes[layers-1] = 1
	}
	return sizes
}

// LayeredGraphEdges is GenLayeredGraph(nv, avgDeg, layers, seed).NumEdges()
// for every seed, without building the graph: every vertex has avgDeg-1
// random edges, and the vertices of a layer cover the next layer's once
// between them.
func LayeredGraphEdges(nv, avgDeg, layers int) int {
	sizes := layerSizes(nv, layers)
	ne := max(nv, len(sizes)) * max(avgDeg-1, 0)
	for _, size := range sizes[1:] {
		ne += size
	}
	return ne
}

// GenLayeredGraph builds a graph whose BFS from vertex 0 takes exactly
// `layers` levels (cost values 0..layers-1): vertices split into layers
// of geometrically growing size starting from the single source, every
// layer-(k+1) vertex has a deterministic in-edge from layer k, edges
// otherwise point forward (or sideways in the last layer), and each
// vertex adds avgDeg-1 random forward edges. With layers=10 the BFS
// kernel executes 10 times — 9 productive sweeps plus the terminating
// one — matching the paper's SHOC input. The CSR is built in one pass
// (deterministic out-degrees), so paper-scale graphs (~90M edges)
// generate in seconds.
func GenLayeredGraph(nv, avgDeg, layers int, seed int64) *Graph {
	sizes := layerSizes(nv, layers)
	nv, layers = max(nv, len(sizes)), len(sizes)
	rng := rand.New(rand.NewSource(seed))
	starts := make([]int, layers+1)
	for k := 0; k < layers; k++ {
		starts[k+1] = starts[k] + sizes[k]
	}

	layerOf := make([]int, nv)
	for k := 0; k < layers; k++ {
		for v := starts[k]; v < starts[k+1] && v < nv; v++ {
			layerOf[v] = k
		}
	}

	// Deterministic child coverage: the j-th vertex of layer k covers
	// children j, j+size_k, j+2*size_k, ... of layer k+1, so every
	// vertex has a parent one layer up.
	childCount := func(v int) int {
		k := layerOf[v]
		if k == layers-1 {
			return 0
		}
		j := v - starts[k]
		if j >= sizes[k+1] {
			return 0
		}
		return (sizes[k+1]-1-j)/sizes[k] + 1
	}
	extras := avgDeg - 1
	if extras < 0 {
		extras = 0
	}

	offsets := make([]int32, nv+1)
	for v := 0; v < nv; v++ {
		offsets[v+1] = offsets[v] + int32(childCount(v)+extras)
	}
	edges := make([]int32, offsets[nv])
	for v := 0; v < nv; v++ {
		k := layerOf[v]
		e := offsets[v]
		if k < layers-1 {
			j := v - starts[k]
			for c := j; c < sizes[k+1]; c += sizes[k] {
				edges[e] = int32(starts[k+1] + c)
				e++
			}
		}
		// Random extras: forward a layer when possible, else sideways.
		kt := k + 1
		if kt >= layers {
			kt = k
		}
		for x := 0; x < extras; x++ {
			edges[e] = int32(starts[kt] + rng.Intn(sizes[kt]))
			e++
		}
	}
	return &Graph{Offsets: offsets, Edges: edges}
}

// BFSLevels computes reference BFS levels from the source (-1 =
// unreachable), for verifying the OpenACC BFS.
func BFSLevels(g *Graph, src int) []int32 {
	nv := g.NumVertices()
	cost := make([]int32, nv)
	for i := range cost {
		cost[i] = -1
	}
	cost[src] = 0
	frontier := []int32{int32(src)}
	for level := int32(0); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range g.Edges[g.Offsets[v]:g.Offsets[v+1]] {
				if cost[w] < 0 {
					cost[w] = level + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return cost
}

// Features is a row-major n x nf feature matrix with k latent centers.
type Features struct {
	Data     []float32
	N, NF, K int
	// Centers are the latent generator centers (not the kmeans seed).
	Centers []float32
}

// GenFeatures synthesizes a kddcup-shaped clustering input: n points
// with nf features drawn around k well-separated centers plus noise,
// so Lloyd's algorithm makes steady progress over many iterations.
func GenFeatures(n, nf, k int, seed int64) *Features {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]float32, k*nf)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64() * 5)
	}
	data := make([]float32, n*nf)
	for p := 0; p < n; p++ {
		c := rng.Intn(k)
		for f := 0; f < nf; f++ {
			data[p*nf+f] = centers[c*nf+f] + float32(rng.NormFloat64())
		}
	}
	return &Features{Data: data, N: n, NF: nf, K: k, Centers: centers}
}

// Atoms is an MD input: positions padded to 4 floats per atom and a
// fixed-width neighbor list (padded with -1), the SHOC MD layout.
type Atoms struct {
	// Pos holds x,y,z,w per atom (w unused, for coalescing).
	Pos []float32
	// Nbr is row-major: atom i's neighbors are Nbr[i*MaxN:(i+1)*MaxN],
	// padded with -1.
	Nbr []int32
	// N and MaxN are the atom count and neighbor list width.
	N, MaxN int
	// Cutoff is the interaction radius used to build the lists.
	Cutoff float64
	// BoxEdge is the cubic domain edge length.
	BoxEdge float64
}

// GenAtoms places n atoms on a jittered cubic lattice (the SHOC MD
// initialization) and builds neighbor lists with a uniform-grid cell
// search, keeping up to maxn neighbors within the cutoff.
func GenAtoms(n, maxn int, seed int64) *Atoms {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := 1.0
	edge := float64(side) * spacing
	pos := make([]float32, 4*n)
	for i := 0; i < n; i++ {
		x := i % side
		y := (i / side) % side
		z := i / (side * side)
		pos[4*i+0] = float32(float64(x)*spacing + rng.Float64()*0.2)
		pos[4*i+1] = float32(float64(y)*spacing + rng.Float64()*0.2)
		pos[4*i+2] = float32(float64(z)*spacing + rng.Float64()*0.2)
	}

	// Cutoff chosen so a cutoff-ball holds comfortably fewer than maxn
	// lattice sites: ~4/3*pi*r^3 atoms at unit density.
	cutoff := math.Cbrt(float64(maxn) * 0.75 / (4.0 / 3.0 * math.Pi))
	grid := make(map[[3]int][]int32)
	cellOf := func(i int) [3]int {
		return [3]int{
			int(float64(pos[4*i]) / cutoff),
			int(float64(pos[4*i+1]) / cutoff),
			int(float64(pos[4*i+2]) / cutoff),
		}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		grid[c] = append(grid[c], int32(i))
	}

	nbr := make([]int32, n*maxn)
	cut2 := cutoff * cutoff
	for i := 0; i < n; i++ {
		c := cellOf(i)
		cnt := 0
	search:
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range grid[[3]int{c[0] + dx, c[1] + dy, c[2] + dz}] {
						if j == int32(i) {
							continue
						}
						ddx := float64(pos[4*i] - pos[4*j])
						ddy := float64(pos[4*i+1] - pos[4*j+1])
						ddz := float64(pos[4*i+2] - pos[4*j+2])
						if ddx*ddx+ddy*ddy+ddz*ddz < cut2 {
							nbr[i*maxn+cnt] = j
							cnt++
							if cnt == maxn {
								break search
							}
						}
					}
				}
			}
		}
		for ; cnt < maxn; cnt++ {
			nbr[i*maxn+cnt] = -1
		}
	}
	return &Atoms{Pos: pos, Nbr: nbr, N: n, MaxN: maxn, Cutoff: cutoff, BoxEdge: edge}
}
