package apps

import (
	"fmt"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/workload"
)

// bfsSource is the SHOC-style level-synchronized breadth-first search:
// one parallel loop executed once per level. The CSR offsets carry a
// stride(1,0,1) localaccess (iteration i reads off[i] and off[i+1]);
// the edge array carries the bounds form — each iteration reads only
// its own adjacency range, so the edge array distributes even though
// its bounds are data dependent. That is 2 of the 3 device arrays, the
// paper's Table II ratio. The cost array is read indirectly and
// written irregularly, so it stays replicated behind the two-level
// dirty-bit scheme — the source of the inter-GPU traffic that makes
// BFS communication-bound on the paper's supercomputer node.
const bfsSource = `
int nv, ne, level, changed;
int off[nv + 1];
int edges[ne];
int cost[nv];

void main() {
    int i;
    #pragma acc data copyin(off, edges) copy(cost)
    {
        changed = 1;
        level = 0;
        while (changed) {
            changed = 0;
            #pragma acc localaccess(off) stride(1, 0, 1)
            #pragma acc localaccess(edges) bounds(off[i], off[i+1]-1)
            #pragma acc parallel loop gang vector reduction(|:changed)
            for (i = 0; i < nv; i++) {
                int e, w;
                if (cost[i] == level) {
                    for (e = off[i]; e < off[i + 1]; e++) {
                        w = edges[e];
                        if (cost[w] < 0) {
                            cost[w] = level + 1;
                            changed = 1;
                        }
                    }
                }
            }
            level++;
        }
    }
}
`

// BFS input shaped to the paper's ~445 MB SHOC graph: the full-scale
// CSR (offsets + edges + cost) occupies about 445 MB, and the layered
// structure gives 10 kernel executions (9 productive levels plus the
// terminating sweep).
const (
	bfsVerticesPaper = 13_500_000
	bfsAvgDegree     = 6
	bfsLayers        = 10
)

// BFS returns the graph-traversal application.
func BFS() *App {
	return &App{
		Name:         "BFS",
		Suite:        "SHOC",
		Description:  "Graph Traversal",
		PaperInput:   "SM node",
		Source:       bfsSource,
		DefaultScale: 0.04,
		Generate:     generateBFS,
		Shape:        shapeBFS,
	}
}

func shapeBFS(scale float64) *ir.Bindings {
	nv := max(scaled(bfsVerticesPaper, scale), bfsLayers)
	return ir.NewBindings().
		SetScalar("nv", float64(nv)).
		SetScalar("ne", float64(workload.LayeredGraphEdges(nv, bfsAvgDegree, bfsLayers)))
}

func generateBFS(scale float64, seed int64) (*Input, error) {
	b := shapeBFS(scale)
	nv, ne := int(b.Scalars["nv"]), int(b.Scalars["ne"])
	g := workload.GenLayeredGraph(nv, bfsAvgDegree, bfsLayers, seed)

	offD := &cc.VarDecl{Name: "off", Type: cc.TInt, IsArray: true}
	edgD := &cc.VarDecl{Name: "edges", Type: cc.TInt, IsArray: true}
	costD := &cc.VarDecl{Name: "cost", Type: cc.TInt, IsArray: true}
	off := &ir.HostArray{Decl: offD, I32: g.Offsets}
	edges := &ir.HostArray{Decl: edgD, I32: g.Edges}
	cost := &ir.HostArray{Decl: costD, I32: make([]int32, nv)}
	for i := range cost.I32 {
		cost.I32[i] = -1
	}
	cost.I32[0] = 0

	b.SetArray("off", off).
		SetArray("edges", edges).
		SetArray("cost", cost)

	want := workload.BFSLevels(g, 0)
	verify := func(inst *ir.Instance) error {
		got, err := inst.Array("cost")
		if err != nil {
			return err
		}
		for i := range want {
			if got.I32[i] != want[i] {
				return fmt.Errorf("bfs: cost[%d] = %d, want %d", i, got.I32[i], want[i])
			}
		}
		return nil
	}
	return &Input{
		Bindings: b,
		Verify:   verify,
		Desc:     fmt.Sprintf("%d vertices, %d edges, %d layers", nv, ne, bfsLayers),
	}, nil
}
