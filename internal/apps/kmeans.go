package apps

import (
	"fmt"
	"math"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/workload"
)

// kmeansSource is the Rodinia-style Lloyd iteration. Two parallel
// loops execute per iteration: the assignment loop (with the proposed
// reductiontoarray extension accumulating the new centers and counts)
// and the center-update loop. The feature matrix and the membership
// array carry localaccess directives — 2 of the 5 device arrays, the
// paper's Table II ratio. The feature matrix is read-only with a
// constant-stride row per point, so it is distributed and
// layout-transformed for coalescing.
const kmeansSource = `
int n, k, nf, iters;
float feat[n * nf];
float clusters[k * nf];
float newc[k * nf];
int count[k];
int member[n];
float delta;

void main() {
    int it, i, j;
    #pragma acc data copyin(feat) copy(clusters, member) create(newc, count)
    {
        for (it = 0; it < iters; it++) {
            delta = 0.0;
            #pragma acc localaccess(feat) stride(nf)
            #pragma acc localaccess(member) stride(1)
            #pragma acc parallel loop gang vector reduction(+:delta)
            for (i = 0; i < n; i++) {
                int f, best, c;
                float bestd;
                bestd = 1.0e30;
                best = 0;
                for (c = 0; c < k; c++) {
                    float d, diff;
                    d = 0.0;
                    for (f = 0; f < nf; f++) {
                        diff = feat[i * nf + f] - clusters[c * nf + f];
                        d += diff * diff;
                    }
                    if (d < bestd) {
                        bestd = d;
                        best = c;
                    }
                }
                if (member[i] != best) {
                    delta += 1.0;
                }
                member[i] = best;
                for (f = 0; f < nf; f++) {
                    #pragma acc reductiontoarray(+: newc[best * nf + f])
                    newc[best * nf + f] += feat[i * nf + f];
                }
                #pragma acc reductiontoarray(+: count[best])
                count[best] += 1;
            }
            #pragma acc parallel loop
            for (j = 0; j < k * nf; j++) {
                if (count[j / nf] > 0) {
                    clusters[j] = newc[j] / (float)count[j / nf];
                }
                newc[j] = 0.0;
            }
            // Reset the per-cluster counters on the host (k values).
            for (j = 0; j < k; j++) {
                count[j] = 0;
            }
            #pragma acc update device(count)
        }
    }
}
`

// KMEANS parameters shaped like Rodinia's kddcup input: 494021 points,
// 34 features, 5 clusters; the paper's 74 kernel executions correspond
// to 37 Lloyd iterations of the two loops.
const (
	kmPointsPaper = 494021
	kmFeatures    = 34
	kmClusters    = 5
	kmIterations  = 37
)

// KMeans returns the clustering application.
func KMeans() *App {
	return &App{
		Name:         "KMEANS",
		Suite:        "Rodinia",
		Description:  "Clustering",
		PaperInput:   "kddcup",
		Source:       kmeansSource,
		DefaultScale: 0.1,
		Generate:     generateKMeans,
		Shape:        shapeKMeans,
	}
}

func shapeKMeans(scale float64) *ir.Bindings {
	return ir.NewBindings().
		SetScalar("n", float64(max(scaled(kmPointsPaper, scale), kmClusters))).
		SetScalar("k", kmClusters).
		SetScalar("nf", kmFeatures)
}

func generateKMeans(scale float64, seed int64) (*Input, error) {
	b := shapeKMeans(scale)
	n := int(b.Scalars["n"])
	fs := workload.GenFeatures(n, kmFeatures, kmClusters, seed)

	featD := &cc.VarDecl{Name: "feat", Type: cc.TFloat, IsArray: true}
	clD := &cc.VarDecl{Name: "clusters", Type: cc.TFloat, IsArray: true}
	feat := &ir.HostArray{Decl: featD, F32: fs.Data}
	clusters := &ir.HostArray{Decl: clD, F32: make([]float32, kmClusters*kmFeatures)}
	// Rodinia seeds the centers with the first k points.
	copy(clusters.F32, fs.Data[:kmClusters*kmFeatures])
	seedCenters := append([]float32(nil), clusters.F32...)

	b.SetScalar("iters", kmIterations).
		SetArray("feat", feat).
		SetArray("clusters", clusters)

	refCenters, refMember := kmeansReference(fs.Data, seedCenters, n, kmFeatures, kmClusters, kmIterations)
	verify := func(inst *ir.Instance) error {
		cl, err := inst.Array("clusters")
		if err != nil {
			return err
		}
		mem, err := inst.Array("member")
		if err != nil {
			return err
		}
		return compareKMeans(cl.F32, mem.I32, refCenters, refMember)
	}
	return &Input{
		Bindings: b,
		Verify:   verify,
		Desc:     fmt.Sprintf("%d points x %d features, k=%d, %d iterations", n, kmFeatures, kmClusters, kmIterations),
	}, nil
}

// kmeansReference runs Lloyd's algorithm sequentially in Go.
func kmeansReference(feat, seedCenters []float32, n, nf, k, iters int) ([]float32, []int32) {
	centers := append([]float32(nil), seedCenters...)
	member := make([]int32, n)
	newc := make([]float64, k*nf)
	count := make([]int64, k)
	for it := 0; it < iters; it++ {
		for i := range newc {
			newc[i] = 0
		}
		for i := range count {
			count[i] = 0
		}
		for p := 0; p < n; p++ {
			best, bestd := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				var d float64
				for f := 0; f < nf; f++ {
					diff := float64(feat[p*nf+f]) - float64(centers[c*nf+f])
					d += diff * diff
				}
				if d < bestd {
					bestd, best = d, c
				}
			}
			member[p] = int32(best)
			for f := 0; f < nf; f++ {
				newc[best*nf+f] += float64(feat[p*nf+f])
			}
			count[best]++
		}
		for c := 0; c < k; c++ {
			if count[c] == 0 {
				continue
			}
			for f := 0; f < nf; f++ {
				centers[c*nf+f] = float32(newc[c*nf+f] / float64(count[c]))
			}
		}
	}
	return centers, member
}

// compareKMeans tolerates the floating-point reassociation of the
// hierarchical reduction: centers must agree to a small tolerance and
// memberships almost everywhere (borderline points may flip).
func compareKMeans(gotCenters []float32, gotMember []int32, wantCenters []float32, wantMember []int32) error {
	if len(gotCenters) != len(wantCenters) {
		return fmt.Errorf("kmeans: centers length %d, want %d", len(gotCenters), len(wantCenters))
	}
	for i := range wantCenters {
		diff := math.Abs(float64(gotCenters[i]) - float64(wantCenters[i]))
		if diff > 1e-2+1e-3*math.Abs(float64(wantCenters[i])) {
			return fmt.Errorf("kmeans: center[%d] = %g, want %g", i, gotCenters[i], wantCenters[i])
		}
	}
	if len(gotMember) != len(wantMember) {
		return fmt.Errorf("kmeans: membership length %d, want %d", len(gotMember), len(wantMember))
	}
	mismatch := 0
	for i := range wantMember {
		if gotMember[i] != wantMember[i] {
			mismatch++
		}
	}
	if frac := float64(mismatch) / float64(len(wantMember)); frac > 0.001 {
		return fmt.Errorf("kmeans: %.3f%% membership mismatch (max 0.1%%)", frac*100)
	}
	return nil
}
