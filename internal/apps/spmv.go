package apps

import (
	"fmt"
	"math"
	"math/rand"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// spmvSource is CSR sparse matrix-vector multiply, an *extension*
// application beyond the paper's three: it stresses the bounds form of
// localaccess on two arrays at once (values and column indices share
// the row-pointer ranges) while the dense vector stays replicated for
// its data-dependent gathers. The kernel repeats `iters` times over
// the same operands, exercising the loader's reload skipping.
const spmvSource = `
int n, nnz, iters;
int rowptr[n + 1];
int cols[nnz];
float vals[nnz];
float x[n];
float y[n];

void main() {
    int it, i;
    #pragma acc data copyin(rowptr, cols, vals, x) copyout(y)
    {
        for (it = 0; it < iters; it++) {
            #pragma acc localaccess(rowptr) stride(1, 0, 1)
            #pragma acc localaccess(cols) bounds(rowptr[i], rowptr[i+1]-1)
            #pragma acc localaccess(vals) bounds(rowptr[i], rowptr[i+1]-1)
            #pragma acc localaccess(y) stride(1)
            #pragma acc parallel loop gang vector
            for (i = 0; i < n; i++) {
                int e;
                float acc;
                acc = 0.0;
                for (e = rowptr[i]; e < rowptr[i + 1]; e++) {
                    acc += vals[e] * x[cols[e]];
                }
                y[i] = acc;
            }
        }
    }
}
`

const (
	spmvRowsDefault = 200000
	spmvNnzPerRow   = 16
	spmvIters       = 10
)

// SpMV returns the sparse matrix-vector extension application.
func SpMV() *App {
	return &App{
		Name:         "SPMV",
		Suite:        "extension",
		Description:  "Sparse linear algebra",
		PaperInput:   "(not in paper)",
		Source:       spmvSource,
		DefaultScale: 0.25,
		Generate:     generateSpMV,
		Shape:        shapeSpMV,
	}
}

// shapeSpMV gives nnz as its upper bound: a row's degree is drawn from
// [1, 2*spmvNnzPerRow-1] by the seed.
func shapeSpMV(scale float64) *ir.Bindings {
	n := scaled(spmvRowsDefault, scale)
	return ir.NewBindings().
		SetScalar("n", float64(n)).
		SetScalar("nnz", float64(n*(2*spmvNnzPerRow-1)))
}

func generateSpMV(scale float64, seed int64) (*Input, error) {
	bind := shapeSpMV(scale)
	n := int(bind.Scalars["n"])
	rng := rand.New(rand.NewSource(seed))

	rowptr := make([]int32, n+1)
	var cols []int32
	var vals []float32
	for i := 0; i < n; i++ {
		rowptr[i] = int32(len(cols))
		deg := 1 + rng.Intn(2*spmvNnzPerRow-1)
		for d := 0; d < deg; d++ {
			cols = append(cols, int32(rng.Intn(n)))
			vals = append(vals, float32(rng.NormFloat64()))
		}
	}
	rowptr[n] = int32(len(cols))
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}

	bind.SetScalar("nnz", float64(len(cols))).
		SetScalar("iters", spmvIters).
		SetArray("rowptr", &ir.HostArray{Decl: &cc.VarDecl{Name: "rowptr", Type: cc.TInt, IsArray: true}, I32: rowptr}).
		SetArray("cols", &ir.HostArray{Decl: &cc.VarDecl{Name: "cols", Type: cc.TInt, IsArray: true}, I32: cols}).
		SetArray("vals", &ir.HostArray{Decl: &cc.VarDecl{Name: "vals", Type: cc.TFloat, IsArray: true}, F32: vals}).
		SetArray("x", &ir.HostArray{Decl: &cc.VarDecl{Name: "x", Type: cc.TFloat, IsArray: true}, F32: x})

	want := spmvReference(rowptr, cols, vals, x)
	verify := func(inst *ir.Instance) error {
		y, err := inst.Array("y")
		if err != nil {
			return err
		}
		for i := range want {
			diff := math.Abs(float64(y.F32[i]) - float64(want[i]))
			if diff > 1e-3+1e-4*math.Abs(float64(want[i])) {
				return fmt.Errorf("spmv: y[%d] = %g, want %g", i, y.F32[i], want[i])
			}
		}
		return nil
	}
	return &Input{
		Bindings: bind,
		Verify:   verify,
		Desc:     fmt.Sprintf("%d rows, %d nonzeros, %d iterations", n, len(cols), spmvIters),
	}, nil
}

func spmvReference(rowptr, cols []int32, vals, x []float32) []float32 {
	n := len(rowptr) - 1
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float64
		for e := rowptr[i]; e < rowptr[i+1]; e++ {
			acc += float64(vals[e]) * float64(x[cols[e]])
		}
		y[i] = float32(acc)
	}
	return y
}
