// Package apps provides the paper's three evaluation applications —
// MD (SHOC), KMEANS (Rodinia) and BFS (SHOC) — as OpenACC C sources
// using the proposed directive extensions, together with deterministic
// input generators (scaled replicas of the paper's inputs) and Go
// reference implementations for verification.
package apps

import (
	"fmt"
	"strings"

	"accmulti/internal/ir"
)

// Input is a generated problem instance: bindings for the program plus
// a verifier against the Go reference.
type Input struct {
	// Bindings attach the generated data.
	Bindings *ir.Bindings
	// Verify checks the final instance against the reference.
	Verify func(inst *ir.Instance) error
	// Desc describes the instance, e.g. "73728 atoms".
	Desc string
}

// App is one benchmark application.
type App struct {
	// Name matches the paper ("MD", "KMEANS", "BFS").
	Name string
	// Suite is the benchmark suite of origin.
	Suite string
	// Description is a one-line summary (Table II).
	Description string
	// PaperInput names the input the paper used.
	PaperInput string
	// Source is the OpenACC C program.
	Source string
	// Generate builds an input at a fraction of the paper's size
	// (scale 1.0 reproduces the paper's footprint).
	Generate func(scale float64, seed int64) (*Input, error)
	// Shape is the sizes of Generate(scale, seed) without the data: the
	// scalars every array length of Source depends on, the same for
	// every seed. It costs nothing, so a footprint can be computed (and
	// refused) before anything is generated. Where a size does depend
	// on the seed (SPMV's nnz) it is the upper bound.
	Shape func(scale float64) *ir.Bindings
	// DefaultScale keeps functional runs tractable in the harness.
	DefaultScale float64
}

// All returns the paper's three applications in Table II order.
func All() []*App {
	return []*App{MD(), KMeans(), BFS()}
}

// Extended returns the applications beyond the paper's evaluation:
// SPMV (bounds-form footprints on CSR), HOTSPOT2D (the paper's stated
// future work — multidimensional arrays — expressed as row-block
// footprints with halo exchange), and NBODY (the compute-bound n²
// contrast case, which keeps scaling even across cluster nodes).
func Extended() []*App {
	return []*App{SpMV(), HotSpot(), NBody()}
}

// ByName looks an application up by name, searching the paper's three
// and the extensions.
func ByName(name string) (*App, error) {
	var names []string
	for _, a := range append(All(), Extended()...) {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return nil, fmt.Errorf("apps: unknown application %q (have %s)", name, strings.Join(names, ", "))
}

func scaled(v int, scale float64) int {
	return max(int(float64(v)*scale), 1)
}
