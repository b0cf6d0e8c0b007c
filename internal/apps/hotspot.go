package apps

import (
	"fmt"
	"math"
	"math/rand"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// hotspotSource is a HotSpot-style 2-D thermal stencil, an *extension*
// application addressing the paper's stated future work (§VI:
// "supporting the optimizations on multidimensional arrays"). The
// grid is linearized row-major and the parallel loop iterates over
// rows, so the 2-D footprint becomes a 1-D row-block footprint:
// stride(w, w, w) loads each GPU's rows plus one ghost row per side.
// The ping-pong buffers alternate roles each step; the halo rows
// propagate between partitions through the distributed-array overlap
// exchange.
const hotspotSource = `
int h, w, steps;
float temp[h * w];
float tnew[h * w];
float power[h * w];

void main() {
    int t, r, c, p;
    #pragma acc data copy(temp) copyin(power) create(tnew)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(temp) stride(w, w, w)
            #pragma acc localaccess(power) stride(w)
            #pragma acc localaccess(tnew) stride(w)
            #pragma acc parallel loop gang vector
            for (r = 0; r < h; r++) {
                for (c = 0; c < w; c++) {
                    float up, down, left, right, center;
                    p = r * w + c;
                    center = temp[p];
                    up = center;
                    down = center;
                    left = center;
                    right = center;
                    if (r > 0) { up = temp[p - w]; }
                    if (r < h - 1) { down = temp[p + w]; }
                    if (c > 0) { left = temp[p - 1]; }
                    if (c < w - 1) { right = temp[p + 1]; }
                    tnew[p] = center
                        + 0.1 * (up + down + left + right - 4.0 * center)
                        + 0.05 * power[p];
                }
            }
            #pragma acc localaccess(tnew) stride(w)
            #pragma acc localaccess(temp) stride(w)
            #pragma acc parallel loop gang vector
            for (r = 0; r < h; r++) {
                for (c = 0; c < w; c++) {
                    temp[r * w + c] = tnew[r * w + c];
                }
            }
        }
    }
}
`

const (
	hotspotDimDefault = 1024
	hotspotSteps      = 8
)

// HotSpot returns the 2-D stencil extension application.
func HotSpot() *App {
	return &App{
		Name:         "HOTSPOT2D",
		Suite:        "extension",
		Description:  "2-D thermal stencil",
		PaperInput:   "(paper future work)",
		Source:       hotspotSource,
		DefaultScale: 0.25,
		Generate:     generateHotSpot,
		Shape:        shapeHotSpot,
	}
}

func shapeHotSpot(scale float64) *ir.Bindings {
	dim := float64(max(scaled(hotspotDimDefault, math.Sqrt(scale)), 8))
	return ir.NewBindings().SetScalar("h", dim).SetScalar("w", dim)
}

func generateHotSpot(scale float64, seed int64) (*Input, error) {
	bind := shapeHotSpot(scale)
	h, w := int(bind.Scalars["h"]), int(bind.Scalars["w"])
	rng := rand.New(rand.NewSource(seed))
	temp := make([]float32, h*w)
	power := make([]float32, h*w)
	for i := range temp {
		temp[i] = 45 + float32(rng.Float64())*10
		if rng.Intn(64) == 0 {
			power[i] = float32(rng.Float64()) * 20 // hot cells
		}
	}
	tempCopy := append([]float32(nil), temp...)

	bind.SetScalar("steps", hotspotSteps).
		SetArray("temp", &ir.HostArray{Decl: &cc.VarDecl{Name: "temp", Type: cc.TFloat, IsArray: true}, F32: temp}).
		SetArray("power", &ir.HostArray{Decl: &cc.VarDecl{Name: "power", Type: cc.TFloat, IsArray: true}, F32: power})

	want := hotspotReference(tempCopy, power, h, w, hotspotSteps)
	verify := func(inst *ir.Instance) error {
		got, err := inst.Array("temp")
		if err != nil {
			return err
		}
		for i := range want {
			diff := math.Abs(float64(got.F32[i]) - float64(want[i]))
			if diff > 1e-3+1e-4*math.Abs(float64(want[i])) {
				return fmt.Errorf("hotspot: temp[%d] = %g, want %g", i, got.F32[i], want[i])
			}
		}
		return nil
	}
	return &Input{
		Bindings: bind,
		Verify:   verify,
		Desc:     fmt.Sprintf("%dx%d grid, %d steps", h, w, hotspotSteps),
	}, nil
}

// hotspotReference runs the stencil sequentially with the kernel's
// float32 store rounding.
func hotspotReference(temp, power []float32, h, w, steps int) []float32 {
	cur := append([]float32(nil), temp...)
	next := make([]float32, len(temp))
	for t := 0; t < steps; t++ {
		for r := 0; r < h; r++ {
			for c := 0; c < w; c++ {
				p := r*w + c
				center := float64(cur[p])
				up, down, left, right := center, center, center, center
				if r > 0 {
					up = float64(cur[p-w])
				}
				if r < h-1 {
					down = float64(cur[p+w])
				}
				if c > 0 {
					left = float64(cur[p-1])
				}
				if c < w-1 {
					right = float64(cur[p+1])
				}
				next[p] = float32(center + 0.1*(up+down+left+right-4*center) + 0.05*float64(power[p]))
			}
		}
		cur, next = next, cur
	}
	return cur
}
