package apps

import (
	"fmt"
	"math"
	"math/rand"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// nbodySource is all-pairs gravitational N-body, an *extension*
// application: every iteration reads the whole position array (so it
// replicates — no localaccess can narrow it), while the acceleration
// output distributes with an exact stride(4) footprint. Compute grows
// as n^2 while transfers grow as n, so N-body keeps scaling even on
// the simulated cluster where input staging crosses the network — the
// contrast case to BFS in the cluster study.
const nbodySource = `
int n;
float soft;
float pos[4 * n];
float acc[4 * n];

void main() {
    int i;
    #pragma acc data copyin(pos) copyout(acc)
    {
        #pragma acc localaccess(acc) stride(4)
        #pragma acc parallel loop gang vector
        for (i = 0; i < n; i++) {
            int j;
            float px, py, pz, ax, ay, az;
            px = pos[4 * i];
            py = pos[4 * i + 1];
            pz = pos[4 * i + 2];
            ax = 0.0;
            ay = 0.0;
            az = 0.0;
            for (j = 0; j < n; j++) {
                float dx, dy, dz, r2, inv, inv3, m;
                dx = pos[4 * j] - px;
                dy = pos[4 * j + 1] - py;
                dz = pos[4 * j + 2] - pz;
                m = pos[4 * j + 3];
                r2 = dx * dx + dy * dy + dz * dz + soft;
                inv = 1.0 / sqrt(r2);
                inv3 = inv * inv * inv;
                ax += m * dx * inv3;
                ay += m * dy * inv3;
                az += m * dz * inv3;
            }
            acc[4 * i] = ax;
            acc[4 * i + 1] = ay;
            acc[4 * i + 2] = az;
            acc[4 * i + 3] = 0.0;
        }
    }
}
`

const (
	nbodyDefault = 8192
	nbodySoft    = 0.01
)

// NBody returns the all-pairs N-body extension application.
func NBody() *App {
	return &App{
		Name:         "NBODY",
		Suite:        "extension",
		Description:  "All-pairs gravity",
		PaperInput:   "(not in paper)",
		Source:       nbodySource,
		DefaultScale: 0.25,
		Generate:     generateNBody,
		Shape:        shapeNBody,
	}
}

func shapeNBody(scale float64) *ir.Bindings {
	return ir.NewBindings().SetScalar("n", float64(scaled(nbodyDefault, scale)))
}

func generateNBody(scale float64, seed int64) (*Input, error) {
	bind := shapeNBody(scale)
	n := int(bind.Scalars["n"])
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float32, 4*n)
	for i := 0; i < n; i++ {
		pos[4*i] = float32(rng.NormFloat64() * 10)
		pos[4*i+1] = float32(rng.NormFloat64() * 10)
		pos[4*i+2] = float32(rng.NormFloat64() * 10)
		pos[4*i+3] = float32(0.5 + rng.Float64()) // mass
	}
	bind.SetScalar("soft", nbodySoft).
		SetArray("pos", &ir.HostArray{Decl: &cc.VarDecl{Name: "pos", Type: cc.TFloat, IsArray: true}, F32: pos})

	want := nbodyReference(pos, n)
	verify := func(inst *ir.Instance) error {
		acc, err := inst.Array("acc")
		if err != nil {
			return err
		}
		for i := range want {
			diff := math.Abs(float64(acc.F32[i]) - float64(want[i]))
			if diff > 1e-3+1e-3*math.Abs(float64(want[i])) {
				return fmt.Errorf("nbody: acc[%d] = %g, want %g", i, acc.F32[i], want[i])
			}
		}
		return nil
	}
	return &Input{
		Bindings: bind,
		Verify:   verify,
		Desc:     fmt.Sprintf("%d bodies, all pairs", n),
	}, nil
}

func nbodyReference(pos []float32, n int) []float32 {
	out := make([]float32, 4*n)
	for i := 0; i < n; i++ {
		px, py, pz := float64(pos[4*i]), float64(pos[4*i+1]), float64(pos[4*i+2])
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			dx := float64(pos[4*j]) - px
			dy := float64(pos[4*j+1]) - py
			dz := float64(pos[4*j+2]) - pz
			m := float64(pos[4*j+3])
			r2 := dx*dx + dy*dy + dz*dz + nbodySoft
			inv := 1 / math.Sqrt(r2)
			inv3 := inv * inv * inv
			ax += m * dx * inv3
			ay += m * dy * inv3
			az += m * dz * inv3
		}
		out[4*i] = float32(ax)
		out[4*i+1] = float32(ay)
		out[4*i+2] = float32(az)
	}
	return out
}
