package apps

import (
	"fmt"
	"math"

	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/workload"
)

// mdSource is the SHOC-style Lennard-Jones force computation: one
// parallel loop, one kernel execution, neighbor lists of fixed width.
// The neighbor list and the force array carry localaccess directives
// (2 of the 3 device arrays, matching the paper's Table II); positions
// are gathered indirectly and stay replicated. The loop needs no
// inter-GPU communication — the paper's "embarrassingly distributable"
// case.
const mdSource = `
int natoms, maxn;
float lj1, lj2, cutsq;
float pos[4 * natoms];
float force[4 * natoms];
int nbr[maxn * natoms];

void main() {
    int i;
    #pragma acc data copyin(pos, nbr) copyout(force)
    {
        #pragma acc localaccess(nbr) stride(maxn)
        #pragma acc localaccess(force) stride(4)
        #pragma acc parallel loop gang vector
        for (i = 0; i < natoms; i++) {
            int j, jn;
            float ipx, ipy, ipz, fx, fy, fz;
            ipx = pos[4 * i];
            ipy = pos[4 * i + 1];
            ipz = pos[4 * i + 2];
            fx = 0.0;
            fy = 0.0;
            fz = 0.0;
            for (j = 0; j < maxn; j++) {
                jn = nbr[i * maxn + j];
                if (jn >= 0) {
                    float dx, dy, dz, r2, ir2, r6, fr;
                    dx = ipx - pos[4 * jn];
                    dy = ipy - pos[4 * jn + 1];
                    dz = ipz - pos[4 * jn + 2];
                    r2 = dx * dx + dy * dy + dz * dz;
                    if (r2 < cutsq) {
                        ir2 = 1.0 / r2;
                        r6 = ir2 * ir2 * ir2;
                        fr = r6 * (lj1 * r6 - lj2) * ir2;
                        fx += dx * fr;
                        fy += dy * fr;
                        fz += dz * fr;
                    }
                }
            }
            force[4 * i] = fx;
            force[4 * i + 1] = fy;
            force[4 * i + 2] = fz;
            force[4 * i + 3] = 0.0;
        }
    }
}
`

// MD constants matching SHOC's defaults.
const (
	mdAtomsPaper = 73728
	mdMaxN       = 128
	mdLJ1        = 1.5
	mdLJ2        = 2.0
)

// MD returns the molecular-dynamics application.
func MD() *App {
	return &App{
		Name:         "MD",
		Suite:        "SHOC",
		Description:  "Simulation",
		PaperInput:   "73728 Atom",
		Source:       mdSource,
		DefaultScale: 1.0,
		Generate:     generateMD,
		Shape:        shapeMD,
	}
}

func shapeMD(scale float64) *ir.Bindings {
	return ir.NewBindings().
		SetScalar("natoms", float64(scaled(mdAtomsPaper, scale))).
		SetScalar("maxn", mdMaxN)
}

func generateMD(scale float64, seed int64) (*Input, error) {
	b := shapeMD(scale)
	n := int(b.Scalars["natoms"])
	atoms := workload.GenAtoms(n, mdMaxN, seed)
	cutsq := atoms.Cutoff * atoms.Cutoff

	posD := &cc.VarDecl{Name: "pos", Type: cc.TFloat, IsArray: true}
	nbrD := &cc.VarDecl{Name: "nbr", Type: cc.TInt, IsArray: true}
	pos := &ir.HostArray{Decl: posD, F32: atoms.Pos}
	nbr := &ir.HostArray{Decl: nbrD, I32: atoms.Nbr}

	b.SetScalar("lj1", mdLJ1).
		SetScalar("lj2", mdLJ2).
		SetScalar("cutsq", cutsq).
		SetArray("pos", pos).
		SetArray("nbr", nbr)

	want := mdReference(atoms, cutsq)
	verify := func(inst *ir.Instance) error {
		force, err := inst.Array("force")
		if err != nil {
			return err
		}
		return compareForces(force.F32, want, n)
	}
	return &Input{
		Bindings: b,
		Verify:   verify,
		Desc:     fmt.Sprintf("%d atoms, %d-wide neighbor lists", n, mdMaxN),
	}, nil
}

// mdReference computes Lennard-Jones forces in plain Go, mirroring the
// kernel's float32 accumulator rounding closely enough for a relative
// tolerance check.
func mdReference(a *workload.Atoms, cutsq float64) []float32 {
	out := make([]float32, 4*a.N)
	for i := 0; i < a.N; i++ {
		ipx := float64(a.Pos[4*i])
		ipy := float64(a.Pos[4*i+1])
		ipz := float64(a.Pos[4*i+2])
		var fx, fy, fz float64
		for j := 0; j < a.MaxN; j++ {
			jn := a.Nbr[i*a.MaxN+j]
			if jn < 0 {
				continue
			}
			dx := ipx - float64(a.Pos[4*jn])
			dy := ipy - float64(a.Pos[4*jn+1])
			dz := ipz - float64(a.Pos[4*jn+2])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < cutsq {
				ir2 := 1.0 / r2
				r6 := ir2 * ir2 * ir2
				fr := r6 * (mdLJ1*r6 - mdLJ2) * ir2
				fx += dx * fr
				fy += dy * fr
				fz += dz * fr
			}
		}
		out[4*i] = float32(fx)
		out[4*i+1] = float32(fy)
		out[4*i+2] = float32(fz)
	}
	return out
}

func compareForces(got, want []float32, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("md: force length %d, want %d", len(got), len(want))
	}
	for i := 0; i < 4*n; i++ {
		g, w := float64(got[i]), float64(want[i])
		diff := math.Abs(g - w)
		if diff > 1e-3+1e-3*math.Abs(w) {
			return fmt.Errorf("md: force[%d] = %g, want %g", i, g, w)
		}
	}
	return nil
}
