package rt

import (
	"fmt"

	"accmulti/internal/ir"
)

// launchCPU is the OpenMP baseline: the same kernel runs on the
// simulated multi-core CPU directly over host memory. There are no
// transfers; the only bucket that grows is KERNELS, priced by the CPU's
// roofline (memory-bound for the streaming kernels, as gcc -O2 code on
// the paper's Core i7 / Xeon machines is).
func (r *Runtime) launchCPU(k *ir.Kernel, env *ir.Env) error {
	cpu := r.mach.CPU()
	lower, upper := k.Lower(env), k.Upper(env)
	n := upper - lower
	if n < 0 {
		n = 0
	}

	// Reduction targets get per-worker lanes so the parallel loop is
	// race-free, mirroring an OpenMP array-reduction idiom.
	views := append([]ir.ArrayView(nil), env.Views...)
	var merges []func()
	for _, use := range k.Arrays {
		if use.Written || use.Reduced {
			r.state(use.Decl).zeros = false
		}
		if use.Reduced {
			v, w, op := r.inst.Arrays[use.Decl.Slot].View(), cpu.Spec.Workers, use.ReduceOp
			if v.I != nil {
				merges = append(merges, reduceInto(&v.I, w, op))
			} else {
				merges = append(merges, reduceInto(&v.F, w, op))
			}
			views[use.Decl.Slot] = v
		}
	}

	redVals := r.gpuPartials(k, 1)[0]
	counters, err := r.interpretWorkers(k, env.CloneWithViews(views), lower, n, cpu, redVals)
	if err != nil {
		return fmt.Errorf("rt: kernel %s on CPU: %w", k.Name, err)
	}
	for _, merge := range merges {
		merge()
	}
	for ri, red := range k.ScalarReds {
		setRedSlot(env, red, mergeRed(red, getRedSlot(env, red), redVals[ri]))
	}
	cost := cpu.Spec.KernelCost(counters, k.CPUEfficiency)
	r.rep.KernelTime += cost
	r.rep.Counters.Add(counters)
	ks := r.rep.kernelStats(k.Name)
	ks.Launches++
	ks.Time += cost
	ks.Counters.Add(counters)
	return nil
}
