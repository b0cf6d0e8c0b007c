package rt

import (
	"accmulti/internal/ir"
)

// Load-balanced task mapping (an extension beyond the paper, which
// divides iterations equally — §IV-B2). When Options.BalanceLoad is
// set and a kernel carries a bounds-form localaccess array (a CSR edge
// range, typically), the iteration space is split so each GPU receives
// an equal share of *footprint elements* rather than of iterations.
// Skewed degree distributions otherwise leave one GPU doing most of
// the work while the others idle at the superstep barrier.

// balancedPartition splits [lower, upper) so cumulative footprint
// weight is even across GPUs. Returns nil when the kernel has no
// bounds-form footprint to weigh by (caller falls back to the equal
// split).
func (r *Runtime) balancedPartition(k *ir.Kernel, env *ir.Env, lower, upper int64, n int) []span {
	var use *ir.ArrayUse
	for _, u := range k.Arrays {
		if u.Local != nil && !u.Local.HasStride {
			use = u
			break
		}
	}
	if use == nil || upper <= lower || n <= 1 {
		return nil
	}
	pfx := weightPrefix(k, use, env, lower, upper)
	total := pfx[len(pfx)-1]
	if total <= 0 {
		return nil
	}
	parts := make([]span, n)
	prev := lower
	for g := 0; g < n; g++ {
		target := total * int64(g+1) / int64(n)
		// First iteration index whose cumulative weight reaches the
		// target (prefix is monotone: binary search).
		lo, hi := prev-lower, upper-lower
		for lo < hi {
			mid := (lo + hi) / 2
			if pfx[mid+1] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		end := lower + lo + 1
		if g == n-1 {
			end = upper
		}
		if end < prev {
			end = prev
		}
		parts[g] = span{lo: prev, hi: end}
		prev = end
	}
	return parts
}

// weightPrefix evaluates per-iteration footprint sizes: prefix[i] is the
// total weight of iterations [lower, lower+i). The launch plan that holds
// the resulting partition is what is cached (resolvePlan).
func weightPrefix(k *ir.Kernel, use *ir.ArrayUse, env *ir.Env, lower, upper int64) []int64 {
	slot := k.LoopVar.Slot
	saved := env.Ints[slot]
	pfx := make([]int64, upper-lower+1)
	for i := lower; i < upper; i++ {
		env.Ints[slot] = i
		lo := use.Local.Lower(env)
		hi := use.Local.Upper(env)
		w := hi - lo + 1
		if w < 0 {
			w = 0
		}
		pfx[i-lower+1] = pfx[i-lower] + w
	}
	env.Ints[slot] = saved
	return pfx
}
