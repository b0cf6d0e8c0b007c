package rt_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

// Differential suite for the specialized kernel executors (PR 4): every
// template below runs twice — once with the fast path enabled (the
// default) and once with Reference — and the two executions
// must be bit-identical in every observable: the virtual-time report
// (counters, transfer volumes, events, peaks), every array's final
// contents, and the host scalar state. The template family deliberately
// spans both sides of the eligibility fence: affine straight-line and
// branched kernels that specialize, per-GPU fallbacks (branch stores on
// dirty-marked replicas), and launch-global fallbacks (indirect
// indices, non-affine reductiontoarray, ?:, inner sequential loops) so
// the fallback hand-off itself is under differential test too.

type specTemplate struct {
	name string
	src  string
	// scalars produces the bindings (always including "n").
	scalars func(rng *rand.Rand) map[string]float64
	// tweak, when set, edits the translated module before it is bound: a
	// kernel shape the translator never emits but the runtime must stay
	// safe on.
	tweak func(*ir.Module)
	// check, when set, holds the specialized run's engine counts to what
	// the template is there to exercise.
	check func(rt.SpecStats) error
	// oneGPU says the program computes every element alike however the
	// iterations are split: its arrays must also equal, bit for bit, the
	// run on one GPU, where no replica relays anything.
	oneGPU bool
}

func nScalar(rng *rand.Rand) map[string]float64 {
	return map[string]float64{"n": float64(64 + rng.Intn(1200))}
}

// guardScalars adds the operands the affine-guard templates compare the
// induction variable with: k anywhere in (and a little outside) the
// iteration space, m a small constant.
func guardScalars(rng *rand.Rand) map[string]float64 {
	m := nScalar(rng)
	m["k"] = float64(rng.Intn(int(m["n"])+8) - 4)
	m["m"] = float64(rng.Intn(7))
	return m
}

var specTemplates = []specTemplate{
	{
		name: "saxpy64",
		src: `
int n;
double a;
double x[n], y[n];
void main() {
    int i;
    #pragma acc data copyin(x) copy(y)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            y[i] = a * x[i] + y[i];
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["a"] = 0.5 + rng.Float64()
			return m
		},
	},
	{
		// Iterated float ping-pong stencil: exercises the executor cache
		// across launches, interior-range loops and the bulk dirty
		// marking that feeds replica chunk sync.
		name: "stencil-iter",
		src: `
int n, steps;
float a[n], b[n];
void main() {
    int i, s;
    #pragma acc data copy(a) create(b)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                a[i] = b[i];
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["steps"] = float64(1 + rng.Intn(4))
			return m
		},
	},
	{
		// Stores under both if-arms: fast path at one GPU (no dirty
		// marking), per-GPU interpreter fallback on replicated multi-GPU
		// launches (BranchStores × wantDirty).
		name: "branch-store",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    int v;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            v = in_[i];
            if (v > 0) {
                out_[i] = v * 2;
            } else {
                out_[i] = 0 - v;
            }
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Scalar reduction fed from one if-arm: arm-taken counting must
		// reproduce the interpreter's data-dependent flop totals exactly.
		name: "branch-reduce",
		src: `
int n;
int total;
int in_[n];
void main() {
    int i;
    int v;
    total = 0;
    #pragma acc data copyin(in_)
    {
        #pragma acc parallel loop reduction(+:total)
        for (i = 0; i < n; i++) {
            v = in_[i];
            if (v % 3 == 0) {
                total += v;
            }
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Two strided affine stores, one a compound assignment (extra
		// read + flop per store, stride-2 dirty footprints).
		name: "strided-opassign",
		src: `
int n;
int in_[n], out_[2 * n + 1];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[2 * i] = in_[i];
            out_[2 * i + 1] += in_[i] / 2;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Distributed placement: writes stay within the local partition,
		// so no miss-check lanes are needed and the fast path runs on
		// partition-sized copies (Base offsets exercised).
		name: "distributed-affine",
		src: `
int n;
float in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc localaccess(in_) stride(1)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = in_[i] * 0.5 + 1.0;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Builtin calls and float32 rounding on an eligible body.
		name: "builtins-mix",
		src: `
int n;
float in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = sqrt(fabs(in_[i]) + 1.0) + min(in_[i], 0.5) * 0.25;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Integer shift/bit/mod soup plus a scalar temp.
		name: "intops",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    int v;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            v = (in_[i] << 1) ^ (in_[i] >> 2);
            out_[i] = (v & 1023) | (i % 7);
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// reductiontoarray at an affine index: the fast path updates the
		// per-worker lanes directly, at logical indices.
		name: "lanes-affine",
		src: `
int n;
int in_[n], acc_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(acc_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: acc_[i])
            acc_[i] += in_[i];
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Indirect scatter: launch-global interpreter fallback.
		name: "indirect-fallback",
		src: `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[idx_[i]] = in_[i] + 1;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Non-affine reductiontoarray index: interpreter fallback.
		name: "histo-fallback",
		src: `
int n, k;
int in_[n], hist_[k];
void main() {
    int i;
    int v;
    #pragma acc data copyin(in_) copy(hist_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            v = in_[i];
            #pragma acc reductiontoarray(+: hist_[(v % k + k) % k])
            hist_[(v % k + k) % k] += 1;
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(3 + rng.Intn(13))
			return m
		},
	},
	{
		// ?: has data-dependent operand cost: interpreter fallback.
		name: "condexpr-fallback",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = in_[i] > 0 ? in_[i] : 1 - in_[i];
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Inner sequential loop: interpreter fallback.
		name: "innerloop-fallback",
		src: `
int n, k;
int in_[n], out_[n];
void main() {
    int i, j;
    int v;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            v = 0;
            for (j = 0; j < k; j++) {
                v = v + in_[i];
            }
            out_[i] = v;
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(1 + rng.Intn(4))
			return m
		},
	},
	{
		// Pure gather read through a permutation index: specializes with
		// the interval prover (range-checked computed access).
		name: "gather-read",
		src: `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = in_[idx_[i]] * 3 - 1;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Iterated adjacent pair of kernels over disjoint arrays, inside
		// one data region (the name is the golden file's row key).
		name: "fused-pair-iter",
		src: `
int n, steps, t;
float a[n], b[n], c[n], d[n];
void main() {
    int i;
    #pragma acc data copyin(a, b) copy(c, d)
    {
        t = 0;
        while (t < steps) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                c[i] = 2.0 * a[i] + c[i];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                d[i] = b[i] * b[i] + d[i] * 0.5;
            }
            t = t + 1;
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["steps"] = float64(2 + rng.Intn(4))
			return m
		},
	},
	// Affine guards (index-set splitting): each template below puts the
	// guard's cut points somewhere else relative to the GPU and worker
	// chunking, and must cost, mark and compute exactly like the
	// interpreter's branch.
	{
		// The boundary-guarded localaccess stencil (examples/stencil1d):
		// two-sided && guard, distributed placement with halos, iterated.
		name: "guard-boundary-dist",
		src: `
int n, steps;
float a[n], b[n];
void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0 && i < n - 1) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                } else {
                    b[i] = a[i];
                }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["steps"] = float64(1 + rng.Intn(3))
			return m
		},
	},
	{
		// The || complement of the boundary guard with == atoms, storing
		// to a replicated array: bulk dirty marking per piece against the
		// interpreter's per-store bits.
		name: "guard-or-replicated",
		src: `
int n;
float in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i == 0 || i == n - 1) {
                out_[i] = in_[i];
            } else {
                out_[i] = in_[i - 1] * 0.5 + in_[i + 1] * 0.5;
            }
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// The single-guard form without else (an empty variant), whose
		// guarded load would be out of range where the guard is false.
		name: "guard-single-noelse",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc localaccess(in_) stride(1, 1, 0)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i > 0) {
                out_[i] = in_[i] - in_[i - 1];
            }
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// !, != and == single-point atoms and a strided guarded store; k
		// lands anywhere, including outside the iteration space.
		name: "guard-not-points",
		src: `
int n, k, m;
int in_[n], out_[2 * n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (!(i < k)) {
                out_[2 * i] = in_[i] + 1;
            } else {
                out_[2 * i + 1] = in_[i] - 1;
            }
            if (i != m && !(i == k + 1)) {
                out_[2 * i] += 3;
            }
        }
    }
}
`,
		scalars: guardScalars,
	},
	{
		// Negative and non-unit coefficients: n - 1 - i > 0, 2 * i < n,
		// k - 3 * i <= m.
		name: "guard-negcoef",
		src: `
int n, k, m;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (n - 1 - i > 0) {
                out_[i] = in_[i + 1];
            } else {
                out_[i] = in_[i];
            }
            if (2 * i < n || k - 3 * i <= m) {
                out_[i] = out_[i] * 2;
            }
        }
    }
}
`,
		scalars: guardScalars,
	},
	{
		// Cuts exactly on a GPU boundary (n / 2) and on a worker boundary
		// inside a GPU's chunk (n / 4 + n / 16; n is a multiple of 64).
		name: "guard-on-boundaries",
		src: `
int n, k, m;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i < k) {
                out_[i] = in_[i] * 2;
            } else {
                out_[i] = in_[i] * 3;
            }
            if (i >= m) {
                out_[i] += 1;
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			n := float64(64 * (1 + rng.Intn(16)))
			return map[string]float64{"n": n, "k": n / 2, "m": n/4 + n/16}
		},
	},
	{
		// An always-false arm (no piece runs it: its a[i - n] would be out
		// of range), a loop-invariant guard, and one mixing both kinds.
		name: "guard-dead-invariant",
		src: `
int n, k, m;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i < 0 || i >= n) {
                out_[i] = in_[i - n];
            } else {
                out_[i] = in_[i];
            }
            if (m > 3) {
                out_[i] += m;
            }
            if (m < 5 && i >= k) {
                out_[i] -= 1;
            }
        }
    }
}
`,
		scalars: guardScalars,
	},
	{
		// Nested affine ifs (three paths) after an unguarded statement.
		name: "guard-nested",
		src: `
int n, k, m;
int in_[n], out_[n];
void main() {
    int i;
    int v;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            v = in_[i] * 2;
            if (i > 0) {
                if (i < k) {
                    out_[i] = v + in_[i - 1];
                } else {
                    out_[i] = v - in_[i - 1];
                }
            } else {
                out_[i] = v;
            }
        }
    }
}
`,
		scalars: guardScalars,
	},
	{
		// A scalar + reduction fed from both arms of a guard: the pieces
		// fold in iteration order per worker, like the unsplit schedule.
		name: "guard-reduce",
		src: `
int n, k, m;
int total;
int in_[n];
void main() {
    int i;
    total = 0;
    #pragma acc data copyin(in_)
    {
        #pragma acc parallel loop reduction(+:total)
        for (i = 0; i < n; i++) {
            if (i >= k && i < n - 2) {
                total += in_[i] * in_[i + 2];
            } else {
                total += 1;
            }
        }
    }
}
`,
		scalars: guardScalars,
	},
	{
		// A guard over a layout-transformed (column-major) read-only
		// array: the pieces run their variants' tiles.
		name: "guard-transformed",
		src: `
int n;
float mat_[2 * n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(mat_) copy(out_)
    {
        #pragma acc localaccess(mat_) stride(2)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i > 0 && i < n - 1) {
                out_[i] = mat_[2 * i] + mat_[2 * i + 1];
            } else {
                out_[i] = mat_[2 * i];
            }
        }
    }
}
`,
		scalars: nScalar,
	},
	// Lockstep tiles: bodies with inner loops, data-dependent arms and
	// gathers run a tile of consecutive iterations at once. Each
	// template below must engage the tiled body on every machine
	// (stores stay unconditional, so no launch needs one-by-one dirty
	// marking) and match the interpreter bit for bit.
	{
		// Uniform inner loop with a private float accumulator and an int
		// one (kept bounded: the interval prover gives up on a loop whose
		// int scalar grows without limit), the bound a launch scalar.
		name: "lock-innerloop-acc",
		src: `
int n, k;
float in_[n + 8], out_[n];
int cnt_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copyout(out_, cnt_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int j, c;
            float acc;
            acc = 0.0;
            c = 0;
            for (j = 0; j <= k; j++) {
                acc += in_[i + j] * 0.5;
                c = (c + j) % 5;
            }
            out_[i] = acc;
            cnt_[i] = c;
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(rng.Intn(8))
			return m
		},
	},
	{
		// Nested arms writing private scalars (then/else, an arm inside an
		// arm), read after the branches by an unconditional store.
		name: "lock-nested-arms",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v, w;
            v = in_[i];
            w = 1;
            if (v > 0) {
                w = v * 2;
                if (v % 2 == 0) {
                    w = w + 7;
                } else {
                    w = w - v / 3;
                }
            } else {
                w = 0 - v;
            }
            out_[i] = w + out_[i];
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Sentinel-guarded gather: negative entries of nbr_ must never
		// index a_ (the MD neighbor-list shape), in an inner loop.
		name: "lock-sentinel-gather",
		src: `
int n;
int nbr_[2 * n];
float a_[4004], out_[n];
void main() {
    int i;
    #pragma acc data copyin(nbr_, a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, j;
            float s;
            s = 0.0;
            for (e = 0; e < 2; e++) {
                j = nbr_[2 * i + e];
                if (j >= 0) {
                    s += a_[4 * j] - a_[4 * j + 3];
                }
            }
            out_[i] = s;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// Integer division under an arm: the lanes where the divisor is
		// zero are inactive and must not divide.
		name: "lock-masked-div",
		src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int d, q;
            d = in_[i] % 5;
            q = 0 - 1;
            if (d != 0) {
                q = 1000 / d + in_[i] % d;
            }
            out_[i] = q;
        }
    }
}
`,
		scalars: nScalar,
	},
	{
		// A scalar reduction and a reductiontoarray update, each under an
		// arm: the active lanes fold in ascending order.
		name: "lock-reduce-arm",
		src: `
int n, k;
float total;
int in_[n], hist_[k];
void main() {
    int i;
    total = 0.0;
    #pragma acc data copyin(in_) copy(hist_)
    {
        #pragma acc parallel loop reduction(+:total)
        for (i = 0; i < n; i++) {
            int v;
            v = in_[i];
            if (v > 0) {
                total += 0.1 * v;
            }
            if (v % 3 != 0) {
                #pragma acc reductiontoarray(+: hist_[(v % k + k) % k])
                hist_[(v % k + k) % k] += v;
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(3 + rng.Intn(13))
			return m
		},
	},
	{
		// A read-only array with a row per iteration, stored column-major
		// on the device (stride(s) with a launch scalar): the inner loop
		// walks it with unit physical stride; a reductiontoarray loop stays
		// in lockstep, injective in its variable (the KMEANS shape).
		name: "lock-stride-transformed",
		src: `
int n, s;
float feat_[n * s], out_[n], sum_[s];
void main() {
    int i;
    #pragma acc data copyin(feat_) copyout(out_) copy(sum_)
    {
        #pragma acc localaccess(feat_) stride(s)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int f;
            float d;
            d = 0.0;
            for (f = 0; f < s; f++) {
                d += feat_[i * s + f] * feat_[i * s + f];
            }
            out_[i] = d + feat_[i * s];
            for (f = 0; f < s; f++) {
                #pragma acc reductiontoarray(+: sum_[f])
                sum_[f] += feat_[i * s + f];
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["s"] = float64(1 + rng.Intn(6))
			return m
		},
	},
}

// Worker chunks of 1, VecTile-1 and VecTile+1 iterations on the
// desktop's 2 GPUs x 4 workers (the tile edges), under arms and a
// gather: one lockstep template per chunk size.
func init() {
	const src = `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            v = in_[idx_[i]];
            if (v < 0) {
                v = 0 - v;
            }
            out_[i] = v + i;
        }
    }
}
`
	for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
		n := float64(8 * chunk)
		specTemplates = append(specTemplates, specTemplate{
			name:    fmt.Sprintf("lock-chunk-%d", chunk),
			src:     src,
			scalars: func(*rand.Rand) map[string]float64 { return map[string]float64{"n": n} },
		})
	}
	specTemplates = append(specTemplates, tailTemplates()...)
	specTemplates = append(specTemplates, safetyTemplates()...)
	specTemplates = append(specTemplates, loopTemplates()...)
	// Every compound operator of a private int scalar, over the whole tile
	// and under arms: the divisor is zero in the lanes that skip the arm.
	specTemplates = append(specTemplates, specTemplate{
		name: "lock-int-opassign",
		src: `
int n;
int in_[n], den_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, den_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v, d;
            v = in_[i];
            d = den_[i] % 5;
            v += i;
            v *= 3;
            v -= d;
            v <<= 2;
            v %= 100003;
            v >>= 1;
            v /= 3;
            if (d != 0) {
                v /= d;
                v %= d * 7;
                v += 11;
                v <<= 3;
                v >>= 1;
            } else {
                v = 5 - v;
                v *= in_[i];
                v -= i;
            }
            out_[i] = v;
        }
    }
}
`,
		scalars: nScalar,
	})
	specTemplates = append(specTemplates, flatRowTemplates()...)
	specTemplates = append(specTemplates, siteTemplates()...)
	specTemplates = append(specTemplates, typeTemplates()...)
	specTemplates = append(specTemplates, rewriteTemplates()...)
	specTemplates = append(specTemplates, walkTemplates()...)
	specTemplates = append(specTemplates, sinkTemplates()...)
	specTemplates = append(specTemplates, appTemplates()...)
	specTemplates = append(specTemplates, quietTemplates()...)
	specTemplates = append(specTemplates, relayTemplates()...)
}

// walkTemplates hold the fifth rewrite (ir specvec.go) to the interpreter:
// products and copies that read a read-only walk straight from the array.
// Products over an array the kernel also writes (which must not fuse) and
// a product of a product; a layout-transformed source, whose walk is unit
// stride on the device; stride-2 walks and a stride-2 store, which keep
// the vector path; double and int sources, alone and mixed in one pass;
// k*x - k*y and every other form of both signs, with factors whose
// products round; float, double and int loads stored into int, float and
// double arrays; quiet and signalling NaNs of either sign (the nan arrays)
// through copies and products; and a stencil with a copy at worker chunks
// of 1, VecTile-1 and VecTile+1 iterations. Each asserts that its tiles
// engaged.
func walkTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	withA := func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["a"] = 0.1 + rng.Float64()
		return m
	}
	out := []specTemplate{
		{name: "walk-written", scalars: withA, check: tiled, src: `
int n;
double a;
float x_[n], y_[n], z_[n], w_[n];
void main() {
    int i;
    #pragma acc data copyin(x_) copy(y_, z_, w_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            y_[i] = 0.3 * y_[i] + a * x_[i];
            z_[i] = y_[i] - 0.7 * y_[i] + 0.3 * x_[i] * 0.7;
            w_[i] = y_[i];
        }
    }
}
`},
		{name: "walk-transformed", scalars: withA, check: tiled, src: `
int n;
double a;
float m_[3 * n], out_[n], c_[n];
void main() {
    int i;
    #pragma acc data copyin(m_) copyout(out_, c_)
    {
        #pragma acc localaccess(m_) stride(3)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc localaccess(c_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = 0.3 * m_[3 * i] + a * m_[3 * i + 2] - 0.7 * m_[3 * i + 1];
            c_[i] = m_[3 * i + 1];
        }
    }
}
`},
		{name: "walk-stride2", scalars: withA, check: tiled, src: `
int n;
double a;
float s_[2 * n + 2], out_[n], c_[n];
double d_[2 * n];
void main() {
    int i;
    #pragma acc data copyin(s_) copyout(out_, c_) copy(d_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = a * s_[2 * i] + 0.3 * s_[2 * i + 1] - 0.7 * s_[i + 2];
            c_[i] = s_[2 * i + 2];
            d_[2 * i] = s_[i];
        }
    }
}
`},
		{name: "walk-types", scalars: withA, check: tiled, src: `
int n;
double a;
double d_[n], o1_[n], o4_[n];
int k_[n], o3_[n];
float f_[n], o2_[n], o5_[n];
void main() {
    int i;
    #pragma acc data copyin(d_, k_, f_) copyout(o1_, o2_, o3_, o4_, o5_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            o1_[i] = 0.3 * d_[i] + a * k_[i];
            o2_[i] = a * k_[i] - 0.7 * f_[i];
            o3_[i] = k_[i];
            o4_[i] = d_[i] + 0.7 * f_[i];
            o5_[i] = k_[i] * 0.3 - d_[i];
        }
    }
}
`},
		{name: "walk-sub", scalars: withA, check: tiled, src: `
int n;
double a;
float x_[n], y_[n], o1_[n], o2_[n], o3_[n], o4_[n], o5_[n], o6_[n];
void main() {
    int i;
    #pragma acc data copyin(x_, y_) copyout(o1_, o2_, o3_, o4_, o5_, o6_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            o1_[i] = a * x_[i] - 0.3 * y_[i];
            o2_[i] = 1.5 - a * x_[i];
            o3_[i] = 0.7 * x_[i] - 2.5;
            o4_[i] = x_[i] - a * y_[i];
            o5_[i] = a * x_[i] - y_[i];
            o6_[i] = 1.5 + x_[i] * a + 0.3 * y_[i] + 2.5 + y_[i];
        }
    }
}
`},
		{name: "walk-convert", scalars: nScalar, check: tiled, src: `
int n;
float f_[n], g_[n], h_[n];
double d_[n], fd_[n], kd_[n];
int k_[n], fk_[n];
void main() {
    int i;
    #pragma acc data copyin(f_, d_, k_) copyout(g_, h_, fd_, kd_, fk_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            fk_[i] = f_[i];
            fd_[i] = f_[i];
            g_[i] = d_[i];
            h_[i] = k_[i];
            kd_[i] = k_[i];
        }
    }
}
`},
		{name: "walk-nan", scalars: nScalar, check: tiled, src: `
int n;
float nan_[n], f_[n], c_[n], p_[n];
double nand_[n], cd_[n], pd_[n], w_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_, nand_, f_) copyout(c_, p_, cd_, pd_, w_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = nan_[i];
            p_[i] = 0.3 * nan_[i] + 0.7 * f_[i];
            cd_[i] = nand_[i];
            pd_[i] = nand_[i] * 0.3 - 0.7 * nan_[i];
            w_[i] = nan_[i];
        }
    }
}
`},
	}
	const chunked = `
int n;
double a;
float a_[n + 2], b_[n], c_[n];
void main() {
    int i;
    #pragma acc data copyin(a_) copyout(b_, c_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            b_[i] = 0.3 * a_[i] + a * a_[i + 1] - 0.7 * a_[i + 2];
            c_[i] = a_[i + 1];
        }
    }
}
`
	for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
		n := float64(8 * chunk)
		out = append(out, specTemplate{
			name:  fmt.Sprintf("walk-chunk-%d", chunk),
			src:   chunked,
			check: tiled,
			scalars: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"n": n, "a": 0.1 + rng.Float64()}
			},
		})
	}
	return out
}

// sinkTemplates hold the sixth rewrite (ir specvec.go) to the interpreter:
// a dense store whose value ends in a product added or subtracted, written
// by that pass into the array, and copies between arrays of one element
// type. Every form of both signs stored into float and double arrays, and
// into an int one, which keeps the vector path; stride-2 destinations,
// which keep it too; in-place updates; float, double and int copies with
// quiet and signalling NaNs of either sign (the nan arrays), and NaNs
// through a float store of a sum and a double store of a difference (a
// sum of two NaNs is left out: which payload it keeps is the compiler's
// choice of operand order, which the race build makes differently for
// the interpreter and the tiles, at the parent too); and a
// replicated ping-pong of such stores at worker chunks of 1, VecTile-1 and
// VecTile+1 iterations, whose unit-step stores mark their replicas' dirty
// elements as spans. Each asserts that its tiles engaged.
func sinkTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	withA := func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["a"] = 0.1 + rng.Float64()
		return m
	}
	out := []specTemplate{
		{name: "sink-types", scalars: withA, check: tiled, src: `
int n;
double a;
float x_[n], y_[n], f_[n];
double g_[n], d_[n];
int k_[n], j_[n];
void main() {
    int i;
    #pragma acc data copyin(x_, y_, g_, j_) copyout(f_, d_, k_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            f_[i] = a * x_[i] + 0.3 * g_[i];
            d_[i] = 0.7 * x_[i] - a * j_[i];
            k_[i] = 1000.0 * x_[i] + 0.5 * y_[i] * 100.0;
        }
    }
}
`},
		{name: "sink-forms", scalars: withA, check: tiled, src: `
int n;
double a;
float x_[n], y_[n], o1_[n], o2_[n], o3_[n], o4_[n], o5_[n], o6_[n];
double d1_[n], d2_[n], d3_[n], d4_[n], d5_[n], d6_[n];
void main() {
    int i;
    #pragma acc data copyin(x_, y_) copyout(o1_, o2_, o3_, o4_, o5_, o6_, d1_, d2_, d3_, d4_, d5_, d6_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            o1_[i] = a * x_[i] + 2.5;
            o2_[i] = 1.5 - a * x_[i];
            o3_[i] = x_[i] + a * y_[i];
            o4_[i] = a * x_[i] - y_[i];
            o5_[i] = (x_[i] + y_[i]) * a - 0.3 * x_[i];
            o6_[i] = a * x_[i] + 0.3 * y_[i] - 0.7 * x_[i];
            d1_[i] = 2.5 - x_[i] * a;
            d2_[i] = 1.5 + a * x_[i];
            d3_[i] = x_[i] - a * y_[i];
            d4_[i] = a * x_[i] + y_[i];
            d5_[i] = 0.3 * x_[i] * a - (x_[i] - y_[i]) * 0.7;
            d6_[i] = 0.1 + a * x_[i] - 0.3 * y_[i];
        }
    }
}
`},
		{name: "sink-stride2", scalars: withA, check: tiled, src: `
int n;
double a;
float s_[2 * n + 2], out_[2 * n];
double d_[2 * n], e_[n], f_[2 * n];
int k_[n], j_[2 * n];
void main() {
    int i;
    #pragma acc data copyin(s_, e_, k_) copy(out_, d_, f_, j_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[2 * i] = a * s_[i] + 0.3 * s_[i + 1];
            d_[2 * i + 1] = 0.7 * s_[2 * i] - a * s_[i];
            f_[2 * i] = e_[i];
            j_[2 * i + 1] = k_[i];
        }
    }
}
`},
		{name: "sink-inplace", scalars: withA, check: tiled, src: `
int n;
double a;
float a_[n], b_[n];
double c_[n], e_[n];
void main() {
    int i;
    #pragma acc data copyin(b_, e_) copy(a_, c_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a_[i] = 0.5 * a_[i] + 0.25 * b_[i];
            c_[i] = a * c_[i] - 0.25 * e_[i] * 3.0;
        }
    }
}
`},
		{name: "sink-nan", scalars: nScalar, check: tiled, src: `
int n;
float nan_[n], f_[n], c_[n], p_[n];
double nand_[n], cd_[n], pd_[n];
int k_[n], ck_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_, nand_, f_, k_) copyout(c_, p_, cd_, pd_, ck_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = nan_[i];
            cd_[i] = nand_[i];
            ck_[i] = k_[i];
            p_[i] = 0.5 * nan_[i] + 0.25 * f_[i];
            pd_[i] = nand_[i] - 0.5 * nan_[i];
        }
    }
}
`},
	}
	const chunked = `
int n;
double a;
float a_[n + 2], b_[n];
double d_[n], e_[n];
int k_[n], j_[n];
void main() {
    int t, i;
    #pragma acc data copy(a_, d_, k_) create(b_, e_, j_)
    {
        for (t = 0; t < 3; t++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                b_[i] = 0.3 * a_[i] + a * a_[i + 1] - 0.7 * a_[i + 2];
                e_[i] = d_[i];
                j_[i] = k_[i];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a_[i + 1] = b_[i];
                d_[i] = 0.5 * e_[i] + 0.25 * b_[i];
                k_[i] = j_[i] + 1;
            }
        }
    }
}
`
	for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
		n := float64(8 * chunk)
		out = append(out, specTemplate{
			name:  fmt.Sprintf("sink-chunk-%d", chunk),
			src:   chunked,
			check: tiled,
			scalars: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"n": n, "a": 0.1 + rng.Float64()}
			},
		})
	}
	return out
}

// appTemplates hold rewrites 7 and 10 (ir specvec.go) to the interpreter,
// and the shapes of 8 and 9, measured and deleted (DESIGN §11), to the
// general path.
// agree-*: comparisons of a walk with a uniform k whose lanes all agree
// (k = -1, 2000), where only lane 0 differs (==, k = 0), or whose answer
// flips at lane 1 or 511 of a tile, both ways round; NaN operands beside
// them. csr-*: a CSR loop on flat tiles whose loads by the loop's variable
// are one run across lanes: rows of adjacent active lanes (contig), rows a
// skipped lane leaves a gap between (gap), and empty rows (empty), at
// worker chunks of 1, VecTile-1 and VecTile+1 iterations. gsub-*: a
// private's "=" of a vector minus a gather (MD's dx), NaN data on both
// sides, under MD's sentinel guard. pair-*: KMEANS's distance pair, its x read again
// after the accumulate, in an inner loop and at top level. Each asserts
// that its tiles engaged.
func appTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	const lanes = `
int n, k;
int c_[n], a_[n], b_[n], e_[n];
float x_[n], nan_[n], y_[n];
void main() {
    int i, j;
    for (j = 0; j < n; j++) {
        c_[j] = j % 1024;
    }
    #pragma acc data copyin(c_, x_, nan_) copyout(a_, b_, e_, y_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (c_[i] < k) {
                a_[i] = 1;
            } else {
                a_[i] = 2;
            }
            if (c_[i] >= k) {
                b_[i] = c_[i];
            }
            e_[i] = 0;
            if (k == c_[i]) {
                e_[i] = 3;
            }
            y_[i] = x_[i];
            if (nan_[i] < x_[i]) {
                y_[i] = nan_[i];
            }
        }
    }
}
`
	var out []specTemplate
	for _, k := range []int{-1, 0, 1, 511, 2000} {
		out = append(out, specTemplate{name: fmt.Sprintf("agree-k-%d", k), src: lanes, check: tiled,
			scalars: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"n": float64(1100 + rng.Intn(900)), "k": float64(k)}
			}})
	}
	const csr = `
int n, m;
int deg_[n], off_[n + 1], edges_[3 * n], g_[n];
float w_[3 * n], x_[n], s_[n];
void main() {
    int i, j;
    off_[0] = 0;
    for (j = 0; j < n; j++) {
        off_[j + 1] = off_[j] + (j % 3 + 1) * (1 - (m == 2) * (j % 4 == 0));
        g_[j] = 1 - (m == 1) * (j % 7 == 3);
    }
    for (j = 0; j < 3 * n; j++) {
        edges_[j] = (edges_[j] % n + n) % n;
    }
    #pragma acc data copyin(off_, edges_, g_, w_, x_) copyout(s_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            acc = 0.0;
            if (g_[i] != 0) {
                for (e = off_[i]; e < off_[i + 1]; e++) {
                    acc += w_[e] * x_[edges_[e]];
                }
            }
            s_[i] = acc;
        }
    }
}
`
	for m, rows := range []string{"contig", "gap", "empty"} {
		for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
			n := float64(8 * chunk)
			out = append(out, specTemplate{name: fmt.Sprintf("csr-%s-%d", rows, chunk), src: csr, check: tiled,
				scalars: func(*rand.Rand) map[string]float64 { return map[string]float64{"n": n, "m": float64(m)} }})
		}
	}
	out = append(out, specTemplate{name: "gsub-nan", scalars: nScalar, check: tiled, src: `
int n;
int nb_[n];
float nanp_[4 * n], nanx_[n], d_[4 * n];
void main() {
    int i, j;
    for (j = 0; j < n; j++) {
        nb_[j] = (j * 7 + 3) % (n + 1) - 1;
    }
    #pragma acc data copyin(nb_, nanp_, nanx_) copyout(d_)
    {
        #pragma acc localaccess(d_) stride(4)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int jn;
            float p, dx, dy, dz;
            p = nanx_[i];
            jn = nb_[i];
            d_[4 * i] = 0.0;
            d_[4 * i + 1] = 0.0;
            d_[4 * i + 2] = 0.0;
            d_[4 * i + 3] = 0.0;
            if (jn >= 0) {
                dx = p - nanp_[4 * jn];
                dy = p - nanp_[4 * jn + 1];
                dz = nanp_[4 * jn + 2] - p;
                d_[4 * i] = dx;
                d_[4 * i + 1] = dy;
                d_[4 * i + 2] = dz;
                d_[4 * i + 3] = dx * 2.0;
            }
        }
    }
}
`}, specTemplate{name: "pair-reread", scalars: func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["k"], m["nf"] = float64(1+rng.Intn(5)), float64(1+rng.Intn(40))
		return m
	}, check: tiled, src: `
int n, k, nf;
float feat_[n * nf], cl_[k * nf], nanf_[n], best_[n], sum_[n], q_[n], r_[n];
void main() {
    int i;
    #pragma acc data copyin(feat_, cl_, nanf_) copyout(best_, sum_, q_, r_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f;
            float d, diff, bestd, s, q, r;
            bestd = 1.0e30;
            s = 0.0;
            for (c = 0; c < k; c++) {
                d = 0.0;
                for (f = 0; f < nf; f++) {
                    diff = feat_[i * nf + f] - cl_[c * nf + f];
                    d += diff * diff;
                    s += diff;
                }
                if (d < bestd) {
                    bestd = d;
                }
            }
            best_[i] = bestd;
            sum_[i] = s;
            r = 0.5;
            q = nanf_[i] - cl_[0];
            r += q * q;
            q_[i] = q;
            r_[i] = r;
        }
    }
}
`})
	return out
}

// rewriteTemplates hold the tile builder's four rewrites (ir specvec.go)
// to the interpreter. hoist-*: held loads — KMEANS's shape, feature rows
// longer than a group keeps (nf up to 80); an inner header that reads the
// outer loop's variable, so a trip starts where the group has a gap
// (m = 3, w < 3); siblings with other headers and other offsets, an index
// reading two loop variables; a zero-trip outer loop before a sibling; the
// same load under an arm and a whole inner loop under one. split-*: ifs
// that split as they compare — NaN operands, uniform left operands
// (mirrored), conditions that are no comparison, `!`, comparisons combined
// with `&` and `|`, a uniform condition, and an affine guard with `&&`
// beside them; a double array loaded into a float private, which must
// still round, and into a double one, which loads straight in. Each
// asserts that its tiles engaged.
func rewriteTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	rows := func(lo, hi int) func(rng *rand.Rand) map[string]float64 {
		return func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["w"] = float64(lo + rng.Intn(hi-lo+1))
			m["m"] = float64(rng.Intn(4))
			m["z"] = float64(rng.Intn(3))
			return m
		}
	}
	return []specTemplate{
		{name: "hoist-kmeans", check: tiled, scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(1 + rng.Intn(6))
			m["nf"] = float64(1 + rng.Intn(80))
			return m
		}, src: `
int n, k, nf;
float feat_[n * nf], cl_[k * nf], newc_[k * nf];
int member_[n], cnt_[2 * k + 2];
void main() {
    int i;
    #pragma acc data copyin(feat_, cl_) copy(newc_, member_, cnt_)
    {
        #pragma acc localaccess(feat_) stride(nf)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f, best;
            float bestd;
            bestd = 1.0e30;
            best = 0;
            for (c = 0; c < k; c++) {
                float d, diff;
                d = 0.0;
                for (f = 0; f < nf; f++) {
                    diff = feat_[i * nf + f] - cl_[c * nf + f];
                    d += diff * diff;
                }
                if (d < bestd) {
                    bestd = d;
                    best = c;
                }
            }
            member_[i] = best;
            for (f = 0; f < nf; f++) {
                #pragma acc reductiontoarray(+: newc_[best * nf + f])
                newc_[best * nf + f] += feat_[i * nf + f];
            }
            #pragma acc reductiontoarray(+: cnt_[best * 2 + 1])
            cnt_[best * 2 + 1] += 1;
        }
    }
}
`},
		{name: "hoist-header", scalars: rows(1, 70), check: tiled, src: `
int n, w, m, z;
float a_[n * w + 8], out_[n];
void main() {
    int i;
    #pragma acc data copyin(a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f;
            float s;
            s = 0.0;
            for (c = 0; c < 3; c++) {
                for (f = m * c; f < m * c + w; f++) {
                    s += a_[i * w + f] * (c + 1);
                }
                for (f = 0; f < c + 2; f++) {
                    s -= a_[i * w + f + c] * 0.5;
                }
            }
            for (f = 1; f < w; f++) {
                s += a_[i * w + f + 1] * 0.25;
            }
            for (f = 0; f < 2 * m + w; f++) {
                s += a_[i * w + f] * 0.125;
            }
            out_[i] = s;
        }
    }
}
`},
		{name: "hoist-zero-trip", scalars: rows(1, 40), check: tiled, src: `
int n, w, m, z;
float a_[n * w], out_[n];
void main() {
    int i;
    #pragma acc data copyin(a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f;
            float s;
            s = 0.0;
            for (c = 0; c < z; c++) {
                for (f = 0; f < w; f++) {
                    s += a_[i * w + f] * (c + 2);
                }
            }
            for (f = 0; f < w; f++) {
                s += a_[i * w + f];
            }
            out_[i] = s;
        }
    }
}
`},
		{name: "hoist-arm", scalars: rows(1, 40), check: tiled, src: `
int n, w, m, z;
int g_[n];
float a_[n * w], out_[n];
void main() {
    int i;
    #pragma acc data copyin(g_, a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int c, f;
            float s;
            s = 0.0;
            for (c = 0; c < 3; c++) {
                for (f = 0; f < w; f++) {
                    if (g_[i] > c * 300) {
                        s += a_[i * w + f];
                    }
                    s += a_[i * w + f] * 0.5;
                }
                if (g_[i] < 0) {
                    for (f = 0; f < w; f++) {
                        s -= a_[i * w + f] * 0.25;
                    }
                }
            }
            out_[i] = s;
        }
    }
}
`},
		{name: "split-nan", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], c_[1], out_[n];
float f_[n], w_[1];
void main() {
    int i;
    #pragma acc data copyin(in_, c_, f_, w_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            float z;
            z = f_[i] + (f_[i] - f_[i]) / (in_[i] % 2);
            v = (z < 0.5) + 2 * (z != z) + 4 * !z + 8 * (w_[0] > z) + 16 * (z >= f_[i]);
            if (z < 0.5) { v += 32; }
            if (z >= f_[i]) { v += 64; } else { v += 128; }
            if (z == z) { v += 256; }
            if (z != z) { v += 512; }
            if (z) { v += 1024; }
            if (!(z <= w_[0])) { v += 2048; }
            if (w_[0] < z) { v += 4096; }
            if (0.25 >= z) { v += 8192; }
            if (c_[0] % 7 > in_[i] % 7) { v += 16384; }
            if (3 != in_[i] % 4) { v -= 1; }
            if (w_[0] > 0.0) { v += 32768; }
            out_[i] = v;
        }
    }
}
`},
		{name: "split-logic", scalars: nScalar, check: func(st rt.SpecStats) error {
			if st.TiledIters == 0 || st.SplitPieces == 0 || st.Fallbacks != 0 {
				return fmt.Errorf("want tiles and a split")
			}
			return nil
		}, src: `
int n;
int in_[n], out_[n], g_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copyout(out_, g_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            v = in_[i];
            if (!(v > 100)) {
                if ((v < -300) & !(v % 3 == 0)) {
                    v = v * 2;
                } else {
                    v = v + 7;
                }
            }
            if (!v) { v = 1; }
            if (!(v & 1) | (v < 0)) { v -= 3; }
            out_[i] = v;
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i > 3 && !(i >= n - 5)) {
                g_[i] = in_[i] + 1;
            } else {
                g_[i] = 0;
            }
        }
    }
}
`},
		{name: "split-double-float", scalars: nScalar, check: tiled, src: `
int n;
int idx_[n];
double d_[n], h_[n], e_[n];
float f_[n];
void main() {
    int i;
    #pragma acc data copyin(idx_, d_, f_) copyout(h_, e_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            float p, q;
            double r;
            p = d_[i];
            q = d_[idx_[i]];
            r = f_[i];
            if (d_[i] > 0.0) {
                p = d_[idx_[i]];
                r = d_[i];
            }
            h_[i] = p * 3.0 + q;
            e_[i] = r * 3.0 + p;
        }
    }
}
`},
	}
}

// typeTemplates hold every operation the tile builder writes once for
// both lane types to the interpreter with int and with float operands,
// side by side: compound assignments of private scalars (/= and the int
// operators under an arm), !, unary - and ~, (float) and other casts of
// uniform and lane values, comparisons whose left operand is uniform (the
// mirrored path), min, max and abs, compound stores into int, float and
// double arrays over the whole tile and under arms, and folds into an int
// and a float scalar inside one flat loop (the int the loop body keeps
// growing must not cost the interval prover its bound on the loop
// variable, nor the float fold's loads their proof). Each asserts that
// its tiles engaged.
func typeTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	return []specTemplate{
		{name: "types-private-ops", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], den_[n], out_[n];
float f_[n], g_[n];
double d_[n], h_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, den_, f_, d_) copyout(out_, g_, h_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int a, k;
            float b;
            double c;
            a = in_[i] + 2000;
            k = (den_[i] % 4 + 4) % 4;
            b = f_[i];
            c = d_[i];
            a %= 97;
            a <<= 3;
            a >>= 1;
            b += 0.5;
            b -= f_[i] * 0.25;
            b *= 1.5;
            c += d_[i] * 3.0;
            c -= 0.125;
            c *= c;
            b = f_[i] * 0.5 + b;
            b = 1.5 - b;
            c = c + 0.25;
            if (k != 0) {
                a /= k;
                a %= k + 5;
                a <<= k;
                a >>= k - 1;
                b /= f_[i] + 2.0;
                b = b * 0.5;
                b = b + 0.5;
                c /= k;
            } else {
                b /= 3.0;
                c /= d_[i] - 2.0;
            }
            out_[i] = a;
            g_[i] = b;
            h_[i] = c + (0.5 * d_[i] - 0.25 * d_[i]) + (0.5 - 0.25 * d_[i]) + (0.5 * d_[i] - c);
        }
    }
}
`},
		{name: "types-unary", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], c_[1], out_[n];
float f_[n], w_[1], g_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, c_, f_, w_) copyout(out_, g_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = -in_[i] + 3 * !in_[i] + 5 * !(in_[i] % 3) + ~in_[i] + 7 * !f_[i] + 11 * !(f_[i] - f_[i]) + (3 << (in_[i] & 7))
                + (-c_[0] + !c_[0] + ~c_[0] + !w_[0] + !(w_[0] - w_[0])) * 13;
            g_[i] = -f_[i] + !in_[i] - w_[0] * -f_[i] + -w_[0] + !(f_[i] * 0.0) - (-(in_[i] * 2)) + ~c_[0];
        }
    }
}
`},
		{name: "types-cast", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], out_[n];
float w_[1], f_[n], g_[n];
double d_[n], e_[1], h_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, w_, f_, d_, e_) copyout(out_, g_, h_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            g_[i] = (float)(e_[0] * 3.3) + (float)(d_[i] * 1.1) + (float)in_[i] + (float)(w_[0] + 0.1);
            h_[i] = (double)f_[i] * 0.3 + (double)(in_[i] / 3) + (float)(d_[i] / 7.0) + (float)e_[0];
            out_[i] = (int)(d_[i] * 100.0) + (int)(e_[0] * 10.0) + (int)f_[i] + (int)(w_[0] * 1000.0);
        }
    }
}
`},
		{name: "types-compare-mirror", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], c_[1], out_[n];
float f_[n], w_[1];
void main() {
    int i;
    #pragma acc data copyin(in_, c_, f_, w_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            v = (c_[0] < in_[i]) + 2 * (c_[0] <= in_[i]) + 4 * (c_[0] > in_[i]) + 8 * (c_[0] >= in_[i])
                + 16 * (c_[0] % 4 == in_[i] % 4) + 32 * (c_[0] % 4 != in_[i] % 4)
                + 64 * (w_[0] < f_[i]) + 128 * (w_[0] <= f_[i]) + 256 * (w_[0] > f_[i]) + 512 * (w_[0] >= f_[i])
                + 1024 * (w_[0] == f_[i]) + 2048 * (w_[0] != f_[i]) + 4096 * (c_[0] < w_[0]);
            if (c_[0] % 3 < in_[i] % 3) {
                v += 8192;
            }
            if (w_[0] >= f_[i]) {
                v -= 16384;
            }
            out_[i] = v;
        }
    }
}
`},
		{name: "types-minmax", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], c_[1], out_[n];
float f_[n], w_[1], g_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, c_, f_, w_) copyout(out_, g_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = min(in_[i], c_[0]) + max(in_[i], 3) + abs(in_[i]) + min(c_[0], 5) + max(c_[0], -5)
                + abs(c_[0]) + abs(-c_[0]) + min(max(in_[i], -100), 100);
            g_[i] = min(f_[i], w_[0]) + max(f_[i], 0.25) + abs(f_[i]) + fabs(f_[i]) + min(w_[0], 0.5)
                + max(w_[0], -0.5) + abs(w_[0]) + fabs(w_[0]) + max(in_[i], f_[i]);
        }
    }
}
`},
		{name: "types-store-compound", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], a_[n];
float f_[n], b_[n];
double d_[n], e_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, f_, d_) copy(a_, b_, e_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a_[i] += in_[i];
            b_[i] -= f_[i];
            e_[i] *= d_[i] + 1.5;
            if (in_[i] > 0) {
                a_[i] *= 3;
                a_[i] <<= 1;
                b_[i] *= 2.0;
                e_[i] /= 3.0;
            } else {
                a_[i] -= 7;
                a_[i] %= 1000;
                b_[i] /= f_[i] + 2.0;
                e_[i] += d_[i];
            }
        }
    }
}
`},
		{name: "types-flat-fold", scalars: nScalar, check: tiled, src: `
int n;
int cnt;
float tot;
int deg_[n], off_[n + 1], edges_[3 * n];
float vals_[3 * n];
void main() {
    int i, j;` + csrPrologue + `
    cnt = 0;
    tot = 0.0;
    #pragma acc data copyin(off_, edges_, vals_)
    {
        #pragma acc parallel loop reduction(+:cnt) reduction(+:tot)
        for (i = 0; i < n; i++) {
            int e;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                cnt += (3 * e + i) % 7;
                tot += vals_[e] * 0.5;
            }
        }
    }
}
`},
	}
}

// siteTemplates hold an access beside or inside a subtree the tiles
// evaluate once per step, at every place where a builder once had to
// step its own access count past such a subtree. lock-peel-*: a gather
// whose index adds or scales by a uniform operand the tile keeps out of
// the index vector, in both operand orders, and in a flat body. sites-*:
// loads in a uniform loop's header (and uniform unary operators, casts
// and builtins after it) and in a flat loop's bound, a
// condition the prover refines by a bound that loads, a nested gather
// under an else-arm, and an affine-guard split whose variants both load.
// Each asserts that its tile or split engaged.
func siteTemplates() []specTemplate {
	want := func(cond func(rt.SpecStats) bool, what string) func(rt.SpecStats) error {
		return func(st rt.SpecStats) error {
			if !cond(st) {
				return fmt.Errorf("want %s", what)
			}
			return nil
		}
	}
	tiled := want(func(st rt.SpecStats) bool { return st.TiledIters > 0 && st.Fallbacks == 0 }, "tiles")
	split := want(func(st rt.SpecStats) bool { return st.SplitPieces > 0 && st.Fallbacks == 0 }, "a split")
	peel := func(name, index string) specTemplate {
		return specTemplate{name: name, scalars: nScalar, check: tiled, src: strings.Replace(`
int n;
int idx_[n], c_[1];
float x_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(idx_, c_, x_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = x_[INDEX];
        }
    }
}
`, "INDEX", index, 1)}
	}
	return []specTemplate{
		peel("lock-peel-add", "idx_[i] + (c_[0] - c_[0])"),
		peel("lock-peel-mul", "idx_[i] * (c_[0] - c_[0] + 1)"),
		peel("lock-peel-add-mirrored", "(c_[0] - c_[0]) + idx_[i]"),
		peel("lock-peel-mul-mirrored", "(c_[0] - c_[0] + 1) * idx_[i]"),
		{name: "lock-peel-flat", scalars: nScalar, check: tiled, src: `
int n;
int deg_[n], off_[n + 1], edges_[3 * n], z_[1];
float vals_[3 * n], x_[n], y_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_, vals_, x_, z_) copyout(y_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            acc = 0.0;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                acc += vals_[e] * x_[edges_[e] + (z_[0] - z_[0])];
            }
            y_[i] = acc;
        }
    }
}
`},
		{name: "sites-loop-header", scalars: nScalar, check: tiled, src: `
int n;
int lo_[1], hi_[1];
float w_[1], a_[4 * n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(lo_, hi_, w_, a_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int j;
            float s;
            s = 0.0;
            for (j = min(abs(lo_[0]), 0); j < min(abs(hi_[0]), 3) + 1; j++) {
                s += a_[4 * i + j];
            }
            out_[i] = s + a_[4 * i] + (-(~lo_[0]) + !hi_[0] + max(lo_[0], 1)) * 0.001
                + sqrt(fabs(-w_[0])) - pow(fabs(w_[0]), 2.0) / (1.0 + fabs(w_[0] + w_[0]) - w_[0] * w_[0])
                + (float)(w_[0] * 3.0) + (int)(w_[0] * 10.0) + !w_[0];
        }
    }
}
`},
		{name: "sites-flat-bound", scalars: nScalar, check: tiled, src: `
int n;
int deg_[n], off_[n + 1], edges_[3 * n], pad_[1];
float vals_[3 * n], y_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_, vals_, pad_) copyout(y_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            acc = 0.0;
            for (e = off_[i]; e < off_[i + 1] + (pad_[0] - pad_[0]); e++) {
                acc += vals_[e];
            }
            y_[i] = acc;
        }
    }
}
`},
		{name: "sites-refine", scalars: nScalar, check: tiled, src: `
int n;
int cap_[1], in_[n], out_[4 * n];
void main() {
    int i;
    #pragma acc data copyin(cap_, in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int k;
            for (k = 0; k < 4; k++) {
                if (k < cap_[0] % 5) {
                    out_[4 * i + k] = in_[i] + k;
                }
            }
        }
    }
}
`},
		{name: "sites-else-gather", scalars: nScalar, check: tiled, src: `
int n;
int in_[n], idx_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (in_[i] > 0) {
                out_[i] = in_[i];
            } else {
                out_[i] = in_[idx_[idx_[i]]] + idx_[i];
            }
        }
    }
}
`},
		{name: "sites-guard", scalars: guardScalars, check: split, src: `
int n, k, m;
float a_[n], b_[n + 1], out_[n];
void main() {
    int i;
    #pragma acc data copyin(a_, b_) copyout(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i < k) {
                out_[i] = a_[i] + b_[i + 1];
            } else {
                out_[i] = b_[i] * m;
            }
        }
    }
}
`},
	}
}

// TestLoweredSitesReadOnce lowers every kernel of the apps, of every
// template above and of every source under examples/, guard variants
// included, and holds each pass over a lowered body to the numbers the
// lowering gave (ir.VerifyLowering): the tile builders read every access
// once and the prover once more when the body has a computed access, each
// as the slot and kind it was numbered with, and one op counts each arm.
func TestLoweredSitesReadOnce(t *testing.T) {
	srcs := map[string]string{}
	for _, app := range append(apps.All(), apps.Extended()...) {
		srcs["app "+app.Name] = app.Source
	}
	for _, tpl := range specTemplates {
		srcs[tpl.name] = tpl.src
	}
	files, _ := filepath.Glob("../../examples/*/*.c")
	mains, _ := filepath.Glob("../../examples/*/main.go")
	embedded := regexp.MustCompile("(?s)const source = `(.*?)`")
	for _, f := range append(files, mains...) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := embedded.FindSubmatch(b); m != nil {
			b = m[1]
		}
		srcs[f] = string(b)
	}
	if len(files) == 0 || len(mains) == 0 {
		t.Fatalf("no example sources: %d C files, %d Go mains", len(files), len(mains))
	}
	tiled, split := 0, 0
	for name, src := range srcs {
		if strings.HasSuffix(name, "main.go") && !strings.Contains(src, "#pragma acc") {
			continue // an example that runs an app's source
		}
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		pa, err := translator.AnalyzeProgram(prog)
		if err != nil {
			continue // a vet example the translator refuses
		}
		mod, err := translator.Lower(pa)
		if err != nil || len(mod.Kernels) != len(pa.Loops) {
			t.Fatalf("%s: lower: %v (%d kernels of %d loops)", name, err, len(mod.Kernels), len(pa.Loops))
		}
		for i, k := range mod.Kernels {
			if pa.Loops[i].Collapsed {
				continue
			}
			n, _, err := ir.VerifyLowering(k, pa.Loops[i].For.Body, prog)
			if err != nil {
				t.Errorf("%s: kernel %s: %v", name, k.Name, err)
			}
			if tiled += n; k.Spec != nil && k.Spec.Guard != nil {
				split++
			}
		}
	}
	if tiled < len(specTemplates) || split == 0 {
		t.Errorf("%d lowered bodies tiled, %d kernels split: the corpus lost its tiles", tiled, split)
	}
}

// TestRewritesEngage pins where the tile builder's rewrites take, and in
// which form (ir.VerifyLowering's notes), kernel by kernel, and holds the
// census: over the six apps and the stencil and pipeline kernels the
// host-time benchmark runs, every form of fuseLanes, of mulAddLanes and of
// the type table mulAdd's walks pick from, and each of rewrites 7 and 10,
// is reached by at least one kernel. A form no kernel reaches is deleted, its
// statements left to the general path. A fuseLanes form compiled under an
// arm (indexed) also runs its dense loop where the arm keeps every lane.
//
// The pins: KMEANS's feature loads are held, the distance loop's and the
// centre update's in one group, and its distance pair is one pass (sumsq);
// a comparison splits its lanes in the pass that compares (split),
// reading a walk from the copy (split walk: BFS's cost, KMEANS's member,
// arrays the kernel writes); no kernel computes a comparison as a value.
// The replicated stencil's three products and its copy read their walks
// from the array, as do the guarded stencil's interior piece, its boundary
// piece's copy and its copy kernel, and the pipeline's product; a store
// whose value ends in mulAdd writes the pass into the array (store). The
// in-place update reads its own array, which it writes, from the vector.
// saxpy's a*x + y is a form no census kernel reaches (P + V): the general
// path. A copy of a float walk, into a float or a double array, reads the
// walk in its converting pass; one between double arrays or int arrays, a
// form no census kernel reaches, stores the vector (copies).
func TestRewritesEngage(t *testing.T) {
	source := func(app string) string {
		a, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		return a.Source
	}
	notes := func(src string) map[string]int {
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := translator.AnalyzeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := translator.Lower(pa)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for i, k := range mod.Kernels {
			_, notes, err := ir.VerifyLowering(k, pa.Loops[i].For.Body, prog)
			if err != nil {
				t.Fatal(err)
			}
			for what, n := range notes {
				got[what] += n
			}
		}
		return got
	}
	census := map[string]int{}
	for _, tc := range []struct {
		name, src string
		counted   bool // part of the census corpus
		want      map[string]int
	}{
		{"MD", source("MD"), true, map[string]int{"fuse x-v indexed": 3, "fuse x+v indexed": 1, "fuse x*v indexed": 2, "fuse +=x*v indexed": 3,
			"mulAdd P-K": 1, "mulAdd double,double": 1, "split": 2}},
		{"KMEANS", source("KMEANS"), true, map[string]int{"held feat": 2, "sumsq d": 1, "split": 3, "split walk member": 1}},
		{"BFS", source("BFS"), true, map[string]int{"split": 2, "split walk cost": 1}},
		{"SPMV", source("SPMV"), true, map[string]int{}},
		{"HOTSPOT2D", source("HOTSPOT2D"), true, map[string]int{"mulAdd V+P": 2, "mulAdd V-P": 1, "mulAdd double,double": 3, "split": 4}},
		{"NBODY", source("NBODY"), true, map[string]int{"fuse k-x dense": 3, "fuse x+k dense": 1, "fuse x*v dense": 1, "fuse +=x*v dense": 3}},
		{"repl stencil", rt.ReplPingPongSrc, true, map[string]int{"fused a": 3, "fused b": 1, "store b": 1,
			"mulAdd P+P": 1, "mulAdd V+P": 1, "mulAdd float,float": 1, "mulAdd double,float": 1}},
		{"guarded stencil", rt.SpecGuardedStencilSrc, true, map[string]int{"fused a": 4, "fused b": 1, "store b": 1,
			"mulAdd P+P": 1, "mulAdd V+P": 1, "mulAdd float,float": 1, "mulAdd double,float": 1}},
		{"pipeline", pipelineSrc, true, map[string]int{"fused a0": 1, "store a1": 1, "mulAdd P+K": 1, "mulAdd float,double": 1}},
		{"in place", inPlaceSrc, false, map[string]int{"fused b": 1, "store a": 1, "mulAdd P+P": 1, "mulAdd double,float": 1}},
		{"saxpy", rt.SpecSaxpySrc, false, map[string]int{}},
		{"copies", copiesSrc, false, map[string]int{"fused f": 2}},
	} {
		got := notes(tc.src)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rewrites %v, want %v", tc.name, got, tc.want)
		}
		for what, n := range got {
			if tc.counted {
				census[what] += n
			}
		}
	}
	for _, form := range []string{
		"fuse x+v indexed", "fuse x+k dense", "fuse x-v indexed", "fuse k-x dense", "fuse x*v dense", "fuse x*v indexed",
		"fuse +=x*v dense", "fuse +=x*v indexed",
		"mulAdd P+P", "mulAdd P+K", "mulAdd P-K", "mulAdd V+P", "mulAdd V-P",
		"mulAdd float,float", "mulAdd float,double", "mulAdd double,float", "mulAdd double,double",
		"split", "split walk", "sumsq",
	} {
		hits := 0
		for what, n := range census {
			if what == form || strings.HasPrefix(what, form+" ") {
				hits += n
			}
		}
		if hits == 0 {
			t.Errorf("census: no kernel reaches %q", form)
		}
	}
}

// pipelineSrc is one kernel of the host-time benchmark's pipelines, a
// product plus a constant stored; inPlaceSrc updates the array it reads.
const pipelineSrc, inPlaceSrc = `
int n;
float a0[n], a1[n];
void main() {
    int i;
    #pragma acc data copyin(a0) copyout(a1)
    {
        #pragma acc localaccess(a0) stride(1)
        #pragma acc localaccess(a1) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a1[i] = a0[i] * 0.50 + 0.25;
        }
    }
}
`, `
int n;
float a[n], b[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        a[i] = 0.5 * a[i] + 0.25 * b[i];
    }
}
`

// copiesSrc holds one copy kernel per element type, and a float array
// copied into a double one: copyWalk reads the float walks in their own
// pass, the double and int copies store their vectors.
const copiesSrc = `
int n;
double d[n], e[n], h[n];
int k[n], j[n];
float f[n], g[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        e[i] = d[i];
        j[i] = k[i];
        g[i] = f[i];
        h[i] = f[i];
    }
}
`

// rejects holds a specialized run to kernels the tiles rejected at
// translate time for reason.
func rejects(reason string) func(rt.SpecStats) error {
	return func(st rt.SpecStats) error {
		if st.Rejects[reason] == 0 {
			return fmt.Errorf("want kernels rejected %q", reason)
		}
		return nil
	}
}

// flatRowTemplates are bodies that are nothing but a loop with a store
// in it, a row of w elements per iteration: they run as flat tiles,
// every lane's row in iteration order. HOTSPOT2D's body over replicated
// arrays (four guarded neighbour loads; a ghost row above and below keeps
// every index inside what the interval prover can bound), and a row
// sweep.
func flatRowTemplates() []specTemplate {
	rows := func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["w"] = float64(1 + rng.Intn(40))
		return m
	}
	all := func(st rt.SpecStats) error {
		if st.Hits == 0 || st.Fallbacks != 0 || st.FlatCuts != 0 {
			return fmt.Errorf("want every chunk on flat tiles, none cut")
		}
		return nil
	}
	return []specTemplate{
		{name: "flat-rows-hotspot", scalars: rows, check: all, src: `
int n, w;
float temp_[(n + 2) * w], power_[(n + 2) * w], tnew_[(n + 2) * w];
void main() {
    int r, c, p;
    #pragma acc data copyin(temp_, power_) copy(tnew_)
    {
        #pragma acc parallel loop
        for (r = 0; r < n; r++) {
            for (c = 0; c < w; c++) {
                float up, down, left, right, center;
                p = (r + 1) * w + c;
                center = temp_[p];
                up = center;
                down = center;
                left = center;
                right = center;
                if (r > 0) { up = temp_[p - w]; }
                if (r < n - 1) { down = temp_[p + w]; }
                if (c > 0) { left = temp_[p - 1]; }
                if (c < w - 1) { right = temp_[p + 1]; }
                tnew_[p] = center
                    + 0.1 * (up + down + left + right - 4.0 * center)
                    + 0.05 * power_[p];
            }
        }
    }
}
`},
		{name: "flat-rows-sweep", scalars: rows, check: all, src: `
int n, w;
float m_[n * w], s_[n * w];
void main() {
    int i, c;
    #pragma acc data copyin(m_) copy(s_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            for (c = 1; c < w; c++) {
                s_[i * w + c] = m_[i * w + c] + m_[i * w + c - 1];
            }
        }
    }
}
`},
	}
}

// safetyTemplates make the fast path's safety checks fire — seven per-GPU
// fallbacks to the interpreter that no other template, app or example
// reaches, and the translate-time "order" rejection. Each is named
// safety-<reason>, and checkSpecDiff requires that reason to be counted
// on every machine, then holds the outcome against the interpreter like
// any other template. The offending accesses of safety-range and
// safety-reduction sit under an arm the fill never takes (|in_| ≤ 1000):
// the endpoint checks cover every access of a piece, executed or not.
func safetyTemplates() []specTemplate {
	return []specTemplate{
		{
			// "range": an affine read one past a halo-less residency.
			name: "safety-range",
			src: `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc localaccess(in_) stride(1)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            v = in_[i];
            if (v > 5000) {
                out_[i] = in_[i + 1];
            } else {
                out_[i] = v * 3;
            }
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// "reduction": an affine reductiontoarray index that leaves
			// [0, n) at the last iteration (the second kernel). The first
			// kernel updates one target at two sites, which no tile orders:
			// rejected at translate time, "order".
			name: "safety-reduction",
			src: `
int n;
int in_[n], hist_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(hist_, out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int v;
            v = in_[i];
            if (v > 5000) {
                #pragma acc reductiontoarray(+: hist_[i + 1])
                hist_[i + 1] += v;
            } else {
                #pragma acc reductiontoarray(+: hist_[i])
                hist_[i] += v;
            }
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int u;
            u = in_[i];
            if (u > 5000) {
                #pragma acc reductiontoarray(+: hist_[i + 1])
                hist_[i + 1] += u;
            } else {
                out_[i] = u;
            }
        }
    }
}
`,
			scalars: nScalar,
			check:   rejects("order"),
		},
		{
			// "transform": a reduction-lane target stored column-major. The
			// translator transforms read-only arrays only, so the module is
			// edited by hand; lanes are indexed logically, so the chunk must
			// leave the fast path.
			name: "safety-transform",
			src: `
int n;
int in_[n], hist_[2 * n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(hist_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: hist_[2 * i])
            hist_[2 * i] += in_[i];
        }
    }
}
`,
			scalars: nScalar,
			tweak: func(m *ir.Module) {
				for _, use := range m.Kernels[0].Arrays {
					if use.Reduced {
						use.Transform2D, use.Width = true, func(*ir.Env) int64 { return 2 }
					}
				}
			},
		},
		{
			// "guard": i * m with m = 2^62 wraps from the third iteration
			// on; the interpreter compares wrapped values, which no cut of
			// the index set describes.
			name: "safety-guard",
			src: `
int n, m;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            if (i * m > 0) {
                out_[i] = in_[i];
            } else {
                out_[i] = 0 - in_[i];
            }
        }
    }
}
`,
			scalars: func(rng *rand.Rand) map[string]float64 {
				m := nScalar(rng)
				m["m"] = 1 << 62
				return m
			},
		},
		{
			// "alias": a store and a load of one array whose strides differ
			// and whose ranges overlap (they never meet: even against odd
			// elements), which the tile's alias check cannot tell apart.
			name: "safety-alias",
			src: `
int n;
int io_[4 * n + 4];
void main() {
    int i;
    #pragma acc data copy(io_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            io_[2 * i] = io_[4 * i + 1] + 1;
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// "transform", off the stride: a walk of stride 6 over a
			// column-major copy of row width 4, which the tiles' strided
			// loads do not map.
			name: "safety-offstride",
			src: `
int n;
float mat_[8 * n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(mat_) copy(out_)
    {
        #pragma acc localaccess(mat_) stride(4, 0, 4 * n)
        #pragma acc localaccess(out_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            out_[i] = mat_[6 * i] * 2.0;
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// "indirect", the reduce half: a computed reductiontoarray index
			// the interval domain cannot keep inside [0, n) — idx_[i] -
			// idx_[i] is [-(n-1), n-1] to it — although every iteration
			// lands on hist_[i].
			name: "safety-indirect",
			src: `
int n;
int in_[n], idx_[n], hist_[n];
void main() {
    int i;
    #pragma acc data copyin(in_, idx_) copy(hist_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: hist_[idx_[i] - idx_[i] + i])
            hist_[idx_[i] - idx_[i] + i] += in_[i];
        }
    }
}
`,
			scalars: nScalar,
		},
	}
}

// csrPrologue is host code that turns whatever the filler wrote into a
// valid CSR graph over n vertices: off_ the prefix sums of degrees 0..3
// drawn from deg_, edges_ folded into [0, n).
const csrPrologue = `
    off_[0] = 0;
    for (j = 0; j < n; j++) {
        off_[j + 1] = off_[j] + (deg_[j] % 4 + 4) % 4;
    }
    for (j = 0; j < 3 * n; j++) {
        edges_[j] = (edges_[j] % n + n) % n;
    }
`

// tailTemplates are the bodies with a lockstep prefix over a loop that
// runs as flat tiles (tail-*: they must tile), the neighbouring shapes
// the tiles reject at translate time (untail-*: "shape"), and a reduction
// scalar assigned with "=" under an arm, an else-arm and an affine guard.
func tailTemplates() []specTemplate {
	// The BFS body: the guard reads cost_[i], the edge loop tests and
	// sets cost_[w] — on earlier lanes, later lanes of the same tile
	// (the window) and other tiles alike.
	const bfs = `
int n, level, changed;
int deg_[n], off_[n + 1], edges_[3 * n], cost_[n];
void main() {
    int i, j;` + csrPrologue + `
    for (j = 0; j < n; j++) {
        cost_[j] = 0 - 1;
    }
    for (j = 0; j < n; j += 97) {
        cost_[j] = 0;
    }
    #pragma acc data copyin(off_, edges_) copy(cost_)
    {
        changed = 1;
        level = 0;
        while (changed) {
            changed = 0;
            LOCAL
            #pragma acc parallel loop reduction(|:changed)
            for (i = 0; i < n; i++) {
                int e, w;
                if (cost_[i] == level) {
                    for (e = off_[i]; e < off_[i + 1]; e++) {
                        w = edges_[e];
                        if (cost_[w] < 0) {
                            cost_[w] = level + 1;
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
	out := []specTemplate{
		{name: "tail-bfs", src: strings.Replace(bfs, "LOCAL", "", 1), scalars: nScalar},
		{
			// The app's own directives: off_ and edges_ distributed, the
			// edge range a bounds-form footprint.
			name: "tail-bfs-localaccess",
			src: strings.Replace(bfs, "LOCAL", `#pragma acc localaccess(off_) stride(1, 0, 1)
            #pragma acc localaccess(edges_) bounds(off_[i], off_[i+1]-1)`, 1),
			scalars: nScalar,
		},
		{
			// Every store negates its target, so guards of earlier lanes,
			// of the storing lane and of later lanes of the same tile flip
			// both ways; the fold counts exactly the trips that ran.
			name: "tail-flip",
			src: `
int n;
float trips;
int deg_[n], off_[n + 1], edges_[3 * n], g_[n];
void main() {
    int i, j, s;` + csrPrologue + `
    trips = 0.0;
    #pragma acc data copyin(off_, edges_) copy(g_)
    {
        for (s = 0; s < 3; s++) {
            #pragma acc parallel loop reduction(+:trips)
            for (i = 0; i < n; i++) {
                int e, w;
                if (g_[i] > 0) {
                    for (e = off_[i]; e < off_[i + 1]; e++) {
                        w = edges_[e];
                        g_[w] = 0 - g_[w];
                        trips += 1.0;
                    }
                }
            }
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// Nested guards over a private scalar loaded from the watched
			// array, a second watched load with another stride, and stores
			// one lane ahead: the nearest hazard there is.
			name: "tail-nested-guard",
			src: `
int n, k;
int deg_[n], off_[n + 1], edges_[3 * n], c_[2 * n + 2], in_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_, in_) copy(c_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, w, v;
            v = c_[i];
            if (v > k) {
                if (c_[2 * i + 1] + in_[i] > k) {
                    for (e = off_[i]; e < off_[i + 1]; e++) {
                        w = edges_[e];
                        c_[i + 1] = c_[i + 1] - v;
                        c_[2 * w] = in_[w] + e;
                    }
                }
            }
        }
    }
}
`,
			scalars: func(rng *rand.Rand) map[string]float64 {
				m := nScalar(rng)
				m["k"] = float64(rng.Intn(600) - 300)
				return m
			},
		},
		{
			// SPMV: trips differ from lane to lane, the accumulator is a
			// private scalar carried through the loop, the store after it
			// runs in lockstep.
			name: "tail-spmv",
			src: `
int n;
int deg_[n], off_[n + 1], edges_[3 * n];
float vals_[3 * n], x_[n], y_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_, vals_, x_) copyout(y_)
    {
        #pragma acc localaccess(y_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            acc = 0.0;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                acc += vals_[e] * x_[edges_[e]];
            }
            y_[i] = acc + off_[i];
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// A scatter in a loop with uniform bounds, into an array nothing
			// else touches, after a lockstep arm.
			name: "tail-scatter",
			src: `
int n;
int idx_[n], in_[n], out_[n];
void main() {
    int i;
    #pragma acc data copyin(idx_, in_) copy(out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, v;
            v = in_[i];
            if (v < 0) {
                v = 0 - v;
            }
            for (e = 0; e < 2; e++) {
                out_[idx_[i]] = v + e;
            }
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// A lockstep store into the array the loop gathers from: the
			// loop of a later lane would read what an earlier lane had not
			// stored yet. The tiles reject it. (The store writes what the
			// host already put there, or the workers would race.)
			name: "untail-prestore",
			src: `
int n;
int deg_[n], off_[n + 1], edges_[3 * n], in_[n], y_[n];
float out_[n];
void main() {
    int i, j;` + csrPrologue + `
    for (j = 0; j < n; j++) {
        y_[j] = in_[j];
    }
    #pragma acc data copyin(off_, edges_, in_) copy(y_, out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            y_[i] = in_[i];
            acc = 0.0;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                acc += y_[edges_[e]] * 0.5;
            }
            out_[i] = acc;
        }
    }
}
`,
			scalars: nScalar,
		},
		{
			// The BFS shape with a statement after the guarded loop: a tile
			// cut short could not take it back. The tiles reject it.
			name: "untail-after",
			src: `
int n;
int deg_[n], off_[n + 1], edges_[3 * n], g_[n], out_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_) copy(g_, out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, w;
            if (g_[i] > 0) {
                for (e = off_[i]; e < off_[i + 1]; e++) {
                    w = edges_[e];
                    g_[w] = 0 - g_[w];
                }
            }
            out_[i] = g_[i];
        }
    }
}
`,
			scalars: nScalar,
		},
	}
	// The BFS body on worker chunks of 1, VecTile-1 and VecTile+1.
	for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
		n := float64(8 * chunk)
		out = append(out, specTemplate{
			name:    fmt.Sprintf("tail-chunk-%d", chunk),
			src:     strings.Replace(bfs, "LOCAL", "", 1),
			scalars: func(*rand.Rand) map[string]float64 { return map[string]float64{"n": n} },
		})
	}
	// A reduction scalar assigned with "=": the worker keeps the value of
	// its last iteration that assigned.
	for _, tc := range []struct{ name, typ, op, guard, stmt string }{
		{"lock-red-assign-arm", "int", "max", "in_[i] > k", "r = in_[i] + i;"},
		{"lock-red-assign-else", "float", "max", "in_[i] <= k", "{ } else { r = in_[i] * 0.25; }"},
		{"guard-red-assign", "int", "|", "i > k && i < n - m", "r = 1;"},
		{"guard-red-assign-float", "float", "+", "i == k || i >= n - m", "r = 0.5 * m;"},
	} {
		out = append(out, specTemplate{
			name: tc.name,
			src: fmt.Sprintf(`
int n, k, m;
%s r;
int in_[n];
void main() {
    int i;
    r = 0;
    #pragma acc data copyin(in_)
    {
        #pragma acc parallel loop reduction(%s:r)
        for (i = 0; i < n; i++) {
            if (%s) %s
        }
    }
}
`, tc.typ, tc.op, tc.guard, tc.stmt),
			scalars: guardScalars,
		})
	}
	// A division in the prefix over a value loaded from the watched
	// array: a tile would divide for lanes that, in iteration order, an
	// earlier store had turned away first — and a division can fault.
	// The tiles reject it.
	out = append(out, specTemplate{
		name: "untail-div",
		src: `
int n, k;
int deg_[n], off_[n + 1], edges_[3 * n], g_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, edges_) copy(g_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, w, q;
            q = 1000 / (g_[i] % 5 + 7);
            if (q > k) {
                for (e = off_[i]; e < off_[i + 1]; e++) {
                    w = edges_[e];
                    g_[w] = g_[w] + q;
                }
            }
        }
    }
}
`,
		scalars: func(rng *rand.Rand) map[string]float64 {
			m := nScalar(rng)
			m["k"] = float64(80 + rng.Intn(200))
			return m
		},
	})
	// A loop that runs as flat tiles reads the induction variable of
	// another loop outside that loop: left by an earlier loop of the same
	// iteration (after), or by the previous iteration (carry). A tile has
	// one slot for it, holding what the last lane to run that loop left.
	// The tiles reject it.
	for _, tc := range []struct{ name, before, after string }{
		{"untail-loopvar-after", "", "for (k = 0; k < 1; k++) { y_[i] = acc + e; }"},
		{"untail-loopvar-carry", "for (k = 0; k < 1; k++) { y_[i] = e; }", "z_[i] = acc;"},
	} {
		out = append(out, specTemplate{
			name: tc.name,
			src: strings.NewReplacer("BEFORE", tc.before, "AFTER", tc.after).Replace(`
int n;
int deg_[n], off_[n + 1], edges_[3 * n];
float vals_[3 * n], y_[n], z_[n];
void main() {
    int i, j;` + csrPrologue + `
    #pragma acc data copyin(off_, vals_) copy(y_, z_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, k;
            float acc;
            BEFORE
            acc = 0.0;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                acc += vals_[e];
            }
            AFTER
        }
    }
}
`),
			scalars: nScalar,
		})
	}
	return out
}

// loopTemplates hold the loop schedules of a tile against the
// interpreter. loopred-*: reduction-lane updates inside a uniform loop, at
// indices injective in its variable, in lockstep. unloopred-*: the
// neighbouring shapes the injectivity rule must turn away (they run as
// flat tiles, in iteration order, or — a loop in the loop — are rejected
// at translate time); each is built so that trip-major order changes the
// bits of a float sum. flat-*: loops with divergent trips or ordered
// effects as flat tiles, with the hazards the commit must catch (n is
// fixed where the counts are held).
//
// Mutation checks (each was made, the named templates failed, and it was
// undone): without rule (c) of vecBuilder.injective (the rest of the
// index reads nothing the loop assigns), unloopred-rest-assigned; without
// rule (a) (a nonzero coefficient), unloopred-coef0 and unloopred-cancel;
// without the per-tile laneOrdered check, loopred-overlap; committing a
// flat tile past its first hazard lane (walkLanes never returning early),
// flat-bfs-dup, flat-rmw and the tail-* BFS bodies; folding the segmented
// acc without its float32 rounding per step (flatFold), flat-spmv and
// tail-spmv; runChunk starting the next tile L lanes on instead of at the
// first lane a window hit handed over, flat-window, the tail-* BFS bodies
// and tail-chunk-511/513 (and TestTileWindowEdges, TestBFSRunsTiled).
func loopTemplates() []specTemplate {
	want := func(cond func(rt.SpecStats) bool, what string) func(rt.SpecStats) error {
		return func(st rt.SpecStats) error {
			if !cond(st) {
				return fmt.Errorf("want %s", what)
			}
			return nil
		}
	}
	fixedN := func(n float64) func(*rand.Rand) map[string]float64 {
		return func(*rand.Rand) map[string]float64 { return map[string]float64{"n": n} }
	}
	noCuts := want(func(st rt.SpecStats) bool { return st.FlatCuts == 0 }, "no flat cut")
	tiled := want(func(st rt.SpecStats) bool { return st.TiledIters > 0 && st.Fallbacks == 0 }, "tiles")
	kmeansScalars := func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["k"], m["nf"] = float64(3+rng.Intn(5)), float64(2+rng.Intn(8))
		return m
	}
	// The KMEANS body with the loop's body left open.
	loopred := func(name, body string, check func(rt.SpecStats) error) specTemplate {
		return specTemplate{name: name, scalars: kmeansScalars, check: check, src: `
int n, k, nf;
float feat_[n * nf], newf_[k * nf];
int in_[n], cnt_[k * nf], out_[n * nf];
double prod_[k * nf], newc_[k * nf + 4 * nf + 8];
void main() {
    int i;
    #pragma acc data copyin(feat_, in_) copy(newc_, newf_, cnt_, prod_, out_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int f, g, best, b;
            best = (in_[i] % k + k) % k;
            for (f = 0; f < nf; f++) {
                ` + body + `
            }
        }
    }
}
`}
	}
	// The addends carry more bits than a float64 sum keeps and the target
	// is a double, so that the order of an element's updates shows in its
	// bits.
	const sum = `#pragma acc reductiontoarray(+: newc_[IDX])
                newc_[IDX] += feat_[i * nf + f] * feat_[i * nf + f] * 1.1;`
	at := func(idx string) string { return strings.ReplaceAll(sum, "IDX", idx) }
	out := []specTemplate{
		// Double, float and int targets, + and *, an update under an arm of
		// the loop, coefficients 1 and -1.
		loopred("loopred-kmeans", at("best * nf + f")+`
                #pragma acc reductiontoarray(+: newf_[best * nf + f])
                newf_[best * nf + f] += feat_[i * nf + f];
                #pragma acc reductiontoarray(+: cnt_[nf * best + (nf - 1 - f)])
                cnt_[nf * best + (nf - 1 - f)] += in_[i] + f;
                if (feat_[i * nf + f] > 0.0) {
                    #pragma acc reductiontoarray(*: prod_[best * nf + f])
                    prod_[best * nf + f] *= 1.0 + 0.001 * feat_[i * nf + f];
                }`, noCuts),
		// Injective per lane, but the lanes' element ranges overlap (best +
		// 2f against best' + 2f'): trip-major order would reorder an
		// element's float updates, so the tile runs the loop as flat tiles.
		loopred("loopred-overlap", at("best + 2 * f"), noCuts),
		// An int target commutes: no per-tile check, whatever the overlap.
		loopred("loopred-overlap-int", `#pragma acc reductiontoarray(+: cnt_[best + f])
                cnt_[best + f] += in_[i];`, noCuts),
		loopred("unloopred-coef0", at("best"), tiled),
		loopred("unloopred-cancel", at("2 * f - 2 * f + best + 2 * nf"), tiled),
		loopred("unloopred-rest-assigned", `b = (in_[f] % 3 + 3) % 3;
                `+at("b + f"), tiled),
		// A loop in the loop: neither lockstep nor flat tiles take it.
		loopred("unloopred-nested", `for (g = 0; g < 2; g++) {
                    `+at("best * nf + f")+`
                }`, rejects("shape")),
		loopred("unloopred-store-too", `out_[i * nf + f] = in_[i] + f;
                `+at("best * nf + f"), tiled),
	}

	// BFS over a graph built so that two parents of one undiscovered vertex
	// share a flat tile: both edges of vertex m (m < 300, the first
	// frontier) point at 300+m/2, from adjacent flat lanes, but for the
	// first edges of vertices 0 and 250, which point at 900 from flat lanes
	// 0 and 500. Every vertex has two edges.
	out = append(out, specTemplate{
		name:    "flat-bfs-dup",
		scalars: fixedN(1200),
		check:   want(func(st rt.SpecStats) bool { return st.FlatCuts > 0 }, "flat cuts"),
		src: `
int n, level, changed;
int off_[n + 1], edges_[2 * n], cost_[n];
void main() {
    int i, j;
    for (j = 0; j < n; j++) {
        off_[j] = 2 * j;
        edges_[2 * j] = (j * 7919 + 13) % n;
        edges_[2 * j + 1] = (j * 104729 + 7) % n;
        cost_[j] = 0 - 1;
    }
    off_[n] = 2 * n;
    for (j = 0; j < 300; j++) {
        edges_[2 * j] = 300 + j / 2;
        edges_[2 * j + 1] = 300 + j / 2;
        cost_[j] = 0;
    }
    edges_[0] = 900;
    edges_[500] = 900;
    #pragma acc data copyin(off_, edges_) copy(cost_)
    {
        changed = 1;
        level = 0;
        while (changed) {
            changed = 0;
            #pragma acc parallel loop reduction(|:changed)
            for (i = 0; i < n; i++) {
                int e, w;
                if (cost_[i] == level) {
                    for (e = off_[i]; e < off_[i + 1]; e++) {
                        w = edges_[e];
                        if (cost_[w] < 0) {
                            cost_[w] = level + 1;
                            changed = 1;
                        }
                    }
                }
            }
            level++;
        }
    }
}
`})
	// tail-flip's read-modify-write with few targets (TARGETS of them), so
	// that flat lanes of one flat tile load what earlier ones store: some
	// cuts at 97 targets, nothing but cuts at 2 — every flat tile commits a
	// lane or two, and the walk still ends.
	for _, tc := range []struct {
		name, targets string
		scalars       func(*rand.Rand) map[string]float64
		check         func(rt.SpecStats) error
	}{
		{"flat-rmw", "97", fixedN(1024), want(func(st rt.SpecStats) bool { return st.FlatCuts > 0 }, "flat cuts")},
		{"flat-dense-cuts", "2", fixedN(4096), want(func(st rt.SpecStats) bool { return st.FlatCuts > 0 }, "flat cuts")},
	} {
		out = append(out, specTemplate{name: tc.name, scalars: tc.scalars, check: tc.check, src: strings.ReplaceAll(`
int n;
float trips;
int deg_[n], off_[n + 1], edges_[3 * n], g_[n];
void main() {
    int i, j, s;`+csrPrologue+`
    for (j = 0; j < 3 * n; j++) {
        edges_[j] = edges_[j] % TARGETS;
    }
    trips = 0.0;
    #pragma acc data copyin(off_, edges_) copy(g_)
    {
        for (s = 0; s < 2; s++) {
            #pragma acc parallel loop reduction(+:trips)
            for (i = 0; i < n; i++) {
                int e, w;
                if (g_[i] > 0 - 2000) {
                    for (e = off_[i]; e < off_[i + 1]; e++) {
                        w = edges_[e];
                        g_[w] = 0 - g_[w] + e;
                        trips += 1.0;
                    }
                }
            }
        }
    }
}
`, "TARGETS", tc.targets)})
	}
	out = append(out,
		// SPMV with rows of 0, 1 and 700 entries: a row spans flat tiles, the
		// accumulator of the outer tile rounds to float32 at every step.
		specTemplate{name: "flat-spmv", scalars: fixedN(640), check: noCuts, src: `
int n;
int off_[n + 1], cols_[240 * n];
float vals_[240 * n], x_[n], y_[n];
void main() {
    int i, j;
    off_[0] = 0;
    for (j = 0; j < n; j++) {
        off_[j + 1] = off_[j] + (j % 3) * (j % 3) * 175 - (j % 3) * 174;
    }
    for (j = 0; j < 240 * n; j++) {
        cols_[j] = (j * 7919 + 13) % n;
    }
    #pragma acc data copyin(off_, cols_, vals_, x_) copyout(y_)
    {
        #pragma acc localaccess(y_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e;
            float acc;
            acc = 0.5;
            for (e = off_[i]; e < off_[i + 1]; e++) {
                acc += vals_[e] * x_[cols_[e]] * 1000.0;
            }
            y_[i] = acc;
        }
    }
}
`},
		// Rows of five trips whose middle one stores into the window the
		// tile's guard loaded (three lanes ahead), the others outside every
		// window: the storing lane finishes its row, the lanes after it
		// start the next tile, with the guard they now see.
		specTemplate{name: "flat-window", scalars: fixedN(2048),
			check: want(func(st rt.SpecStats) bool { return st.HazardLanes > 0 }, "hazard lanes"),
			src: `
int n;
int tgt_[5 * n], g_[7 * n];
void main() {
    int i, j;
    for (j = 0; j < n; j++) {
        for (i = 0; i < 5; i++) {
            tgt_[5 * j + i] = n + 5 * j + i;
        }
        tgt_[5 * j + 2] = min(j + 3, n - 1);
    }
    #pragma acc data copyin(tgt_) copy(g_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            int e, w;
            if (g_[i] > 0) {
                for (e = 5 * i; e < 5 * i + 5; e++) {
                    w = tgt_[e];
                    g_[w] = 0 - g_[w] - e;
                }
            }
        }
    }
}
`})
	return out
}

// runSpecTemplate compiles, binds and runs one template, filling every
// array deterministically from fillSeed after Bind (the module
// auto-allocates unbound arrays). idx_ arrays get a permutation of [0, n).
// quietTemplates hold a float copy from a quiet array (DESIGN §6,
// invariant 24) to the interpreter: a copy from a created array, which the
// tiles make with one copy; from a supplied array holding signalling NaNs
// of both signs past the first VecTile elements (the snan arrays), which
// keeps the converting pass, also once a host loop has overwritten them in
// the mirror but not on the devices; from a quiet array after each other writer
// stored into it the NaNs of an array holding signalling ones — a scatter,
// a reductiontoarray, a distributed store that misses, a halo exchange and
// a host statement between update host and update device; and a
// replicated ping-pong of such a copy at worker chunks of 1, VecTile-1 and
// VecTile+1 iterations. Each asserts that its tiles engaged.
func quietTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	// late leaves room for the snan arrays' signalling NaNs.
	late := func(rng *rand.Rand) map[string]float64 {
		return map[string]float64{"n": float64(ir.VecTile + 3 + rng.Intn(1200))}
	}
	// fed wraps a writer of q_ between two copies from it: the first ships
	// q_ and settles that it is quiet, the second copies what the writer
	// left.
	fed := func(name, decls, writer string) specTemplate {
		return specTemplate{name: "quiet-" + name, scalars: nScalar, check: tiled, src: `
int n;
float nan_[n], q_[n], c_[n], d_[n];
` + decls + `
void main() {
    int i;
    #pragma acc data copyin(nan_) copy(q_) copyout(c_, d_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = q_[i];
        }
` + writer + `
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            d_[i] = q_[i];
        }
    }
}
`}
	}
	out := []specTemplate{
		{name: "quiet-create", scalars: nScalar, check: tiled, src: `
int n;
float nan_[n], b_[n], c_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_) create(b_) copyout(c_)
    {
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            b_[i] = nan_[i];
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = b_[i];
        }
    }
}
`},
		{name: "quiet-supplied", check: tiled, src: `
int n;
float snan_[n], c_[n];
void main() {
    int i;
    #pragma acc data copyin(snan_) copyout(c_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = snan_[i];
        }
    }
}
`, scalars: late},
		// A host loop overwrites the mirror's signalling NaNs after they
		// shipped, with no update device: the device copies keep them, so
		// the copy after it must still convert.
		{name: "quiet-shipped", check: tiled, scalars: late, src: `
int n;
float snan_[n], o_[n], c_[n];
void main() {
    int i;
    #pragma acc data copyin(snan_) copyout(o_, c_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            o_[i] = 2.0 * snan_[i];
        }
        for (i = 0; i < n; i++) {
            snan_[i] = 0.5;
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            c_[i] = snan_[i];
        }
    }
}
`},
		fed("scatter", "int idx_[n];", `
        #pragma acc data copyin(idx_)
        {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                q_[idx_[i]] = nan_[i];
            }
        }
`),
		fed("reduce", "", `
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: q_[i])
            q_[i] += nan_[i];
        }
`),
		fed("miss", "", `
        #pragma acc localaccess(nan_) stride(1)
        #pragma acc localaccess(q_) stride(1)
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            q_[(i + n / 2) % n] = nan_[i];
        }
`),
		fed("update", "", `
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            q_[i] = nan_[i];
        }
        #pragma acc update host(q_)
        for (i = 0; i < n; i += 3) {
            q_[i] = nan_[n - 1 - i];
        }
        #pragma acc update device(q_)
`),
		// The halo: the first copy reads q_ one element to the right, so each
		// GPU holds a halo cell the distributed store then refreshes.
		{name: "quiet-halo", scalars: nScalar, check: tiled, src: `
int n;
float nan_[n], q_[n], c_[n], d_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_) copy(q_) copyout(c_, d_)
    {
        #pragma acc localaccess(q_) stride(1, 1, 1)
        #pragma acc localaccess(c_) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            c_[i] = q_[i + 1];
        }
        #pragma acc localaccess(nan_) stride(1)
        #pragma acc localaccess(q_) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            q_[i] = nan_[i];
        }
        #pragma acc localaccess(q_) stride(1, 1, 1)
        #pragma acc localaccess(d_) stride(1)
        #pragma acc parallel loop
        for (i = 1; i < n - 1; i++) {
            d_[i] = q_[i + 1];
        }
    }
}
`},
	}
	const chunked = `
int n;
float nan_[n], a_[n], b_[n];
void main() {
    int t, i;
    #pragma acc data copyin(nan_) copy(a_) create(b_)
    {
        for (t = 0; t < 2; t++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                b_[i] = nan_[i];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a_[i] = b_[i];
            }
        }
    }
}
`
	for _, chunk := range []int{1, ir.VecTile - 1, ir.VecTile + 1} {
		n := float64(8 * chunk)
		out = append(out, specTemplate{
			name:    fmt.Sprintf("quiet-chunk-%d", chunk),
			src:     chunked,
			check:   tiled,
			scalars: func(*rand.Rand) map[string]float64 { return map[string]float64{"n": n} },
		})
	}
	return out
}

// relayTemplates put replicated arrays whose replicas hold pending relays
// (rt syncReplicated) in front of every kind of reader: a literal-affine
// read shifted past the neighbour's partition, a reversed read (caught up
// over the whole residency), a replicated int index array the launch
// prover scans whole, a reductiontoarray and a localaccess read (both
// settle first), update host with a host statement before update device,
// writes several GPUs make to one element (the first claim wins), and a
// region left and entered again onto recycled buffers. Each asserts that
// the tiles engaged; all but the overlapping writes must also equal the
// one-GPU run.
func relayTemplates() []specTemplate {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles and no fallback")
		}
		return nil
	}
	steps := func(rng *rand.Rand) map[string]float64 {
		m := nScalar(rng)
		m["steps"] = float64(2 + rng.Intn(3))
		return m
	}
	return []specTemplate{
		{name: "relay-shift", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
float a[n], b[n];
void main() {
    int i, s;
    #pragma acc data copy(a, b)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n - 7; i++) {
                b[i] = 0.5 * a[i + 7] - a[i];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i] + 0.25;
            }
        }
    }
}
`},
		{name: "relay-reverse", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
float a[n], b[n];
void main() {
    int i, s;
    #pragma acc data copy(a) create(b)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                b[i] = a[n - 1 - i] * 0.5;
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i] + a[i];
            }
        }
    }
}
`},
		{name: "relay-index", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
int ix_[n];
float x_[n], y_[n];
void main() {
    int i, s;
    #pragma acc data copyin(x_) copy(ix_, y_)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                ix_[i] = (i * 7 + s * 13) % n;
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                y_[i] = y_[i] + x_[ix_[i]];
            }
        }
    }
}
`},
		{name: "relay-reduce", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
int h_[n], in_[n];
void main() {
    int i, s;
    #pragma acc data copyin(in_) copy(h_)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                h_[i] = h_[i] + in_[i] % 5;
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                #pragma acc reductiontoarray(+: h_[i])
                h_[i] += i % 3;
            }
            #pragma acc parallel loop
            for (i = 1; i < n; i++) {
                in_[i] = h_[i - 1] % 7;
            }
        }
    }
}
`},
		{name: "relay-update", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
float a[n], b[n];
void main() {
    int i, s;
    #pragma acc data copy(a) create(b)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                b[i] = a[i - 1] + a[i + 1];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i] * 0.5;
            }
            #pragma acc update host(a)
            a[s] = a[n - 1 - s] + 1.0;
            #pragma acc update device(a)
        }
    }
}
`},
		{name: "relay-localaccess", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
float a[n], b[n], c[n];
void main() {
    int i, s;
    #pragma acc data copyin(b) copy(a, c)
    {
        for (s = 0; s < steps; s++) {
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i] * 2.0 + a[i];
            }
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(c) stride(1)
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                c[i] = a[i - 1] - a[i + 1];
            }
        }
    }
}
`},
		// Every GPU stores into [0, w), w a third of n, from as many of its
		// iterations, so the GPUs' runs overlap (the scatter runs on the
		// interpreter: the tiles reject its shape); the stored value
		// depends on the element alone, so the result does not depend on
		// which GPU's claim wins, and the tiled reader catches the overlap
		// up.
		{name: "relay-claim", oneGPU: true,
			check: func(st rt.SpecStats) error {
				if err := tiled(st); err != nil || st.Rejects["shape"] == 0 {
					return fmt.Errorf("want the reader tiled and the scatter rejected for its shape")
				}
				return nil
			},
			scalars: func(rng *rand.Rand) map[string]float64 {
				m := nScalar(rng)
				m["w"] = float64(int(m["n"])/3 + 1)
				return m
			}, src: `
int n, w;
float a[n], b[n], c[n];
void main() {
    int i;
    #pragma acc data copyin(b) copy(a, c)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            a[i % w] = b[i % w] * 3.0;
        }
        #pragma acc parallel loop
        for (i = 0; i < n - 1; i++) {
            c[i] = a[i + 1] - a[i];
        }
    }
}
`},
		{name: "relay-reenter", scalars: steps, check: tiled, oneGPU: true, src: `
int n, steps;
float a[n], b[n];
void main() {
    int i, s;
    for (s = 0; s < steps; s++) {
        #pragma acc data copy(a) create(b)
        {
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                b[i] = a[i - 1] * 0.25 + a[i + 1];
            }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
    }
}
`},
	}
}

func runSpecTemplate(t testing.TB, tpl specTemplate, scalars map[string]float64, fillSeed int64, spec sim.MachineSpec, opts rt.Options) (*rt.Runtime, *ir.Instance, error) {
	t.Helper()
	prog, err := cc.ParseProgram(tpl.src)
	if err != nil {
		t.Fatalf("%s: parse: %v", tpl.name, err)
	}
	mod, err := translator.Translate(prog)
	if err != nil {
		t.Fatalf("%s: translate: %v", tpl.name, err)
	}
	if tpl.tweak != nil {
		tpl.tweak(mod)
	}
	bind := ir.NewBindings()
	for name, v := range scalars {
		bind.SetScalar(name, v)
	}
	n := int(scalars["n"])
	rng := rand.New(rand.NewSource(fillSeed))
	inst := rt.BindFilled(t, mod, bind, func(a *ir.HostArray) {
		if a.Decl.Name == "idx_" {
			// A permutation, not rng.Intn(n): duplicate indices would let
			// two workers store different values into the same out_
			// element, making even the interpreter's result depend on
			// goroutine scheduling.
			for i, p := range rng.Perm(n)[:len(a.I32)] {
				a.I32[i] = int32(p)
			}
			return
		}
		switch {
		case strings.HasPrefix(a.Decl.Name, "nan"):
			nanFill(rng, a.F32, a.F64)
		case strings.HasPrefix(a.Decl.Name, "snan"):
			snanFill(rng, a.F32)
		case a.F32 != nil:
			for i := range a.F32 {
				a.F32[i] = rng.Float32()*2 - 1
			}
		case a.F64 != nil:
			for i := range a.F64 {
				a.F64[i] = rng.Float64()*2 - 1
			}
		default:
			for i := range a.I32 {
				a.I32[i] = int32(rng.Intn(2001) - 1000)
			}
		}
	})
	mach, err := sim.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(mach, opts)
	return r, inst, r.Run(inst)
}

// nanFill fills a nan array (float or double) with quiet and signalling
// NaNs of either sign and random payloads, infinities, zeros and ordinary
// values.
func nanFill(rng *rand.Rand, f32 []float32, f64 []float64) {
	// special gives the bits of a quiet or a signalling NaN, an infinity or
	// a zero, of either sign, or ok false for an ordinary value.
	special := func(sign, expo, quiet uint64) (b uint64, ok bool) {
		s := sign * uint64(rng.Intn(2))
		switch rng.Intn(5) {
		case 0:
			return s | expo | quiet | uint64(rng.Int63())&(quiet-1), true
		case 1:
			return s | expo | (1 + uint64(rng.Int63())%(quiet-1)), true
		case 2:
			return s | expo, true
		case 3:
			return s, true
		}
		return 0, false
	}
	for i := range f32 {
		f32[i] = rng.Float32()*2 - 1
		if b, ok := special(1<<31, 0x7f800000, 1<<22); ok {
			f32[i] = math.Float32frombits(uint32(b))
		}
	}
	for i := range f64 {
		f64[i] = rng.Float64()*2 - 1
		if b, ok := special(1<<63, 0x7ff0000000000000, 1<<51); ok {
			f64[i] = math.Float64frombits(b)
		}
	}
}

// snanFill fills an snan array with ordinary values but for signalling
// NaNs of either sign and random payloads, none of them among the first
// VecTile elements: the first after them is positive, the last negative.
func snanFill(rng *rand.Rand, f32 []float32) {
	snan := func(sign uint32) float32 {
		return math.Float32frombits(sign | 0x7f800000 | (1 + uint32(rng.Intn(1<<22-1))))
	}
	for i := range f32 {
		f32[i] = rng.Float32()*2 - 1
		if i > ir.VecTile && rng.Intn(8) == 0 {
			f32[i] = snan(uint32(rng.Intn(2)) << 31)
		}
	}
	if len(f32) > ir.VecTile+1 {
		f32[ir.VecTile+1], f32[len(f32)-1] = snan(0), snan(1<<31)
	}
}

// sameBits compares two copies bit for bit: a NaN's payload and a zero's
// sign count.
func sameBits[E any, B comparable](want, got []E, bits func(E) B) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if bits(want[i]) != bits(got[i]) {
			return false
		}
	}
	return true
}

// checkSpecDiff runs one (template, scalars, fill) triple with the fast
// path off and on and requires bit-identical observables.
func checkSpecDiff(t testing.TB, tpl specTemplate, scalars map[string]float64, fillSeed int64) {
	t.Helper()
	var one *ir.Instance // the reference run on one GPU
	for _, spec := range []sim.MachineSpec{
		sim.Desktop().WithGPUs(1),
		sim.Desktop(),
		sim.SupercomputerNode(),
		sim.Cluster(2, 2),
	} {
		ref, refInst, refErr := runSpecTemplate(t, tpl, scalars, fillSeed, spec, rt.Options{Reference: true})
		r, inst, err := runSpecTemplate(t, tpl, scalars, fillSeed, spec, rt.Options{})
		label := fmt.Sprintf("%s on %s (n=%g)", tpl.name, spec.Name, scalars["n"])
		if refErr != nil || err != nil {
			t.Fatalf("%s: run failed: interp %v, spec %v", label, refErr, err)
		}
		st := r.SpecStats()
		for _, prefix := range []string{"lock-", "loopred-", "flat-", "tail-"} {
			// These must compare the tiles with the interpreter, not the
			// interpreter with itself.
			if strings.HasPrefix(tpl.name, prefix) && (st.TiledIters == 0 || st.Fallbacks != 0) {
				t.Fatalf("%s: not tiled: %+v", label, st)
			}
		}
		if tpl.check != nil {
			if err := tpl.check(st); err != nil {
				t.Fatalf("%s: %v: %+v", label, err, st)
			}
		}
		if strings.HasPrefix(tpl.name, "untail-") && (st.Hits != 0 || st.Rejects["shape"] == 0) {
			t.Fatalf("%s: not rejected: %+v", label, st)
		}
		if reason, ok := strings.CutPrefix(tpl.name, "safety-"); ok {
			// The safety templates must compare the path their check guards
			// with the interpreter: the fallback taken for that reason.
			if reason == "offstride" {
				reason = "transform"
			}
			if fired := st.FallbackReasons[reason]; fired == 0 {
				t.Fatalf("%s: check did not fire: %+v", label, st)
			}
		}
		if strings.HasPrefix(tpl.name, "guard-") {
			// The affine-guard templates must compare the split executor
			// with the interpreter, not the interpreter with itself.
			if st.SplitPieces == 0 || st.Fallbacks != 0 || len(st.Rejects) != 0 {
				t.Fatalf("%s: not split: %+v", label, st)
			}
		}
		refRep, rep := ref.Report(), r.Report()
		if !reflect.DeepEqual(refRep, rep) {
			t.Fatalf("%s: Report diverged\ninterp %+v\nspec   %+v", label, refRep, rep)
		}
		if one == nil {
			one = refInst
		}
		for i := range refInst.Arrays {
			want, got := refInst.Arrays[i], inst.Arrays[i]
			if !sameBits(want.F32, got.F32, math.Float32bits) ||
				!sameBits(want.F64, got.F64, math.Float64bits) ||
				!reflect.DeepEqual(want.I32, got.I32) {
				t.Fatalf("%s: array %q diverged", label, want.Decl.Name)
			}
			if want = one.Arrays[i]; tpl.oneGPU && (!sameBits(want.F32, got.F32, math.Float32bits) ||
				!sameBits(want.F64, got.F64, math.Float64bits) ||
				!reflect.DeepEqual(want.I32, got.I32)) {
				t.Fatalf("%s: array %q differs from the one-GPU run's", label, want.Decl.Name)
			}
		}
		if !reflect.DeepEqual(refInst.Env.Ints, inst.Env.Ints) ||
			!reflect.DeepEqual(refInst.Env.Floats, inst.Env.Floats) {
			t.Fatalf("%s: final scalar state diverged\ninterp ints %v floats %v\nspec   ints %v floats %v",
				label, refInst.Env.Ints, refInst.Env.Floats, inst.Env.Ints, inst.Env.Floats)
		}
	}
}

// TestGuardFoldsLiterals holds an affine-guard split whose guard has
// literal subtrees (a negated literal, a product of two) to the
// interpreter: the split's condition is folded as the interpreter's is,
// so both charge the same flops per trip. The divisions (four flops each)
// make the kernel compute-bound, so a flop more shows in the report.
func TestGuardFoldsLiterals(t *testing.T) {
	tpl := specTemplate{name: "guard-literal", scalars: nScalar, src: `
int n;
float in_[n], out_[n];
void main() {
    int i;
    float s;
    #pragma acc data copyin(in_) copy(out_)
    {
        #pragma acc parallel loop private(s)
        for (i = 0; i < n; i++) {
            s = in_[i] / 3.0 / 5.0 / 7.0 / 9.0 / 11.0 / 13.0 / 15.0 / 17.0 / 19.0 / 21.0;
            if (i > -1 && i < 2 * 64) {
                out_[i] = s;
            } else {
                out_[i] = s - 1.0;
            }
        }
    }
}
`}
	for seed := int64(1); seed <= 3; seed++ {
		checkSpecDiff(t, tpl, tpl.scalars(rand.New(rand.NewSource(seed))), seed)
	}
}

func TestSpecializedVsInterpCorpus(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tpl := range specTemplates {
		tpl := tpl
		t.Run(tpl.name, func(t *testing.T) {
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				checkSpecDiff(t, tpl, tpl.scalars(rng), seed*1000+7)
			}
		})
	}
}

// TestNaNPlusNaN adds two NaN operands, float and double. The sum keeps
// the payload of whichever operand the compiled add puts first, which
// IEEE 754 leaves open, so invariant 11 holds for it only where the
// interpreter and the tiles are compiled alike. The tiles' mulAdd forms
// (a float store's pass, a double store's vector) are, except in a race
// build, which orders their additions differently; the differential
// templates therefore keep NaN + NaN out. A plain vector add is the other
// way round: its payloads differ in a normal build. There the test holds
// every lane to the interpreter's bits except those adding two NaNs,
// which must be NaN.
func TestNaNPlusNaN(t *testing.T) {
	tiled := func(st rt.SpecStats) error {
		if st.TiledIters == 0 || st.Fallbacks != 0 {
			return fmt.Errorf("want tiles")
		}
		return nil
	}
	t.Run("mulAdd", func(t *testing.T) {
		if sim.RaceDetector {
			t.Skip("a race build orders the interpreter's and the tiles' NaN + NaN additions differently")
		}
		tpl := specTemplate{name: "nan-plus-nan", check: tiled, src: `
int n;
float nan_[n], p_[n];
double nand_[n], pd_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_, nand_) copyout(p_, pd_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            p_[i] = 0.5 * nan_[i] + 0.25 * nand_[i];
            pd_[i] = nand_[i] - 0.5 * nan_[i];
        }
    }
}
`}
		for _, n := range []float64{1, 513, 4096} {
			checkSpecDiff(t, tpl, map[string]float64{"n": n}, 11)
		}
	})
	t.Run("add", func(t *testing.T) {
		tpl := specTemplate{name: "nan-add", src: `
int n;
float nan_[n], q_[n];
double nand_[n];
void main() {
    int i;
    #pragma acc data copyin(nan_, nand_) copyout(q_)
    {
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
            q_[i] = nan_[i] + nand_[i];
        }
    }
}
`}
		scalars := map[string]float64{"n": 4096}
		_, ref, _ := runSpecTemplate(t, tpl, scalars, 11, sim.Desktop(), rt.Options{Reference: true})
		r, got, _ := runSpecTemplate(t, tpl, scalars, 11, sim.Desktop(), rt.Options{})
		if err := tiled(r.SpecStats()); err != nil {
			t.Fatal(err)
		}
		x, y, want, q := ref.Arrays[0].F32, ref.Arrays[2].F64, ref.Arrays[1].F32, got.Arrays[1].F32
		nans, moved := 0, 0
		for k := range want {
			both := x[k] != x[k] && y[k] != y[k]
			if both {
				nans++
			}
			switch {
			case math.Float32bits(want[k]) == math.Float32bits(q[k]):
			case both && q[k] != q[k]:
				moved++
			default:
				t.Fatalf("q_[%d]: interpreter %#08x, tiles %#08x", k, math.Float32bits(want[k]), math.Float32bits(q[k]))
			}
		}
		t.Logf("%d of %d NaN + NaN lanes kept the other operand's payload", moved, nans)
	})
}

// FuzzSpecializedVsInterp lets the fuzzer explore (template, shape,
// content) triples; specialization must never move a single bit.
func FuzzSpecializedVsInterp(f *testing.F) {
	for ti := range specTemplates {
		f.Add(ti, int64(42))
	}
	f.Fuzz(func(t *testing.T, ti int, seed int64) {
		ti = ((ti % len(specTemplates)) + len(specTemplates)) % len(specTemplates)
		tpl := specTemplates[ti]
		rng := rand.New(rand.NewSource(seed))
		checkSpecDiff(t, tpl, tpl.scalars(rng), seed^0x5eed)
	})
}

// TestSafetyFallbackErrorText is the other half of the range and
// reduction safety templates: when the offending access does execute,
// the chunk the fast path declined fails on the interpreter with the
// interpreter's own diagnostic, word for word what Reference
// reports.
func TestSafetyFallbackErrorText(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"range", `
int n;
int in_[n], out_[n];
void main() {
    int i;
    #pragma acc localaccess(in_) stride(1)
    #pragma acc localaccess(out_) stride(1)
    #pragma acc parallel loop
    for (i = 0; i < n - 1; i++) {
        out_[i] = in_[i + 1];
    }
}
`, "in_"},
		{"reduction", `
int n;
int in_[n], hist_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: hist_[i + 1])
        hist_[i + 1] += in_[i];
    }
}
`, "index out of range [1000]"},
		{"gather", `
int n;
int nb_[n];
float pos_[4 * n], x_[n], d_[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        int j;
        float p, dx;
        p = x_[i];
        j = nb_[i];
        dx = p - pos_[4 * j];
        d_[i] = dx;
    }
}
`, "pos_"},
	} {
		tpl := specTemplate{name: "error-" + tc.name, src: tc.src}
		scalars := map[string]float64{"n": 1000}
		_, _, refErr := runSpecTemplate(t, tpl, scalars, 7, sim.Desktop(), rt.Options{Reference: true})
		_, _, err := runSpecTemplate(t, tpl, scalars, 7, sim.Desktop(), rt.Options{})
		if refErr == nil || err == nil || err.Error() != refErr.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s:\n  specialized: %v\n  interpreter: %v\n  want the same error, mentioning %q", tc.name, err, refErr, tc.want)
		}
	}
}
