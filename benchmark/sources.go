package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The OpenACC C programs the benchmark generates itself, and the
// plain-Go references their outputs are checked against. The stencil
// and pipeline sources are copies of the ones internal/bench uses, kept
// here so that the benchmark does not move when those harnesses do.

// replStencilSrc is the replicated ping-pong stencil: no localaccess,
// so both arrays replicate across GPUs and every launch runs the
// two-level dirty-bit diff/apply and the replica relay.
const replStencilSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc parallel loop gang vector
            for (i = 1; i < n - 1; i++) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
            #pragma acc parallel loop gang vector
            for (i = 1; i < n - 1; i++) {
                a[i] = b[i];
            }
        }
    }
}
`

// distStencilSrc is the same stencil under distribution-based
// placement: localaccess halos, so each GPU holds its partition plus
// one ghost cell per side and every step exchanges halos.
const distStencilSrc = `
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
`

// vetBadSrc compiles but reads outside its declared localaccess
// footprint: accvet rejects it (ACCV001), accd answers 422.
const vetBadSrc = `
int n;
float a[n];
float b[n];

void main() {
    int i;
    #pragma acc data copy(a, b)
    {
        #pragma acc parallel loop
        #pragma acc localaccess(b) stride(1)
        for (i = 0; i < n; i++) {
            a[i] = b[i + 1];
        }
    }
}
`

// noParseSrc does not parse; accd answers 422 compile_error.
const noParseSrc = "int n void main() { }"

// pipelineSrc builds a k-kernel pipeline over tiny arrays: kernel j
// computes a<j> = a<j-1> * mul[j-1] + add[j-1], so parse, translate
// and vet all scale with k while a run stays trivial.
func pipelineSrc(k int, mul, add []float64) string {
	var b strings.Builder
	b.WriteString("int n;\nfloat a0[n]")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ", a%d[n]", i)
	}
	b.WriteString(";\n\nvoid main() {\n    int i;\n")
	fmt.Fprintf(&b, "    #pragma acc data copyin(a0) copyout(a%d)", k)
	if k > 1 {
		b.WriteString(" create(a1")
		for i := 2; i < k; i++ {
			fmt.Fprintf(&b, ", a%d", i)
		}
		b.WriteString(")")
	}
	b.WriteString("\n    {\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i-1)
		fmt.Fprintf(&b, "        #pragma acc localaccess(a%d) stride(1)\n", i)
		b.WriteString("        #pragma acc parallel loop\n")
		b.WriteString("        for (i = 0; i < n; i++) {\n")
		fmt.Fprintf(&b, "            a%d[i] = a%d[i] * %.2f + %.2f;\n", i, i-1, mul[i-1], add[i-1])
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// pipelineCoefs draws the k (mul, add) pairs of one pipeline, rounded
// to the two decimals pipelineSrc prints so that pipelineRef computes
// with the constants the program sees.
func pipelineCoefs(rng *rand.Rand, k int) (mul, add []float64) {
	mul, add = make([]float64, k), make([]float64, k)
	for i := range mul {
		mul[i] = float64(25+rng.Intn(100)) / 100
		add[i] = float64(rng.Intn(400)) / 100
	}
	return mul, add
}

// pipelineRef is the pipeline's final array computed in plain Go: the
// program evaluates in double and stores to float at every stage.
func pipelineRef(a0 []float32, mul, add []float64) []float32 {
	out := append([]float32(nil), a0...)
	for j := range mul {
		for i, v := range out {
			out[i] = float32(float64(float64(v)*mul[j]) + add[j])
		}
	}
	return out
}

// stencilInput is the seeded initial state of a stencil run.
func stencilInput(rng *rand.Rand, n int) []float32 {
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(rng.Intn(4096)) * 0.25
	}
	return a
}

// stencilRef runs the three-point ping-pong stencil in plain Go. The
// replicated and the distributed program compute the same function:
// interior cells smooth, the two boundary cells keep their value. The
// explicit conversions pin the rounding to what the C program does
// (double arithmetic, one rounding to float per store) and forbid a
// fused multiply-add.
func stencilRef(a0 []float32, steps int) []float32 {
	n := len(a0)
	a := append([]float32(nil), a0...)
	b := append([]float32(nil), a0...)
	for t := 0; t < steps; t++ {
		for i := 1; i < n-1; i++ {
			b[i] = float32(float64(0.25*float64(a[i-1])) + float64(0.5*float64(a[i])) + float64(0.25*float64(a[i+1])))
		}
		a, b = b, a
	}
	return a
}

func equalF32(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("element %d = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}
