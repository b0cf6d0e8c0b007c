package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A workload is a fixed sequence of rounds repeated until the time
// budget is spent. A round is one op for the single-client workloads
// and one pass over the seeded request shuffle for serve_mixed. Every
// op is one complete user-visible unit; run times each op and nothing
// else, prepare and verify work outside the timed interval.
type workload interface {
	// prepare makes the round's fresh inputs.
	prepare() error
	// run executes the round and appends one latency per completed op.
	run(lat []time.Duration) []time.Duration
	// runTraced is run decomposed into calls on the layers' public
	// functions, each inside a span of log.
	runTraced(log *spanLog, lat []time.Duration) []time.Duration
	// verify checks the round's outputs against the expected ones and
	// returns how many ops it attempted and how many of them failed.
	verify() (attempted, failed int, firstErr error)
	// extras runs the variants that only the traced pass measures
	// (tracer attached, auditor attached, direct cache probes) and
	// returns the per-layer metrics they and the spans yield.
	extras(log *spanLog, lm layerMetrics) error
	// simStats returns, per program row, the simulated statistics of
	// every run the last round made, for the determinism self-check.
	simStats() map[string]string
	hooks() *testHooks
}

// testHooks are the switches main_test.go reaches a workload through.
type testHooks struct {
	// corrupt spoils what verify compares against.
	corrupt bool
	// quick repeats each traced variant once.
	quick bool
}

func (h *testHooks) hooks() *testHooks { return h }

// buildOptions are what a set-up is made from.
type buildOptions struct {
	seed int64
	// quick warms up with a single round (main_test.go).
	quick bool
}

// repeats is n, or 1 under the tests' quick hook: the number of warm-up
// rounds of a set-up and of repetitions of a traced variant.
func repeats(quick bool, n int) int {
	if quick {
		return 1
	}
	return n
}

// workloadSpec names a workload and builds it from a seed. build is
// the whole set-up: inputs, expected outputs, the warm-up rounds.
type workloadSpec struct {
	name, why string
	// share is how much of the reference loop's slow-down the workload's
	// ops share (refloop.go, hostFactor): the slope of log op time on log
	// loop time over runs spanning quiet and disturbed stretches of the
	// reference box (README, "Noise on the reference box").
	share float64
	build func(buildOptions) (workload, error)
}

// sample is one reading of every host clock and counter a measured
// interval is charged against.
type sample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func takeSample() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	metrics.Read(allocMetric)
	return sample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocMetric[0].Value.Uint64(),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passResult is what one measured pass (traced or not) yields.
type passResult struct {
	// lat is every op's latency as the clock read it; adj is the same in
	// ms with its round's host factor divided out, and wallAdj and cpuAdj
	// are the rounds' measured wall and CPU time, corrected likewise.
	lat             []time.Duration
	adj             []float64
	wallAdj, cpuAdj float64 // seconds
	// slowdowns is every round's hostSlowdown, for the record.
	slowdowns         []float64
	allocBytes        uint64
	rounds            int
	attempted, failed int
	firstErr          error
	// simSeen collects, per program row, the distinct simulated
	// statistics tuples seen across ops (one when deterministic).
	simSeen map[string]map[string]int
}

// runPass repeats rounds until budget has elapsed on the wall clock,
// untimed preparation and verification included, so that a run's
// length does not depend on how fast the code under test is.
func runPass(w workload, share float64, budget time.Duration, log *spanLog) (*passResult, error) {
	res := &passResult{simSeen: map[string]map[string]int{}}
	deadline := time.Now().Add(budget)
	for res.rounds == 0 || time.Now().Before(deadline) {
		if err := w.prepare(); err != nil {
			return nil, err
		}
		ref0 := refLoop()
		s0, ops0 := takeSample(), len(res.lat)
		if log != nil {
			res.lat = w.runTraced(log, res.lat)
		} else {
			res.lat = w.run(res.lat)
		}
		s1 := takeSample()
		slowdown := hostSlowdown(ref0, refLoop())
		slow := hostFactor(slowdown, share)
		res.slowdowns = append(res.slowdowns, slowdown)
		for _, d := range res.lat[ops0:] {
			res.adj = append(res.adj, ms(d)/slow)
		}
		res.wallAdj += s1.wall.Sub(s0.wall).Seconds() / slow
		res.cpuAdj += (s1.cpu - s0.cpu).Seconds() / slow
		res.allocBytes += s1.alloc - s0.alloc
		res.rounds++
		att, failed, err := w.verify()
		res.attempted += att
		res.failed += failed
		if err != nil && res.firstErr == nil {
			res.firstErr = err
		}
		for row, tuple := range w.simStats() {
			if res.simSeen[row] == nil {
				res.simSeen[row] = map[string]int{}
			}
			res.simSeen[row][tuple]++
		}
	}
	return res, nil
}

// simDistinct is the largest number of distinct simulated-statistics
// tuples any one program row produced, and the rows that produced more
// than one.
func (r *passResult) simDistinct() (int, []string) {
	most := 0
	var offenders []string
	for row, seen := range r.simSeen {
		if len(seen) > most {
			most = len(seen)
		}
		if len(seen) > 1 {
			offenders = append(offenders, fmt.Sprintf("%s: %d distinct tuples", row, len(seen)))
		}
	}
	sort.Strings(offenders)
	return most, offenders
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd turns an untraced pass and the run's set-ups (seconds,
// host factor divided out) into the end-to-end metrics.
func endToEnd(r *passResult, setups []float64) map[string]float64 {
	ops := float64(len(r.lat))
	return map[string]float64{
		"setup_s":         medianF(setups),
		"op_ms_p50":       medianF(r.adj),
		"ops_per_s":       ops / r.wallAdj,
		"cpu_ms_per_op":   1e3 * r.cpuAdj / ops,
		"alloc_mb_per_op": float64(r.allocBytes) / 1e6 / ops,
	}
}

// benchProcs is the GOMAXPROCS every run is pinned to. The reference
// box is a 2-vCPU guest on a shared host: with both vCPUs in use the
// same code's op_ms_p50 spreads 9 to 23 % from run to run, with one it
// spreads 2 to 5 % (README, "Noise on the reference box"). A benchmark
// that cannot repeat cannot judge a change, so the runs use one
// processor and measure work done, not how well the host schedules the
// second vCPU. It also makes BFS's simulated counters repeat (README,
// "Determinism self-check").
const benchProcs = 1

func pinProcs() int {
	runtime.GOMAXPROCS(benchProcs)
	return benchProcs
}
