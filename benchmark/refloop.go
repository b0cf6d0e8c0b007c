package main

import (
	"math"
	"time"
)

// The reference loop is how a run sees the state of the box it runs on.
// The reference box is a guest whose cores share their execution units
// with other guests' threads: for seconds to minutes at a time the same
// code runs 1.5 to 1.8 times slower, CPU time included, and a stretch
// can outlast a run (README, "Noise on the reference box"). No statistic
// over the ops alone can tell that from a slower program. The loop is a
// fixed piece of ordinary Go (map lookups, branches, float arithmetic on
// a slice in L1) that uses nothing of the code under test; it is timed
// before and after every round, and the round's times are divided by
// the share the workload's ops take of the loop's slow-down beside them.

// refLoopQuiet is what one pass of the loop takes on the reference box
// when nothing disturbs it. It only fixes the scale: on another box
// every time metric is off by one constant factor, the same for two
// commits measured there.
const refLoopQuiet = 285 * time.Microsecond

var (
	refMap = func() map[int]int {
		m := make(map[int]int, 512)
		for i := 0; i < 512; i++ {
			m[i*7919] = i
		}
		return m
	}()
	refVec  = make([]float64, 2048)
	refSink float64
)

func refLoopPass() time.Duration {
	t0 := time.Now()
	var s int
	var f float64
	for p := 0; p < 48; p++ {
		for i := 0; i < 512; i++ {
			if v := refMap[i*7919]; v&1 == 0 {
				s += v
			} else {
				s -= v >> 1
			}
		}
		for i := range refVec {
			refVec[i] = refVec[i]*0.5 + float64(i&7)
			if refVec[i] > 3 {
				f += refVec[i]
			}
		}
	}
	refSink += f + float64(s)
	return time.Since(t0)
}

// refLoop times the loop: three passes, the first discarded (the round
// before it left the caches cold), the faster of the other two kept (a
// collector slice or an interrupt lands on one pass, not both).
func refLoop() time.Duration {
	refLoopPass()
	a, b := refLoopPass(), refLoopPass()
	return min(a, b)
}

// hostSlowdown is how many times slower than on the quiet box the loop
// ran before and after an interval.
func hostSlowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refLoopQuiet)
}

// hostFactor is the factor by which the box slowed an interval of a
// workload's ops, given the loop's slow-down beside it. The loop is bound
// by instruction throughput, which a busy sibling thread halves; ops
// also wait on memory, which it does not slow, so they share only part
// of the slow-down: share is the exponent fitted for the workload
// (workloadSpec.share).
func hostFactor(slowdown, share float64) float64 { return math.Pow(slowdown, share) }
